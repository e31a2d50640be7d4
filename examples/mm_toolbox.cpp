// MM toolbox tour: the machine-minimization black boxes behind Theorem 20,
// their lower bounds, speed augmentation, and the Section-1 reduction.
//
// The paper treats MM algorithms as interchangeable black boxes; this
// example runs all of them on one workload so their trade-offs are visible:
//   greedy-edf    polynomial, no guarantee, usually near-exact
//   lp-rounding   start-time LP + randomized rounding (Raghavan-Thompson)
//   exact-state   exponential reference (layered state-space search)
//   speed2x(...)  Theorem 1's s-speed augmentation
// and closes the loop with mm_via_ise: solving MM *through* the ISE solver
// (T = span), the direction the paper uses for hardness.
//
//   ./mm_toolbox [--seed N] [--n N]
#include <cmath>
#include <iostream>
#include <memory>

#include "gen/generators.hpp"
#include "mm/lower_bounds.hpp"
#include "mm/lp_bound.hpp"
#include "mm/lp_rounding_mm.hpp"
#include "mm/mm.hpp"
#include "solver/mm_via_ise.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "verify/verify.hpp"

int main(int argc, char** argv) {
  using namespace calisched;
  const CliArgs args(argc, argv);

  GenParams params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 21));
  params.n = static_cast<int>(args.get_int("n", 12));
  params.T = 10;
  params.machines = 3;
  params.horizon = 60;
  params.max_proc = 8;
  const Instance instance = generate_short_window(params);

  std::cout << "Workload: " << instance.size() << " jobs over ["
            << instance.min_release() << ", " << instance.max_deadline()
            << "), total work " << instance.total_work() << "\n\n";

  std::cout << "Lower bounds on machines:\n"
            << "  combinatorial (interval load) : " << mm_lower_bound(instance)
            << '\n';
  if (const auto lp = mm_lp_bound(instance)) {
    std::cout << "  preemptive LP                 : " << format_double(*lp, 3)
              << '\n';
  }
  if (const auto lp = mm_start_time_lp_bound(instance)) {
    std::cout << "  start-time LP                 : " << format_double(*lp, 3)
              << "  (certified bound " << std::ceil(*lp - 1e-6) << ")\n";
  }
  std::cout << '\n';

  Table table({"box", "machines", "speed", "verified"});
  const auto greedy = std::make_shared<GreedyEdfMM>();
  const auto rounding = std::make_shared<LpRoundingMM>();
  const auto exact = std::make_shared<ExactMM>();
  const auto fast = std::make_shared<SpeedupMM>(exact, 2);
  for (const auto& box :
       {std::static_pointer_cast<const MachineMinimizer>(greedy),
        std::static_pointer_cast<const MachineMinimizer>(rounding),
        std::static_pointer_cast<const MachineMinimizer>(exact),
        std::static_pointer_cast<const MachineMinimizer>(fast)}) {
    const MMResult result = box->minimize(instance);
    if (!result.feasible) {
      std::cerr << box->name() << " failed\n";
      return 1;
    }
    const VerifyResult check = verify_mm(instance, result.schedule);
    if (!check.ok()) {
      std::cerr << box->name() << " verification failed!\n" << check.to_string();
      return 1;
    }
    table.row()
        .cell(result.algorithm)
        .cell(std::int64_t{result.schedule.machines})
        .cell(result.schedule.speed)
        .cell(true);
  }
  table.print(std::cout, "MM black boxes on the same workload");

  // --- the Section-1 reduction in reverse ------------------------------------
  const MmViaIseResult reduced = mm_via_ise(instance);
  if (!reduced.feasible) {
    std::cerr << "mm_via_ise failed: " << reduced.error << '\n';
    return 1;
  }
  if (!verify_mm(instance, reduced.schedule).ok()) {
    std::cerr << "mm_via_ise verification failed\n";
    return 1;
  }
  std::cout << "\nmm_via_ise (T = span, one machine per calibration): "
            << reduced.schedule.machines
            << " machines — the reduction is about hardness, not quality; "
               "it inherits the ISE pipeline's constant factors.\n";
  return 0;
}
