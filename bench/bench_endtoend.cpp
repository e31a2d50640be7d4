// Experiment E4 — Theorem 1: the combined solver on mixed instances.
//
// Sweeps mixtures of long- and short-window jobs, compares the solver's
// calibration count against the combinatorial lower bound and the naive
// baselines, and reports where each policy wins. Three regimes:
//   sparse  - few jobs per window; per-job calibration is near-optimal and
//             the pipeline's constant factors dominate;
//   dense   - many jobs share each window over a short horizon; the
//             always-calibrated baseline's span-driven cost is cheap there;
//   bursty  - work clustered into waves across a long horizon; sharing
//             calibrations inside each wave is the regime the ISE
//             objective is designed for.
#include <string_view>

#include "baselines/baseline.hpp"
#include "baselines/calibration_bounds.hpp"
#include "calib/greedy_cost.hpp"
#include "baselines/ise_lp_bound.hpp"
#include "gen/generators.hpp"
#include "harness.hpp"
#include "solver/ise_solver.hpp"
#include "verify/verify.hpp"

int main(int argc, char** argv) {
  using namespace calisched;
  BenchHarness bench("E4", "end-to-end solver (Theorem 1) vs baselines", argc,
                     argv);

  struct Case {
    const char* regime;
    int n;
    Time horizon_factor;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back({"sparse", 12, 20, seed});
    cases.push_back({"dense", 40, 6, seed});
    cases.push_back({"dense", 60, 5, seed});
    // bursty: long horizon, work clustered into a few waves — the regime
    // the ISE objective is about: keep machines calibrated only near work.
    cases.push_back({"bursty", 48, 60, seed});
  }

  struct Row {
    Case c;
    std::int64_t lb = 0;
    std::size_t ours = 0, per_job = 0;
    bool ours_ok = false, saturate_ok = false;
    std::size_t saturate = 0;
    std::size_t lazy = 0;
    bool lazy_ok = false;
    bool verified = false;
  };
  std::vector<Row> rows(cases.size());
  bench.sweep(cases.size(), [&](std::size_t i) {
    GenParams params;
    params.seed = cases[i].seed;
    params.n = cases[i].n;
    params.T = 10;
    params.machines = 3;
    params.horizon = cases[i].horizon_factor * params.T;
    params.min_proc = 1;
    params.max_proc = 4;
    const Instance instance =
        std::string_view(cases[i].regime) == "bursty"
            ? generate_clustered(params, /*bursts=*/4, /*burst_span=*/params.T,
                                 /*long_windows=*/false)
            : generate_mixed(params, 0.5);
    Row& row = rows[i];
    row.c = cases[i];
    row.lb = ise_certified_bound(instance);

    const IseSolveResult ours = solve_ise(instance);
    if (ours.feasible) {
      row.ours_ok = true;
      row.ours = ours.total_calibrations;
      row.verified = verify_ise(instance, ours.schedule).ok();
    }
    const BaselineResult per_job = PerJobCalibration().solve(instance);
    row.per_job = per_job.schedule.num_calibrations();
    const BaselineResult saturate = SaturateCalibration().solve(instance);
    row.saturate_ok = saturate.feasible;
    if (saturate.feasible) row.saturate = saturate.schedule.num_calibrations();
    const GreedyCostResult lazy = solve_greedy_cost(instance);
    row.lazy_ok = lazy.feasible && verify_ise(instance, lazy.schedule).ok();
    if (row.lazy_ok) row.lazy = lazy.schedule.num_calibrations();
  });

  Table& table = bench.table(
      "regimes", {"regime", "n", "seed", "LB", "ours", "ours/LB",
                  "greedy-lazy", "per-job", "saturate", "winner", "verified"});
  for (const Row& row : rows) {
    if (!row.ours_ok) continue;
    bench.check(std::string(row.c.regime) + "-n" + std::to_string(row.c.n) +
                    "-seed" + std::to_string(row.c.seed) + "-verified",
                row.verified);
    const char* winner = row.ours <= row.per_job &&
                                 (!row.saturate_ok || row.ours <= row.saturate)
                             ? "ours"
                         : row.saturate_ok && row.saturate < row.per_job
                             ? "saturate"
                             : "per-job";
    table.row()
        .cell(row.c.regime)
        .cell(std::int64_t{row.c.n})
        .cell(static_cast<std::int64_t>(row.c.seed))
        .cell(row.lb)
        .cell(row.ours)
        .cell(static_cast<double>(row.ours) / static_cast<double>(row.lb), 2)
        .cell(row.lazy_ok ? std::to_string(row.lazy) : std::string("-"))
        .cell(row.per_job)
        .cell(row.saturate_ok ? std::to_string(row.saturate) : std::string("-"))
        .cell(winner)
        .cell(row.verified);
  }
  bench.print_table("regimes", "mixed instances, T=10, m=3, p in [1,4]");
  bench.note(
      "Expected shape: per-job wins sparse instances (n calibrations is "
      "near-optimal there); saturate wins short dense horizons (its cost is "
      "span-driven); the solver wins bursty long horizons, where sharing "
      "calibrations inside each wave beats both paying per job and paying "
      "per time slice. The unguaranteed greedy-lazy heuristic is "
      "near-optimal when it succeeds ('-' marks honest failures) — the "
      "provable pipeline's value is that it never wedges.");
  return bench.finish();
}
