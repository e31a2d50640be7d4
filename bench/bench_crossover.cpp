// Experiment E10 — crossover curves.
//
// The paper's introduction motivates calibration sharing; where it pays
// depends on two knobs the theory identifies:
//   * window slack (tight windows -> forced spread -> per-job is fine;
//     loose windows -> jobs can be herded into few calibrations), and
//   * work density over the horizon (sparse horizons punish the
//     always-calibrated policy; dense ones favor it).
// This bench sweeps both knobs and prints the calibration counts of the
// combined solver (paper-faithful and optimized) against the baselines,
// exposing the crossover points. Series are deterministic (fixed seeds,
// averaged over 3 instances per point).
#include "baselines/baseline.hpp"
#include "baselines/calibration_bounds.hpp"
#include "calib/greedy_cost.hpp"
#include "gen/generators.hpp"
#include "harness.hpp"
#include "solver/ise_solver.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace {

using namespace calisched;

/// Builds n jobs whose windows have `slack` extra time units beyond p.
Instance slack_instance(std::uint64_t seed, int n, Time T, int machines,
                        Time horizon, Time slack) {
  Rng rng(seed);
  Instance instance;
  instance.machines = machines;
  instance.T = T;
  for (JobId j = 0; j < n; ++j) {
    const Time proc = rng.uniform_int(1, std::max<Time>(1, T / 2));
    const Time window = proc + slack;
    const Time release = rng.uniform_int(0, std::max<Time>(0, horizon - window));
    instance.jobs.push_back({j, release, release + window, proc});
  }
  return instance;
}

struct PolicyCounts {
  bool ok = false;
  std::size_t paper = 0, optimized = 0, per_job = 0;
  std::size_t saturate = 0, lazy = 0;
  bool saturate_ok = false, lazy_ok = false;
  std::int64_t lb = 0;
};

PolicyCounts run_policies(const Instance& instance) {
  PolicyCounts counts;
  counts.lb = calibration_lower_bound(instance);
  const IseSolveResult paper = solve_ise(instance);
  if (!paper.feasible || !verify_ise(instance, paper.schedule).ok()) {
    return counts;
  }
  IseSolverOptions optimized_options;
  optimized_options.long_window.adaptive_mirror = true;
  optimized_options.long_window.prune_empty_calibrations = true;
  optimized_options.short_window.trim_unused_calibrations = true;
  const IseSolveResult optimized = solve_ise(instance, optimized_options);
  if (!optimized.feasible || !verify_ise(instance, optimized.schedule).ok()) {
    return counts;
  }
  counts.ok = true;
  counts.paper = paper.total_calibrations;
  counts.optimized = optimized.total_calibrations;
  counts.per_job = PerJobCalibration().solve(instance).schedule.num_calibrations();
  const BaselineResult saturate = SaturateCalibration().solve(instance);
  counts.saturate_ok = saturate.feasible;
  if (saturate.feasible) {
    counts.saturate = saturate.schedule.num_calibrations();
  }
  const GreedyCostResult lazy = solve_greedy_cost(instance);
  counts.lazy_ok = lazy.feasible && verify_ise(instance, lazy.schedule).ok();
  if (counts.lazy_ok) counts.lazy = lazy.schedule.num_calibrations();
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E10", "crossover curves (who wins where)", argc, argv);

  // ---- knob 1: window slack ---------------------------------------------------
  Table& slack_table = bench.table(
      "slack", {"slack/T", "LB", "paper", "optimized", "greedy-lazy",
                "per-job", "saturate", "optimized-winner"});
  const Time T = 10;
  for (const Time slack : {Time{2}, Time{5}, Time{10}, Time{20}, Time{40}}) {
    std::size_t paper = 0, optimized = 0, per_job = 0, saturate = 0, lazy = 0;
    std::int64_t lb = 0;
    int samples = 0, lazy_samples = 0;
    bool saturate_all = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Instance instance =
          slack_instance(seed * 11, /*n=*/30, T, /*machines=*/3,
                         /*horizon=*/12 * T, slack);
      const PolicyCounts counts = run_policies(instance);
      if (!counts.ok) continue;
      ++samples;
      paper += counts.paper;
      optimized += counts.optimized;
      per_job += counts.per_job;
      lb += counts.lb;
      if (counts.saturate_ok) {
        saturate += counts.saturate;
      } else {
        saturate_all = false;
      }
      if (counts.lazy_ok) {
        lazy += counts.lazy;
        ++lazy_samples;
      }
    }
    if (samples == 0) continue;
    const std::size_t opt_avg = optimized / samples;
    const std::size_t pj_avg = per_job / samples;
    const char* winner =
        opt_avg <= pj_avg && (!saturate_all || opt_avg <= saturate / samples)
            ? "optimized"
        : saturate_all && saturate / samples < pj_avg ? "saturate"
                                                      : "per-job";
    slack_table.row()
        .cell(static_cast<double>(slack) / static_cast<double>(T), 1)
        .cell(lb / samples)
        .cell(paper / samples)
        .cell(opt_avg)
        .cell(lazy_samples ? std::to_string(lazy / lazy_samples)
                           : std::string("-"))
        .cell(pj_avg)
        .cell(saturate_all ? std::to_string(saturate / samples)
                           : std::string("(infeasible)"))
        .cell(winner);
  }
  bench.print_table("slack",
                    "window-slack sweep (n=30, T=10, m=3, horizon=12T; avg "
                    "of 3 seeds)");

  // ---- knob 2: horizon (work density) ----------------------------------------
  Table& density_table = bench.table(
      "density", {"horizon/T", "LB", "optimized", "per-job", "saturate",
                  "optimized-winner"});
  for (const Time horizon_factor :
       {Time{4}, Time{8}, Time{16}, Time{32}, Time{64}}) {
    std::size_t optimized = 0, per_job = 0, saturate = 0;
    std::int64_t lb = 0;
    int samples = 0;
    bool saturate_all = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Instance instance =
          slack_instance(seed * 13 + 7, /*n=*/30, T, /*machines=*/3,
                         horizon_factor * T, /*slack=*/15);
      const PolicyCounts counts = run_policies(instance);
      if (!counts.ok) continue;
      ++samples;
      optimized += counts.optimized;
      per_job += counts.per_job;
      lb += counts.lb;
      if (counts.saturate_ok) {
        saturate += counts.saturate;
      } else {
        saturate_all = false;
      }
    }
    if (samples == 0) continue;
    const std::size_t opt_avg = optimized / samples;
    const std::size_t pj_avg = per_job / samples;
    const char* winner =
        opt_avg <= pj_avg && (!saturate_all || opt_avg <= saturate / samples)
            ? "optimized"
        : saturate_all && saturate / samples < pj_avg ? "saturate"
                                                      : "per-job";
    density_table.row()
        .cell(static_cast<std::int64_t>(horizon_factor))
        .cell(lb / samples)
        .cell(opt_avg)
        .cell(pj_avg)
        .cell(saturate_all ? std::to_string(saturate / samples)
                           : std::string("(infeasible)"))
        .cell(winner);
  }
  bench.print_table("density",
                    "work-density sweep (n=30, T=10, m=3, slack=1.5T; avg "
                    "of 3 seeds)");
  bench.note(
      "Shape to expect: saturate wins only the densest horizons; per-job "
      "wins very tight windows; the solver's advantage grows with slack "
      "(more herding freedom) and with horizon length (idle stretches "
      "saturate must still pay for).");
  return bench.finish();
}
