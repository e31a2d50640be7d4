// Experiment E8 — scalability.
//
// Timing series for the components the paper's Theorem 1 multiplies
// together: the TISE LP build+solve (dominant), the rounding + EDF steps,
// the short-window MM reduction, and the combined solver; plus batch
// throughput over the thread pool (instances solved in parallel).
//
// Timing protocol: each configuration is solved once to pick a repetition
// count that fits a ~300 ms budget, then re-run best-of-reps on the steady
// clock. Best-of (not mean) is the standard estimator for a quiet machine;
// the JSON record keeps the rep count alongside each row.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "calib/greedy_cost.hpp"
#include "gen/generators.hpp"
#include "harness.hpp"
#include "longwin/long_pipeline.hpp"
#include "longwin/tise_lp.hpp"
#include "lp/perf_counters.hpp"
#include "mm/lp_rounding_mm.hpp"
#include "mm/mm.hpp"
#include "shortwin/short_pipeline.hpp"
#include "solver/ise_solver.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace calisched;

/// Keeps results observable so the optimizer cannot delete timed work.
volatile double g_sink = 0.0;

GenParams scaling_params(int n, std::uint64_t seed) {
  GenParams params;
  params.seed = seed;
  params.n = n;
  params.T = 10;
  params.machines = 2;
  params.horizon = 10 * params.T;
  params.max_proc = 10;
  return params;
}

struct Timing {
  double best_ms = std::numeric_limits<double>::infinity();
  int reps = 0;
};

/// One calibration call sizes the repetition count for a ~300 ms budget,
/// then best-of-reps.
template <typename Fn>
Timing measure(Fn&& fn) {
  constexpr double kBudgetMs = 300.0;
  const auto once = [&] {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                   .count()) /
           1e6;
  };
  Timing timing;
  const double first = once();
  timing.best_ms = first;
  const int reps = first > 0.0
                       ? static_cast<int>(std::clamp(kBudgetMs / first, 1.0, 25.0))
                       : 25;
  for (int i = 0; i < reps; ++i) timing.best_ms = std::min(timing.best_ms, once());
  timing.reps = reps + 1;
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E8", "Scalability: per-component timing series", argc,
                     argv);

  Table& table = bench.table(
      "scaling", {"series", "n", "reps", "best-ms", "detail"});
  bool all_finite = true;
  const auto record = [&](const std::string& series, int n,
                          const Timing& timing, const std::string& detail) {
    all_finite = all_finite && std::isfinite(timing.best_ms);
    table.row().cell(series).cell(n).cell(timing.reps).cell(timing.best_ms, 3)
        .cell(detail.empty() ? "-" : detail);
  };

  // --- TISE LP build+solve (the dominant long-window cost) ---------------
  for (const int n : {6, 12, 18, 24}) {
    const Instance instance = generate_long_window(scaling_params(n, 42));
    TiseFractional fractional;
    const LpPerfCounters lp_before = lp_perf_snapshot();
    const auto lp_start = std::chrono::steady_clock::now();
    const Timing timing = measure([&] {
      fractional = solve_tise_lp(instance, 3 * instance.machines);
      g_sink = fractional.objective;
    });
    const double lp_total_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - lp_start)
                .count()) /
        1e6;
    // Rows only, no gated metrics: measure() picks its repetition count
    // from the first timing, so the *totals* here are machine-dependent
    // even though per-solve work is deterministic. The rates are what the
    // sweep is for — how pivots/s holds up as n grows.
    const LpPerfCounters lp_delta = lp_perf_snapshot() - lp_before;
    bench.lp_counters("tise_n" + std::to_string(n), lp_delta, lp_total_ms,
                      /*record_metrics=*/false);
    if (n == 24 && lp_total_ms > 0.0) {
      bench.metric("tise_n24_pivots_per_s",
                   static_cast<double>(lp_delta.pivots) /
                       (lp_total_ms / 1e3));
    }
    record("tise_lp_solve", n, timing,
           "pivots=" + std::to_string(fractional.pivots) +
               " lp_rows=" + std::to_string(fractional.lp_rows));
  }

  // --- full long-window pipeline (LP + rounding + EDF) -------------------
  for (const int n : {6, 12, 18, 24}) {
    const Instance instance = generate_long_window(scaling_params(n, 43));
    const Timing timing = measure([&] {
      const LongWindowResult result = solve_long_window(instance);
      g_sink = static_cast<double>(result.telemetry.total_calibrations);
    });
    record("long_pipeline", n, timing, "");
  }

  // --- short-window pipeline with the greedy MM --------------------------
  for (const int n : {20, 60, 120, 240}) {
    const Instance instance = generate_short_window(scaling_params(n, 44));
    const GreedyEdfMM mm;
    const Timing timing = measure([&] {
      const ShortWindowResult result = solve_short_window(instance, mm);
      g_sink = static_cast<double>(result.telemetry.total_calibrations);
    });
    record("short_pipeline_greedy", n, timing, "");
  }

  // --- end-to-end solver on mixed instances ------------------------------
  for (const int n : {8, 16, 24}) {
    const Instance instance = generate_mixed(scaling_params(n, 45), 0.5);
    const Timing timing = measure([&] {
      const IseSolveResult result = solve_ise(instance);
      g_sink = static_cast<double>(result.total_calibrations);
    });
    record("end_to_end", n, timing, "");
  }

  // --- batch throughput: thread pool vs serial loop ----------------------
  double parallel_items_per_s = 0.0;
  double serial_items_per_s = 0.0;
  for (const std::size_t batch : {std::size_t{8}, std::size_t{32}}) {
    std::vector<Instance> instances;
    instances.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      instances.push_back(generate_mixed(scaling_params(10, 100 + i), 0.5));
    }
    const Timing parallel_timing = measure([&] {
      parallel_for(default_pool(), batch, [&](std::size_t i) {
        const IseSolveResult result = solve_ise(instances[i]);
        g_sink = static_cast<double>(result.total_calibrations);
      });
    });
    const Timing serial_timing = measure([&] {
      for (std::size_t i = 0; i < batch; ++i) {
        const IseSolveResult result = solve_ise(instances[i]);
        g_sink = static_cast<double>(result.total_calibrations);
      }
    });
    parallel_items_per_s =
        static_cast<double>(batch) / (parallel_timing.best_ms / 1e3);
    serial_items_per_s =
        static_cast<double>(batch) / (serial_timing.best_ms / 1e3);
    record("batch_parallel", static_cast<int>(batch), parallel_timing,
           "items/s=" + format_double(parallel_items_per_s, 0));
    record("batch_serial", static_cast<int>(batch), serial_timing,
           "items/s=" + format_double(serial_items_per_s, 0));
  }

  // --- MM engines --------------------------------------------------------
  for (const int n : {8, 16, 24}) {
    GenParams params = scaling_params(n, 47);
    params.max_proc = 8;
    const Instance instance = generate_short_window(params);
    const LpRoundingMM mm;
    const Timing timing = measure([&] {
      const MMResult result = mm.minimize(instance);
      g_sink = static_cast<double>(result.schedule.machines);
    });
    record("lp_rounding_mm", n, timing, "");
  }
  for (const int n : {6, 9, 12}) {
    GenParams params = scaling_params(n, 46);
    params.max_proc = 6;
    const Instance instance = generate_short_window(params);
    const ExactMM mm;
    const Timing timing = measure([&] {
      const MMResult result = mm.minimize(instance);
      g_sink = static_cast<double>(result.schedule.machines);
    });
    record("exact_mm", n, timing, "");
  }

  // --- greedy-lazy baseline ----------------------------------------------
  for (const int n : {20, 80, 160}) {
    GenParams params = scaling_params(n, 48);
    params.machines = 8;             // roomy enough that the heuristic
    params.horizon = 40 * params.T;  // actually completes its schedule
    const Instance instance = generate_mixed(params, 0.5);
    bool feasible = false;
    const Timing timing = measure([&] {
      const GreedyCostResult result = solve_greedy_cost(instance);
      feasible = result.feasible;
      g_sink = result.feasible ? 1.0 : 0.0;
    });
    record("greedy_lazy_ise", n, timing,
           feasible ? "feasible" : "infeasible");
  }

  bench.print_table("scaling",
                    "best-of-reps wall time per component (T=10, m=2)");
  bench.print_table("lp_counters",
                    "TISE LP work counters per sweep point (all reps)");
  bench.metric("batch32_parallel_items_per_s", parallel_items_per_s);
  bench.metric("batch32_serial_items_per_s", serial_items_per_s);
  bench.metric("batch32_parallel_speedup",
               serial_items_per_s > 0.0
                   ? parallel_items_per_s / serial_items_per_s
                   : 0.0);
  bench.check("all timings finite", all_finite);
  // 4 tise + 4 long + 4 short + 3 end-to-end + 4 batch (2 sizes x
  // parallel/serial) + 3 lp-rounding + 3 exact + 3 greedy-lazy.
  bench.check("every series recorded", table.row_count() == 28);
  bench.note(
      "The TISE LP dominates long-window cost and the series bounds how "
      "instance size n translates into wall time for each pipeline stage; "
      "batch rows compare thread-pool throughput against a serial loop over "
      "the same instances.");
  return bench.finish();
}
