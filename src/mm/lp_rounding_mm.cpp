#include "mm/lp_rounding_mm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "lp/simplex.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace calisched {
namespace {

struct StartTimeLp {
  LpModel model;
  /// Per job (instance order): (start time, column) pairs.
  std::vector<std::vector<std::pair<Time, int>>> start_columns;
};

std::optional<StartTimeLp> build_start_time_lp(const Instance& instance,
                                               Time max_slots) {
  const Time origin = instance.min_release();
  const Time horizon = instance.max_deadline();
  if (horizon - origin > max_slots) return std::nullopt;

  StartTimeLp built;
  LpModel& model = built.model;
  const int machines_var = model.add_variable("M", 1.0);
  std::vector<int> load_row(static_cast<std::size_t>(horizon - origin), -1);
  auto row_for_slot = [&](Time t) {
    auto& row = load_row[static_cast<std::size_t>(t - origin)];
    if (row < 0) {
      row = model.add_row("load@" + std::to_string(t), RowSense::kLe, 0.0);
      model.add_coefficient(row, machines_var, -1.0);
    }
    return row;
  };
  built.start_columns.resize(instance.size());
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const Job& job = instance.jobs[j];
    const int coverage = model.add_row("start@j" + std::to_string(job.id),
                                       RowSense::kEq, 1.0);
    for (Time s = job.release; s <= job.deadline - job.proc; ++s) {
      const int column = model.add_variable(
          "y@j" + std::to_string(job.id) + "s" + std::to_string(s), 0.0);
      model.add_coefficient(coverage, column, 1.0);
      for (Time t = s; t < s + job.proc; ++t) {
        model.add_coefficient(row_for_slot(t), column, 1.0);
      }
      built.start_columns[j].emplace_back(s, column);
    }
  }
  return built;
}

/// Interval-colors fixed job executions; returns the schedule (machines =
/// max overlap).
MMSchedule color_starts(const Instance& instance, const std::vector<Time>& starts) {
  struct Run {
    std::size_t job_index;
    Time start;
  };
  std::vector<Run> runs;
  runs.reserve(instance.size());
  for (std::size_t j = 0; j < instance.size(); ++j) {
    runs.push_back({j, starts[j]});
  }
  std::sort(runs.begin(), runs.end(), [&](const Run& a, const Run& b) {
    return a.start != b.start ? a.start < b.start
                              : instance.jobs[a.job_index].id <
                                    instance.jobs[b.job_index].id;
  });
  MMSchedule schedule;
  std::vector<Time> machine_free;
  for (const Run& run : runs) {
    const Job& job = instance.jobs[run.job_index];
    int machine = -1;
    for (std::size_t i = 0; i < machine_free.size(); ++i) {
      if (machine_free[i] <= run.start) {
        machine = static_cast<int>(i);
        break;
      }
    }
    if (machine < 0) {
      machine = static_cast<int>(machine_free.size());
      machine_free.push_back(std::numeric_limits<Time>::min());
    }
    machine_free[static_cast<std::size_t>(machine)] = run.start + job.proc;
    schedule.jobs.push_back({job.id, machine, run.start});
  }
  schedule.machines = static_cast<int>(machine_free.size());
  return schedule;
}

}  // namespace

std::optional<double> mm_start_time_lp_bound(const Instance& instance,
                                             Time max_slots,
                                             const SimplexOptions& lp) {
  // An already-expired limit answers before the (potentially large) LP
  // build, mirroring the entry checks of the MM boxes themselves.
  if (lp.limits.check() != SolveStatus::kOk) return std::nullopt;
  if (instance.empty()) return 0.0;
  auto built = build_start_time_lp(instance, max_slots);
  if (!built) return std::nullopt;
  const LpSolution solution = solve_lp(built->model, lp);
  if (solution.status != LpStatus::kOptimal) return std::nullopt;
  return solution.objective;
}

MMResult LpRoundingMM::solve(const Instance& instance, const RunLimits& limits,
                             TraceContext* trace) const {
  MMResult result;
  result.algorithm = name();
  if (instance.empty()) {
    result.feasible = true;
    result.schedule.machines = 0;
    return result;
  }
  auto built = build_start_time_lp(instance, options_.max_slots);
  std::optional<LpSolution> solution;
  if (built) {
    SimplexOptions lp_options;
    lp_options.limits = limits;
    // A caller trace gets the LP telemetry as an "lp" child.
    if (trace != nullptr) lp_options.trace = &trace->child("lp");
    LpSolution solved = solve_lp(built->model, lp_options);
    if (solved.status == LpStatus::kDeadlineExceeded ||
        solved.status == LpStatus::kCancelled) {
      result.status = lp_status_to_solve(solved.status);
      return result;
    }
    if (solved.status == LpStatus::kOptimal) solution = std::move(solved);
  }
  if (!solution) {
    // Horizon too large or LP trouble: honest fallback.
    MMResult fallback = GreedyEdfMM().minimize(instance, limits);
    fallback.algorithm = name() + "(fallback->greedy-edf)";
    return fallback;
  }

  // Per-job categorical distributions over start times.
  std::vector<std::vector<double>> weights(instance.size());
  for (std::size_t j = 0; j < instance.size(); ++j) {
    weights[j].reserve(built->start_columns[j].size());
    double total = 0.0;
    for (const auto& [start, column] : built->start_columns[j]) {
      const double w = std::max(0.0, solution->values[static_cast<std::size_t>(column)]);
      weights[j].push_back(w);
      total += w;
    }
    if (total <= 1e-12) {
      // Degenerate (should not happen at optimality): uniform fallback.
      std::fill(weights[j].begin(), weights[j].end(), 1.0);
    }
  }
  const auto sample_starts = [&](Rng* rng) {
    std::vector<Time> starts(instance.size());
    for (std::size_t j = 0; j < instance.size(); ++j) {
      const auto& options = built->start_columns[j];
      std::size_t pick = 0;
      if (rng == nullptr) {
        // Deterministic arg-max sample.
        pick = static_cast<std::size_t>(
            std::max_element(weights[j].begin(), weights[j].end()) -
            weights[j].begin());
      } else {
        double total = 0.0;
        for (const double w : weights[j]) total += w;
        double draw = rng->uniform01() * total;
        for (std::size_t k = 0; k < weights[j].size(); ++k) {
          draw -= weights[j][k];
          if (draw <= 0.0) {
            pick = k;
            break;
          }
          pick = k;  // numerical tail: keep last
        }
      }
      starts[j] = options[pick].first;
    }
    return starts;
  };

  Rng rng(options_.seed);
  MMSchedule best = color_starts(instance, sample_starts(nullptr));
  for (int sample = 0; sample < options_.samples; ++sample) {
    const MMSchedule candidate = color_starts(instance, sample_starts(&rng));
    if (candidate.machines < best.machines) best = candidate;
  }
  result.feasible = true;
  result.schedule = std::move(best);
  return result;
}

}  // namespace calisched
