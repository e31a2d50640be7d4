// Layered state-space exploration for the exact solvers.
//
// One engine grows a directed acyclic graph of hash-consed schedule
// states (schedule_state.hpp) layer by layer: layer L holds one state per
// *distinct* summary of "some L jobs scheduled". Each expansion places one
// more unscheduled job in every position a left-shifted schedule could put
// it; children land in an `unordered_multimap` keyed by the scheduled-set
// hash, where an identical state is merged away and the dominance rules
// discard states that are uniformly no better. The DFS this replaces
// revisits every placement *order*; the state graph visits every placement
// *set*, which is what pushes certified optima from tens of jobs into the
// hundreds. Two move sets drive it: machine frontiers for MM feasibility
// and calibration slots for minimum-calibration ISE / TISE.
//
// Completeness rests on the left-shifting argument below (the DFS oracles
// in tests/support/branch_bound.cpp rely on it too): any feasible schedule
// can be left-shifted to integer event times and replayed in nondecreasing
// start order, and in that order every job lands either on a machine
// frontier (MM) or in its machine's most recent calibration / a fresh
// calibration at an integer start (ISE). The move sets enumerate exactly
// those moves, so some optimal schedule always survives as a path;
// dominance only discards states whose every completion another retained
// state can match (schedule_state.cpp).
//
// Budgets: the state budget caps candidate states built (the analogue of
// branch-and-bound nodes). Exhaustion — like a RunLimits stop — returns
// the matching non-kOk status and never masquerades as an infeasibility
// verdict. Each search adds its work counts to the trace it was given —
// state_space.searches, .states (candidate states built, the budget unit),
// .merged, .dominated, .pruned, .expanded and .layers — and records a span
// named "layer" per exploration layer.
#pragma once

#include <cstdint>

#include "core/schedule.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"
#include "verify/verify.hpp"

namespace calisched {

class TraceContext;

/// Outcome of a single fixed-machine-count feasibility search. A stopped
/// search (node budget, deadline, cancellation) is distinguishable from a
/// proven-infeasible one: `feasible` is a verdict only when `status == kOk`.
struct MMFeasibility {
  SolveStatus status = SolveStatus::kOk;  ///< kOk = search ran to completion
  bool feasible = false;                  ///< meaningful only when kOk
  MMSchedule schedule;                    ///< valid when kOk && feasible
  std::int64_t nodes = 0;                 ///< candidate states built
};

/// Nonpreemptive feasibility of `instance` on exactly `machines` machines;
/// the search ExactMM runs per machine count, which also packs the cost
/// solvers' calibrations. Budget exhaustion reports kLimitExceeded, never
/// a feasibility verdict.
[[nodiscard]] MMFeasibility exact_mm_feasibility(
    const Instance& instance, int machines,
    std::int64_t node_budget = 4'000'000,
    const RunLimits& limits = RunLimits::none(),
    TraceContext* trace = nullptr);

/// Exact minimum-calibration search over integer calibration starts (see
/// baselines/exact_ise.hpp for the completeness argument).
struct ExactIseOptions {
  /// Hard cap on the calibration count the search will try.
  int max_calibrations = 16;
  /// Restrict job placement to calibrations nested in the job's window
  /// (exact *TISE* optimum instead of exact ISE optimum).
  bool require_tise = false;
  /// Deadline + cancellation, polled inside the search loops, and the
  /// state budget (`limits.node_budget`, 5M when 0).
  RunLimits limits;
  /// Optional trace sink for the layer spans and state_space.* counters.
  TraceContext* trace = nullptr;
};

struct ExactIseResult {
  /// True when the search ran to completion (budget not exhausted).
  bool solved = false;
  /// True when a feasible schedule with <= max_calibrations exists.
  bool feasible = false;
  /// kOk (optimum found), kInfeasible (exhausted the calibration cap),
  /// kLimitExceeded (node budget), kDeadlineExceeded / kCancelled.
  SolveStatus status = SolveStatus::kOk;
  std::size_t optimal_calibrations = 0;
  Schedule schedule;  ///< an optimal schedule when feasible
  std::int64_t nodes = 0;  ///< candidate states built
};

/// The layered minimum-calibration search behind solve_exact_ise.
/// `upper_bound_hint` is a calibration count known achievable (a verified
/// schedule), 0 for none; it tightens the pruning cap to
/// min(max_calibrations, hint), which is sound only if such a schedule
/// really exists.
[[nodiscard]] ExactIseResult state_space_ise_minimize(
    const Instance& instance, const ExactIseOptions& options,
    int upper_bound_hint = 0);

}  // namespace calisched
