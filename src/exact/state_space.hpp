// Layered state-space exploration for the exact solvers.
//
// Both explorers grow a directed acyclic graph of hash-consed schedule
// states (schedule_state.hpp) layer by layer: layer L holds one state per
// *distinct* summary of "some L jobs scheduled". Each expansion places one
// more unscheduled job in every position a left-shifted schedule could put
// it; children land in an `unordered_multimap` keyed by the scheduled-set
// hash, where an identical state is merged away and the dominance rules
// discard states that are uniformly no better. The DFS this replaces
// revisits every placement *order*; the state graph visits every placement
// *set*, which is what pushes certified optima from tens of jobs into the
// hundreds.
//
// Completeness rests on the left-shifting argument of exact_ise.hpp (the
// DFS oracles in tests/support/branch_bound.cpp rely on it too): any
// feasible schedule can be left-shifted to integer event times and
// replayed in nondecreasing start order, and in that order every job lands
// either on a machine frontier (MM) or in its machine's most recent
// calibration / a fresh calibration at an integer start (ISE).
// The explorer enumerates exactly those moves, so some optimal schedule
// always survives as a path; dominance only discards states whose every
// completion another retained state can match (schedule_state.cpp).
//
// Budgets: `state_budget` caps candidate states built (the analogue of
// branch-and-bound nodes). Exhaustion — like a RunLimits stop — returns
// the matching non-kOk status and never masquerades as an infeasibility
// verdict. Work counters flush into exact_search_snapshot() per search,
// and a trace span named "layer" is recorded per exploration layer.
#pragma once

#include <cstdint>

#include "core/schedule.hpp"
#include "exact/search_stats.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"
#include "verify/verify.hpp"

namespace calisched {

class TraceContext;

/// Machine-minimization feasibility on exactly `machines` machines.
struct StateSpaceMmResult {
  /// kOk: the search ran to completion and `feasible` is a definitive
  /// verdict. kLimitExceeded / kDeadlineExceeded / kCancelled: stopped
  /// early, `feasible` is meaningless.
  SolveStatus status = SolveStatus::kOk;
  bool feasible = false;
  MMSchedule schedule;        ///< valid when status == kOk && feasible
  std::int64_t states = 0;    ///< candidate states built
};

[[nodiscard]] StateSpaceMmResult state_space_mm_feasible(
    const Instance& instance, int machines, std::int64_t state_budget,
    const RunLimits& limits = RunLimits::none(),
    TraceContext* trace = nullptr);

/// Minimum-calibration (ISE / TISE) search over the same engine.
struct StateSpaceIseOptions {
  std::int64_t state_budget = 5'000'000;
  /// Hard cap on the calibration count, mirroring ExactIseOptions.
  int max_calibrations = 16;
  /// Restrict placements to calibrations nested in the job window (TISE).
  bool require_tise = false;
  /// A calibration count known achievable (a verified heuristic solution);
  /// 0 means none. Tightens the pruning cap to min(max_calibrations, hint)
  /// — sound only if a schedule with `hint` calibrations really exists.
  int upper_bound_hint = 0;
  RunLimits limits;
  TraceContext* trace = nullptr;
};

struct StateSpaceIseResult {
  /// kOk: definitive (`feasible` + `calibrations` are the exact answer,
  /// "infeasible" meaning no schedule within max_calibrations exists).
  SolveStatus status = SolveStatus::kOk;
  bool feasible = false;
  std::size_t calibrations = 0;
  Schedule schedule;          ///< an optimal schedule when feasible
  std::int64_t states = 0;    ///< candidate states built
};

[[nodiscard]] StateSpaceIseResult state_space_ise_minimize(
    const Instance& instance, const StateSpaceIseOptions& options = {});

}  // namespace calisched
