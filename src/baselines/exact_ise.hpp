// Exact minimum-calibration solver for small integral instances.
//
// Used by the experiments to measure *true* approximation ratios (E5-E7).
// Exponential by design; a node budget keeps it honest.
//
// Completeness: for integral instances, repeatedly left-shifting any
// feasible schedule (shift the earliest unblocked event until it meets a
// release time, a same-machine predecessor's completion, or its
// calibration boundary) reaches a fixpoint whose event times are all sums
// of instance data, hence integers. It therefore suffices to search
// integer calibration start times, which the layered state-space
// exploration of src/exact/state_space.hpp does: it merges partial
// schedules with equal summaries and prunes dominated ones, which is what
// pushes certified optima well past branch-and-bound sizes.
#pragma once

#include <cstdint>

#include "core/schedule.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"

namespace calisched {

class TraceContext;

struct ExactIseOptions {
  /// Hard cap on the calibration count the search will try.
  int max_calibrations = 16;
  /// Restrict job placement to calibrations nested in the job's window
  /// (exact *TISE* optimum instead of exact ISE optimum).
  bool require_tise = false;
  /// Deadline + cancellation, polled inside the search loops, and the
  /// state budget (`limits.node_budget`, 5M when 0).
  RunLimits limits;
  /// Optional trace sink; the search emits a span per layer.
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
  std::int64_t nodes = 0;
};

[[nodiscard]] ExactIseResult solve_exact_ise(const Instance& instance,
                                             const ExactIseOptions& options = {});

}  // namespace calisched
