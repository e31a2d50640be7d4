// Single-machine minimum-cost calibration DP under a type table.
//
// On one machine the calibrations of any strict-policy schedule are
// totally ordered by occupancy, so an optimal schedule decomposes into a
// sequence of (start, type, job set) blocks with strictly increasing
// availability windows. The DP exploits exactly that: a state is
// (set of scheduled jobs, earliest next start), and a transition opens one
// calibration — a start s at or after the machine frees up, a type k, and
// a nonempty subset of the remaining jobs that fits type k's length and
// packs exactly into the clipped availability window — paying c_k and
// advancing the free time to s + delta_k + L_k.
//
// The subset enumeration makes this exponential in n (it handles
// arbitrary non-unit processing times, unlike the polynomial unit-job DPs
// of Angel et al.); states are memoized on (mask, free time) and a node
// budget keeps runaways honest. Registered as the `dp-calib-cost`
// exact algorithm for single-machine instances.
#pragma once

#include <cstdint>

#include "core/schedule.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"

namespace calisched {

struct CostDpOptions {
  /// Deadline + cancellation, polled inside the DP loops, and the node
  /// budget (`limits.node_budget`, 5M when 0).
  RunLimits limits;
};

struct CostDpResult {
  /// True when the DP ran to completion (budget not exhausted).
  bool solved = false;
  /// True when a single-machine schedule exists.
  bool feasible = false;
  /// kOk, kInfeasible, kLimitExceeded, kDeadlineExceeded / kCancelled.
  SolveStatus status = SolveStatus::kOk;
  std::int64_t total_cost = 0;  ///< minimum total cost when feasible
  Schedule schedule;            ///< a cost-optimal schedule when feasible
  std::int64_t nodes = 0;
};

/// Requires instance.machines == 1 and at most 20 jobs (mask-indexed).
[[nodiscard]] CostDpResult solve_cost_dp(const Instance& instance,
                                         const CostDpOptions& options = {});

}  // namespace calisched
