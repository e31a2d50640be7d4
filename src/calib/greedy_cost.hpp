// Lazy EDF greedy (registry name `greedy-lazy`): lazy binning generalized
// to non-unit jobs and to calibration-type tables — the practical
// multi-machine heuristic the experiments compare against the paper's
// pipelines and the exact solvers, and the upper-bound hint of
// solve_exact_ise. It has no approximation guarantee (the paper's open
// problem is exactly that such greedies were only analyzed for p_j = 1).
//
// Policy: process jobs most-urgent-first; reuse the earliest feasible gap
// inside an open calibration's availability window; otherwise open a new
// calibration with the cheapest type that can host the job (ties broken
// toward longer length — more room to share), started as late as the
// urgent work due by d_j allows. Under the unit model (one type {T, 1, 0})
// that is plain lazy binning with calibrations of length T. Fails honestly
// when its choices paint it into a corner.
#pragma once

#include <string>

#include "core/schedule.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"

namespace calisched {

struct GreedyCostResult {
  bool feasible = false;
  /// kInfeasible when the greedy gave up (honest failure),
  /// kDeadlineExceeded / kCancelled when `limits` fired.
  SolveStatus status = SolveStatus::kOk;
  Schedule schedule;  ///< verifier-clean ISE schedule when feasible
  std::string error;
};

[[nodiscard]] GreedyCostResult solve_greedy_cost(
    const Instance& instance, const RunLimits& limits = RunLimits::none());

}  // namespace calisched
