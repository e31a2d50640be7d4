// Exact gap (idle-period) minimization for unit jobs on one machine —
// the related problem of Section 5 (Baptiste'06; Demaine et al.'07).
//
// The paper contrasts ISE with power-aware gap minimization: both reward
// clustering work, but a busy block longer than T needs several
// calibrations while still being a single gap-free run, and a calibration
// can span idle time at no extra cost while a gap-minimizer counts it.
// This solver computes the exact minimum number of busy blocks (gaps + 1
// when non-empty) for tiny unit-job instances so `bench_related` can
// measure the divergence against the exact calibration optimum.
//
// Method: enumerate K = 1, 2, ... busy blocks (disjoint integer intervals
// separated by at least one idle slot, total length n), and test whether
// the jobs can be matched to the blocks' slots — for unit jobs, greedy
// earliest-deadline-first over slots in time order is an exact matching
// test. Exponential in K; intended for tiny instances only.
#pragma once

#include <cstdint>

#include "core/schedule.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"

namespace calisched {

struct GapMinResult {
  bool solved = false;    ///< search completed within the node budget
  bool feasible = false;  ///< a feasible schedule exists
  /// kOk (optimum found), kInfeasible (exhausted max_blocks),
  /// kLimitExceeded (node budget), kDeadlineExceeded / kCancelled.
  SolveStatus status = SolveStatus::kOk;
  std::size_t busy_blocks = 0;  ///< minimal number of maximal busy runs
  /// One scheduled slot per job when feasible (machine 0).
  std::vector<ScheduledJob> slots;
  std::int64_t nodes = 0;
};

struct GapMinOptions {
  int max_blocks = 8;
  /// Deadline + cancellation, polled inside the block search, and the node
  /// budget (`limits.node_budget`, 2M when 0).
  RunLimits limits;
};

/// Requires unit processing times; one machine. T is irrelevant to gaps.
[[nodiscard]] GapMinResult solve_min_gaps_unit(const Instance& instance,
                                               const GapMinOptions& options = {});

}  // namespace calisched
