// Differential oracles for the tests and benches (library calib_oracles).
//
// The library ships one engine per problem. Each oracle here is a second,
// independent implementation of the same contract, kept simple enough to
// trust and too slow to ship; tests and benches compare the shipped engine
// against it:
//
//   solve_lp_dense       vs solve_lp              (lp/simplex.hpp)
//   bnb_mm_feasibility   vs exact_mm_feasibility  (exact/state_space.hpp)
//   solve_exact_ise_bnb  vs solve_exact_ise       (baselines/exact_ise.hpp)
//   typed_tise_calibration_points vs tise_calibration_points (unit models)
//   dominant_point_indices vs dominant_blocks    (core/calibration_points.hpp)
//   edf_assign_jobs_scan vs edf_assign_jobs      (longwin/edf_assign.hpp)
//
// Nothing under src/ or tools/ links this library.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/exact_ise.hpp"
#include "core/instance.hpp"
#include "longwin/edf_assign.hpp"
#include "lp/simplex.hpp"
#include "mm/mm.hpp"
#include "runtime/limits.hpp"

namespace calisched {

/// Dense two-phase tableau with solve_lp's statuses and semantics. It reads
/// the shared tolerances, max_pivots, stall_before_bland, limits, and trace
/// of `options` and ignores the revised engine's tuning, warm start, and
/// workspace, so every call is a cold solve. Runs serially.
[[nodiscard]] LpSolution solve_lp_dense(const LpModel& model,
                                        const SimplexOptions& options = {});

/// Depth-first branch-and-bound over left-shifted schedules, with the
/// contract of exact_mm_feasibility: budget exhaustion or a RunLimits stop
/// reports a non-kOk status, never a feasibility verdict. `nodes` counts
/// search nodes.
[[nodiscard]] MMFeasibility bnb_mm_feasibility(
    const Instance& instance, int machines,
    std::int64_t node_budget = 4'000'000,
    const RunLimits& limits = RunLimits::none());

/// Branch-and-bound minimum-calibration search with the contract of
/// solve_exact_ise (budget `limits.node_budget`, 5M when 0). `trace` is
/// unused.
[[nodiscard]] ExactIseResult solve_exact_ise_bnb(
    const Instance& instance, const ExactIseOptions& options = {});

/// Per-type trimmed grids for the generalized calibration model: entry k
/// holds the canonical points t where some job admits a type-k calibration
/// nested in its window (r_j <= t + delay_k and t + delay_k + length_k <=
/// d_j). For a unit-model instance this has one entry, equal to
/// tise_calibration_points(instance).
[[nodiscard]] std::vector<std::vector<Time>> typed_tise_calibration_points(
    const Instance& instance);

/// Indices into `points` (sorted ascending, e.g. tise_calibration_points)
/// of the dominant points: those whose set of TISE-feasible jobs
/// J(t) = {j : r_j <= t <= d_j - T} is maximal under inclusion, one per run
/// of consecutive points with equal sets (its last point). Read off the
/// built grid by one sweep over the jobs' index ranges. Ascending.
[[nodiscard]] std::vector<int> dominant_point_indices(
    const Instance& instance, const std::vector<Time>& points);

/// Algorithm 2 with the contract of edf_assign_jobs, rescanning every job
/// for each pick.
[[nodiscard]] EdfAssignResult edf_assign_jobs_scan(const Instance& instance,
                                                   const Schedule& calendar,
                                                   bool mirror = true);

}  // namespace calisched
