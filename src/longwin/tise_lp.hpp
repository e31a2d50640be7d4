// The TISE linear-programming relaxation (Section 3 of the paper).
//
// Variables:
//   C_t   — (fractional) number of calibrations started at canonical point t
//   X_jt  — fraction of job j assigned to the calibrations at t, present
//           only for TISE-feasible pairs (r_j <= t <= d_j - T), which makes
//           constraint (5) structural.
// Constraints (numbering follows the paper):
//   (1) for each point t: sum of C_{t'} over t' in [t, t+T) <= m'
//       (the window anchored at each canonical point dominates every real
//        window, because the first point inside any window is an anchor)
//   (2) X_jt <= C_t for every feasible pair
//   (3) for each t: sum_j p_j X_jt <= T C_t
//   (4) for each j: sum_t X_jt = 1
// Objective: minimize sum_t C_t.
//
// Dominant points. Let J(t) = {j : r_j <= t <= d_j - T}. If J(t') is a
// subset of J(t), moving C_t' and every X_jt' onto t keeps rows (2)-(4) and
// the objective. So without rows (1), the LP over the points whose J(t) is
// maximal has the same optimum as over the whole grid. Those points are
// the maximal cliques of the interval graph of the trimmed windows
// [r_j, d_j - T]; dominant_blocks (core/calibration_points.hpp) finds them
// from the job endpoints, without the grid, and keeps for each the last
// grid point of its run, so every dominant time is a grid point. Without
// rows (1) the LP also splits exactly into the connected blocks of those
// windows: no point is feasible for jobs of two blocks.
//
// Dropping (1) relaxes the paper's LP, so that optimum bounds it from
// below; padded with zeros the solution satisfies (2)-(4), and when it also
// satisfies (1) it is optimal for the paper's LP. solve_tise_lp solves one
// small LP per block, serially in block order, merges them, and solves the
// full LP only when a window row is broken.
#pragma once

#include <utility>
#include <vector>

#include "core/calibration_points.hpp"
#include "lp/simplex.hpp"

namespace calisched {

/// The built model plus the variable layout needed to read a solution back.
struct TiseLpModel {
  LpModel model;
  std::vector<Time> points;              ///< the model's points, ascending
  std::vector<int> calibration_column;   ///< per point: column of C_t
  /// per job of the model (instance order): (point index, column of X_jt)
  std::vector<std::vector<std::pair<int, int>>> assignment_columns;
};

/// Builds the paper's LP for `instance` (all jobs must be long) with m'
/// machines: every grid point, rows (1)-(4).
[[nodiscard]] TiseLpModel build_tise_lp(const Instance& instance, int m_prime);

/// A solved relaxation in scheduling terms.
struct TiseFractional {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;                ///< sum of C_t = fractional calibrations
  /// The points of the LP behind the answer, ascending: the dominant
  /// points, or the whole TISE grid after a window fallback. Rounding
  /// reads only the points that carry mass.
  std::vector<Time> points;
  std::vector<double> calibration_mass;  ///< C_t per point
  /// per job (instance order): (point index, fraction) with fraction > 0
  std::vector<std::vector<std::pair<int, double>>> assignment;
  /// Every pivot the call spent: the block solves plus the fallback.
  std::int64_t pivots = 0;
  /// Shape of the LP behind the answer: the blocks' rows and columns
  /// summed, or the full LP's.
  int lp_rows = 0;
  int lp_columns = 0;
  /// Connected blocks the dominant-point LP split into, one solve each.
  int blocks = 0;
  /// The dominant-point solution broke a window row (1), so this is the
  /// full LP's solution.
  bool window_fallback = false;
};

/// Builds and solves the relaxation. It solves the dominant-point LP first,
/// one block at a time, and keeps the merged optimum when it satisfies
/// every window row (1), which certifies it optimal for the paper's LP;
/// otherwise it solves the full LP. status != kOptimal means there is no
/// feasible fractional TISE schedule on m' machines (kInfeasible) or the
/// solver stopped (deadline, cancellation, or kIterationLimit, which does
/// not happen at library scales); a stopped block solve is returned
/// without the fallback. A non-optimal result carries no solution, only
/// the work spent. Unit model only, like the grid.
[[nodiscard]] TiseFractional solve_tise_lp(const Instance& instance, int m_prime,
                                           const SimplexOptions& options = {});

}  // namespace calisched
