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
// maximal (dominant_point_indices) has the same optimum as over the whole
// grid. Dropping (1) relaxes the paper's LP, so that optimum bounds it from
// below; padded with zeros the solution satisfies (2)-(4), and when it also
// satisfies (1) it is optimal for the paper's LP. solve_tise_lp solves this
// small LP first and solves the full one only when a window row is broken.
#pragma once

#include <utility>
#include <vector>

#include "core/calibration_points.hpp"
#include "lp/simplex.hpp"

namespace calisched {

/// The built model plus the variable layout needed to read a solution back.
struct TiseLpModel {
  LpModel model;
  std::vector<Time> points;              ///< canonical TISE-feasible points
  /// per point: column of C_t, or -1 for a point the model leaves out
  std::vector<int> calibration_column;
  /// per job (instance order): list of (point index, column of X_jt)
  std::vector<std::vector<std::pair<int, int>>> assignment_columns;
};

/// Builds the paper's LP for `instance` (all jobs must be long) with m'
/// machines: every grid point, rows (1)-(4).
[[nodiscard]] TiseLpModel build_tise_lp(const Instance& instance, int m_prime);

/// Builds the LP solve_tise_lp tries first: rows (2)-(4) over the dominant
/// grid points only. `points` is still the whole grid; the points left out
/// have no column. Without rows (1) the LP does not depend on m'.
[[nodiscard]] TiseLpModel build_dominant_tise_lp(const Instance& instance);

/// A solved relaxation in scheduling terms.
struct TiseFractional {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;                ///< sum of C_t = fractional calibrations
  std::vector<Time> points;              ///< the whole TISE grid
  std::vector<double> calibration_mass;  ///< C_t per point
  /// per job (instance order): (point index, fraction) with fraction > 0
  std::vector<std::vector<std::pair<int, double>>> assignment;
  /// Shape and work of the LP whose solution this is.
  std::int64_t pivots = 0;
  int lp_rows = 0;
  int lp_columns = 0;
  /// The dominant-point solution broke a window row (1), so this is the
  /// full LP's solution.
  bool window_fallback = false;
};

/// Builds and solves the relaxation. It solves the dominant-point LP first
/// and keeps that optimum when it satisfies every window row (1), which
/// certifies it optimal for the paper's LP; otherwise it solves the full
/// LP. status != kOptimal means there is no feasible fractional TISE
/// schedule on m' machines (kInfeasible) or the solver stopped (deadline,
/// cancellation, or kIterationLimit, which does not happen at library
/// scales); a stopped first solve is returned without the fallback.
[[nodiscard]] TiseFractional solve_tise_lp(const Instance& instance, int m_prime,
                                           const SimplexOptions& options = {});

}  // namespace calisched
