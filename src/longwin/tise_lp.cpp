#include "longwin/tise_lp.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>
#include <string>

namespace calisched {
namespace {

/// Builds the relaxation over the grid points listed in `kept` (ascending
/// indices into `grid`), with the window rows (1) only when `m_prime` is
/// given. Points left out get no column, so a solution still reads back
/// onto the whole grid, with zero mass there.
TiseLpModel build_over(const Instance& instance, std::vector<Time> grid,
                       const std::vector<int>& kept,
                       std::optional<int> m_prime) {
  assert(!m_prime || *m_prime >= 1);
  TiseLpModel built;
  built.points = std::move(grid);
  const std::vector<Time>& points = built.points;
  LpModel& lp = built.model;

  // --- variables -----------------------------------------------------------
  built.calibration_column.assign(points.size(), -1);
  for (const int p : kept) {
    built.calibration_column[static_cast<std::size_t>(p)] =
        lp.add_variable("C@" + std::to_string(points[p]), /*cost=*/1.0);
  }
  built.assignment_columns.resize(instance.size());
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const Job& job = instance.jobs[j];
    // The job's feasible points r_j <= t <= d_j - T are one index range of
    // the sorted grid.
    const auto first =
        std::lower_bound(points.begin(), points.end(), job.release);
    const auto last =
        std::upper_bound(first, points.end(), job.deadline - instance.T);
    for (auto it = first; it != last; ++it) {
      const auto p = static_cast<int>(it - points.begin());
      if (built.calibration_column[static_cast<std::size_t>(p)] < 0) continue;
      const int column = lp.add_variable(
          "X@j" + std::to_string(job.id) + "t" + std::to_string(*it),
          /*cost=*/0.0);
      built.assignment_columns[j].emplace_back(p, column);
    }
    // A long job always has a feasible point (its own release), and the
    // points it covers include a dominant one.
    assert(!built.assignment_columns[j].empty());
  }

  // --- (1) sliding-window machine capacity ---------------------------------
  if (m_prime) {
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const Time window_start = points[kept[i]];
      const int row = lp.add_row("cap@" + std::to_string(window_start),
                                 RowSense::kLe, static_cast<double>(*m_prime));
      for (std::size_t k = i;
           k < kept.size() && points[kept[k]] < window_start + instance.T; ++k) {
        lp.add_coefficient(row, built.calibration_column[kept[k]], 1.0);
      }
    }
  }

  // --- (3) per-point work capacity (filled below alongside (2)) ------------
  std::vector<int> work_rows(points.size(), -1);
  for (const int p : kept) {
    const int row =
        lp.add_row("work@" + std::to_string(points[p]), RowSense::kLe, 0.0);
    lp.add_coefficient(row, built.calibration_column[p],
                       -static_cast<double>(instance.T));
    work_rows[static_cast<std::size_t>(p)] = row;
  }

  // --- (2) X_jt <= C_t and (4) coverage ------------------------------------
  for (std::size_t j = 0; j < instance.size(); ++j) {
    const Job& job = instance.jobs[j];
    const int coverage_row =
        lp.add_row("cover@j" + std::to_string(job.id), RowSense::kEq, 1.0);
    for (const auto& [point, column] : built.assignment_columns[j]) {
      const int pair_row = lp.add_row(
          "pair@j" + std::to_string(job.id) + "t" +
              std::to_string(points[point]),
          RowSense::kLe, 0.0);
      lp.add_coefficient(pair_row, column, 1.0);
      lp.add_coefficient(pair_row, built.calibration_column[point], -1.0);
      lp.add_coefficient(work_rows[static_cast<std::size_t>(point)], column,
                         static_cast<double>(job.proc));
      lp.add_coefficient(coverage_row, column, 1.0);
    }
  }
  return built;
}

TiseLpModel build_full(const Instance& instance, std::vector<Time> grid,
                       int m_prime) {
  std::vector<int> all(grid.size());
  std::iota(all.begin(), all.end(), 0);
  return build_over(instance, std::move(grid), all, m_prime);
}

/// Solves `built` and reads the solution back onto the model's whole grid.
TiseFractional solve_model(const Instance& instance, TiseLpModel& built,
                           const SimplexOptions& options) {
  const LpSolution solution = solve_lp(built.model, options);
  TiseFractional result;
  result.status = solution.status;
  result.points = std::move(built.points);
  result.pivots = solution.phase1_pivots + solution.phase2_pivots;
  result.lp_rows = built.model.num_rows();
  result.lp_columns = built.model.num_variables();
  if (solution.status != LpStatus::kOptimal) return result;
  result.objective = solution.objective;
  result.calibration_mass.reserve(result.points.size());
  for (const int column : built.calibration_column) {
    result.calibration_mass.push_back(
        column < 0 ? 0.0 : solution.values[static_cast<std::size_t>(column)]);
  }
  result.assignment.resize(instance.size());
  constexpr double kKeep = 1e-9;
  for (std::size_t j = 0; j < instance.size(); ++j) {
    for (const auto& [point, column] : built.assignment_columns[j]) {
      const double value = solution.values[static_cast<std::size_t>(column)];
      if (value > kKeep) result.assignment[j].emplace_back(point, value);
    }
  }
  return result;
}

/// True when no window [t, t + T) holds more than m' (+ kLpFeasibilityTol)
/// of calibration mass. Windows anchored at points with mass suffice: the
/// first such point inside any window anchors one holding all its mass.
bool satisfies_window_rows(const TiseFractional& fractional, Time T,
                           int m_prime) {
  const std::vector<Time>& points = fractional.points;
  const std::vector<double>& mass = fractional.calibration_mass;
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (mass[p] <= 0.0) continue;
    double window = 0.0;
    for (std::size_t q = p; q < points.size() && points[q] < points[p] + T; ++q) {
      window += mass[q];
    }
    if (window > static_cast<double>(m_prime) + kLpFeasibilityTol) return false;
  }
  return true;
}

}  // namespace

TiseLpModel build_tise_lp(const Instance& instance, int m_prime) {
  return build_full(instance, tise_calibration_points(instance), m_prime);
}

TiseLpModel build_dominant_tise_lp(const Instance& instance) {
  std::vector<Time> grid = tise_calibration_points(instance);
  const std::vector<int> kept = dominant_point_indices(instance, grid);
  return build_over(instance, std::move(grid), kept, std::nullopt);
}

TiseFractional solve_tise_lp(const Instance& instance, int m_prime,
                             const SimplexOptions& options) {
  TiseFractional result;
  if (instance.empty()) {
    result.status = LpStatus::kOptimal;
    return result;
  }
  TiseLpModel dominant = build_dominant_tise_lp(instance);
  result = solve_model(instance, dominant, options);
  // Only an optimum can carry the certificate. A stopped solve is final,
  // and so is an infeasible relaxation: the full LP is infeasible too.
  if (result.status != LpStatus::kOptimal ||
      satisfies_window_rows(result, instance.T, m_prime)) {
    return result;
  }
  TiseLpModel full = build_full(instance, std::move(result.points), m_prime);
  result = solve_model(instance, full, options);
  result.window_fallback = true;
  return result;
}

}  // namespace calisched
