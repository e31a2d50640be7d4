#include "longwin/tise_lp.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>
#include <string>

namespace calisched {
namespace {

/// Builds the relaxation for the jobs listed in `jobs` (ascending indices
/// into instance.jobs) over `points` (ascending), with the window rows (1)
/// only when `m_prime` is given. Every listed job must have a point in its
/// trimmed window.
TiseLpModel build_over(const Instance& instance,
                       const std::vector<std::size_t>& jobs,
                       std::vector<Time> points, std::optional<int> m_prime) {
  assert(!m_prime || *m_prime >= 1);
  TiseLpModel built;
  built.points = std::move(points);
  const std::vector<Time>& grid = built.points;
  LpModel& lp = built.model;

  // --- variables -----------------------------------------------------------
  built.calibration_column.reserve(grid.size());
  for (const Time t : grid) {
    built.calibration_column.push_back(
        lp.add_variable("C@" + std::to_string(t), /*cost=*/1.0));
  }
  built.assignment_columns.resize(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Job& job = instance.jobs[jobs[k]];
    // The job's feasible points r_j <= t <= d_j - T are one index range of
    // the sorted points.
    const auto first = std::lower_bound(grid.begin(), grid.end(), job.release);
    const auto last =
        std::upper_bound(first, grid.end(), job.deadline - instance.T);
    for (auto it = first; it != last; ++it) {
      const auto p = static_cast<int>(it - grid.begin());
      const int column = lp.add_variable(
          "X@j" + std::to_string(job.id) + "t" + std::to_string(*it),
          /*cost=*/0.0);
      built.assignment_columns[k].emplace_back(p, column);
    }
    assert(!built.assignment_columns[k].empty());
  }

  // --- (1) sliding-window machine capacity ---------------------------------
  if (m_prime) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const Time window_start = grid[i];
      const int row = lp.add_row("cap@" + std::to_string(window_start),
                                 RowSense::kLe, static_cast<double>(*m_prime));
      for (std::size_t k = i; k < grid.size() && grid[k] < window_start + instance.T;
           ++k) {
        lp.add_coefficient(row, built.calibration_column[k], 1.0);
      }
    }
  }

  // --- (3) per-point work capacity (filled below alongside (2)) ------------
  std::vector<int> work_rows;
  work_rows.reserve(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const int row =
        lp.add_row("work@" + std::to_string(grid[p]), RowSense::kLe, 0.0);
    lp.add_coefficient(row, built.calibration_column[p],
                       -static_cast<double>(instance.T));
    work_rows.push_back(row);
  }

  // --- (2) X_jt <= C_t and (4) coverage ------------------------------------
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Job& job = instance.jobs[jobs[k]];
    const int coverage_row =
        lp.add_row("cover@j" + std::to_string(job.id), RowSense::kEq, 1.0);
    for (const auto& [point, column] : built.assignment_columns[k]) {
      const auto p = static_cast<std::size_t>(point);
      const int pair_row = lp.add_row(
          "pair@j" + std::to_string(job.id) + "t" + std::to_string(grid[p]),
          RowSense::kLe, 0.0);
      lp.add_coefficient(pair_row, column, 1.0);
      lp.add_coefficient(pair_row, built.calibration_column[p], -1.0);
      lp.add_coefficient(work_rows[p], column, static_cast<double>(job.proc));
      lp.add_coefficient(coverage_row, column, 1.0);
    }
  }
  return built;
}

std::vector<std::size_t> all_jobs(const Instance& instance) {
  std::vector<std::size_t> jobs(instance.size());
  std::iota(jobs.begin(), jobs.end(), std::size_t{0});
  return jobs;
}

/// Solves `built`, the LP of the jobs `jobs`, and appends its solution to
/// `result`: its points and masses after the ones already there, its
/// assignments with point indices offset to match, its objective added.
/// The LP's shape and pivots are added whatever the outcome; a solve that
/// does not reach an optimum drops the whole partial solution.
LpStatus solve_into(TiseFractional& result, const std::vector<std::size_t>& jobs,
                    const TiseLpModel& built, const SimplexOptions& options) {
  const LpSolution solution = solve_lp(built.model, options);
  result.pivots += solution.phase1_pivots + solution.phase2_pivots;
  result.lp_rows += built.model.num_rows();
  result.lp_columns += built.model.num_variables();
  if (solution.status != LpStatus::kOptimal) {
    result.objective = 0.0;
    result.points.clear();
    result.calibration_mass.clear();
    result.assignment.clear();
    return solution.status;
  }
  const auto offset = static_cast<int>(result.points.size());
  result.objective += solution.objective;
  result.points.insert(result.points.end(), built.points.begin(),
                       built.points.end());
  for (const int column : built.calibration_column) {
    result.calibration_mass.push_back(
        solution.values[static_cast<std::size_t>(column)]);
  }
  constexpr double kKeep = 1e-9;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    for (const auto& [point, column] : built.assignment_columns[k]) {
      const double value = solution.values[static_cast<std::size_t>(column)];
      if (value > kKeep) result.assignment[jobs[k]].emplace_back(offset + point, value);
    }
  }
  return LpStatus::kOptimal;
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
  return build_over(instance, all_jobs(instance),
                    tise_calibration_points(instance), m_prime);
}

TiseFractional solve_tise_lp(const Instance& instance, int m_prime,
                             const SimplexOptions& options) {
  TiseFractional result;
  result.status = LpStatus::kOptimal;
  if (instance.empty()) return result;
  result.assignment.resize(instance.size());
  const std::vector<DominantBlock> blocks = dominant_blocks(instance);
  result.blocks = static_cast<int>(blocks.size());
  for (const DominantBlock& block : blocks) {
    const TiseLpModel built =
        build_over(instance, block.jobs, block.points, std::nullopt);
    result.status = solve_into(result, block.jobs, built, options);
    // A stopped solve is final. So is an infeasible relaxation: the full
    // LP is infeasible too.
    if (result.status != LpStatus::kOptimal) return result;
  }
  if (satisfies_window_rows(result, instance.T, m_prime)) return result;
  TiseFractional full_result;
  full_result.blocks = result.blocks;
  full_result.pivots = result.pivots;
  full_result.window_fallback = true;
  full_result.assignment.resize(instance.size());
  const std::vector<std::size_t> jobs = all_jobs(instance);
  const TiseLpModel full =
      build_over(instance, jobs, tise_calibration_points(instance), m_prime);
  full_result.status = solve_into(full_result, jobs, full, options);
  return full_result;
}

}  // namespace calisched
