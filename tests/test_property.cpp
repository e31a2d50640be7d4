// Property-based sweeps (parameterized over seeds and instance shapes).
//
// These tests restate the paper's invariants as executable properties and
// sweep them across many random instances:
//   P1  every pipeline schedule passes the independent verifier;
//   P2  Lemma 4's sliding-window bound on rounded calibrations;
//   P3  Lemma 5 / Corollary 6 witness invariants;
//   P4  Theorem 12 machine budget and the internal 2x-LP rounding chain;
//   P5  Theorem 20 calibration budget in MM-machine units;
//   P6  the speed transform never increases calibrations and stays exact;
//   P8  the per-type calibration grids collapse to the classic Lemma 3
//       grid on unit-model instances (the cost-model generalization is
//       conservative);
//   P10 the dominant-point TISE LP with its window certificate answers
//       exactly the paper's LP (status and objective) on every family;
//   P9  approximation ratios against *certified exact optima* at n in
//       100..200: the exact state-space engine solves structured wave
//       instances at sizes far past branch-and-bound reach, and every
//       paper bound (combinatorial lower bound <= OPT, Theorem 20's
//       16*gamma*alpha ceiling with an exact MM box, baselines >= OPT)
//       holds against the true optimum, not a proxy lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "baselines/calibration_bounds.hpp"
#include "baselines/exact_ise.hpp"
#include "calib/greedy_cost.hpp"
#include "core/calibration_points.hpp"
#include "gen/generators.hpp"
#include "longwin/edf_assign.hpp"
#include "longwin/fractional_witness.hpp"
#include "longwin/long_pipeline.hpp"
#include "longwin/tise_lp.hpp"
#include "longwin/rounding.hpp"
#include "longwin/speed_transform.hpp"
#include "mm/mm.hpp"
#include "oracles.hpp"
#include "shortwin/short_pipeline.hpp"
#include "solver/ise_solver.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

struct SweepCase {
  std::uint64_t seed;
  int n;
  Time T;
  int machines;
};

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_n" + std::to_string(c.n) + "_T" +
         std::to_string(c.T) + "_m" + std::to_string(c.machines);
}

GenParams to_params(const SweepCase& c) {
  GenParams params;
  params.seed = c.seed;
  params.n = c.n;
  params.T = c.T;
  params.machines = c.machines;
  params.horizon = 12 * c.T;
  params.max_proc = c.T;
  return params;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed : {11, 22, 33, 44, 55, 66}) {
    for (const int n : {6, 12, 20}) {
      for (const Time T : {Time{5}, Time{12}}) {
        cases.push_back({seed, n, T, 1 + static_cast<int>(seed % 3)});
      }
    }
  }
  // Odd calibration length + minimum T corner, at each size.
  for (const int n : {6, 14}) {
    cases.push_back({77, n, 7, 2});
    cases.push_back({88, n, 2, 1});
  }
  return cases;
}

class LongWindowSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(LongWindowSweep, PipelineInvariants) {
  const Instance instance = generate_long_window(to_params(GetParam()));
  const int m_prime = 3 * instance.machines;
  const TiseFractional fractional = solve_tise_lp(instance, m_prime);
  ASSERT_EQ(fractional.status, LpStatus::kOptimal);

  // P2: Lemma 4 window bound on the rounded calendar.
  const auto starts =
      round_calibrations(fractional.points, fractional.calibration_mass);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    std::size_t in_window = 0;
    for (std::size_t j = i;
         j < starts.size() && starts[j] < starts[i] + instance.T; ++j) {
      ++in_window;
    }
    ASSERT_LE(in_window, static_cast<std::size_t>(3 * m_prime));
  }

  // P3: witness invariants.
  const FractionalWitness witness = run_fractional_witness(instance, fractional);
  EXPECT_LE(witness.telemetry.max_y_minus_carryover, 1e-6);
  EXPECT_GE(witness.telemetry.min_job_coverage, 1.0 - 1e-6);
  EXPECT_LE(witness.telemetry.max_calibration_work,
            static_cast<double>(instance.T) + 1e-6);

  // P4: full pipeline budgets + P1 verifier.
  const LongWindowResult pipeline = solve_long_window(instance);
  ASSERT_TRUE(pipeline.feasible) << pipeline.error;
  EXPECT_LE(pipeline.schedule.machines, 18 * instance.machines);
  EXPECT_LE(static_cast<double>(pipeline.telemetry.rounded_calibrations),
            2.0 * pipeline.telemetry.lp_objective + 1e-6);
  const VerifyResult check = verify_tise(instance, pipeline.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();

  // P6: speed transform.
  const int c = (pipeline.schedule.machines + instance.machines - 1) /
                instance.machines;
  const auto fast = speed_transform(instance, pipeline.schedule, c);
  ASSERT_TRUE(fast.has_value());
  EXPECT_LE(fast->num_calibrations(), pipeline.schedule.num_calibrations());
  const VerifyResult fast_check = verify_ise(instance, *fast);
  EXPECT_TRUE(fast_check.ok()) << fast_check.to_string();
}

TEST_P(LongWindowSweep, EdfHeapMatchesTheScanOracle) {
  // Algorithm 2 picks the same jobs in the same order whether it keeps the
  // released jobs in a deadline heap or rescans every job per pick: whole
  // results compare equal, on the mirrored and on the bare calendar.
  const Instance instance = generate_long_window(to_params(GetParam()));
  for (const int multiplier : {1, 3}) {
    const int m_prime = multiplier * instance.machines;
    const TiseFractional fractional = solve_tise_lp(instance, m_prime);
    if (fractional.status != LpStatus::kOptimal) continue;
    const Schedule calendar = assign_round_robin(
        instance,
        round_calibrations(fractional.points, fractional.calibration_mass),
        3 * m_prime);
    for (const bool mirror : {true, false}) {
      SCOPED_TRACE("m'=" + std::to_string(m_prime) +
                   (mirror ? " mirrored" : " bare"));
      const EdfAssignResult heap = edf_assign_jobs(instance, calendar, mirror);
      const EdfAssignResult scan =
          edf_assign_jobs_scan(instance, calendar, mirror);
      EXPECT_EQ(heap.schedule.machines, scan.schedule.machines);
      EXPECT_EQ(heap.schedule.calibrations, scan.schedule.calibrations);
      EXPECT_EQ(heap.schedule.jobs, scan.schedule.jobs);
      EXPECT_EQ(heap.unassigned, scan.unassigned);
    }
  }
}

TEST_P(LongWindowSweep, LpEnginesAgreeOnTiseRelaxation) {
  // P7 (differential): solve_tise_lp and the dense tableau oracle on the
  // paper's full LP must agree across the whole sweep — same status, and
  // at optimality the same objective to LP tolerance. Vertex choice may
  // differ (degenerate optima), so values are checked only through each
  // solution's own feasibility, not against each other.
  const Instance instance = generate_long_window(to_params(GetParam()));
  const int m_prime = 3 * instance.machines;
  const TiseLpModel full = build_tise_lp(instance, m_prime);
  const LpSolution dense = solve_lp_dense(full.model);
  const TiseFractional revised = solve_tise_lp(instance, m_prime);
  ASSERT_EQ(dense.status, revised.status);
  if (dense.status != LpStatus::kOptimal) return;
  EXPECT_NEAR(dense.objective, revised.objective, 1e-6);
  // Both fractional solutions must cover every job's processing demand.
  ASSERT_EQ(revised.assignment.size(), instance.size());
  for (std::size_t j = 0; j < instance.size(); ++j) {
    double revised_fraction = 0.0;
    for (const auto& [point, value] : revised.assignment[j]) {
      revised_fraction += value;
    }
    double dense_fraction = 0.0;
    for (const auto& [point, column] : full.assignment_columns[j]) {
      dense_fraction += dense.values[static_cast<std::size_t>(column)];
    }
    EXPECT_NEAR(revised_fraction, 1.0, 1e-6) << "job " << j;
    EXPECT_NEAR(dense_fraction, 1.0, 1e-6) << "job " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LongWindowSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class ShortWindowSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(ShortWindowSweep, PipelineInvariants) {
  const Instance instance = generate_short_window(to_params(GetParam()));
  const GreedyEdfMM mm;
  const ShortWindowResult result = solve_short_window(instance, mm);
  ASSERT_TRUE(result.feasible) << result.error;
  // P1: verifier.
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  // P5: Lemma 19 budget, summed over intervals.
  EXPECT_LE(result.telemetry.total_calibrations,
            static_cast<std::size_t>(8 * result.telemetry.sum_mm_machines));
  EXPECT_LE(result.telemetry.machines_allotted,
            6 * result.telemetry.max_mm_machines);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShortWindowSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class MixedSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(MixedSweep, EndToEndInvariants) {
  const Instance instance = generate_mixed(to_params(GetParam()), 0.5);
  const IseSolveResult result = solve_ise(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  EXPECT_GE(static_cast<std::int64_t>(result.total_calibrations),
            calibration_lower_bound(instance));
  EXPECT_EQ(result.long_job_count + result.short_job_count, instance.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, MixedSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class UnitSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(UnitSweep, UnitInstancesThroughBothPaths) {
  GenParams params = to_params(GetParam());
  const Instance instance = generate_unit(params, /*max_window=*/2 * params.T - 1);
  // All unit jobs here are short-window; run the full solver and the unit
  // MM box variant, both must verify.
  const IseSolveResult general = solve_ise(instance);
  ASSERT_TRUE(general.feasible) << general.error;
  EXPECT_TRUE(verify_ise(instance, general.schedule).ok());

  IseSolverOptions options;
  options.mm = std::make_shared<UnitEdfMM>();
  const IseSolveResult unit = solve_ise(instance, options);
  ASSERT_TRUE(unit.feasible) << unit.error;
  EXPECT_TRUE(verify_ise(instance, unit.schedule).ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnitSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class OptimizedSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(OptimizedSweep, OptimizationsPreserveFeasibilityAndNeverCostMore) {
  const Instance instance = generate_mixed(to_params(GetParam()), 0.5);
  const IseSolveResult paper = solve_ise(instance);
  ASSERT_TRUE(paper.feasible) << paper.error;

  IseSolverOptions options;
  options.long_window.adaptive_mirror = true;
  options.long_window.prune_empty_calibrations = true;
  options.short_window.trim_unused_calibrations = true;
  const IseSolveResult optimized = solve_ise(instance, options);
  ASSERT_TRUE(optimized.feasible) << optimized.error;
  EXPECT_LE(optimized.total_calibrations, paper.total_calibrations);
  const VerifyResult check = verify_ise(instance, optimized.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  EXPECT_GE(static_cast<std::int64_t>(optimized.total_calibrations),
            calibration_lower_bound(instance));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizedSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class SpeedSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(SpeedSweep, SpeedAugmentedShortPipeline) {
  const Instance instance = generate_short_window(to_params(GetParam()));
  const GreedyEdfMM base;
  const ShortWindowResult slow = solve_short_window(instance, base);
  ASSERT_TRUE(slow.feasible) << slow.error;
  const SpeedupMM fast_box(std::make_shared<GreedyEdfMM>(), 2);
  const ShortWindowResult fast = solve_short_window(instance, fast_box);
  ASSERT_TRUE(fast.feasible) << fast.error;
  // Faster machines never require more of them.
  EXPECT_LE(fast.telemetry.sum_mm_machines, slow.telemetry.sum_mm_machines);
  const VerifyResult check = verify_ise(instance, fast.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpeedSweep, testing::ValuesIn(sweep_cases()),
                         case_name);

class GridCollapseSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(GridCollapseSweep, TypedGridsCollapseToLemma3OnUnitModel) {
  // P8: for an implicit-unit instance and for the same instance with the
  // explicit {T, 1, 0} table, typed_tise_calibration_points must have
  // exactly one per-type grid, equal to the classic tise grid — the
  // generalized machinery is a strict extension, not a reinterpretation.
  for (Instance instance :
       {generate_long_window(to_params(GetParam())),
        generate_mixed(to_params(GetParam()), 0.5)}) {
    const std::vector<Time> classic = tise_calibration_points(instance);
    for (int pass = 0; pass < 2; ++pass) {
      const auto typed = typed_tise_calibration_points(instance);
      ASSERT_EQ(typed.size(), 1u);
      EXPECT_EQ(typed[0], classic);
      // Second pass: the explicit one-type unit table.
      instance.cal = CalibrationModel::unit(instance.T);
    }
    // The canonical superset relation survives the generalization too.
    const auto all = canonical_calibration_points(instance);
    for (const Time t : classic) {
      EXPECT_TRUE(std::binary_search(all.begin(), all.end(), t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridCollapseSweep,
                         testing::ValuesIn(sweep_cases()), case_name);

// ----------------------------------------------------------------- P10 --
//
// solve_tise_lp solves the LP over dominant grid points without the window
// rows (1) first, and keeps that optimum only when it satisfies (1). The
// sweep checks that the answer is always the paper's LP's: the status
// (infeasible included) and objective of the full LP under the dense
// oracle, and a returned point feasible for the full LP.

/// The long-job instances the certificate sweep covers: the long-window
/// family, clustered long windows, the long half of a mixed instance, and
/// a dense long-window family (horizon 3n) whose window rows bind.
std::vector<std::pair<std::string, Instance>> certificate_families(
    const SweepCase& c) {
  const GenParams params = to_params(c);
  GenParams dense = params;
  dense.horizon = 3 * c.n;
  return {
      {"long", generate_long_window(params)},
      {"clustered-long", generate_clustered(params, 3, 2 * c.T, true)},
      {"mixed", split_by_window(generate_mixed(params, 0.5)).long_jobs},
      {"dense-long", generate_long_window(dense)},
  };
}

class TiseCertificateSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(TiseCertificateSweep, MatchesTheFullLpUnderTheDenseOracle) {
  for (const auto& [family, instance] : certificate_families(GetParam())) {
    if (instance.empty()) continue;
    for (const int multiplier : {1, 2, 3}) {
      const int m_prime = multiplier * instance.machines;
      SCOPED_TRACE(family + " m'=" + std::to_string(m_prime));
      const TiseLpModel full = build_tise_lp(instance, m_prime);
      const LpSolution expected = solve_lp_dense(full.model);
      const TiseFractional fractional = solve_tise_lp(instance, m_prime);
      ASSERT_EQ(fractional.status, expected.status);
      if (expected.status != LpStatus::kOptimal) {
        // No feasible point can be certified: the answer is the full LP's.
        EXPECT_TRUE(fractional.window_fallback);
        continue;
      }
      EXPECT_NEAR(fractional.objective, expected.objective, 1e-6);
      // Read as a point of the full LP, the returned solution is feasible.
      // Each returned point maps by value onto the full LP's grid.
      std::vector<int> on_grid;
      for (const Time t : fractional.points) {
        const auto it =
            std::lower_bound(full.points.begin(), full.points.end(), t);
        ASSERT_TRUE(it != full.points.end() && *it == t) << "point " << t;
        on_grid.push_back(static_cast<int>(it - full.points.begin()));
      }
      std::vector<double> x(static_cast<std::size_t>(full.model.num_variables()),
                            0.0);
      for (std::size_t q = 0; q < fractional.points.size(); ++q) {
        x[static_cast<std::size_t>(full.calibration_column[on_grid[q]])] =
            fractional.calibration_mass[q];
      }
      for (std::size_t j = 0; j < instance.size(); ++j) {
        for (const auto& [point, value] : fractional.assignment[j]) {
          for (const auto& [full_point, column] : full.assignment_columns[j]) {
            if (full_point == on_grid[static_cast<std::size_t>(point)]) {
              x[static_cast<std::size_t>(column)] = value;
            }
          }
        }
      }
      EXPECT_LE(full.model.max_violation(x), 1e-6);
    }
  }
}

TEST_P(TiseCertificateSweep, DominantPointsAreTheMaximalJobSets) {
  for (const auto& [family, instance] : certificate_families(GetParam())) {
    SCOPED_TRACE(family);
    const std::vector<Time> points = tise_calibration_points(instance);
    std::vector<std::vector<std::size_t>> sets(points.size());  // J(t), sorted
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (std::size_t j = 0; j < instance.size(); ++j) {
        const Job& job = instance.jobs[j];
        if (job.release <= points[p] && points[p] <= job.deadline - instance.T) {
          sets[p].push_back(j);
        }
      }
    }
    const auto within = [&](std::size_t a, std::size_t b) {
      return std::includes(sets[b].begin(), sets[b].end(), sets[a].begin(),
                           sets[a].end());
    };
    const std::vector<int> dominant = dominant_point_indices(instance, points);
    // Every point's set lies inside a dominant point's set...
    for (std::size_t p = 0; p < points.size(); ++p) {
      EXPECT_TRUE(std::any_of(dominant.begin(), dominant.end(),
                              [&](int d) { return within(p, d); }))
          << "point " << points[p];
    }
    // ... and the dominant sets are maximal and pairwise distinct.
    for (const int d : dominant) {
      for (std::size_t q = 0; q < points.size(); ++q) {
        EXPECT_FALSE(within(d, q) && sets[q].size() > sets[d].size())
            << "point " << points[d] << " inside " << points[q];
      }
      for (const int e : dominant) {
        if (d != e) {
          EXPECT_NE(sets[d], sets[e]);
        }
      }
    }
  }
}

TEST_P(TiseCertificateSweep, BlockSweepFindsTheGridsDominantPoints) {
  // dominant_blocks finds, without the grid, exactly the dominant points
  // the oracle reads off the built grid, in blocks that partition the jobs
  // and share no feasible point.
  for (const auto& [family, instance] : certificate_families(GetParam())) {
    SCOPED_TRACE(family);
    const std::vector<Time> grid = tise_calibration_points(instance);
    std::vector<Time> expected;
    for (const int d : dominant_point_indices(instance, grid)) {
      expected.push_back(grid[static_cast<std::size_t>(d)]);
    }
    std::vector<Time> found;
    std::vector<int> block_of(instance.size(), -1);
    const std::vector<DominantBlock> blocks = dominant_blocks(instance);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_FALSE(blocks[b].points.empty());
      EXPECT_TRUE(std::is_sorted(blocks[b].jobs.begin(), blocks[b].jobs.end()));
      found.insert(found.end(), blocks[b].points.begin(), blocks[b].points.end());
      for (const std::size_t j : blocks[b].jobs) {
        ASSERT_EQ(block_of[j], -1) << "job " << j << " in two blocks";
        block_of[j] = static_cast<int>(b);
      }
    }
    EXPECT_EQ(found, expected);
    EXPECT_EQ(std::count(block_of.begin(), block_of.end(), -1), 0);
    // A job's trimmed window holds only its own block's points.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (const Time t : blocks[b].points) {
        for (std::size_t j = 0; j < instance.size(); ++j) {
          const Job& job = instance.jobs[j];
          if (job.release <= t && t <= job.deadline - instance.T) {
            EXPECT_EQ(block_of[j], static_cast<int>(b)) << "point " << t;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TiseCertificateSweep,
                         testing::ValuesIn(sweep_cases()), case_name);

TEST(TiseCertificate, SweepReachesEveryOutcome) {
  // The sweep is only as strong as its cases: they must include certified
  // optima, fallbacks to a feasible full LP, and infeasible LPs.
  int certified = 0;
  int fallback = 0;
  int infeasible = 0;
  for (const SweepCase& c : sweep_cases()) {
    for (const auto& [family, instance] : certificate_families(c)) {
      if (instance.empty()) continue;
      for (const int multiplier : {1, 2, 3}) {
        const TiseFractional fractional =
            solve_tise_lp(instance, multiplier * instance.machines);
        if (fractional.status == LpStatus::kInfeasible) {
          ++infeasible;
        } else if (fractional.window_fallback) {
          ++fallback;
        } else {
          ++certified;
        }
      }
    }
  }
  EXPECT_GT(certified, 0);
  EXPECT_GT(fallback, 0);
  EXPECT_GT(infeasible, 0);
}

// ------------------------------------------------------------------ P9 --
//
// Ratio sweep against certified exact optima at n ~ 100..200. Random
// generator families are hopeless at these sizes for *any* exact engine
// (the job-subset lattice is unstructured), so the sweep uses wave
// instances — k waves of c identical jobs {w*gap, w*gap + W, p} — whose
// twin symmetry the state-space engine collapses to per-wave counts. The
// branch-and-bound oracle certifies these only up to n ~ 20; the layered
// engine reaches n = 200 in a few hundred thousand states (the >= 5x
// engine-size claim of DESIGN.md section 13, exercised as a test).

struct WaveCase {
  int k;         ///< waves
  int c;         ///< identical jobs per wave
  int machines;
  Time gap;      ///< wave-to-wave release spacing
  Time window;   ///< per-job window length
  Time proc;
  Time T;
};

std::string wave_case_name(const testing::TestParamInfo<WaveCase>& info) {
  const WaveCase& c = info.param;
  return "n" + std::to_string(c.k * c.c) + "_m" + std::to_string(c.machines);
}

Instance wave_instance(const WaveCase& c) {
  Instance instance;
  instance.T = c.T;
  instance.machines = c.machines;
  JobId id = 0;
  for (int w = 0; w < c.k; ++w) {
    for (int i = 0; i < c.c; ++i) {
      instance.jobs.push_back(
          {id++, w * c.gap, w * c.gap + c.window, c.proc});
    }
  }
  return instance;
}

std::vector<WaveCase> wave_cases() {
  // T = 6, p = 2, window 8: four jobs saturate one machine's wave, three
  // share one calibration, and adjacent waves (gap 10, so windows end 2
  // before the next release) admit boundary calibration sharing — the
  // optimum is genuinely below one-calibration-per-wave-slot.
  return {
      {25, 4, 1, 10, 8, 2, 6},  // n = 100
      {38, 4, 1, 10, 8, 2, 6},  // n = 152
      {50, 4, 1, 10, 8, 2, 6},  // n = 200
      {4, 6, 2, 12, 8, 2, 6},   // n = 24, two machines
  };
}

class ExactRatioSweep : public testing::TestWithParam<WaveCase> {};

TEST_P(ExactRatioSweep, PaperBoundsHoldAgainstCertifiedOptima) {
  const Instance instance = wave_instance(GetParam());
  ExactIseOptions options;
  options.limits.node_budget = 20'000'000;
  options.max_calibrations = 999;  // trimmed by the greedy upper-bound hint
  const ExactIseResult exact = solve_exact_ise(instance, options);
  ASSERT_TRUE(exact.solved) << "state budget exhausted at n="
                            << instance.size();
  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(verify_ise(instance, exact.schedule).ok());
  const auto opt = static_cast<std::int64_t>(exact.optimal_calibrations);

  // The combinatorial lower bound never exceeds the true optimum.
  EXPECT_GE(opt, calibration_lower_bound(instance));

  // Any feasible baseline upper-bounds the optimum. (The lazy greedy is
  // allowed to fail on tight instances — fully saturated single-machine
  // waves defeat it — and reports that honestly rather than feasibly.)
  const GreedyCostResult lazy = solve_greedy_cost(instance);
  if (lazy.feasible) {
    EXPECT_GE(static_cast<std::int64_t>(lazy.schedule.num_calibrations()),
              opt);
  }

  // Theorem 20 with an exact MM box (alpha = 1, gamma = 2): the short-
  // window pipeline pays at most 16 * gamma * alpha * OPT calibrations.
  // Every wave job is short-window (window < 2T), so the pipeline applies
  // to the whole instance.
  const ExactMM exact_mm;
  const ShortWindowResult pipeline = solve_short_window(instance, exact_mm);
  ASSERT_TRUE(pipeline.feasible) << pipeline.error;
  ASSERT_TRUE(verify_ise(instance, pipeline.schedule).ok());
  const auto pipeline_cals =
      static_cast<std::int64_t>(pipeline.telemetry.total_calibrations);
  EXPECT_GE(pipeline_cals, opt);
  EXPECT_LE(pipeline_cals, 32 * opt);

  // The end-to-end solver can never beat a certified optimum.
  const IseSolveResult solved = solve_ise(instance);
  ASSERT_TRUE(solved.feasible) << solved.error;
  EXPECT_GE(static_cast<std::int64_t>(solved.total_calibrations), opt);
  EXPECT_LE(static_cast<std::int64_t>(solved.total_calibrations), 32 * opt);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactRatioSweep,
                         testing::ValuesIn(wave_cases()), wave_case_name);

}  // namespace
}  // namespace calisched
