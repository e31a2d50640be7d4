// Tests for the Section-3 long-window machinery: the TISE LP, Algorithm 1
// rounding, Algorithm 3 witness invariants (Lemma 5 / Corollary 6),
// Algorithm 2 EDF assignment, the Lemma 2 transformation, the Lemma 13
// speed transform, and the full Theorem 12 / Theorem 14 pipelines.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <numeric>

#include "core/calibration_points.hpp"
#include "gen/generators.hpp"
#include "util/rng.hpp"
#include "gen/paper_figures.hpp"
#include "longwin/edf_assign.hpp"
#include "longwin/fractional_edf.hpp"
#include "longwin/fractional_witness.hpp"
#include "longwin/grid_normalize.hpp"
#include "longwin/long_pipeline.hpp"
#include "longwin/rounding.hpp"
#include "longwin/speed_transform.hpp"
#include "longwin/tise_lp.hpp"
#include "longwin/trim_transform.hpp"
#include "oracles.hpp"
#include "trace/trace.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

GenParams long_params(std::uint64_t seed, int n = 10) {
  GenParams params;
  params.seed = seed;
  params.n = n;
  params.T = 10;
  params.machines = 2;
  params.horizon = 120;
  params.max_proc = 10;
  return params;
}

TEST(TiseLp, OptimalOnGeneratedInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate_long_window(long_params(seed));
    const TiseFractional fractional = solve_tise_lp(instance, 3 * instance.machines);
    ASSERT_EQ(fractional.status, LpStatus::kOptimal) << "seed " << seed;
    // Every returned point is a grid point, whichever LP produced it.
    const std::vector<Time> grid = tise_calibration_points(instance);
    for (const Time t : fractional.points) {
      ASSERT_TRUE(std::binary_search(grid.begin(), grid.end(), t))
          << "seed " << seed << " point " << t;
    }
    ASSERT_EQ(fractional.calibration_mass.size(), fractional.points.size());
    // Objective is at least the work bound: sum C_t * T >= total work.
    EXPECT_GE(fractional.objective * static_cast<double>(instance.T),
              static_cast<double>(instance.total_work()) - 1e-6);
    // Each job's assignment sums to 1 (constraint 4) and stays within its
    // point's mass (constraint 2).
    std::vector<double> work(fractional.points.size(), 0.0);
    for (std::size_t j = 0; j < instance.size(); ++j) {
      double total = 0.0;
      for (const auto& [point, value] : fractional.assignment[j]) {
        total += value;
        EXPECT_LE(value, fractional.calibration_mass[point] + 1e-6)
            << "seed " << seed << " job " << j << " point " << point;
        work[point] += value * static_cast<double>(instance.jobs[j].proc);
      }
      EXPECT_NEAR(total, 1.0, 1e-6) << "seed " << seed << " job " << j;
    }
    // Per-point work capacity (constraint 3).
    for (std::size_t p = 0; p < fractional.points.size(); ++p) {
      EXPECT_LE(work[p], static_cast<double>(instance.T) *
                                 fractional.calibration_mass[p] +
                             1e-6)
          << "seed " << seed << " point " << p;
    }
    // Sliding window capacity (constraint 1).
    for (std::size_t p = 0; p < fractional.points.size(); ++p) {
      double window_mass = 0.0;
      for (std::size_t q = p; q < fractional.points.size() &&
                              fractional.points[q] < fractional.points[p] + instance.T;
           ++q) {
        window_mass += fractional.calibration_mass[q];
      }
      EXPECT_LE(window_mass, 3 * instance.machines + 1e-6);
    }
  }
}

TEST(TiseLp, EmptyInstanceIsTriviallyOptimal) {
  Instance instance;
  instance.machines = 1;
  instance.T = 5;
  const TiseFractional fractional = solve_tise_lp(instance, 3);
  EXPECT_EQ(fractional.status, LpStatus::kOptimal);
  EXPECT_EQ(fractional.objective, 0.0);
}

TEST(TiseLp, SingleJobCostsOneCalibration) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 30, 7}};
  const TiseFractional fractional = solve_tise_lp(instance, 3);
  ASSERT_EQ(fractional.status, LpStatus::kOptimal);
  // X <= C and sum X = 1 force at least one unit of calibration mass.
  EXPECT_NEAR(fractional.objective, 1.0, 1e-6);
}

TEST(TiseLp, InfeasibleWhenWorkExceedsCapacity) {
  // 4 jobs of work 10 into window [0, 20) on 1 machine: at most 2
  // calibrations overlap-free... but m' machines bound only concurrent
  // calibrations. Force infeasibility: all jobs share window [0, T+5) and
  // total work > m' * T within the only feasible calibration point range.
  Instance instance;
  instance.machines = 1;  // m' = 1 used directly below
  instance.T = 10;
  instance.jobs = {
      {0, 0, 20, 10}, {1, 0, 20, 10}, {2, 0, 20, 10},
  };
  // With m' = 1: calibration mass in any window of length T is <= 1, and
  // all feasible points lie in [0, 10]; mass there is <= 2 but work is 30
  // > 2 * T. (Points 0 and 10 are T apart, so both can carry mass 1.)
  const TiseFractional fractional = solve_tise_lp(instance, 1);
  EXPECT_EQ(fractional.status, LpStatus::kInfeasible);
}

/// Two jobs whose trimmed windows are both [0, 20]: every grid point (0, 10,
/// 20) has the same job set, so the dominant-point LP keeps only t = 20 and
/// stacks two calibrations there. On m' = 1 that breaks the window row at
/// 20, and the full LP has to spread the mass.
Instance binding_window_instance() {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 30, 10}, {1, 0, 30, 10}};
  return instance;
}

TEST(TiseLp, BrokenWindowRowFallsBackToTheFullLp) {
  const Instance instance = binding_window_instance();
  const TiseFractional fractional = solve_tise_lp(instance, 1);
  ASSERT_EQ(fractional.status, LpStatus::kOptimal);
  EXPECT_TRUE(fractional.window_fallback);
  EXPECT_NEAR(fractional.objective, 2.0, 1e-6);
  EXPECT_EQ(fractional.lp_rows, build_tise_lp(instance, 1).model.num_rows());
  for (const double mass : fractional.calibration_mass) {
    EXPECT_LE(mass, 1.0 + 1e-6);
  }

  // The long-window trace records the fallback.
  TraceContext trace("long_window");
  LongWindowOptions options;
  options.trim_multiplier = 1;
  options.trace = &trace;
  const LongWindowResult result = solve_long_window(instance, options);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(trace.counter("lp.window_fallback"), 1);
  EXPECT_TRUE(verify_tise(instance, result.schedule).ok());
}

TEST(TiseLp, SparseWindowsKeepTheDominantPointSolution) {
  const Instance instance = generate_long_window(long_params(1));
  TraceContext trace("long_window");
  LongWindowOptions options;
  options.trace = &trace;
  const LongWindowResult result = solve_long_window(instance, options);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(trace.counter("lp.window_fallback"), 0);
  // The LP behind the result is the dominant-point one: a work row per
  // dominant point, a cover row per job and a pair row per feasible pair.
  const std::vector<Time> grid = tise_calibration_points(instance);
  const std::vector<int> dominant = dominant_point_indices(instance, grid);
  std::int64_t dominant_rows =
      static_cast<std::int64_t>(dominant.size() + instance.size());
  for (const Job& job : instance.jobs) {
    for (const int d : dominant) {
      const Time t = grid[static_cast<std::size_t>(d)];
      if (job.release <= t && t <= job.deadline - instance.T) ++dominant_rows;
    }
  }
  EXPECT_EQ(trace.counter("lp.rows"), dominant_rows);
  EXPECT_LT(trace.counter("lp.rows"),
            build_tise_lp(instance, 3 * instance.machines).model.num_rows());
}

/// Solves `instance` through the long-window pipeline into `trace` and
/// checks that the simplex child's phase pivots add up to lp.pivots.
void expect_pivots_add_up(const Instance& instance, int trim_multiplier,
                          TraceContext& trace) {
  LongWindowOptions options;
  options.trim_multiplier = trim_multiplier;
  options.trace = &trace;
  const LongWindowResult result = solve_long_window(instance, options);
  ASSERT_TRUE(result.feasible) << result.error;
  const TraceContext* simplex = trace.find("simplex");
  ASSERT_NE(simplex, nullptr);
  EXPECT_EQ(simplex->counter("pivots.phase1") + simplex->counter("pivots.phase2"),
            trace.counter("lp.pivots"));
  EXPECT_GT(trace.counter("lp.pivots"), 0);
}

TEST(TiseLp, TracePivotsAddUpOverBlocksAndFallback) {
  // Several blocks, each its own solve into one simplex trace.
  GenParams params = long_params(3, 40);
  params.horizon = 2000;
  TraceContext sparse("long_window");
  expect_pivots_add_up(generate_long_window(params), 3, sparse);
  EXPECT_GT(sparse.counter("lp.blocks"), 1);
  EXPECT_EQ(sparse.counter("lp.window_fallback"), 0);
  // The dominant solve and the full LP behind the fallback.
  TraceContext binding("long_window");
  expect_pivots_add_up(binding_window_instance(), 1, binding);
  EXPECT_EQ(binding.counter("lp.blocks"), 1);
  EXPECT_EQ(binding.counter("lp.window_fallback"), 1);
}

TEST(TiseLp, BlockSweepHandlesNegativeTimesAndLongWindows) {
  // Releases below zero need the floor residue; windows longer than n*T
  // reach their last grid point through r + n*T, not through a residue.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, -37, 200, 4}, {1, -13, 9, 6},   {2, 3, 41, 5},
                   {3, 250, 290, 7}, {4, 251, 400, 2}, {5, 420, 444, 3}};
  const std::vector<Time> grid = tise_calibration_points(instance);
  std::vector<Time> expected;
  for (const int d : dominant_point_indices(instance, grid)) {
    expected.push_back(grid[static_cast<std::size_t>(d)]);
  }
  std::vector<Time> found;
  const std::vector<DominantBlock> blocks = dominant_blocks(instance);
  for (const DominantBlock& block : blocks) {
    found.insert(found.end(), block.points.begin(), block.points.end());
  }
  EXPECT_EQ(found, expected);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].jobs, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(blocks[1].jobs, (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(blocks[2].jobs, (std::vector<std::size_t>{5}));

  // And the same on random windows with negative releases.
  Rng rng(5);
  for (int round = 0; round < 200; ++round) {
    Instance random;
    random.machines = 1;
    random.T = rng.uniform_int(1, 9);
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    for (int j = 0; j < n; ++j) {
      const Time release = rng.uniform_int(-60, 60);
      const Time window = rng.uniform_int(2 * random.T, 12 * random.T);
      random.jobs.push_back({j, release, release + window, 1});
    }
    const std::vector<Time> random_grid = tise_calibration_points(random);
    std::vector<Time> want;
    for (const int d : dominant_point_indices(random, random_grid)) {
      want.push_back(random_grid[static_cast<std::size_t>(d)]);
    }
    std::vector<Time> got;
    for (const DominantBlock& block : dominant_blocks(random)) {
      got.insert(got.end(), block.points.begin(), block.points.end());
    }
    ASSERT_EQ(got, want) << "round " << round;
  }
}

TEST(TiseLp, StoppedSolveReturnsItsStatusWithoutFallback) {
  // A timeout of 0 stops the first solve on an instance whose dominant
  // solution would otherwise fall back.
  const Instance instance = binding_window_instance();
  SimplexOptions lp_options;
  lp_options.limits = RunLimits::deadline_after(std::chrono::milliseconds(0));
  const TiseFractional fractional = solve_tise_lp(instance, 1, lp_options);
  EXPECT_EQ(fractional.status, LpStatus::kDeadlineExceeded);
  EXPECT_FALSE(fractional.window_fallback);

  TraceContext trace("long_window");
  LongWindowOptions options;
  options.trim_multiplier = 1;
  options.limits = RunLimits::deadline_after(std::chrono::milliseconds(0));
  options.trace = &trace;
  const LongWindowResult result = solve_long_window(instance, options);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.status, SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(trace.counter("lp.window_fallback"), 0);
}

TEST(Rounding, HalfUnitSemanticsOnFigure2) {
  const FractionalProfile profile = figure2_profile();
  const std::vector<Time> starts =
      round_calibrations(profile.points, profile.mass);
  // Running totals: .2, .55, .8, 1.6 -> one calibration at the 2nd point,
  // two at the 4th.
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], profile.points[1]);
  EXPECT_EQ(starts[1], profile.points[3]);
  EXPECT_EQ(starts[2], profile.points[3]);
}

TEST(Rounding, CountIsFloorTwiceTotalMass) {
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Time> points;
    std::vector<double> mass;
    Time t = 0;
    for (int i = 0; i < 30; ++i) {
      t += rng.uniform_int(1, 9);
      points.push_back(t);
      mass.push_back(rng.uniform01() * 0.9);
    }
    const double total = std::accumulate(mass.begin(), mass.end(), 0.0);
    const auto starts = round_calibrations(points, mass);
    EXPECT_EQ(starts.size(),
              static_cast<std::size_t>(std::floor(2.0 * total + 1e-6)));
    EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
  }
}

TEST(Rounding, RoundRobinCalendarHasNoOverlaps) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate_long_window(long_params(seed));
    const int m_prime = 3 * instance.machines;
    const TiseFractional fractional = solve_tise_lp(instance, m_prime);
    ASSERT_EQ(fractional.status, LpStatus::kOptimal);
    const auto starts =
        round_calibrations(fractional.points, fractional.calibration_mass);

    // Lemma 4: at most 3m' rounded calibrations start in any [t, t+T).
    for (std::size_t i = 0; i < starts.size(); ++i) {
      std::size_t in_window = 0;
      for (std::size_t j = i; j < starts.size() && starts[j] < starts[i] + instance.T;
           ++j) {
        ++in_window;
      }
      EXPECT_LE(in_window, static_cast<std::size_t>(3 * m_prime))
          << "seed " << seed;
    }

    const Schedule calendar = assign_round_robin(instance, starts, 3 * m_prime);
    // Only calibration-overlap matters here; jobs are not yet assigned.
    const VerifyResult check = verify_ise(instance, calendar);
    for (const Violation& violation : check.violations) {
      EXPECT_NE(violation.kind, Violation::Kind::kCalibrationOverlap)
          << "seed " << seed << ": " << violation.message;
    }
  }
}

TEST(FractionalWitness, Lemma5AndCorollary6Invariants) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate_long_window(long_params(seed, 12));
    const TiseFractional fractional =
        solve_tise_lp(instance, 3 * instance.machines);
    ASSERT_EQ(fractional.status, LpStatus::kOptimal);
    const FractionalWitness witness = run_fractional_witness(instance, fractional);
    // Lemma 5: at scheduling events, y_j <= carryover.
    EXPECT_LE(witness.telemetry.max_y_minus_carryover, 1e-6) << "seed " << seed;
    // Corollary 6: every job covered at least once...
    EXPECT_GE(witness.telemetry.min_job_coverage, 1.0 - 1e-6) << "seed " << seed;
    // ... and no calibration overfull.
    EXPECT_LE(witness.telemetry.max_calibration_work,
              static_cast<double>(instance.T) + 1e-6)
        << "seed " << seed;
    // The witness writes into exactly the Algorithm-1 calibrations.
    const auto starts =
        round_calibrations(fractional.points, fractional.calibration_mass);
    EXPECT_EQ(witness.calibrations.size(), starts.size()) << "seed " << seed;
  }
}

TEST(EdfAssign, AssignsEveryJobOnPipelineCalendars) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate_long_window(long_params(seed, 12));
    const int m_prime = 3 * instance.machines;
    const TiseFractional fractional = solve_tise_lp(instance, m_prime);
    ASSERT_EQ(fractional.status, LpStatus::kOptimal);
    const auto starts =
        round_calibrations(fractional.points, fractional.calibration_mass);
    const Schedule calendar = assign_round_robin(instance, starts, 3 * m_prime);
    const EdfAssignResult assigned = edf_assign_jobs(instance, calendar);
    EXPECT_TRUE(assigned.unassigned.empty())
        << "seed " << seed << ": " << assigned.unassigned.size()
        << " unassigned";
    const VerifyResult check = verify_tise(instance, assigned.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(FractionalEdf, CompleteOnPipelineCalendars) {
  // Lemma 8: a fractional assignment exists on the rounded calendar
  // (Lemma 7), so fractional EDF must complete.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate_long_window(long_params(seed, 12));
    const int m_prime = 3 * instance.machines;
    const TiseFractional lp = solve_tise_lp(instance, m_prime);
    ASSERT_EQ(lp.status, LpStatus::kOptimal);
    const auto starts = round_calibrations(lp.points, lp.calibration_mass);
    const Schedule calendar = assign_round_robin(instance, starts, 3 * m_prime);
    const FractionalEdfResult fractional = fractional_edf(instance, calendar);
    EXPECT_TRUE(fractional.complete) << "seed " << seed;
    // Work conservation: pieces sum to 1 per job, <= T per calibration.
    std::map<JobId, double> totals;
    for (std::size_t c = 0; c < fractional.pieces.size(); ++c) {
      double work = 0.0;
      for (const FractionalPiece& piece : fractional.pieces[c]) {
        totals[piece.job] += piece.fraction;
        work += piece.fraction *
                static_cast<double>(instance.job_by_id(piece.job).proc);
      }
      EXPECT_LE(work, static_cast<double>(instance.T) + 1e-6);
    }
    for (const Job& job : instance.jobs) {
      EXPECT_NEAR(totals[job.id], 1.0, 1e-6) << "seed " << seed;
    }
  }
}

TEST(FractionalEdf, Lemma9IntegerizationIsFeasible) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate_long_window(long_params(seed, 12));
    const int m_prime = 3 * instance.machines;
    const TiseFractional lp = solve_tise_lp(instance, m_prime);
    ASSERT_EQ(lp.status, LpStatus::kOptimal);
    const auto starts = round_calibrations(lp.points, lp.calibration_mass);
    const Schedule calendar = assign_round_robin(instance, starts, 3 * m_prime);
    const FractionalEdfResult fractional = fractional_edf(instance, calendar);
    ASSERT_TRUE(fractional.complete);
    const IntegerizeResult integral =
        integerize_fractional_edf(instance, calendar, fractional);
    EXPECT_TRUE(integral.unassigned.empty()) << "seed " << seed;
    EXPECT_EQ(integral.schedule.machines, 2 * calendar.machines);
    const VerifyResult check = verify_tise(instance, integral.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(FractionalEdf, Lemma10Algorithm2IsAtLeastAsGood) {
  // Lemma 10: after the k-th calibration (in scan order over the mirrored
  // calendar), every job the Lemma-9 route has completed, Algorithm 2 has
  // completed too. Observable form: sort both per-job completion
  // positions; Algorithm 2's i-th completion is never later.
  //
  // Pinned to the paper's full LP and the dense oracle: the comparison is
  // calendar-sensitive, and the calendar comes from rounding whichever
  // optimal vertex the LP lands on (engines, and the dominant-point LP
  // solve_tise_lp tries first, legitimately differ on degenerate optima).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate_long_window(long_params(seed, 12));
    const int m_prime = 3 * instance.machines;
    const TiseLpModel built = build_tise_lp(instance, m_prime);
    const LpSolution lp = solve_lp_dense(built.model);
    ASSERT_EQ(lp.status, LpStatus::kOptimal);
    std::vector<double> mass;
    for (const int column : built.calibration_column) {
      mass.push_back(lp.values[static_cast<std::size_t>(column)]);
    }
    const auto starts = round_calibrations(built.points, mass);
    const Schedule calendar = assign_round_robin(instance, starts, 3 * m_prime);

    const FractionalEdfResult fractional = fractional_edf(instance, calendar);
    const IntegerizeResult lemma9 =
        integerize_fractional_edf(instance, calendar, fractional);
    const EdfAssignResult algorithm2 = edf_assign_jobs(instance, calendar);
    ASSERT_TRUE(fractional.complete);
    ASSERT_TRUE(lemma9.unassigned.empty());
    ASSERT_TRUE(algorithm2.unassigned.empty()) << "seed " << seed;

    // Shared scan order over the mirrored calendar C'.
    std::vector<Calibration> scan = algorithm2.schedule.calibrations;
    std::sort(scan.begin(), scan.end(),
              [](const Calibration& a, const Calibration& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.machine < b.machine;
              });
    const auto completion_positions = [&](const Schedule& schedule) {
      std::vector<std::size_t> positions;
      for (const ScheduledJob& sj : schedule.jobs) {
        const Job& job = instance.job_by_id(sj.job);
        for (std::size_t k = 0; k < scan.size(); ++k) {
          if (scan[k].machine == sj.machine && scan[k].start <= sj.start &&
              sj.start + job.proc <= scan[k].start + instance.T) {
            positions.push_back(k);
            break;
          }
        }
      }
      std::sort(positions.begin(), positions.end());
      return positions;
    };
    const auto a2 = completion_positions(algorithm2.schedule);
    const auto l9 = completion_positions(lemma9.schedule);
    ASSERT_EQ(a2.size(), instance.size());
    ASSERT_EQ(l9.size(), instance.size());
    for (std::size_t i = 0; i < a2.size(); ++i) {
      EXPECT_LE(a2[i], l9[i]) << "seed " << seed << " rank " << i;
    }
  }
}

TEST(FractionalEdf, EmptyCalendarLeavesJobsUnassigned) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 30, 5}};
  const Schedule calendar = Schedule::empty_like(instance, 1);
  const FractionalEdfResult fractional = fractional_edf(instance, calendar);
  EXPECT_FALSE(fractional.complete);
  const IntegerizeResult integral =
      integerize_fractional_edf(instance, calendar, fractional);
  ASSERT_EQ(integral.unassigned.size(), 1u);
  EXPECT_EQ(integral.unassigned[0], 0);
}

TEST(TrimTransform, Figure1ProducesValidTise) {
  const Instance instance = figure1_instance();
  const Schedule ise = figure1_ise_schedule();
  ASSERT_TRUE(verify_ise(instance, ise).ok());
  // The hand schedule intentionally violates TISE for jobs 1, 5, 7.
  EXPECT_FALSE(verify_tise(instance, ise).ok());

  const auto tise = trim_transform(instance, ise);
  ASSERT_TRUE(tise.has_value());
  EXPECT_EQ(tise->machines, 3);
  EXPECT_EQ(tise->num_calibrations(), 3 * ise.num_calibrations());
  const VerifyResult check = verify_tise(instance, *tise);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(TrimTransform, KeepsAlreadyTrimmedJobsInPlace) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 30, 5}};
  Schedule ise = Schedule::empty_like(instance, 1);
  ise.calibrations = {{0, 0}};
  ise.jobs = {{0, 0, 2}};
  const auto tise = trim_transform(instance, ise);
  ASSERT_TRUE(tise.has_value());
  // Job stays on machine i' = 0 at its original time.
  ASSERT_EQ(tise->jobs.size(), 1u);
  EXPECT_EQ(tise->jobs[0].machine, 0);
  EXPECT_EQ(tise->jobs[0].start, 2);
}

TEST(TrimTransform, RejectsUncoveredJob) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 30, 5}};
  Schedule bad = Schedule::empty_like(instance, 1);
  bad.jobs = {{0, 0, 2}};  // no calibration at all
  EXPECT_FALSE(trim_transform(instance, bad).has_value());
}

TEST(GridNormalize, Lemma3NormalizationLandsOnCanonicalGrid) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate_long_window(long_params(seed, 12));
    LongWindowOptions options;
    options.prune_empty_calibrations = true;  // normalizer precondition
    const LongWindowResult pipeline = solve_long_window(instance, options);
    ASSERT_TRUE(pipeline.feasible) << pipeline.error;

    const Schedule normalized = normalize_to_grid(instance, pipeline.schedule);
    // Feasibility and counts are preserved.
    const VerifyResult check = verify_tise(instance, normalized);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_EQ(normalized.num_calibrations(),
              pipeline.schedule.num_calibrations());
    EXPECT_EQ(normalized.machines, pipeline.schedule.machines);
    // Every start lies on the Lemma-3 grid {r_j + kT}.
    const std::vector<Time> grid = canonical_calibration_points(instance);
    for (const Calibration& cal : normalized.calibrations) {
      EXPECT_TRUE(std::binary_search(grid.begin(), grid.end(), cal.start))
          << "seed " << seed << " start " << cal.start;
    }
    // Normalization only advances calibrations.
    Schedule before = pipeline.schedule;
    before.normalize();
    Time total_before = 0, total_after = 0;
    for (const Calibration& cal : before.calibrations) total_before += cal.start;
    for (const Calibration& cal : normalized.calibrations) {
      total_after += cal.start;
    }
    EXPECT_LE(total_after, total_before) << "seed " << seed;
  }
}

TEST(GridNormalize, AlreadyCanonicalIsFixpoint) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 5, 30, 4}};
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.calibrations = {{0, 5}};  // at the job's release: canonical
  schedule.jobs = {{0, 0, 7}};
  const Schedule normalized = normalize_to_grid(instance, schedule);
  ASSERT_EQ(normalized.calibrations.size(), 1u);
  EXPECT_EQ(normalized.calibrations[0].start, 5);
  // The job advanced with the (unmoved) calibration: shift is 0.
  EXPECT_EQ(normalized.jobs[0].start, 7);
}

TEST(GridNormalize, ChainsPackAfterReleases) {
  // Two back-to-back calibrations anchored off-grid: the first advances to
  // the release, the second packs at its end (release + T).
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 3, 40, 5}, {1, 3, 40, 5}};
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.calibrations = {{0, 7}, {0, 19}};
  schedule.jobs = {{0, 0, 8}, {1, 0, 20}};
  ASSERT_TRUE(verify_tise(instance, schedule).ok());
  const Schedule normalized = normalize_to_grid(instance, schedule);
  ASSERT_EQ(normalized.calibrations.size(), 2u);
  EXPECT_EQ(normalized.calibrations[0].start, 3);   // the release
  EXPECT_EQ(normalized.calibrations[1].start, 13);  // packed: 3 + T
  EXPECT_TRUE(verify_tise(instance, normalized).ok());
}

TEST(SpeedTransform, PreservesFeasibilityAndCalibrations) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = generate_long_window(long_params(seed));
    const LongWindowResult pipeline = solve_long_window(instance);
    ASSERT_TRUE(pipeline.feasible) << pipeline.error;
    const int c = (pipeline.schedule.machines + instance.machines - 1) /
                  instance.machines;
    const auto transformed = speed_transform(instance, pipeline.schedule, c);
    ASSERT_TRUE(transformed.has_value()) << "seed " << seed;
    EXPECT_LE(transformed->machines, instance.machines);
    EXPECT_EQ(transformed->speed, 2 * c);
    EXPECT_EQ(transformed->time_denominator, 2 * c);
    EXPECT_LE(transformed->num_calibrations(), pipeline.schedule.num_calibrations())
        << "seed " << seed;
    const VerifyResult check = verify_ise(instance, *transformed);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(SpeedTransform, SingleMachineGroup) {
  // c = source machines: everything lands on one speed-2c machine.
  const Instance instance = figure1_instance();
  const Schedule ise = figure1_ise_schedule();
  const auto tise = trim_transform(instance, ise);
  ASSERT_TRUE(tise.has_value());
  const auto transformed = speed_transform(instance, *tise, tise->machines);
  ASSERT_TRUE(transformed.has_value());
  EXPECT_EQ(transformed->machines, 1);
  const VerifyResult check = verify_ise(instance, *transformed);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(LongPipeline, Theorem12BoundsHold) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate_long_window(long_params(seed, 14));
    const LongWindowResult result = solve_long_window(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    EXPECT_LE(result.schedule.machines, 18 * instance.machines);
    // Internal chain: rounded <= 2 * LP objective; final = 2 * rounded.
    EXPECT_LE(static_cast<double>(result.telemetry.rounded_calibrations),
              2.0 * result.telemetry.lp_objective + 1e-6);
    EXPECT_EQ(result.telemetry.total_calibrations,
              2 * result.telemetry.rounded_calibrations);
    const VerifyResult check = verify_tise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(LongPipeline, AdaptiveMirrorAndPrunePreserveFeasibility) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate_long_window(long_params(seed, 12));
    const LongWindowResult paper = solve_long_window(instance);
    ASSERT_TRUE(paper.feasible) << paper.error;

    LongWindowOptions options;
    options.adaptive_mirror = true;
    options.prune_empty_calibrations = true;
    const LongWindowResult optimized = solve_long_window(instance, options);
    ASSERT_TRUE(optimized.feasible) << "seed " << seed << ": " << optimized.error;
    const VerifyResult check = verify_tise(instance, optimized.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    // Optimizations only remove cost.
    EXPECT_LE(optimized.telemetry.total_calibrations,
              paper.telemetry.total_calibrations)
        << "seed " << seed;
    // Pruning removes calibrations hosting no job; every remaining
    // calibration hosts at least one.
    for (const Calibration& cal : optimized.schedule.calibrations) {
      bool hosts = false;
      for (const ScheduledJob& sj : optimized.schedule.jobs) {
        const Job& job = instance.job_by_id(sj.job);
        if (sj.machine == cal.machine && cal.start <= sj.start &&
            sj.start + job.proc <= cal.start + instance.T) {
          hosts = true;
          break;
        }
      }
      EXPECT_TRUE(hosts) << "seed " << seed << " empty calibration survived";
    }
  }
}

TEST(LongPipeline, VeryLongWindowsStillTractable) {
  // Windows of 8T..15T multiply the LP's feasible pairs; the pipeline must
  // still run and satisfy the budgets.
  GenParams params = long_params(5, 10);
  params.horizon = 200;
  const Instance instance = generate_long_window(params, 8, 15);
  const LongWindowResult result = solve_long_window(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_LE(result.schedule.machines, 18 * instance.machines);
  EXPECT_TRUE(verify_tise(instance, result.schedule).ok());
}

TEST(EdfAssign, DeterministicWithIdenticalJobs) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  // Twin jobs: the id tie-break makes assignment deterministic.
  instance.jobs = {{0, 0, 30, 4}, {1, 0, 30, 4}};
  const TiseFractional lp = solve_tise_lp(instance, 3);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  const auto starts = round_calibrations(lp.points, lp.calibration_mass);
  const Schedule calendar = assign_round_robin(instance, starts, 9);
  const EdfAssignResult a = edf_assign_jobs(instance, calendar);
  const EdfAssignResult b = edf_assign_jobs(instance, calendar);
  ASSERT_EQ(a.schedule.jobs.size(), b.schedule.jobs.size());
  for (std::size_t i = 0; i < a.schedule.jobs.size(); ++i) {
    EXPECT_EQ(a.schedule.jobs[i], b.schedule.jobs[i]);
  }
  // Lower id goes first within the shared calibration.
  Schedule sorted = a.schedule;
  sorted.normalize();
  ASSERT_EQ(sorted.jobs.size(), 2u);
  EXPECT_LT(sorted.jobs[0].start, sorted.jobs[1].start);
  EXPECT_EQ(sorted.jobs[0].job, 0);
}

TEST(SpeedTransform, GroupSizeOneDoublesSpeedOnly) {
  // c = 1: same machine count, speed 2, denominators exact.
  const Instance instance = generate_long_window(long_params(3, 6));
  const LongWindowResult pipeline = solve_long_window(instance);
  ASSERT_TRUE(pipeline.feasible);
  const auto fast = speed_transform(instance, pipeline.schedule, 1);
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->speed, 2);
  EXPECT_EQ(fast->machines, pipeline.schedule.machines);
  EXPECT_TRUE(verify_ise(instance, *fast).ok());
}

TEST(LongPipeline, EmptyInstance) {
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  const LongWindowResult result = solve_long_window(instance);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.num_calibrations(), 0u);
}

TEST(LongPipeline, Theorem14SpeedVariant) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = generate_long_window(long_params(seed));
    const LongWindowResult result = solve_long_window_speed(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    EXPECT_LE(result.schedule.machines, instance.machines);
    EXPECT_LE(result.schedule.speed, 36);
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

}  // namespace
}  // namespace calisched
