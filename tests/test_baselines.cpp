// Tests for the baseline ISE algorithms and the calibration lower bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baseline.hpp"
#include "baselines/calibration_bounds.hpp"
#include "baselines/exact_ise.hpp"
#include "baselines/gap_min.hpp"
#include "baselines/ise_lp_bound.hpp"
#include "calib/greedy_cost.hpp"
#include "gen/generators.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

TEST(CalibrationBounds, WorkBound) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 30, 7}, {1, 0, 30, 7}, {2, 0, 30, 7}};
  EXPECT_EQ(calibration_work_bound(instance), 3);  // ceil(21/10)
}

TEST(CalibrationBounds, WindowedBeatsGlobalWhenClustered) {
  // Two tight clusters far apart: global work bound is ceil(12/10) = 2,
  // but each cluster independently needs ceil(6/10) = 1, and they are
  // separated by >> T, so the windowed bound is 2 as well; make clusters
  // heavier to separate the bounds: 2 clusters of work 14 -> windowed 4,
  // global ceil(28/10) = 3.
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {
      {0, 0, 10, 7},    {1, 0, 10, 7},      // cluster A, work 14
      {2, 500, 510, 7}, {3, 500, 510, 7},   // cluster B, work 14
  };
  EXPECT_EQ(calibration_work_bound(instance), 3);
  EXPECT_EQ(calibration_windowed_bound(instance), 4);
  EXPECT_EQ(calibration_lower_bound(instance), 4);
}

TEST(CalibrationBounds, EmptyInstance) {
  Instance instance;
  instance.machines = 1;
  instance.T = 5;
  EXPECT_EQ(calibration_lower_bound(instance), 0);
}

TEST(IseLpBound, SingleJobCostsOneCalibration) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 3, 25, 6}};
  const auto bound = ise_lp_bound(instance);
  ASSERT_TRUE(bound.has_value());
  EXPECT_NEAR(*bound, 1.0, 1e-6);
}

TEST(IseLpBound, NeverExceedsExactOptimum) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 5;
    params.T = 6;
    params.machines = 2;
    params.horizon = 30;
    params.max_proc = 5;
    const Instance instance = generate_mixed(params, 0.5);
    const ExactIseResult exact = solve_exact_ise(instance);
    if (!exact.solved || !exact.feasible) continue;
    const auto lp = ise_lp_bound(instance);
    ASSERT_TRUE(lp.has_value()) << "seed " << seed;
    EXPECT_LE(std::ceil(*lp - 1e-6),
              static_cast<double>(exact.optimal_calibrations))
        << "seed " << seed;
    EXPECT_GE(ise_certified_bound(instance), calibration_lower_bound(instance))
        << "seed " << seed;
    EXPECT_LE(ise_certified_bound(instance),
              static_cast<std::int64_t>(exact.optimal_calibrations))
        << "seed " << seed;
  }
}

TEST(IseLpBound, SeparatedClustersAddUp) {
  // Two clusters far apart: the LP must pay at least one calibration each.
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {{0, 0, 12, 4}, {1, 500, 512, 4}};
  const auto bound = ise_lp_bound(instance);
  ASSERT_TRUE(bound.has_value());
  EXPECT_GE(*bound, 2.0 - 1e-6);
}

TEST(IseLpBound, FallsBackOnHugeHorizons) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 1'000'000, 5}};
  // Grid too large: certified bound falls back to the combinatorial bound.
  EXPECT_EQ(ise_certified_bound(instance), calibration_lower_bound(instance));
}

TEST(PerJobCalibration, AlwaysFeasibleWithNCals) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 15;
    params.T = 10;
    params.horizon = 80;
    params.max_proc = 10;
    const Instance instance = generate_mixed(params, 0.5);
    const BaselineResult result = PerJobCalibration().solve(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_EQ(result.schedule.num_calibrations(), instance.size());
    // Machines in the baseline schedule may exceed instance.machines; it
    // reports what it needs. Verify against a widened instance.
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
  }
}

TEST(SaturateCalibration, FeasibleOnLooseInstances) {
  GenParams params;
  params.seed = 3;
  params.n = 8;
  params.T = 10;
  params.machines = 3;
  params.horizon = 60;
  params.max_proc = 5;
  const Instance instance = generate_long_window(params, 3, 6);
  const BaselineResult result = SaturateCalibration().solve(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  const VerifyResult check = verify_ise(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
  // Cost is m * ceil(span / T).
  const Time span = instance.max_deadline() - instance.min_release();
  EXPECT_EQ(result.schedule.num_calibrations(),
            static_cast<std::size_t>(instance.machines) *
                static_cast<std::size_t>((span + instance.T - 1) / instance.T));
}

TEST(SaturateCalibration, ReportsFailureHonestly) {
  // Grid-aligned EDF cannot split a T-length job across cells, and three
  // same-window full-length jobs cannot fit two grid cells on 1 machine.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 10}, {1, 0, 20, 10}, {2, 0, 20, 10}};
  const BaselineResult result = SaturateCalibration().solve(instance);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.error.empty());
}

TEST(BenderLazy, RequiresUnitJobs) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 2}};
  const BaselineResult result = BenderUnitLazyBinning().solve(instance);
  EXPECT_FALSE(result.feasible);
}

TEST(BenderLazy, SingleCalibrationWhenJobsShareWindow) {
  // T unit jobs in one window of length T: one lazy calibration suffices.
  Instance instance;
  instance.machines = 1;
  instance.T = 5;
  for (JobId j = 0; j < 5; ++j) instance.jobs.push_back({j, 0, 5, 1});
  const BaselineResult result = BenderUnitLazyBinning().solve(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.schedule.num_calibrations(), 1u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(BenderLazy, LazyStartMaximizesFutureCoverage) {
  // One urgent job (d=3) then stragglers at 8..10: the calibration opened
  // at d-1 = 2 spans [2, 12) and catches all of them -> 1 calibration.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 3, 1}, {1, 8, 12, 1}, {2, 9, 12, 1}};
  const BaselineResult result = BenderUnitLazyBinning().solve(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.schedule.num_calibrations(), 1u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(GapMin, SingleBurstIsOneBlock) {
  Instance instance;
  instance.machines = 1;
  instance.T = 2;
  for (JobId j = 0; j < 5; ++j) instance.jobs.push_back({j, 0, 7, 1});
  const GapMinResult result = solve_min_gaps_unit(instance);
  ASSERT_TRUE(result.solved && result.feasible);
  EXPECT_EQ(result.busy_blocks, 1u);
  ASSERT_EQ(result.slots.size(), 5u);
  // The slots form one contiguous run.
  std::vector<Time> times;
  for (const ScheduledJob& sj : result.slots) times.push_back(sj.start);
  std::sort(times.begin(), times.end());
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i], times[i - 1] + 1);
  }
}

TEST(GapMin, ForcedSeparationNeedsTwoBlocks) {
  Instance instance;
  instance.machines = 1;
  instance.T = 2;
  instance.jobs = {{0, 0, 1, 1}, {1, 5, 6, 1}};  // pinned 4 apart
  const GapMinResult result = solve_min_gaps_unit(instance);
  ASSERT_TRUE(result.solved && result.feasible);
  EXPECT_EQ(result.busy_blocks, 2u);
}

TEST(GapMin, InfeasibleInstanceReported) {
  Instance instance;
  instance.machines = 1;
  instance.T = 2;
  instance.jobs = {{0, 0, 1, 1}, {1, 0, 1, 1}};  // two jobs, one slot
  const GapMinResult result = solve_min_gaps_unit(instance);
  EXPECT_TRUE(result.solved);
  EXPECT_FALSE(result.feasible);
}

TEST(GapMin, SlotsRespectWindows) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 6;
    params.T = 4;
    params.machines = 1;
    params.horizon = 14;
    const Instance instance = generate_unit(params, 8);
    const GapMinResult result = solve_min_gaps_unit(instance);
    if (!result.solved || !result.feasible) continue;
    MMSchedule as_mm;
    as_mm.machines = 1;
    as_mm.jobs = result.slots;
    EXPECT_TRUE(verify_mm(instance, as_mm).ok()) << "seed " << seed;
  }
}

TEST(GreedyLazy, FeasibleAndVerifiedAcrossFamilies) {
  int solved = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 14;
    params.T = 10;
    params.machines = 3;
    params.horizon = 90;
    params.max_proc = 8;
    const Instance instance = generate_mixed(params, 0.5);
    const GreedyCostResult result = solve_greedy_cost(instance);
    if (!result.feasible) continue;  // greedy may fail; must never lie
    ++solved;
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_GE(static_cast<std::int64_t>(result.schedule.num_calibrations()),
              calibration_lower_bound(instance));
  }
  EXPECT_GE(solved, 8) << "greedy-lazy should handle most mixed instances";
}

TEST(GreedyLazy, SharesCalibrationAcrossNonUnitJobs) {
  // Three jobs fit one calibration; lazy binning must open exactly one.
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 4}, {1, 0, 20, 3}, {2, 0, 20, 3}};
  const GreedyCostResult result = solve_greedy_cost(instance);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_EQ(result.schedule.num_calibrations(), 1u);
  EXPECT_TRUE(verify_ise(instance, result.schedule).ok());
}

TEST(GreedyLazy, MatchesExactOnTinyInstances) {
  int compared = 0;
  double worst_ratio = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 5;
    params.T = 6;
    params.machines = 2;
    params.horizon = 30;
    params.max_proc = 5;
    const Instance instance = generate_mixed(params, 0.5);
    const ExactIseResult exact = solve_exact_ise(instance);
    if (!exact.solved || !exact.feasible) continue;
    const GreedyCostResult greedy = solve_greedy_cost(instance);
    if (!greedy.feasible) continue;
    ++compared;
    EXPECT_GE(greedy.schedule.num_calibrations(), exact.optimal_calibrations)
        << "seed " << seed;
    worst_ratio = std::max(
        worst_ratio, static_cast<double>(greedy.schedule.num_calibrations()) /
                         static_cast<double>(exact.optimal_calibrations));
  }
  EXPECT_GE(compared, 5);
  // No guarantee exists, but on tiny instances the greedy should stay
  // within a small constant of optimal; catches gross regressions.
  EXPECT_LE(worst_ratio, 3.0);
}

TEST(BenderLazy, FeasibleAcrossRandomUnitInstances) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 20;
    params.T = 6;
    params.machines = 3;
    params.horizon = 50;
    const Instance instance = generate_unit(params, 10);
    const BaselineResult result = BenderUnitLazyBinning().solve(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed << ": " << result.error;
    const VerifyResult check = verify_ise(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_GE(static_cast<std::int64_t>(result.schedule.num_calibrations()),
              calibration_lower_bound(instance));
  }
}

}  // namespace
}  // namespace calisched
