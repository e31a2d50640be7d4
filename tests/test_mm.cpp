// Tests for the machine-minimization black boxes and their lower bounds.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "gen/generators.hpp"
#include "lp/revised_simplex.hpp"
#include "runtime/limits.hpp"
#include "mm/lower_bounds.hpp"
#include "mm/lp_bound.hpp"
#include "mm/lp_rounding_mm.hpp"
#include "mm/mm.hpp"
#include "oracles.hpp"
#include "runtime/registry.hpp"
#include "trace/trace.hpp"

namespace calisched {
namespace {

Instance tight_pair() {
  // Two zero-slack jobs over the same window: needs 2 machines.
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {{0, 0, 5, 5}, {1, 0, 5, 5}};
  return instance;
}

TEST(MmLowerBounds, IntervalLoad) {
  const Instance instance = tight_pair();
  EXPECT_EQ(mm_interval_load_bound(instance), 2);
  EXPECT_EQ(mm_tight_overlap_bound(instance), 2);
  EXPECT_EQ(mm_lower_bound(instance), 2);
}

TEST(MmLowerBounds, EmptyInstance) {
  Instance instance;
  instance.machines = 1;
  instance.T = 5;
  EXPECT_EQ(mm_lower_bound(instance), 0);
}

TEST(MmLowerBounds, SequentialJobsNeedOneMachine) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 4, 4}, {1, 4, 8, 4}, {2, 8, 12, 4}};
  EXPECT_EQ(mm_lower_bound(instance), 1);
  const MMResult result = GreedyEdfMM().minimize(instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.machines, 1);
}

TEST(GreedyEdfMM, ProducesVerifierCleanSchedules) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 14;
    params.T = 10;
    params.horizon = 60;
    params.max_proc = 8;
    const Instance instance = generate_mixed(params, 0.4);
    const MMResult result = GreedyEdfMM().minimize(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    const VerifyResult check = verify_mm(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_GE(result.schedule.machines, mm_lower_bound(instance));
  }
}

TEST(GreedyEdfMM, EmptyInstance) {
  Instance instance;
  instance.machines = 1;
  instance.T = 4;
  const MMResult result = GreedyEdfMM().minimize(instance);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.machines, 0);
}

TEST(ExactMM, MatchesKnownOptimum) {
  const Instance instance = tight_pair();
  const MMResult result = ExactMM().minimize(instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.machines, 2);
  EXPECT_TRUE(verify_mm(instance, result.schedule).ok());
}

TEST(ExactMM, BeatsGreedyWhenGreedyOverprovisions) {
  // EDF dispatching can be fooled: a long lax job blocks an urgent one.
  // Exact search must never use more machines than greedy.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 8;
    params.T = 8;
    params.horizon = 30;
    params.max_proc = 6;
    const Instance instance = generate_short_window(params);
    const MMResult greedy = GreedyEdfMM().minimize(instance);
    const MMResult exact = ExactMM().minimize(instance);
    ASSERT_TRUE(greedy.feasible);
    ASSERT_TRUE(exact.feasible);
    EXPECT_LE(exact.schedule.machines, greedy.schedule.machines)
        << "seed " << seed;
    EXPECT_GE(exact.schedule.machines, mm_lower_bound(instance));
    EXPECT_TRUE(verify_mm(instance, exact.schedule).ok());
  }
}

/// The shipped feasibility search (untraced) and its branch-and-bound
/// oracle.
using MmFeasibilityFn = MMFeasibility (*)(const Instance&, int, std::int64_t,
                                          const RunLimits&);
constexpr MmFeasibilityFn kMmSearches[] = {
    [](const Instance& instance, int machines, std::int64_t budget,
       const RunLimits& limits) {
      return exact_mm_feasibility(instance, machines, budget, limits);
    },
    bnb_mm_feasibility};

TEST(ExactMM, FeasibilityProbeRespectsMachineCount) {
  const Instance instance = tight_pair();
  for (const MmFeasibilityFn search : kMmSearches) {
    const MMFeasibility one = search(instance, 1, 100000, RunLimits::none());
    EXPECT_EQ(one.status, SolveStatus::kOk);
    EXPECT_FALSE(one.feasible);
    const MMFeasibility two = search(instance, 2, 100000, RunLimits::none());
    ASSERT_EQ(two.status, SolveStatus::kOk);
    ASSERT_TRUE(two.feasible);
    EXPECT_TRUE(verify_mm(instance, two.schedule).ok());
  }
}

TEST(ExactMM, NodeCounterAdvances) {
  const Instance instance = tight_pair();
  for (const MmFeasibilityFn search : kMmSearches) {
    EXPECT_GT(search(instance, 2, 100000, RunLimits::none()).nodes, 0);
  }
}

TEST(UnitEdfMM, ExactOnUnitJobs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 16;
    params.T = 6;
    params.horizon = 24;
    const Instance instance = generate_unit(params, 5);
    const MMResult unit = UnitEdfMM().minimize(instance);
    const MMResult exact = ExactMM().minimize(instance);
    ASSERT_TRUE(unit.feasible);
    ASSERT_TRUE(exact.feasible);
    EXPECT_EQ(unit.schedule.machines, exact.schedule.machines)
        << "seed " << seed;
    EXPECT_TRUE(verify_mm(instance, unit.schedule).ok());
  }
}

TEST(UnitEdfMM, SaturatedSlotNeedsManyMachines) {
  // k unit jobs all with window [0, 1): needs k machines.
  Instance instance;
  instance.machines = 4;
  instance.T = 5;
  for (JobId j = 0; j < 4; ++j) instance.jobs.push_back({j, 0, 1, 1});
  const MMResult result = UnitEdfMM().minimize(instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.machines, 4);
}

TEST(MmLpBound, TightPairNeedsTwoFractionalMachines) {
  const Instance instance = tight_pair();
  const auto bound = mm_lp_bound(instance);
  ASSERT_TRUE(bound.has_value());
  EXPECT_NEAR(*bound, 2.0, 1e-6);
  EXPECT_EQ(mm_certified_bound(instance), 2);
}

TEST(MmLpBound, EmptyInstanceIsZero) {
  Instance instance;
  instance.machines = 1;
  instance.T = 4;
  const auto bound = mm_lp_bound(instance);
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(*bound, 0.0);
}

TEST(MmLpBound, NeverExceedsExactOptimum) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 8;
    params.T = 8;
    params.horizon = 30;
    params.max_proc = 6;
    const Instance instance = generate_short_window(params);
    const auto lp = mm_lp_bound(instance);
    ASSERT_TRUE(lp.has_value()) << "seed " << seed;
    const MMResult exact = ExactMM().minimize(instance);
    ASSERT_TRUE(exact.feasible);
    EXPECT_LE(std::ceil(*lp - 1e-6), exact.schedule.machines) << "seed " << seed;
    EXPECT_GE(mm_certified_bound(instance), mm_lower_bound(instance));
    EXPECT_LE(mm_certified_bound(instance), exact.schedule.machines)
        << "seed " << seed;
  }
}

TEST(MmLpBound, BeatsCombinatorialSometimes) {
  // Fractional load across overlapping-but-unequal windows can exceed the
  // nested-window bound: three p=2 jobs sharing only a partial overlap.
  Instance instance;
  instance.machines = 3;
  instance.T = 10;
  instance.jobs = {{0, 0, 3, 2}, {1, 1, 4, 2}, {2, 0, 4, 3}};
  const int combinatorial = mm_lower_bound(instance);
  const int certified = mm_certified_bound(instance);
  EXPECT_GE(certified, combinatorial);
  const MMResult exact = ExactMM().minimize(instance);
  ASSERT_TRUE(exact.feasible);
  EXPECT_LE(certified, exact.schedule.machines);
}

TEST(LpRoundingMM, FeasibleAndVerifiedAcrossSeeds) {
  const LpRoundingMM box;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 10;
    params.T = 8;
    params.horizon = 40;
    params.max_proc = 6;
    const Instance instance = generate_short_window(params);
    const MMResult result = box.minimize(instance);
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    const VerifyResult check = verify_mm(instance, result.schedule);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_string();
    EXPECT_GE(result.schedule.machines, mm_lower_bound(instance));
    const MMResult exact = ExactMM().minimize(instance);
    ASSERT_TRUE(exact.feasible);
    EXPECT_GE(result.schedule.machines, exact.schedule.machines)
        << "seed " << seed;
  }
}

TEST(LpRoundingMM, TightPairNeedsTwo) {
  const Instance instance = tight_pair();
  const MMResult result = LpRoundingMM().minimize(instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.machines, 2);
}

TEST(LpRoundingMM, FallsBackOnHugeHorizons) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 1'000'000, 5}};
  const MMResult result = LpRoundingMM().minimize(instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_NE(result.algorithm.find("fallback"), std::string::npos);
  EXPECT_TRUE(verify_mm(instance, result.schedule).ok());
}

TEST(LpRoundingMM, DeterministicPerSeed) {
  GenParams params;
  params.seed = 4;
  params.n = 10;
  params.T = 8;
  params.horizon = 40;
  params.max_proc = 6;
  const Instance instance = generate_short_window(params);
  LpRoundingMM::Options options;
  options.seed = 99;
  const MMResult a = LpRoundingMM(options).minimize(instance);
  const MMResult b = LpRoundingMM(options).minimize(instance);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_EQ(a.schedule.machines, b.schedule.machines);
  ASSERT_EQ(a.schedule.jobs.size(), b.schedule.jobs.size());
  for (std::size_t i = 0; i < a.schedule.jobs.size(); ++i) {
    EXPECT_EQ(a.schedule.jobs[i], b.schedule.jobs[i]);
  }
}

TEST(StartTimeLpBound, DominatesPreemptiveBound) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 8;
    params.T = 8;
    params.horizon = 32;
    params.max_proc = 6;
    const Instance instance = generate_short_window(params);
    const auto start_lp = mm_start_time_lp_bound(instance);
    const auto preemptive_lp = mm_lp_bound(instance);
    ASSERT_TRUE(start_lp.has_value() && preemptive_lp.has_value())
        << "seed " << seed;
    EXPECT_GE(*start_lp, *preemptive_lp - 1e-6) << "seed " << seed;
    const MMResult exact = ExactMM().minimize(instance);
    ASSERT_TRUE(exact.feasible);
    EXPECT_LE(std::ceil(*start_lp - 1e-6), exact.schedule.machines)
        << "seed " << seed;
  }
}

TEST(StartTimeLpBound, HonorsCallerSimplexOptionsAndLimits) {
  GenParams params;
  params.seed = 3;
  params.n = 8;
  params.T = 8;
  params.horizon = 32;
  params.max_proc = 6;
  const Instance instance = generate_short_window(params);

  // An already-expired deadline inside the caller's SimplexOptions must
  // abort before the LP build, not be silently dropped.
  SimplexOptions expired;
  expired.limits = RunLimits::deadline_after(std::chrono::nanoseconds{0});
  EXPECT_FALSE(mm_start_time_lp_bound(instance, 2000, expired).has_value());

  // The workspace is threaded through too: a cold solve in a fresh arena
  // certifies the reference bound.
  SimplexWorkspace fresh;
  SimplexOptions cold;
  cold.workspace = &fresh;
  const auto via_cold = mm_start_time_lp_bound(instance, 2000, cold);
  ASSERT_TRUE(via_cold.has_value());

  // Repeated bound queries can chain a warm start + workspace through the
  // options; the certified value must not move.
  WarmStart warm;
  SimplexWorkspace workspace;
  SimplexOptions chained;
  chained.warm_start = &warm;
  chained.workspace = &workspace;
  const auto first = mm_start_time_lp_bound(instance, 2000, chained);
  const auto second = mm_start_time_lp_bound(instance, 2000, chained);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_TRUE(warm.valid);
  EXPECT_NEAR(*first, *via_cold, 1e-6);
  EXPECT_NEAR(*second, *via_cold, 1e-6);
}

TEST(SpeedupMM, HalvesMachinesOnTightPair) {
  // Two zero-slack p=5 jobs over [0, 5): 2 machines at speed 1, but at
  // speed 2 each takes 2.5 time units and one machine runs them back to
  // back.
  const Instance instance = tight_pair();
  const auto inner = std::make_shared<ExactMM>();
  const SpeedupMM fast(inner, 2);
  const MMResult result = fast.minimize(instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.speed, 2);
  EXPECT_EQ(result.schedule.machines, 1);
  const VerifyResult check = verify_mm(instance, result.schedule);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(SpeedupMM, SpeedOneIsIdentity) {
  const Instance instance = tight_pair();
  const SpeedupMM same(std::make_shared<GreedyEdfMM>(), 1);
  const MMResult result = same.minimize(instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.schedule.speed, 1);
  EXPECT_EQ(result.schedule.machines, 2);
}

TEST(SpeedupMM, NeverUsesMoreMachinesThanBase) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams params;
    params.seed = seed;
    params.n = 10;
    params.T = 8;
    params.horizon = 40;
    params.max_proc = 6;
    const Instance instance = generate_short_window(params);
    const auto inner = std::make_shared<GreedyEdfMM>();
    const MMResult base = inner->minimize(instance);
    const MMResult fast = SpeedupMM(inner, 3).minimize(instance);
    ASSERT_TRUE(base.feasible && fast.feasible) << "seed " << seed;
    EXPECT_LE(fast.schedule.machines, base.schedule.machines) << "seed " << seed;
    EXPECT_TRUE(verify_mm(instance, fast.schedule).ok()) << "seed " << seed;
  }
}

TEST(SpeedupMM, NameReflectsComposition) {
  const SpeedupMM fast(std::make_shared<GreedyEdfMM>(), 2);
  EXPECT_EQ(fast.name(), "speed2x(greedy-edf)");
}

TEST(ExactMM, BudgetFallbackReportsItself) {
  GenParams params;
  params.seed = 9;
  params.n = 10;
  params.T = 8;
  params.horizon = 30;
  params.max_proc = 6;
  const Instance instance = generate_short_window(params);
  RunLimits strangled;
  strangled.node_budget = 3;
  const MMResult result = ExactMM().minimize(instance, strangled);
  ASSERT_TRUE(result.feasible);  // greedy fallback still succeeds
  EXPECT_NE(result.algorithm.find("budget-exceeded"), std::string::npos)
      << result.algorithm;
  EXPECT_TRUE(verify_mm(instance, result.schedule).ok());
}

TEST(ExactMM, TraceCarriesStateSpaceCounters) {
  // mm-exact hands its caller's trace to every feasibility search, so the
  // engine's work counts land next to the box's own mm.* counters.
  const Instance instance = generate_partition_adversarial(77, 4, 6);
  TraceContext trace;
  const RunResult result =
      AlgorithmRegistry::builtin().find("mm-exact")->run(
          instance, RunLimits::none(), &trace);
  ASSERT_TRUE(result.feasible) << result.error;
  EXPECT_GE(trace.counter("state_space.searches"), 1);
  EXPECT_GT(trace.counter("mm.search_nodes"), 0);
  EXPECT_EQ(trace.counter("state_space.states"),
            trace.counter("mm.search_nodes"));
}

TEST(MmBoxes, PartitionAdversarialTwoMachines) {
  // Perfect 2-partition exists by construction: exact MM must find m = 2.
  const Instance instance = generate_partition_adversarial(77, 4, 6);
  const MMResult exact = ExactMM().minimize(instance);
  ASSERT_TRUE(exact.feasible);
  EXPECT_EQ(exact.schedule.machines, 2);
  EXPECT_TRUE(verify_mm(instance, exact.schedule).ok());
}

}  // namespace
}  // namespace calisched
