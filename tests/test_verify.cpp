// Tests for the independent feasibility verifier: each violation class must
// be detected, and clean schedules must pass.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "verify/verify.hpp"

namespace calisched {
namespace {

Instance two_job_instance() {
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {
      {0, 0, 20, 4},
      {1, 2, 30, 6},
  };
  return instance;
}

Schedule clean_schedule(const Instance& instance) {
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.calibrations = {{0, 0}};
  schedule.jobs = {{0, 0, 0}, {1, 0, 4}};
  return schedule;
}

TEST(VerifyIse, CleanSchedulePasses) {
  const Instance instance = two_job_instance();
  const Schedule schedule = clean_schedule(instance);
  const VerifyResult result = verify_ise(instance, schedule);
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_EQ(result.to_string(), "ok");
}

TEST(VerifyIse, DetectsMissingJob) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.jobs.pop_back();
  const VerifyResult result = verify_ise(instance, schedule);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violations[0].kind, Violation::Kind::kStructural);
}

TEST(VerifyIse, DetectsDuplicateJob) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.calibrations.push_back({0, 20});
  schedule.jobs.push_back({0, 0, 20});
  const VerifyResult result = verify_ise(instance, schedule);
  ASSERT_FALSE(result.ok());
}

TEST(VerifyIse, DetectsUnknownJob) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.jobs.push_back({99, 0, 0});
  EXPECT_FALSE(verify_ise(instance, schedule).ok());
}

TEST(VerifyIse, DetectsMachineOutOfRange) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.jobs[0].machine = 7;
  EXPECT_FALSE(verify_ise(instance, schedule).ok());
}

TEST(VerifyIse, DetectsWindowViolation) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.calibrations.push_back({0, 20});
  schedule.jobs[1] = {1, 0, 26};  // finishes at 32 > deadline 30
  const VerifyResult result = verify_ise(instance, schedule);
  ASSERT_FALSE(result.ok());
  bool found = false;
  for (const auto& violation : result.violations) {
    if (violation.kind == Violation::Kind::kWindow) found = true;
  }
  EXPECT_TRUE(found) << result.to_string();
}

TEST(VerifyIse, DetectsJobOutsideCalibration) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.jobs[1] = {1, 0, 8};  // [8, 14) sticks out of [0, 10)
  const VerifyResult result = verify_ise(instance, schedule);
  ASSERT_FALSE(result.ok());
  bool found = false;
  for (const auto& violation : result.violations) {
    if (violation.kind == Violation::Kind::kCalibrationCover) found = true;
  }
  EXPECT_TRUE(found) << result.to_string();
}

TEST(VerifyIse, DetectsJobOnUncalibratedMachine) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.machines = 2;
  schedule.jobs[0].machine = 1;  // machine 1 has no calibration
  EXPECT_FALSE(verify_ise(instance, schedule).ok());
}

TEST(VerifyIse, DetectsJobOverlap) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.jobs[1].start = 2;  // overlaps job 0 at [0, 4)
  const VerifyResult result = verify_ise(instance, schedule);
  ASSERT_FALSE(result.ok());
  bool found = false;
  for (const auto& violation : result.violations) {
    if (violation.kind == Violation::Kind::kJobOverlap) found = true;
  }
  EXPECT_TRUE(found) << result.to_string();
}

TEST(VerifyIse, DetectsCalibrationOverlap) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.calibrations.push_back({0, 5});  // overlaps [0, 10)
  const VerifyResult result = verify_ise(instance, schedule);
  ASSERT_FALSE(result.ok());
  bool found = false;
  for (const auto& violation : result.violations) {
    if (violation.kind == Violation::Kind::kCalibrationOverlap) found = true;
  }
  EXPECT_TRUE(found) << result.to_string();
}

TEST(VerifyIse, BackToBackCalibrationsAreFine) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.calibrations.push_back({0, 10});  // touches [0,10) at 10: allowed
  EXPECT_TRUE(verify_ise(instance, schedule).ok());
}

TEST(VerifyTise, EnforcesTrimmedRestriction) {
  Instance instance = two_job_instance();
  // Job 1: window [2, 30). A calibration at 0 does not nest in it.
  Schedule schedule = clean_schedule(instance);
  EXPECT_TRUE(verify_ise(instance, schedule).ok());
  const VerifyResult result = verify_tise(instance, schedule);
  ASSERT_FALSE(result.ok());
  bool found = false;
  for (const auto& violation : result.violations) {
    if (violation.kind == Violation::Kind::kTise) found = true;
  }
  EXPECT_TRUE(found) << result.to_string();
}

TEST(VerifyTise, NestedCalibrationPasses) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 4}};
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.calibrations = {{0, 5}};  // [5, 15) nests in [0, 20)
  schedule.jobs = {{0, 0, 6}};
  EXPECT_TRUE(verify_tise(instance, schedule).ok());
}

TEST(VerifyIse, SpeedAwareTickArithmetic) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 5}};
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.time_denominator = 4;
  schedule.speed = 4;  // job takes 5 ticks; window is [0, 80) ticks
  schedule.calibrations = {{0, 0}};  // covers [0, 40) ticks
  schedule.jobs = {{0, 0, 12}};
  EXPECT_TRUE(verify_ise(instance, schedule).ok());

  schedule.jobs[0].start = 78;  // [78, 83) exceeds deadline tick 80
  EXPECT_FALSE(verify_ise(instance, schedule).ok());
}

TEST(VerifyIse, DetectsInexactSpeedArithmetic) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 5}};
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.time_denominator = 1;
  schedule.speed = 2;  // 5 * 1 / 2 is not integral
  schedule.calibrations = {{0, 0}};
  schedule.jobs = {{0, 0, 0}};
  const VerifyResult result = verify_ise(instance, schedule);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violations[0].kind, Violation::Kind::kArithmetic);
}

TEST(VerifyIse, OverlapAllowedPolicySkipsCalibrationExclusivity) {
  const Instance instance = two_job_instance();
  Schedule schedule = clean_schedule(instance);
  schedule.calibrations.push_back({0, 5});  // overlaps [0, 10)
  EXPECT_FALSE(verify_ise(instance, schedule).ok());
  EXPECT_TRUE(verify_ise(instance, schedule, /*require_tise=*/false,
                         CalibrationPolicy::kOverlapAllowed)
                  .ok());
  // Other violations are still caught under the relaxed policy.
  schedule.jobs[1].start = 2;  // job overlap
  EXPECT_FALSE(verify_ise(instance, schedule, /*require_tise=*/false,
                          CalibrationPolicy::kOverlapAllowed)
                   .ok());
}

TEST(VerifyIse, ReportsViolationsOnTwoMachinesInAFixedOrder) {
  // Per-job checks come first, in schedule order; then job overlaps and
  // calibration overlaps, each by machine, then by start.
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {{0, 0, 40, 4}, {1, 0, 40, 4}, {2, 0, 40, 4},
                   {3, 0, 40, 4}, {4, 0, 40, 4}, {5, 0, 40, 4}};
  Schedule schedule = Schedule::empty_like(instance, 2);
  schedule.calibrations = {{1, 0}, {1, 5}, {0, 2}, {0, 0}};
  schedule.jobs = {{5, 2, 20}, {0, 1, 0}, {1, 1, 2}, {4, 1, 30},
                   {2, 0, 0},  {3, 0, 3}};
  const VerifyResult result = verify_ise(instance, schedule);
  using Kind = Violation::Kind;
  const std::vector<std::pair<Kind, std::string>> expected = {
      {Kind::kStructural, "job 5: machine index 2 out of range [0, 2)"},
      {Kind::kCalibrationCover,
       "job 5 at tick 20 on machine 2 is not contained in any calibration's "
       "availability window"},
      {Kind::kCalibrationCover,
       "job 4 at tick 30 on machine 1 is not contained in any calibration's "
       "availability window"},
      {Kind::kJobOverlap, "jobs overlap on machine 0: [0, 4) and [3, 7) ticks"},
      {Kind::kJobOverlap, "jobs overlap on machine 1: [0, 4) and [2, 6) ticks"},
      {Kind::kCalibrationOverlap,
       "calibrations overlap on machine 0: [0, 10) and [2, 12) ticks"},
      {Kind::kCalibrationOverlap,
       "calibrations overlap on machine 1: [0, 10) and [5, 15) ticks"},
  };
  std::vector<std::pair<Kind, std::string>> reported;
  for (const Violation& violation : result.violations) {
    reported.emplace_back(violation.kind, violation.message);
  }
  EXPECT_EQ(reported, expected);
}

TEST(VerifyMm, CleanAndViolations) {
  const Instance instance = two_job_instance();
  MMSchedule mm;
  mm.machines = 1;
  mm.jobs = {{0, 0, 0}, {1, 0, 4}};
  EXPECT_TRUE(verify_mm(instance, mm).ok());

  mm.jobs[1].start = 3;  // overlap
  EXPECT_FALSE(verify_mm(instance, mm).ok());

  mm.jobs[1] = {1, 0, 25};  // finishes 31 > 30
  EXPECT_FALSE(verify_mm(instance, mm).ok());

  mm.jobs = {{0, 0, 0}};  // job 1 missing
  EXPECT_FALSE(verify_mm(instance, mm).ok());
}

}  // namespace
}  // namespace calisched
