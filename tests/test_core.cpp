// Unit tests for src/core: instance model, schedule container, Lemma 3 grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/calibration_points.hpp"
#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "gen/generators.hpp"
#include "verify/verify.hpp"

namespace calisched {
namespace {

Instance small_instance() {
  Instance instance;
  instance.machines = 2;
  instance.T = 10;
  instance.jobs = {
      {0, 0, 30, 5},
      {1, 5, 40, 10},
      {2, 12, 25, 3},
  };
  return instance;
}

TEST(Job, WindowAndSlack) {
  const Job job{0, 5, 25, 7};
  EXPECT_EQ(job.window(), 20);
  EXPECT_EQ(job.slack(), 13);
  EXPECT_EQ(job.latest_start(), 18);
}

TEST(Job, LongClassification) {
  EXPECT_TRUE((Job{0, 0, 20, 1}).is_long(10));   // window == 2T
  EXPECT_FALSE((Job{0, 0, 19, 1}).is_long(10));  // window < 2T
}

TEST(Instance, AggregatesAndValidate) {
  const Instance instance = small_instance();
  EXPECT_EQ(instance.min_release(), 0);
  EXPECT_EQ(instance.max_deadline(), 40);
  EXPECT_EQ(instance.total_work(), 18);
  EXPECT_FALSE(instance.validate().has_value());
}

TEST(Instance, ValidateRejectsBadData) {
  Instance instance = small_instance();
  instance.T = 1;
  EXPECT_TRUE(instance.validate().has_value());

  instance = small_instance();
  instance.jobs[0].proc = 11;  // > T
  EXPECT_TRUE(instance.validate().has_value());

  instance = small_instance();
  instance.jobs[1].deadline = instance.jobs[1].release;  // window < proc
  EXPECT_TRUE(instance.validate().has_value());

  instance = small_instance();
  instance.jobs[2].id = instance.jobs[0].id;  // duplicate id
  EXPECT_TRUE(instance.validate().has_value());

  // The first error in job order wins: an earlier job's own error before a
  // later repeat, and at the repeating job its id before its data.
  instance = small_instance();  // ids 0, 1, 2
  instance.jobs.push_back({0, 0, 30, 5});
  instance.jobs[1].proc = 0;
  EXPECT_EQ(instance.validate(), "job 1: processing time must be >= 1");
  instance.jobs[1].proc = 10;
  instance.jobs[3].proc = 0;
  EXPECT_EQ(instance.validate(), "duplicate job id 0");
  // ids 5, 2, 5, 2: the first repeat in job order is 5, not the smaller 2.
  instance.jobs[0].id = 5;
  instance.jobs[1].id = 2;
  instance.jobs[2].id = 5;
  instance.jobs[3] = {2, 0, 30, 5};
  EXPECT_EQ(instance.validate(), "duplicate job id 5");

  instance = small_instance();
  instance.machines = 0;
  EXPECT_TRUE(instance.validate().has_value());
}

TEST(Instance, ValidateAcceptsTheLargestIdWithoutAnIdSizedTable) {
  // Duplicate detection must not allocate by the largest id: a table
  // indexed by id would take 256 MiB for 2^31 - 1.
  const JobId largest = std::numeric_limits<JobId>::max();
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{largest, 0, 10, 5}, {0, 0, 10, 5}};
  EXPECT_FALSE(instance.validate().has_value());
  instance.jobs[1].id = largest;
  EXPECT_EQ(instance.validate(), "duplicate job id 2147483647");
}

TEST(Instance, JobById) {
  const Instance instance = small_instance();
  EXPECT_EQ(instance.job_by_id(1).proc, 10);
}

TEST(Instance, SplitByWindowPartitions) {
  Instance instance = small_instance();  // T = 10
  // windows: 30 (long), 35 (long), 13 (short)
  const WindowSplit split = split_by_window(instance);
  EXPECT_EQ(split.long_jobs.size(), 2u);
  EXPECT_EQ(split.short_jobs.size(), 1u);
  EXPECT_EQ(split.short_jobs.jobs[0].id, 2);
  EXPECT_EQ(split.long_jobs.T, instance.T);
  EXPECT_EQ(split.long_jobs.machines, instance.machines);
}

TEST(Instance, IoRoundTrip) {
  const Instance instance = small_instance();
  std::stringstream buffer;
  write_instance(buffer, instance);
  const Instance parsed = read_instance(buffer);
  EXPECT_EQ(parsed.machines, instance.machines);
  EXPECT_EQ(parsed.T, instance.T);
  ASSERT_EQ(parsed.jobs.size(), instance.jobs.size());
  for (std::size_t i = 0; i < parsed.jobs.size(); ++i) {
    EXPECT_EQ(parsed.jobs[i], instance.jobs[i]);
  }
}

TEST(Instance, IoRejectsMalformed) {
  std::stringstream buffer("job 0 zero ten 1\n");
  EXPECT_THROW(read_instance(buffer), std::runtime_error);
  std::stringstream buffer2("frob 1\n");
  EXPECT_THROW(read_instance(buffer2), std::runtime_error);
}

TEST(Instance, IoSkipsComments) {
  std::stringstream buffer("# comment\nmachines 3\nT 5\n\njob 0 0 5 2\n");
  const Instance parsed = read_instance(buffer);
  EXPECT_EQ(parsed.machines, 3);
  EXPECT_EQ(parsed.jobs.size(), 1u);
}

TEST(Schedule, DurationTicks) {
  Schedule schedule;
  schedule.time_denominator = 6;
  schedule.speed = 3;
  EXPECT_EQ(schedule.job_duration_ticks(5), 10);
}

TEST(Schedule, MachinesUsedCountsDistinct) {
  Schedule schedule;
  schedule.machines = 5;
  schedule.calibrations = {{0, 0}, {0, 20}, {3, 0}};
  schedule.jobs = {{0, 3, 1}};
  EXPECT_EQ(schedule.machines_used(), 2);
}

TEST(Schedule, NormalizeSorts) {
  Schedule schedule;
  schedule.machines = 2;
  schedule.calibrations = {{1, 0}, {0, 10}, {0, 0}};
  schedule.jobs = {{2, 1, 5}, {1, 0, 2}};
  schedule.normalize();
  EXPECT_EQ(schedule.calibrations.front().machine, 0);
  EXPECT_EQ(schedule.calibrations.front().start, 0);
  EXPECT_EQ(schedule.jobs.front().job, 1);
}

TEST(Schedule, AppendDisjointOffsetsMachines) {
  Instance instance = small_instance();
  Schedule a = Schedule::empty_like(instance, 2);
  a.calibrations = {{0, 0}};
  Schedule b = Schedule::empty_like(instance, 3);
  b.calibrations = {{2, 5}};
  b.jobs = {{0, 1, 5}};
  a.append_disjoint(b, 2);
  EXPECT_EQ(a.machines, 5);
  EXPECT_EQ(a.calibrations[1].machine, 4);
  EXPECT_EQ(a.jobs[0].machine, 3);
}

TEST(Schedule, ScaleDenominatorRefinesTicks) {
  Instance instance = small_instance();
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.calibrations = {{0, 5}};
  schedule.jobs = {{0, 0, 7}};
  schedule.scale_denominator(4);
  EXPECT_EQ(schedule.time_denominator, 4);
  EXPECT_EQ(schedule.calibrations[0].start, 20);
  EXPECT_EQ(schedule.jobs[0].start, 28);
  EXPECT_EQ(schedule.calibration_ticks(), 40);
}

TEST(Schedule, ScaleSpeedShrinksJobs) {
  Instance instance = small_instance();
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.scale_denominator(2);
  schedule.scale_speed(2);
  EXPECT_EQ(schedule.speed, 2);
  // p = 6 at denominator 2, speed 2: 6 ticks.
  EXPECT_EQ(schedule.job_duration_ticks(6), 6);
}

TEST(Schedule, ScalingPreservesVerification) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 5}};
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.calibrations = {{0, 0}};
  schedule.jobs = {{0, 0, 3}};
  ASSERT_TRUE(verify_ise(instance, schedule).ok());
  schedule.scale_denominator(6);
  EXPECT_TRUE(verify_ise(instance, schedule).ok());
  schedule.scale_speed(3);  // faster machines: jobs only shrink
  EXPECT_TRUE(verify_ise(instance, schedule).ok());
}

TEST(Schedule, PruneEmptyCalibrationsKeepsHosts) {
  Instance instance = small_instance();
  Schedule schedule = Schedule::empty_like(instance, 2);
  schedule.calibrations = {{0, 0}, {0, 10}, {1, 0}};
  schedule.jobs = {{0, 0, 2}};  // job 0 (p=5) sits in [0, 10) on machine 0
  const std::size_t removed = schedule.prune_empty_calibrations(instance);
  EXPECT_EQ(removed, 2u);
  ASSERT_EQ(schedule.calibrations.size(), 1u);
  EXPECT_EQ(schedule.calibrations[0].machine, 0);
  EXPECT_EQ(schedule.calibrations[0].start, 0);
}

TEST(Schedule, PruneEmptyCalibrationsIsSpeedAware) {
  Instance instance;
  instance.machines = 1;
  instance.T = 10;
  instance.jobs = {{0, 0, 20, 5}};
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.time_denominator = 4;
  schedule.speed = 4;  // job lasts 5 ticks; calibration lasts 40 ticks
  schedule.calibrations = {{0, 0}, {0, 40}};
  schedule.jobs = {{0, 0, 42}};  // [42, 47) sits in [40, 80), not [0, 40)
  EXPECT_EQ(schedule.prune_empty_calibrations(instance), 1u);
  ASSERT_EQ(schedule.calibrations.size(), 1u);
  EXPECT_EQ(schedule.calibrations[0].start, 40);
}

TEST(CalibrationModel, UnitTableIsTheDegenerateCase) {
  Instance instance = small_instance();
  EXPECT_TRUE(instance.is_unit_model());
  EXPECT_EQ(instance.effective_model(), CalibrationModel::unit(instance.T));
  EXPECT_EQ(instance.max_calibration_length(), instance.T);
  // The explicit {T, 1, 0} table is extensionally the same model.
  instance.cal = CalibrationModel::unit(instance.T);
  EXPECT_TRUE(instance.is_unit_model());
  EXPECT_FALSE(instance.validate().has_value());
  // Any other table is not.
  instance.cal.types.push_back({5, 3, 1});
  EXPECT_FALSE(instance.is_unit_model());
  EXPECT_EQ(instance.effective_model().max_span(), 10);
  EXPECT_EQ(instance.effective_model().min_cost(), 1);
}

TEST(CalibrationModel, ValidateRejectsBadTables) {
  Instance instance = small_instance();  // T = 10
  // A one-type unit-shaped table must agree with T.
  instance.cal.types = {{9, 1, 0}};
  ASSERT_TRUE(instance.validate().has_value());
  EXPECT_NE(instance.validate()->find("disagrees with T"), std::string::npos);

  instance.cal.types = {{10, 0, 0}};  // cost < 1
  EXPECT_TRUE(instance.validate().has_value());
  instance.cal.types = {{0, 1, 0}};  // length < 1
  EXPECT_TRUE(instance.validate().has_value());
  instance.cal.types = {{10, 1, -1}};  // negative delay
  EXPECT_TRUE(instance.validate().has_value());

  // p_j is bounded by the longest type length, not by T: jobs here have
  // p up to 10, so a table whose longest type is 5 rejects the instance.
  instance.cal.types = {{5, 2, 0}};
  ASSERT_TRUE(instance.validate().has_value());
  EXPECT_NE(instance.validate()->find("longest calibration type"),
            std::string::npos);
  // ...while a longer type than T accepts it.
  instance.cal.types = {{5, 2, 0}, {12, 4, 1}};
  EXPECT_FALSE(instance.validate().has_value());
}

TEST(Instance, CaltypeIoRoundTrip) {
  Instance instance = small_instance();
  instance.cal.types = {{10, 2, 0}, {20, 5, 3}};
  std::stringstream buffer;
  write_instance(buffer, instance);
  EXPECT_NE(buffer.str().find("caltype 10 2 0\n"), std::string::npos);
  EXPECT_NE(buffer.str().find("caltype 20 5 3\n"), std::string::npos);
  const Instance parsed = read_instance(buffer);
  EXPECT_EQ(parsed.cal, instance.cal);
  EXPECT_EQ(parsed.jobs.size(), instance.jobs.size());
}

TEST(Instance, UnitModelOutputHasNoCaltypeLines) {
  // The pre-cost-model text format is preserved byte for byte: implicit
  // unit instances never emit caltype lines, and old files (which have
  // none) parse to an empty table.
  std::stringstream buffer;
  write_instance(buffer, small_instance());
  EXPECT_EQ(buffer.str().find("caltype"), std::string::npos);
  const Instance parsed = read_instance(buffer);
  EXPECT_TRUE(parsed.cal.empty());
}

TEST(Instance, IoRejectsMalformedCaltype) {
  std::stringstream buffer("machines 1\nT 5\ncaltype 5 two 0\njob 0 0 9 2\n");
  EXPECT_THROW(read_instance(buffer), std::runtime_error);
  std::stringstream truncated("machines 1\nT 5\ncaltype 5\njob 0 0 9 2\n");
  EXPECT_THROW(read_instance(truncated), std::runtime_error);
}

/// The message `read` throws on `text`, or "parsed" when it does not throw.
template <typename Read>
std::string parse_error(Read read, const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read(in);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "parsed";
}

TEST(Instance, IoRejectsTrailingFields) {
  const auto read = [](std::istream& in) { return read_instance(in); };
  const std::string jobs = "job 0 0 30 5\n";
  EXPECT_EQ(parse_error(read, "machines 1 extra\nT 10\n" + jobs),
            "instance parse error on line 1: unexpected field 'extra'");
  EXPECT_EQ(parse_error(read, "machines 1\nT 10 extra\n" + jobs),
            "instance parse error on line 2: unexpected field 'extra'");
  EXPECT_EQ(parse_error(read, "machines 1\nT 10\ncaltype 10 1 0 extra\n" + jobs),
            "instance parse error on line 3: unexpected field 'extra'");
  EXPECT_EQ(parse_error(read, "machines 1\nT 10\njob 1 0 8 2 extra\n"),
            "instance parse error on line 3: unexpected field 'extra'");
  EXPECT_EQ(parse_error(read, "machines 1\nT 10\n" + jobs), "parsed");
}

TEST(Schedule, IoRejectsTrailingFields) {
  const auto read = [](std::istream& in) { return read_schedule(in); };
  const std::string header = "machines 1\nT 10\n";
  EXPECT_EQ(parse_error(read, header + "calibration 0 3 extra\n"),
            "schedule parse error on line 3: unexpected field 'extra'");
  EXPECT_EQ(parse_error(read, header + "calibration 0 3 1 extra\n"),
            "schedule parse error on line 3: unexpected field 'extra'");
  EXPECT_EQ(parse_error(read, header + "job 0 0 3 extra\n"),
            "schedule parse error on line 3: unexpected field 'extra'");
  EXPECT_EQ(parse_error(read, "machines 1 extra\nT 10\n"),
            "schedule parse error on line 1: unexpected field 'extra'");
  EXPECT_EQ(parse_error(read, header + "caltype 10 1 0 extra\n"),
            "schedule parse error on line 3: unexpected field 'extra'");
  // The optional type field stays optional.
  EXPECT_EQ(parse_error(read, header + "calibration 0 3\ncalibration 0 13 0\n"),
            "parsed");
}

TEST(Schedule, CaltypeIoRoundTrip) {
  Instance instance = small_instance();
  instance.cal.types = {{10, 2, 0}, {20, 5, 3}};
  Schedule schedule = Schedule::empty_like(instance, 2);
  schedule.calibrations = {{0, 0, 0}, {1, 4, 1}};
  schedule.jobs = {{0, 0, 1}, {1, 1, 7}};
  std::stringstream buffer;
  write_schedule(buffer, schedule);
  const Schedule parsed = read_schedule(buffer);
  EXPECT_EQ(parsed.cal, schedule.cal);
  EXPECT_EQ(parsed.calibrations, schedule.calibrations);
  EXPECT_EQ(parsed.jobs, schedule.jobs);
  // Unit-model schedules keep the original two-field calibration lines.
  Schedule unit = Schedule::empty_like(small_instance(), 1);
  unit.calibrations = {{0, 3}};
  std::stringstream unit_buffer;
  write_schedule(unit_buffer, unit);
  EXPECT_NE(unit_buffer.str().find("calibration 0 3\n"), std::string::npos);
  EXPECT_EQ(read_schedule(unit_buffer).calibrations, unit.calibrations);
}

TEST(Schedule, TypedTickAccessors) {
  Instance instance = small_instance();
  instance.cal.types = {{10, 2, 0}, {20, 5, 3}};
  Schedule schedule = Schedule::empty_like(instance, 1);
  schedule.scale_denominator(2);
  const Calibration delayed{0, 8, 1};
  EXPECT_EQ(schedule.available_start_ticks(delayed), 8 + 3 * 2);
  EXPECT_EQ(schedule.available_end_ticks(delayed), 8 + (3 + 20) * 2);
  EXPECT_EQ(schedule.occupied_end_ticks(delayed), 8 + 23 * 2);
  schedule.calibrations = {{0, 0, 0}, delayed};
  EXPECT_EQ(schedule.total_cost(), 7);
}

TEST(CalibrationPoints, GeneralizedGridUsesSpanSums) {
  Instance instance;
  instance.machines = 1;
  instance.T = 4;
  instance.cal.types = {{4, 1, 0}, {5, 2, 1}};  // spans 4 and 6
  instance.jobs = {{0, 0, 30, 3}, {1, 7, 29, 4}};
  const std::vector<Time> points = canonical_calibration_points(instance);
  EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
  // Releases plus span sums: 0+4, 0+6, 0+4+6, 7+4, ... must all appear.
  for (const Time t : {Time{0}, Time{4}, Time{6}, Time{10}, Time{7}, Time{11},
                       Time{13}}) {
    EXPECT_TRUE(std::binary_search(points.begin(), points.end(), t)) << t;
  }
  // Nothing at or past the last deadline.
  EXPECT_TRUE(points.back() < instance.max_deadline());
}

TEST(CalibrationPoints, ContainsReleasesAndChains) {
  const Instance instance = small_instance();
  const std::vector<Time> points = canonical_calibration_points(instance);
  EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
  EXPECT_EQ(std::adjacent_find(points.begin(), points.end()), points.end());
  for (const Job& job : instance.jobs) {
    EXPECT_TRUE(std::binary_search(points.begin(), points.end(), job.release));
  }
  // Chain: r0 + k*T for k while < max deadline (40): 0,10,20,30.
  for (const Time t : {Time{0}, Time{10}, Time{20}, Time{30}}) {
    EXPECT_TRUE(std::binary_search(points.begin(), points.end(), t));
  }
  // No point at or past the last deadline.
  EXPECT_TRUE(points.empty() || points.back() < instance.max_deadline());
}

TEST(CalibrationPoints, TisePointsAreFeasibleForSomeJob) {
  GenParams params;
  params.seed = 99;
  params.n = 12;
  params.T = 8;
  params.horizon = 120;
  const Instance instance = generate_long_window(params);
  const std::vector<Time> points = tise_calibration_points(instance);
  ASSERT_FALSE(points.empty());
  for (const Time t : points) {
    const bool feasible = std::any_of(
        instance.jobs.begin(), instance.jobs.end(), [&](const Job& job) {
          return job.release <= t && t <= job.deadline - instance.T;
        });
    EXPECT_TRUE(feasible) << "point " << t;
  }
  // Every job's release must be present (it is always feasible for the job).
  for (const Job& job : instance.jobs) {
    EXPECT_TRUE(std::binary_search(points.begin(), points.end(), job.release));
  }
}

TEST(CalibrationPoints, SubsetRelationship) {
  const Instance instance = small_instance();
  const auto all = canonical_calibration_points(instance);
  const auto tise = tise_calibration_points(instance);
  for (const Time t : tise) {
    EXPECT_TRUE(std::binary_search(all.begin(), all.end(), t));
  }
  EXPECT_LE(tise.size(), all.size());
}

}  // namespace
}  // namespace calisched
