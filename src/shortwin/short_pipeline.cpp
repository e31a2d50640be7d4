#include "shortwin/short_pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>

#include "util/arith.hpp"
#include "util/thread_pool.hpp"

namespace calisched {
namespace {

/// Groups `pending` jobs nested in the intervals of one partitioning pass
/// (intervals [offset + i*2gT, offset + (i+1)*2gT)), removing grouped jobs
/// from `pending`. Returns interval-start -> sub-instance.
std::map<Time, Instance> partition_pass(std::vector<Job>& pending,
                                        const Instance& parent, Time offset) {
  const Time width = 2 * kGamma * parent.T;
  std::map<Time, Instance> intervals;
  std::vector<Job> leftover;
  leftover.reserve(pending.size());
  for (const Job& job : pending) {
    const Time index = floor_div(job.release - offset, width);
    const Time start = offset + index * width;
    if (job.deadline <= start + width) {
      auto [it, inserted] = intervals.try_emplace(start);
      if (inserted) {
        it->second.machines = parent.machines;
        it->second.T = parent.T;
      }
      it->second.jobs.push_back(job);
    } else {
      leftover.push_back(job);
    }
  }
  pending = std::move(leftover);
  return intervals;
}

}  // namespace

ShortWindowTelemetry ShortWindowTelemetry::from_trace(const TraceContext& trace) {
  ShortWindowTelemetry telemetry;
  telemetry.intervals_pass1 = static_cast<int>(trace.counter("intervals.pass1"));
  telemetry.intervals_pass2 = static_cast<int>(trace.counter("intervals.pass2"));
  telemetry.sum_mm_machines = static_cast<int>(trace.counter("mm.machines.sum"));
  telemetry.max_mm_machines = static_cast<int>(trace.counter("mm.machines.max"));
  telemetry.machines_allotted =
      static_cast<int>(trace.counter("machines.allotted"));
  telemetry.total_calibrations =
      static_cast<std::size_t>(trace.counter("calibrations.total"));
  telemetry.mm_algorithms = trace.notes("mm.algorithm");
  std::sort(telemetry.mm_algorithms.begin(), telemetry.mm_algorithms.end());
  return telemetry;
}

ShortWindowResult solve_short_window(const Instance& instance,
                                     const MachineMinimizer& mm,
                                     const IntervalOptions& options) {
  ShortWindowResult result;
  // All telemetry flows through the trace; the caller's sink is used when
  // provided, a local one otherwise, and the legacy telemetry struct is
  // derived from it on every exit path.
  TraceContext local_trace("short_window");
  TraceContext* trace = options.trace ? options.trace : &local_trace;
  IntervalOptions interval_options = options;
  interval_options.trace = trace;
  const auto finish = [&]() {
    result.telemetry = ShortWindowTelemetry::from_trace(*trace);
    return std::move(result);
  };
  for (const Job& job : instance.jobs) {
    assert(job.window() <= kGamma * instance.T &&
           "short-window pipeline requires windows <= gamma*T");
    (void)job;
  }
  trace->set("jobs", static_cast<std::int64_t>(instance.size()));
  result.schedule = Schedule::empty_like(instance, 0);
  if (instance.empty()) {
    result.feasible = true;
    return finish();
  }

  TraceSpan partition_span(trace, "partition");
  std::vector<Job> pending = instance.jobs;
  struct Pass {
    std::map<Time, Instance> intervals;
    std::vector<IntervalScheduleResult> schedules;
    int max_w = 0;
  };
  Pass passes[2];
  passes[0].intervals = partition_pass(pending, instance, /*offset=*/0);
  passes[1].intervals =
      partition_pass(pending, instance, /*offset=*/kGamma * instance.T);
  partition_span.stop();
  if (!pending.empty()) {
    // Contradicts Lemma 16 for short jobs; defensive (asserted above).
    fail_result(result, SolveStatus::kNumericalFailure,
                "job " + std::to_string(pending.front().id) +
                    " fits neither partitioning pass",
                "partition");
    return finish();
  }

  // The intervals are disjoint in time and share no state, so the MM solves
  // fan out across a thread pool. Determinism contract: every interval is
  // always solved (no early exit), each task records into a scratch trace it
  // exclusively owns, and both results and traces are merged in interval
  // order below — so schedule, telemetry, and failure report are identical
  // at any options.threads, sequential path included.
  TraceSpan intervals_span(trace, "intervals");
  struct IntervalTask {
    std::size_t pass;
    Time start;
    const Instance* jobs;
  };
  std::vector<IntervalTask> tasks;
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (const auto& [start, interval_jobs] : passes[pass].intervals) {
      tasks.push_back({pass, start, &interval_jobs});
    }
  }
  std::vector<IntervalScheduleResult> interval_results(tasks.size());
  // deque: TraceContext is neither copyable nor movable.
  std::deque<TraceContext> scratch_traces;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    scratch_traces.emplace_back("interval_scratch");
  }
  const auto run_interval = [&](std::size_t i) {
    IntervalOptions task_options = interval_options;
    task_options.trace = &scratch_traces[i];
    task_options.threads = 1;
    interval_results[i] =
        schedule_interval(*tasks[i].jobs, tasks[i].start, mm, task_options);
  };
  const std::size_t workers =
      options.threads == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : static_cast<std::size_t>(std::max(1, options.threads));
  if (workers > 1 && tasks.size() > 1) {
    // A pool local to this solve: callers may themselves run on a pool
    // (the batch driver), and submitting to a shared pool from one of its
    // own workers would deadlock parallel_for's join.
    ThreadPool pool(std::min(workers, tasks.size()));
    // Chunked: consecutive intervals have similarly-shaped LPs, so a
    // worker's thread-local simplex workspace stays warm across its run.
    // Results and traces are keyed by index — output is order-independent.
    parallel_for_chunked(pool, tasks.size(), run_interval);
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) run_interval(i);
  }
  for (const TraceContext& scratch : scratch_traces) trace->absorb(scratch);
  intervals_span.stop();

  int sum_w = 0;
  int max_w = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    IntervalScheduleResult& interval = interval_results[i];
    if (!interval.feasible) {
      result.status = interval.status;
      result.error = std::move(interval.error);
      return finish();
    }
    Pass& pass = passes[tasks[i].pass];
    sum_w += interval.mm_machines;
    max_w = std::max(max_w, interval.mm_machines);
    pass.max_w = std::max(pass.max_w, interval.mm_machines);
    pass.schedules.push_back(std::move(interval));
  }
  trace->set("mm.machines.sum", sum_w);
  trace->set("mm.machines.max", max_w);
  trace->set("intervals.pass1",
             static_cast<std::int64_t>(passes[0].schedules.size()));
  trace->set("intervals.pass2",
             static_cast<std::int64_t>(passes[1].schedules.size()));

  // Union the interval schedules. Within a pass, intervals share a pool of
  // 3*max_w machines: interval machine groups [0,w), [w,2w), [2w,3w) map to
  // pool groups [0,maxw), [maxw,2maxw), [2maxw,3maxw) so that calendar
  // machines never collide with crossing-job machines of another interval.
  // Passes use disjoint pools.
  // All intervals use the same MM box, hence the same tick resolution;
  // the union inherits it (1 when every interval was empty).
  TraceSpan union_span(trace, "union");
  for (const Pass& pass : passes) {
    for (const IntervalScheduleResult& interval : pass.schedules) {
      if (interval.schedule.time_denominator != 1) {
        assert(result.schedule.time_denominator == 1 ||
               result.schedule.time_denominator ==
                   interval.schedule.time_denominator);
        result.schedule.time_denominator = interval.schedule.time_denominator;
        result.schedule.speed = interval.schedule.speed;
      }
    }
  }

  int pool_base = 0;
  const int groups_per_interval = options.relaxed_calibrations ? 1 : 3;
  for (const Pass& pass : passes) {
    const int pool_w = pass.max_w;
    for (const IntervalScheduleResult& interval : pass.schedules) {
      const int w = interval.mm_machines;
      auto pool_machine = [&](int machine) {
        const int group = machine / std::max(1, w);
        const int lane = machine % std::max(1, w);
        return pool_base + group * pool_w + lane;
      };
      for (const Calibration& cal : interval.schedule.calibrations) {
        result.schedule.calibrations.push_back(
            {pool_machine(cal.machine), cal.start});
      }
      for (const ScheduledJob& sj : interval.schedule.jobs) {
        result.schedule.jobs.push_back({sj.job, pool_machine(sj.machine), sj.start});
      }
    }
    pool_base += groups_per_interval * pool_w;
  }
  result.schedule.machines = std::max(1, pool_base);
  result.schedule.normalize();
  union_span.stop();
  trace->set("machines.allotted", pool_base);
  trace->set("calibrations.total",
             static_cast<std::int64_t>(result.schedule.num_calibrations()));
  result.feasible = true;
  return finish();
}

}  // namespace calisched
