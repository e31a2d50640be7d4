#include "online/online.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace calisched {

namespace {

/// Total alarm firings one simulation will tolerate. A scheduler whose
/// alarms keep requesting new alarms without ever converging would
/// otherwise spin finish() forever; no sane heuristic fires more than a
/// handful of alarms per job.
constexpr std::size_t kMaxAlarms = 1u << 20;

}  // namespace

// ---------------------------------------------------------------------------
// ArrivalTrace

Instance ArrivalTrace::to_instance() const {
  Instance instance;
  instance.machines = machines;
  instance.T = T;
  instance.cal = cal;
  instance.jobs.reserve(events.size());
  for (const ArrivalEvent& event : events) instance.jobs.push_back(event.job);
  std::sort(instance.jobs.begin(), instance.jobs.end(),
            [](const Job& a, const Job& b) { return a.id < b.id; });
  return instance;
}

ArrivalTrace ArrivalTrace::from_instance(const Instance& instance) {
  ArrivalTrace trace;
  trace.machines = instance.machines;
  trace.T = instance.T;
  trace.cal = instance.cal;
  trace.events.reserve(instance.jobs.size());
  for (const Job& job : instance.jobs) {
    trace.events.push_back(ArrivalEvent{job.release, job});
  }
  std::sort(trace.events.begin(), trace.events.end(),
            [](const ArrivalEvent& a, const ArrivalEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.job.id < b.job.id;
            });
  return trace;
}

// ---------------------------------------------------------------------------
// OnlineSimulation

OnlineSimulation::OnlineSimulation(std::unique_ptr<OnlineScheduler> scheduler,
                                   int machines, Time T, CalibrationModel cal)
    : scheduler_(std::move(scheduler)) {
  assert(scheduler_ != nullptr);
  schedule_.machines = machines;
  schedule_.T = T;
  schedule_.cal = std::move(cal);
  schedule_.time_denominator = 1;
  schedule_.speed = 1;
  if (const auto invalid = park().validate()) {
    fail(*invalid);
    return;
  }
  scheduler_->begin(machines, T, schedule_.cal);
}

Instance OnlineSimulation::park() const {
  Instance park;
  park.machines = schedule_.machines;
  park.T = schedule_.T;
  park.cal = schedule_.cal;
  return park;
}

bool OnlineSimulation::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
  return false;
}

bool OnlineSimulation::apply(Time at, OnlineDecision decision,
                             ScheduleDelta& delta) {
  const CalibrationModel model = schedule_.effective_model();
  for (const Calibration& calibration : decision.calibrations) {
    if (calibration.start < at) {
      return fail("append-only violation: calibration start " +
                  std::to_string(calibration.start) +
                  " before decision time " + std::to_string(at));
    }
    if (calibration.machine < 0 || calibration.machine >= schedule_.machines) {
      return fail("calibration on machine " +
                  std::to_string(calibration.machine) + " outside [0, " +
                  std::to_string(schedule_.machines) + ")");
    }
    if (calibration.type < 0 ||
        static_cast<std::size_t>(calibration.type) >= model.size()) {
      return fail("calibration type " + std::to_string(calibration.type) +
                  " outside the type table");
    }
    schedule_.calibrations.push_back(calibration);
    delta.calibrations.push_back(calibration);
  }
  for (const ScheduledJob& placed : decision.jobs) {
    if (placed.start < at) {
      return fail("append-only violation: job " + std::to_string(placed.job) +
                  " start " + std::to_string(placed.start) +
                  " before decision time " + std::to_string(at));
    }
    if (placed.machine < 0 || placed.machine >= schedule_.machines) {
      return fail("job " + std::to_string(placed.job) + " on machine " +
                  std::to_string(placed.machine) + " outside [0, " +
                  std::to_string(schedule_.machines) + ")");
    }
    const auto found = index_of_.find(placed.job);
    if (found == index_of_.end()) {
      return fail("job " + std::to_string(placed.job) +
                  " scheduled before it arrived");
    }
    const std::size_t index = found->second;
    if (scheduled_[index]) {
      return fail("job " + std::to_string(placed.job) + " scheduled twice");
    }
    scheduled_[index] = true;
    schedule_.jobs.push_back(placed);
    delta.jobs.push_back(placed);
  }
  if (decision.wakeup >= 0 && decision.wakeup <= at) {
    return fail("wakeup at " + std::to_string(decision.wakeup) +
                " not after decision time " + std::to_string(at));
  }
  wakeup_ = decision.wakeup;
  return true;
}

bool OnlineSimulation::advance_to(Time time, ScheduleDelta& delta) {
  while (wakeup_ >= 0 && wakeup_ < time) {
    if (++alarms_ > kMaxAlarms) {
      return fail("alarm budget exhausted (scheduler livelock?)");
    }
    now_ = wakeup_;
    wakeup_ = -1;
    if (!apply(now_, scheduler_->on_event(now_, {}), delta)) return false;
  }
  // A wakeup landing exactly on `time` is superseded by the event there:
  // the scheduler sees everything it asked to see and sets a fresh alarm.
  if (wakeup_ == time) wakeup_ = -1;
  now_ = time;
  return true;
}

bool OnlineSimulation::arrive(Time time, const std::vector<Job>& jobs,
                              ScheduleDelta* delta, std::string* error) {
  auto report = [&](bool ok) {
    if (!ok && error != nullptr) *error = error_;
    return ok;
  };
  if (failed()) return report(false);
  if (finished_) return report(fail("arrive() after finish()"));
  if (time < 0) return report(fail("negative arrival time"));
  if (started_ && time < now_) {
    return report(fail("time regression: arrival at " + std::to_string(time) +
                       " after clock reached " + std::to_string(now_)));
  }
  if (time > kMaxTime) {
    return report(fail("arrival time must be <= " + std::to_string(kMaxTime)));
  }
  if (jobs_.size() + jobs.size() > kMaxJobs) {
    return report(fail("job count must be <= " + std::to_string(kMaxJobs)));
  }
  // The admission rules of a solve's instance, plus ids already arrived.
  if (const auto invalid = park().validate_jobs(jobs)) {
    return report(fail(*invalid));
  }
  for (const Job& job : jobs) {
    if (index_of_.count(job.id) != 0) {
      return report(fail("duplicate job id " + std::to_string(job.id)));
    }
  }
  ScheduleDelta combined;
  combined.time = time;
  if (!advance_to(time, combined)) return report(false);
  started_ = true;
  ++events_;
  for (const Job& job : jobs) {
    index_of_.emplace(job.id, jobs_.size());
    jobs_.push_back(job);
    scheduled_.push_back(false);
  }
  if (!apply(time, scheduler_->on_event(time, jobs), combined)) {
    return report(false);
  }
  if (delta != nullptr) *delta = combined;
  deltas_.push_back(std::move(combined));
  return report(true);
}

OnlineResult OnlineSimulation::finish() {
  if (!finished_ && !failed()) {
    // Drain the alarm chain: each firing may request a later one.
    while (wakeup_ >= 0 && !failed()) {
      ScheduleDelta tail;
      const Time at = wakeup_;
      tail.time = at;
      if (!advance_to(at + 1, tail)) break;
      if (!tail.calibrations.empty() || !tail.jobs.empty()) {
        deltas_.push_back(std::move(tail));
      }
    }
  }
  finished_ = true;
  OnlineResult result;
  result.events = events_;
  result.alarms = alarms_;
  result.deltas = deltas_;
  if (!failed()) {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (!scheduled_[i]) {
        fail("job " + std::to_string(jobs_[i].id) +
             " never scheduled (online infeasible)");
        break;
      }
    }
  }
  schedule_.normalize();
  result.schedule = schedule_;
  if (failed()) {
    result.feasible = false;
    result.error = error_;
    return result;
  }
  Instance instance;
  instance.machines = schedule_.machines;
  instance.T = schedule_.T;
  instance.cal = schedule_.cal;
  instance.jobs = jobs_;
  std::sort(instance.jobs.begin(), instance.jobs.end(),
            [](const Job& a, const Job& b) { return a.id < b.id; });
  const VerifyResult verdict = verify_ise(instance, schedule_);
  if (!verdict.ok()) {
    fail("committed schedule rejected by verifier: " +
         verdict.violations.front().message);
    result.feasible = false;
    result.error = error_;
    return result;
  }
  result.feasible = true;
  return result;
}

// ---------------------------------------------------------------------------
// Trace replay

OnlineResult simulate_trace(std::unique_ptr<OnlineScheduler> scheduler,
                            const ArrivalTrace& trace) {
  OnlineSimulation simulation(std::move(scheduler), trace.machines, trace.T,
                              trace.cal);
  std::size_t i = 0;
  while (i < trace.events.size() && !simulation.failed()) {
    const Time at = trace.events[i].time;
    std::vector<Job> batch;
    while (i < trace.events.size() && trace.events[i].time == at) {
      batch.push_back(trace.events[i].job);
      ++i;
    }
    if (!simulation.arrive(at, batch, nullptr, nullptr)) break;
  }
  return simulation.finish();
}

OnlineResult simulate_trace(const std::string& scheduler_name,
                            const ArrivalTrace& trace) {
  std::unique_ptr<OnlineScheduler> scheduler =
      make_online_scheduler(scheduler_name);
  if (scheduler == nullptr) {
    OnlineResult result;
    result.error = "unknown online scheduler: " + scheduler_name;
    result.schedule = Schedule::empty_like(trace.to_instance(), trace.machines);
    return result;
  }
  return simulate_trace(std::move(scheduler), trace);
}

}  // namespace calisched
