// Online-arrival scheduling: event-driven simulation of an arrival stream
// against a pluggable scheduler whose contract is append-only.
//
// Every algorithm below this layer is offline: the full job set is known
// before the first calibration is placed. Here jobs become known only at
// their arrival time, and the scheduler may *extend* its commitment — open
// calibrations and assign jobs at times >= the current decision time — but
// never rewrite the past. The simulator enforces exactly that contract
// (time monotonicity, no retroactive calibration or assignment, no job
// scheduled before it arrived, each job assigned at most once) and the
// final committed schedule is re-checked by the type-aware verifier, so a
// scheduler cannot launder an infeasible schedule through the event loop.
//
// The event model is deliberately small:
//   * arrive(t, jobs)  — the stream reveals jobs at time t; the scheduler
//     is shown all jobs sharing one arrival time in a single call;
//   * alarms           — a decision may request a wakeup at a strictly
//     later time; the simulator fires it (with no arrivals) before
//     delivering any event at or after that time. Lazy heuristics use this
//     to defer calibration opening to the latest feasible start.
//
// Each advancement produces a ScheduleDelta — the calibrations and
// assignments committed since the previous advancement — which is what the
// service's `subscribe` protocol streams to clients and what the CLI
// `replay` mode prints. Deltas are a partition of the final schedule:
// replay(deltas) == committed schedule, byte for byte.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "verify/verify.hpp"

namespace calisched {

/// One trace event: job `job` becomes known at time `time`. Traces built
/// from an Instance use the release time as the arrival time, which is the
/// classic online-ISE assumption; a hand-built trace may announce a job
/// earlier than its release (time < job.release is allowed, the reverse is
/// not — a job cannot arrive after it could already have been running).
struct ArrivalEvent {
  Time time = 0;
  Job job;
};

/// A timestamped arrival trace over a machine park, replayable through
/// OnlineSimulation. Events are kept sorted by (time, job.id).
struct ArrivalTrace {
  int machines = 1;
  Time T = 2;
  /// Calibration-type table; empty means the unit model of length T.
  CalibrationModel cal;
  std::vector<ArrivalEvent> events;

  /// The offline view of the trace (what the clairvoyant solvers see).
  [[nodiscard]] Instance to_instance() const;

  /// Builds the canonical trace of an instance: every job arrives at its
  /// release time, events sorted by (time, id).
  [[nodiscard]] static ArrivalTrace from_instance(const Instance& instance);
};

/// The scheduler's reply to one event: commitments effective immediately,
/// plus an optional alarm. All starts must be >= the event time.
struct OnlineDecision {
  std::vector<Calibration> calibrations;
  std::vector<ScheduledJob> jobs;
  /// Request a wakeup (on_event with no arrivals) at this time; must be
  /// strictly greater than the event time. -1 requests none. A newer
  /// decision's wakeup replaces the previous one.
  Time wakeup = -1;
};

/// Interface every online heuristic implements. One instance serves one
/// simulation run; begin() resets all state.
class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Starts a run on `machines` machines with calibration length `T` and
  /// type table `cal` (empty = unit model).
  virtual void begin(int machines, Time T, const CalibrationModel& cal) = 0;

  /// Called at each advancement: arrivals revealed at `now` (empty for an
  /// alarm wakeup). Decisions take effect at `now`; the simulator rejects
  /// any start before it.
  virtual OnlineDecision on_event(Time now, const std::vector<Job>& arrivals) = 0;
};

/// Scheduler factory; the single source of truth for online algorithm
/// names ("online-edf"). Returns nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<OnlineScheduler> make_online_scheduler(
    const std::string& name);

/// Commitments made by one advancement of the simulation: everything the
/// scheduler committed in (previous advancement time, time].
struct ScheduleDelta {
  Time time = 0;
  std::vector<Calibration> calibrations;
  std::vector<ScheduledJob> jobs;
};

/// Final outcome of a simulation run.
struct OnlineResult {
  Schedule schedule;        ///< the committed schedule (normalized)
  bool feasible = false;    ///< all jobs placed and the verifier accepted
  std::string error;        ///< first contract/feasibility violation
  std::vector<ScheduleDelta> deltas;  ///< the full delta stream, in order
  std::size_t events = 0;   ///< arrive() advancements processed
  std::size_t alarms = 0;   ///< alarm wakeups fired
};

/// Incremental event-driven simulator. Drives one OnlineScheduler through
/// an arrival stream, enforcing the append-only contract at every step.
/// Used in two modes: simulate_trace() replays a whole trace, and the
/// service's `subscribe` sessions call arrive()/finish() one request at a
/// time, streaming each returned delta to the client.
class OnlineSimulation {
 public:
  /// Takes ownership of the scheduler and calls begin() on it.
  OnlineSimulation(std::unique_ptr<OnlineScheduler> scheduler, int machines,
                   Time T, CalibrationModel cal);

  /// Advances the clock to `time` — firing any due alarms on the way —
  /// and delivers `jobs` as arrivals at `time`. On success appends the
  /// combined commitments to the internal delta stream and, when `delta`
  /// is non-null, copies them there. Returns false (and sets *error) on a
  /// contract violation: time regression, malformed job, duplicate id, or
  /// a scheduler decision that starts anything before its decision time.
  /// After a failure the simulation is poisoned and every later call
  /// fails with the same error.
  bool arrive(Time time, const std::vector<Job>& jobs, ScheduleDelta* delta,
              std::string* error);

  /// Fires all outstanding alarms, then closes the run: checks every
  /// arrived job was placed, normalizes the schedule, and re-verifies it
  /// with the type-aware verifier. Idempotent once called.
  OnlineResult finish();

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const Schedule& committed() const noexcept { return schedule_; }

 private:
  /// Fires alarms due strictly before `time`; accumulates into `delta`.
  bool advance_to(Time time, ScheduleDelta& delta);
  /// Validates and commits one decision made at time `at`.
  bool apply(Time at, OnlineDecision decision, ScheduleDelta& delta);
  bool fail(const std::string& message);
  /// The machines, T and table as a job-free instance, for the admission
  /// rules Instance::validate() applies to a solve.
  [[nodiscard]] Instance park() const;

  std::unique_ptr<OnlineScheduler> scheduler_;
  Schedule schedule_;
  std::vector<Job> jobs_;           ///< every arrived job, arrival order
  std::vector<bool> scheduled_;     ///< parallel to jobs_
  std::unordered_map<JobId, std::size_t> index_of_;  ///< id -> jobs_ index
  std::vector<ScheduleDelta> deltas_;
  Time now_ = 0;
  Time wakeup_ = -1;
  std::string error_;
  bool started_ = false;            ///< any advancement happened yet
  bool finished_ = false;
  std::size_t events_ = 0;
  std::size_t alarms_ = 0;
};

/// Replays a whole trace: one arrive() per distinct arrival time, then
/// finish(). The scheduler is created fresh via the factory.
[[nodiscard]] OnlineResult simulate_trace(const std::string& scheduler_name,
                                          const ArrivalTrace& trace);

/// Same, with a caller-supplied scheduler (ownership transferred).
[[nodiscard]] OnlineResult simulate_trace(
    std::unique_ptr<OnlineScheduler> scheduler, const ArrivalTrace& trace);

}  // namespace calisched
