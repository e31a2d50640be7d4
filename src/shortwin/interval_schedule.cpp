#include "shortwin/interval_schedule.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <vector>

#include "util/arith.hpp"

namespace calisched {

IntervalScheduleResult schedule_interval(const Instance& jobs, Time interval_start,
                                         const MachineMinimizer& mm,
                                         const IntervalOptions& options) {
  IntervalScheduleResult result;
  const Time T = jobs.T;
  const Time interval_end = interval_start + 2 * kGamma * T;
  for (const Job& job : jobs.jobs) {
    assert(interval_start <= job.release && job.deadline <= interval_end);
    (void)job;
  }
  (void)interval_end;
  if (jobs.empty()) {
    result.feasible = true;
    result.schedule = Schedule::empty_like(jobs, 0);
    return result;
  }

  // --- MM black box ---------------------------------------------------------
  TraceSpan interval_span(options.trace, "interval");
  MMResult mm_result = mm.minimize(jobs, options.limits, options.trace);
  result.mm_algorithm = mm_result.algorithm;
  if (!mm_result.feasible) {
    const SolveStatus status = mm_result.status == SolveStatus::kOk
                                   ? SolveStatus::kInfeasible
                                   : mm_result.status;
    fail_result(result, status,
                "MM black box failed on interval at " +
                    std::to_string(interval_start),
                "mm");
    return result;
  }
  // An s-speed MM box reports start times in 1/s-unit ticks; the ISE
  // schedule inherits that resolution and machine speed, and every job
  // occupies exactly proc ticks.
  const std::int64_t s = mm_result.schedule.speed;
  // Compact to the machines actually used so w matches Lemma 19's charge.
  std::map<int, int> compact;
  for (const ScheduledJob& sj : mm_result.schedule.jobs) {
    compact.emplace(sj.machine, 0);
  }
  int w = 0;
  for (auto& [from, to] : compact) to = w++;
  result.mm_machines = w;

  // --- build the ISE schedule on 3w machines (w when relaxed) ---------------
  Schedule& schedule = result.schedule;
  schedule = Schedule::empty_like(
      jobs, options.relaxed_calibrations ? w : 3 * w);
  schedule.time_denominator = s;
  schedule.speed = s;
  const Time start_ticks = interval_start * s;
  const Time cal_ticks = T * s;

  // Calendar machines [0, w): calibrations at interval_start + kT.
  // With trim_unused_calibrations, emit only calendar slots that host at
  // least one noncrossing job.
  std::set<std::pair<int, Time>> used_slots;  // (machine, k)

  // Place jobs first to know which calendar slots are used.
  std::vector<Calibration> crossing_calibrations;
  for (const ScheduledJob& sj : mm_result.schedule.jobs) {
    const Job& job = jobs.job_by_id(sj.job);
    const int machine = compact[sj.machine];
    const Time x = sj.start;  // ticks
    const Time k = floor_div(x - start_ticks, cal_ticks);
    assert(k >= 0 && k < 2 * kGamma);
    // Duration is exactly proc ticks (p / s real time on an s-speed machine).
    const bool crossing = x + job.proc > start_ticks + (k + 1) * cal_ticks;
    if (!crossing) {
      schedule.jobs.push_back({job.id, machine, x});
      used_slots.emplace(machine, k);
    } else if (options.relaxed_calibrations) {
      // Footnote 3: overlap the dedicated calibration on the same machine.
      crossing_calibrations.push_back({machine, x});
      schedule.jobs.push_back({job.id, machine, x});
    } else if (k % 2 == 0) {
      // Even-k crossing job: dedicated calibration on machine w + m_j.
      crossing_calibrations.push_back({w + machine, x});
      schedule.jobs.push_back({job.id, w + machine, x});
    } else {
      crossing_calibrations.push_back({2 * w + machine, x});
      schedule.jobs.push_back({job.id, 2 * w + machine, x});
    }
  }

  for (int machine = 0; machine < w; ++machine) {
    for (Time k = 0; k < 2 * kGamma; ++k) {
      if (options.trim_unused_calibrations &&
          !used_slots.count({machine, k})) {
        continue;
      }
      schedule.calibrations.push_back({machine, start_ticks + k * cal_ticks});
    }
  }
  schedule.calibrations.insert(schedule.calibrations.end(),
                               crossing_calibrations.begin(),
                               crossing_calibrations.end());
  result.feasible = true;
  return result;
}

}  // namespace calisched
