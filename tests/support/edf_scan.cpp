// Algorithm 2 with a full rescan per pick (the reference for the heap in
// edf_assign_jobs; see oracles.hpp).
#include <algorithm>
#include <cassert>

#include "oracles.hpp"

namespace calisched {

EdfAssignResult edf_assign_jobs_scan(const Instance& instance,
                                     const Schedule& calendar, bool mirror) {
  assert(calendar.time_denominator == 1 && calendar.speed == 1);
  EdfAssignResult result;
  Schedule& schedule = result.schedule;
  schedule = Schedule::empty_like(instance,
                                  mirror ? calendar.machines * 2 : calendar.machines);
  schedule.calibrations.reserve(calendar.calibrations.size() * (mirror ? 2 : 1));
  for (const Calibration& cal : calendar.calibrations) {
    schedule.calibrations.push_back(cal);
    if (mirror) {
      schedule.calibrations.push_back(
          {cal.machine + calendar.machines, cal.start});
    }
  }
  std::vector<Calibration> scan = schedule.calibrations;
  std::sort(scan.begin(), scan.end(),
            [](const Calibration& a, const Calibration& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.machine < b.machine;
            });

  std::vector<bool> done(instance.size(), false);
  std::size_t remaining = instance.size();
  for (const Calibration& cal : scan) {
    if (remaining == 0) break;
    const Time t = cal.start;
    Time used = 0;
    while (true) {
      std::size_t chosen = instance.size();
      for (std::size_t j = 0; j < instance.size(); ++j) {
        if (done[j]) continue;
        const Job& job = instance.jobs[j];
        if (job.release > t || t > job.deadline - instance.T) continue;
        if (chosen == instance.size() ||
            job.deadline < instance.jobs[chosen].deadline ||
            (job.deadline == instance.jobs[chosen].deadline &&
             job.id < instance.jobs[chosen].id)) {
          chosen = j;
        }
      }
      if (chosen == instance.size()) break;
      const Job& job = instance.jobs[chosen];
      if (job.proc + used > instance.T) break;
      schedule.jobs.push_back({job.id, cal.machine, t + used});
      used += job.proc;
      done[chosen] = true;
      --remaining;
    }
  }

  for (std::size_t j = 0; j < instance.size(); ++j) {
    if (!done[j]) result.unassigned.push_back(instance.jobs[j].id);
  }
  return result;
}

}  // namespace calisched
