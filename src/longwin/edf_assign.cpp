#include "longwin/edf_assign.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

namespace calisched {

EdfAssignResult edf_assign_jobs(const Instance& instance, const Schedule& calendar,
                                bool mirror) {
  assert(calendar.time_denominator == 1 && calendar.speed == 1);
  EdfAssignResult result;
  Schedule& schedule = result.schedule;
  schedule = Schedule::empty_like(instance,
                                  mirror ? calendar.machines * 2 : calendar.machines);

  // Mirror the calendar (Lemma 9): calibration (i, t) also exists at
  // (i + M, t).
  schedule.calibrations.reserve(calendar.calibrations.size() * (mirror ? 2 : 1));
  for (const Calibration& cal : calendar.calibrations) {
    schedule.calibrations.push_back(cal);
    if (mirror) {
      schedule.calibrations.push_back(
          {cal.machine + calendar.machines, cal.start});
    }
  }

  // Scan order: nondecreasing start time; ties broken by machine so the
  // original copy precedes its mirror.
  std::vector<Calibration> scan = schedule.calibrations;
  std::sort(scan.begin(), scan.end(),
            [](const Calibration& a, const Calibration& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.machine < b.machine;
            });

  // Jobs enter a min-heap on (deadline, id) in release order as the scan
  // time passes their release. Scan times never decrease, so a job whose
  // d_j - T falls behind the scan never becomes eligible again and leaves
  // the heap for good when it reaches the top.
  std::vector<std::size_t> by_release(instance.size());
  std::iota(by_release.begin(), by_release.end(), std::size_t{0});
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              return instance.jobs[a].release < instance.jobs[b].release;
            });
  const auto later = [&](std::size_t a, std::size_t b) {
    const Job& x = instance.jobs[a];
    const Job& y = instance.jobs[b];
    return x.deadline != y.deadline ? x.deadline > y.deadline : x.id > y.id;
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(later)>
      ready(later);
  std::vector<bool> done(instance.size(), false);
  std::size_t released = 0;
  for (const Calibration& cal : scan) {
    const Time t = cal.start;
    for (; released < by_release.size() &&
           instance.jobs[by_release[released]].release <= t;
         ++released) {
      ready.push(by_release[released]);
    }
    Time used = 0;
    // Earliest-deadline unscheduled job obeying the TISE constraint, ties
    // broken by job id (the paper: "ties broken arbitrarily"), until the
    // next one does not fit.
    while (!ready.empty()) {
      const Job& job = instance.jobs[ready.top()];
      if (t > job.deadline - instance.T) {
        ready.pop();
        continue;
      }
      if (job.proc + used > instance.T) break;  // calibration is full
      schedule.jobs.push_back({job.id, cal.machine, t + used});
      used += job.proc;
      done[ready.top()] = true;
      ready.pop();
    }
  }

  for (std::size_t j = 0; j < instance.size(); ++j) {
    if (!done[j]) result.unassigned.push_back(instance.jobs[j].id);
  }
  return result;
}

}  // namespace calisched
