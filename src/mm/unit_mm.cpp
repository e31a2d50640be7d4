// Exact machine minimization for unit jobs.
//
// For p_j = 1 and integral release times, timestep EDF is an exact
// feasibility test: at each integer time run the m released jobs with the
// earliest deadlines (a standard exchange argument; matching deadlines to
// slots greedily can never be beaten). Searching m upward from the lower
// bound yields the optimum.
#include <algorithm>
#include <cassert>
#include <queue>
#include <vector>

#include "mm/lower_bounds.hpp"
#include "mm/mm.hpp"

namespace calisched {
namespace {

std::optional<MMSchedule> try_unit_edf(const Instance& instance, int machines) {
  // Jobs sorted by release; a min-heap on deadline holds the released ones.
  std::vector<const Job*> by_release;
  by_release.reserve(instance.size());
  for (const Job& job : instance.jobs) by_release.push_back(&job);
  std::sort(by_release.begin(), by_release.end(),
            [](const Job* a, const Job* b) { return a->release < b->release; });

  const auto deadline_greater = [](const Job* a, const Job* b) {
    return a->deadline > b->deadline;
  };
  std::priority_queue<const Job*, std::vector<const Job*>,
                      decltype(deadline_greater)>
      released(deadline_greater);

  MMSchedule schedule;
  schedule.machines = machines;
  std::size_t next = 0;
  Time now = by_release.empty() ? 0 : by_release.front()->release;
  while (next < by_release.size() || !released.empty()) {
    if (released.empty() && next < by_release.size()) {
      now = std::max(now, by_release[next]->release);
    }
    while (next < by_release.size() && by_release[next]->release <= now) {
      released.push(by_release[next++]);
    }
    for (int machine = 0; machine < machines && !released.empty(); ++machine) {
      const Job* job = released.top();
      released.pop();
      if (now + 1 > job->deadline) return std::nullopt;
      schedule.jobs.push_back({job->id, machine, now});
    }
    ++now;
  }
  return schedule;
}

}  // namespace

MMResult UnitEdfMM::solve(const Instance& instance, const RunLimits& limits,
                          TraceContext* /*trace*/) const {
  MMResult result;
  result.algorithm = name();
  if (instance.empty()) {
    result.feasible = true;
    result.schedule.machines = 0;
    return result;
  }
  for (const Job& job : instance.jobs) {
    assert(job.proc == 1 && "UnitEdfMM requires unit processing times");
    (void)job;
  }
  LimitPoller poller(limits, /*stride=*/1);  // one EDF attempt per poll
  const int n = static_cast<int>(instance.size());
  for (int m = mm_lower_bound(instance); m <= n; ++m) {
    if (poller.poll() != SolveStatus::kOk) {
      result.status = poller.status();
      return result;
    }
    if (auto schedule = try_unit_edf(instance, m)) {
      result.feasible = true;
      result.schedule = std::move(*schedule);
      return result;
    }
  }
  result.status = SolveStatus::kInfeasible;
  return result;  // unreachable for well-formed unit instances
}

}  // namespace calisched
