#include <algorithm>
#include <limits>
#include <vector>

#include "mm/lower_bounds.hpp"
#include "mm/mm.hpp"

namespace calisched {
namespace {

/// One attempt at first-fit EDF list scheduling on exactly `machines`
/// machines. Dispatch rule: repeatedly take the earliest moment a machine
/// becomes available, then run the earliest-deadline job already released
/// by then; fail as soon as a job would miss its deadline.
std::optional<MMSchedule> try_edf(const Instance& instance, int machines) {
  struct Pending {
    const Job* job;
    bool done = false;
  };
  std::vector<Pending> pending;
  pending.reserve(instance.size());
  for (const Job& job : instance.jobs) pending.push_back({&job});

  std::vector<Time> free_at(static_cast<std::size_t>(machines),
                            std::numeric_limits<Time>::min());
  MMSchedule schedule;
  schedule.machines = machines;

  std::size_t remaining = pending.size();
  while (remaining > 0) {
    // Earliest machine availability and earliest pending release.
    const auto machine_it = std::min_element(free_at.begin(), free_at.end());
    Time min_release = std::numeric_limits<Time>::max();
    for (const Pending& p : pending) {
      if (!p.done) min_release = std::min(min_release, p.job->release);
    }
    const Time now = std::max(*machine_it, min_release);

    // Earliest-deadline job released by `now`.
    Pending* chosen = nullptr;
    for (Pending& p : pending) {
      if (p.done || p.job->release > now) continue;
      if (chosen == nullptr || p.job->deadline < chosen->job->deadline) {
        chosen = &p;
      }
    }
    // `now >= min_release`, so at least one released job exists.
    const Job& job = *chosen->job;
    if (now + job.proc > job.deadline) return std::nullopt;
    schedule.jobs.push_back(
        {job.id, static_cast<int>(machine_it - free_at.begin()), now});
    *machine_it = now + job.proc;
    chosen->done = true;
    --remaining;
  }
  return schedule;
}

}  // namespace

MMResult GreedyEdfMM::solve(const Instance& instance, const RunLimits& limits,
                            TraceContext* /*trace*/) const {
  MMResult result;
  result.algorithm = name();
  if (instance.empty()) {
    result.feasible = true;
    result.schedule.machines = 0;
    return result;
  }
  LimitPoller poller(limits, /*stride=*/1);  // one EDF attempt per poll
  const int n = static_cast<int>(instance.size());
  for (int m = mm_lower_bound(instance); m <= n; ++m) {
    if (poller.poll() != SolveStatus::kOk) {
      result.status = poller.status();
      return result;
    }
    if (auto schedule = try_edf(instance, m)) {
      result.feasible = true;
      result.schedule = std::move(*schedule);
      return result;
    }
  }
  // Unreachable: with m = n every job starts at its release time.
  result.status = SolveStatus::kInfeasible;
  return result;
}

}  // namespace calisched
