#include <cassert>

#include "mm/mm.hpp"

namespace calisched {

MMResult SpeedupMM::solve(const Instance& instance, const RunLimits& limits,
                          TraceContext* /*trace*/) const {
  assert(speed_ >= 1);
  // Equivalent reformulation of "machines speed_ times faster": stretch the
  // timeline by speed_ and keep processing times. A job of p time units on
  // an s-speed machine occupies p/s real time = p stretched units.
  Instance scaled;
  scaled.machines = instance.machines;
  scaled.T = instance.T * speed_;
  scaled.jobs.reserve(instance.size());
  for (const Job& job : instance.jobs) {
    scaled.jobs.push_back(
        Job{job.id, job.release * speed_, job.deadline * speed_, job.proc});
  }
  MMResult result = inner_->minimize(scaled, limits);
  result.algorithm = name();
  if (result.feasible) {
    // Inner starts are in stretched units, i.e. 1/speed_ of a real unit —
    // exactly MMSchedule's tick convention (compounding any inner speed).
    result.schedule.speed *= speed_;
  }
  return result;
}

}  // namespace calisched
