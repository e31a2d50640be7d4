// solve_greedy_cost — lazy binning generalized to non-unit jobs and
// calibration-type tables.
// See the header comment for the policy.
#include "calib/greedy_cost.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/arith.hpp"

namespace calisched {
namespace {

/// An open calibration and the runs already packed into it.
struct OpenCalibration {
  int machine;
  Time start;
  int type;
  Time avail_start;  ///< start + activation delay
  Time avail_end;    ///< start + activation delay + length
  std::vector<std::pair<Time, Time>> runs;  // sorted, disjoint [s, e)

  /// Earliest start for a p-length run inside the availability window,
  /// within [release, deadline), avoiding existing runs; -max() when
  /// impossible.
  [[nodiscard]] Time earliest_fit(Time p, Time release, Time deadline) const {
    const Time lo = std::max(avail_start, release);
    const Time hi = std::min(avail_end, deadline);
    Time cursor = lo;
    for (const auto& [s, e] : runs) {
      if (cursor + p <= std::min(s, hi)) return cursor;
      cursor = std::max(cursor, e);
    }
    if (cursor + p <= hi) return cursor;
    return std::numeric_limits<Time>::min();
  }

  void insert_run(Time s, Time p) {
    runs.emplace_back(s, s + p);
    std::sort(runs.begin(), runs.end());
  }
};

/// Occupancy interval of a calibration already placed on a machine.
struct Occupancy {
  Time start;
  Time end;  ///< start + span of its type
};

}  // namespace

GreedyCostResult solve_greedy_cost(const Instance& instance,
                                   const RunLimits& limits) {
  GreedyCostResult result;
  LimitPoller poller(limits, /*stride=*/16);
  const CalibrationModel model = instance.effective_model();
  const int m = instance.machines;

  // Cheapest-first type preference; longer length breaks ties (more room
  // to share the calibration with later jobs).
  std::vector<int> type_order(model.size());
  for (std::size_t k = 0; k < model.size(); ++k) {
    type_order[k] = static_cast<int>(k);
  }
  std::sort(type_order.begin(), type_order.end(), [&](int a, int b) {
    const CalibrationType& ta = model.types[static_cast<std::size_t>(a)];
    const CalibrationType& tb = model.types[static_cast<std::size_t>(b)];
    if (ta.cost != tb.cost) return ta.cost < tb.cost;
    if (ta.length != tb.length) return ta.length > tb.length;
    return a < b;
  });

  // Most-urgent-first (deadline, release, id).
  std::vector<const Job*> order;
  order.reserve(instance.size());
  for (const Job& job : instance.jobs) order.push_back(&job);
  std::sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    if (a->deadline != b->deadline) return a->deadline < b->deadline;
    if (a->release != b->release) return a->release < b->release;
    return a->id < b->id;
  });

  std::vector<OpenCalibration> calibrations;
  std::vector<std::vector<Occupancy>> machine_occupancy(
      static_cast<std::size_t>(m));
  Schedule schedule = Schedule::empty_like(instance, m);

  for (std::size_t index = 0; index < order.size(); ++index) {
    if (poller.poll() != SolveStatus::kOk) {
      return fail_result(result, poller.status());
    }
    const Job& job = *order[index];
    // 1) Reuse: earliest feasible start across open calibrations (free —
    //    the calibration is already paid for).
    OpenCalibration* best_cal = nullptr;
    Time best_start = std::numeric_limits<Time>::max();
    for (OpenCalibration& cal : calibrations) {
      const Time s = cal.earliest_fit(job.proc, job.release, job.deadline);
      if (s != std::numeric_limits<Time>::min() && s < best_start) {
        best_start = s;
        best_cal = &cal;
      }
    }
    if (best_cal != nullptr) {
      best_cal->insert_run(best_start, job.proc);
      schedule.jobs.push_back({job.id, best_cal->machine, best_start});
      continue;
    }

    // 2) Open a new calibration with the cheapest hosting type, as late as
    //    the work due by d_j allows: the unscheduled jobs with deadline
    //    <= d_j need their total work done by then, so aim the availability
    //    window at [d_j - max(p_j, ceil(W_due / m)), d_j), clamped so the
    //    window still reaches d_j.
    Time due_work = 0;
    for (std::size_t k = index; k < order.size(); ++k) {
      if (order[k]->deadline <= job.deadline) due_work += order[k]->proc;
    }
    const Time lead = std::max<Time>(job.proc, ceil_div(due_work, m));

    int chosen_machine = -1;
    int chosen_type = -1;
    Time chosen_start = std::numeric_limits<Time>::min();
    for (const int k : type_order) {
      const CalibrationType& type = model.types[static_cast<std::size_t>(k)];
      if (job.proc > type.length) continue;
      const Time target = std::max(job.deadline - type.span(),
                                   job.deadline - lead - type.activation_delay);
      for (int machine = 0; machine < m; ++machine) {
        const auto& occupied = machine_occupancy[static_cast<std::size_t>(machine)];
        // Latest t <= target with occupancy [t, t + span) clear of this
        // machine's calibrations.
        Time t = target;
        for (;;) {
          Time blocker = std::numeric_limits<Time>::min();
          bool blocked = false;
          for (const Occupancy& occ : occupied) {
            if (occ.start < t + type.span() && t < occ.end) {
              blocked = true;
              blocker = std::max(blocker, occ.start);
            }
          }
          if (!blocked) break;
          t = blocker - type.span();
        }
        // The job must fit the availability window: start >= max(t + delay,
        // r_j), start + p <= min(t + delay + length, d_j).
        const Time s = std::max(t + type.activation_delay, job.release);
        if (s + job.proc > std::min(t + type.span(), job.deadline)) continue;
        if (t > chosen_start) {
          chosen_start = t;
          chosen_machine = machine;
          chosen_type = k;
        }
      }
      if (chosen_machine >= 0) break;  // cheapest hosting type wins
    }
    if (chosen_machine < 0) {
      return fail_result(result, SolveStatus::kInfeasible,
                         "no machine can open a calibration for job " +
                             std::to_string(job.id),
                         "greedy-lazy");
    }
    const CalibrationType& type =
        model.types[static_cast<std::size_t>(chosen_type)];
    OpenCalibration cal{chosen_machine,
                        chosen_start,
                        chosen_type,
                        chosen_start + type.activation_delay,
                        chosen_start + type.span(),
                        {}};
    const Time s = std::max(cal.avail_start, job.release);
    cal.insert_run(s, job.proc);
    schedule.jobs.push_back({job.id, chosen_machine, s});
    schedule.calibrations.push_back({chosen_machine, chosen_start, chosen_type});
    machine_occupancy[static_cast<std::size_t>(chosen_machine)].push_back(
        {chosen_start, chosen_start + type.span()});
    calibrations.push_back(std::move(cal));
  }
  schedule.normalize();
  result.feasible = true;
  result.schedule = std::move(schedule);
  return result;
}

}  // namespace calisched
