// The branch-and-bound oracles for the exact solvers: a depth-first
// machine-minimization feasibility search and the minimum-calibration
// search built on it. The shipped solvers run the layered state-space
// engine (src/exact/state_space.hpp); these DFS searches revisit every
// placement order, so they certify only small instances, but they share
// no code with that engine.
//
// MM completeness: any feasible schedule can be left-shifted so that every
// job starts either at its release time or at the completion of the
// previous job on its machine. Such a schedule is determined by an ordered
// partition of jobs onto machines, with start times computed greedily, so
// searching over "which unscheduled job goes next on which machine-frontier"
// covers all left-shifted schedules. Identical machines make frontiers with
// equal free times interchangeable, so we branch on *distinct* free times.
//
// ISE completeness: for integral instances, repeatedly left-shifting any
// feasible schedule (shift the earliest unblocked event until it meets a
// release time, a same-machine predecessor's completion, or its
// calibration boundary) reaches a fixpoint whose event times are all sums
// of instance data, hence integers. So for each candidate calibration
// count K (from the combinatorial lower bound upward) the search
// enumerates nondecreasing K-tuples of integer start times whose maximum
// overlap fits the machine count, colors them greedily onto machines, and
// packs jobs by depth-first search with an exact single-machine
// feasibility check per calibration.
#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>
#include <vector>

#include "baselines/calibration_bounds.hpp"
#include "oracles.hpp"

namespace calisched {
namespace {

class FeasibilitySearch {
 public:
  FeasibilitySearch(const Instance& instance, int machines,
                    std::int64_t node_budget,
                    const RunLimits& limits = RunLimits::none())
      : instance_(instance),
        machines_(machines),
        node_budget_(node_budget),
        poller_(limits, /*stride=*/1024) {
    free_at_.assign(static_cast<std::size_t>(machines_),
                    std::numeric_limits<Time>::min());
    done_.assign(instance_.size(), false);
    // Deadline order makes the DFS try urgent jobs first.
    order_.resize(instance_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return instance_.jobs[a].deadline < instance_.jobs[b].deadline;
    });
  }

  [[nodiscard]] bool run() { return dfs(instance_.size()); }
  [[nodiscard]] std::int64_t nodes() const noexcept { return nodes_; }
  /// How the search ended: kOk means run()'s verdict is definitive;
  /// kLimitExceeded means the node budget ran out; otherwise the RunLimits
  /// stop reason. Budget exhaustion is never folded into "infeasible".
  [[nodiscard]] SolveStatus status() const noexcept {
    if (poller_.status() != SolveStatus::kOk) return poller_.status();
    return budget_hit_ ? SolveStatus::kLimitExceeded : SolveStatus::kOk;
  }
  [[nodiscard]] MMSchedule schedule() const {
    MMSchedule result;
    result.machines = machines_;
    result.jobs = placed_;
    return result;
  }

 private:
  bool dfs(std::size_t remaining) {
    if (remaining == 0) return true;
    if (++nodes_ > node_budget_ || poller_.poll() != SolveStatus::kOk) {
      budget_hit_ = true;  // either way: abandon the whole search
      return false;
    }
    // Candidate start frontiers: one machine per distinct free time.
    std::vector<int> frontiers;
    frontiers.reserve(static_cast<std::size_t>(machines_));
    {
      std::vector<Time> seen;
      for (int machine = 0; machine < machines_; ++machine) {
        const Time f = free_at_[static_cast<std::size_t>(machine)];
        if (std::find(seen.begin(), seen.end(), f) == seen.end()) {
          seen.push_back(f);
          frontiers.push_back(machine);
        }
      }
    }
    for (const std::size_t job_index : order_) {
      if (done_[job_index]) continue;
      const Job& job = instance_.jobs[job_index];
      // Deduplicate resulting start times across frontiers: frontiers with
      // free <= r_j all give start = r_j; keep only the one with the largest
      // free time (leaves the most room elsewhere).
      int best_at_release = -1;
      Time best_free = std::numeric_limits<Time>::min();
      std::vector<std::pair<Time, int>> starts;  // (start, machine)
      for (const int machine : frontiers) {
        const Time f = free_at_[static_cast<std::size_t>(machine)];
        if (f <= job.release) {
          if (best_at_release < 0 || f > best_free) {
            best_at_release = machine;
            best_free = f;
          }
        } else if (f + job.proc <= job.deadline) {
          starts.emplace_back(f, machine);
        }
      }
      if (best_at_release >= 0) {
        starts.emplace_back(job.release, best_at_release);
      }
      std::sort(starts.begin(), starts.end());
      for (const auto& [start, machine] : starts) {
        if (start + job.proc > job.deadline) continue;
        const Time saved = free_at_[static_cast<std::size_t>(machine)];
        free_at_[static_cast<std::size_t>(machine)] = start + job.proc;
        done_[job_index] = true;
        placed_.push_back({job.id, machine, start});
        if (dfs(remaining - 1)) return true;
        placed_.pop_back();
        done_[job_index] = false;
        free_at_[static_cast<std::size_t>(machine)] = saved;
        if (budget_hit_) return false;
      }
    }
    return false;
  }

  const Instance& instance_;
  int machines_;
  std::int64_t node_budget_;
  LimitPoller poller_;
  std::vector<Time> free_at_;
  std::vector<bool> done_;
  std::vector<std::size_t> order_;
  std::vector<ScheduledJob> placed_;
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
};

/// One tentative calibration during the search.
struct SearchCalibration {
  Time start = 0;
  Time load = 0;                        ///< total processing assigned
  std::vector<const Job*> assigned;
};

class ExactSearch {
 public:
  ExactSearch(const Instance& instance, const ExactIseOptions& options)
      : instance_(instance),
        options_(options),
        node_budget_(options.limits.node_budget_or(5'000'000)),
        poller_(options.limits, /*stride=*/1024) {
    // Candidate integer start times: a calibration is useful only if at
    // least one job can run inside it.
    const Time lo = instance.min_release() - instance.T + 1;
    const Time hi = instance.max_deadline();  // exclusive
    for (Time t = lo; t < hi; ++t) {
      if (std::any_of(instance.jobs.begin(), instance.jobs.end(),
                      [&](const Job& job) { return job_fits(job, t); })) {
        grid_.push_back(t);
      }
    }
    jobs_by_deadline_.reserve(instance.size());
    for (const Job& job : instance.jobs) jobs_by_deadline_.push_back(&job);
    std::sort(jobs_by_deadline_.begin(), jobs_by_deadline_.end(),
              [](const Job* a, const Job* b) {
                return a->deadline != b->deadline ? a->deadline < b->deadline
                                                  : a->id < b->id;
              });
  }

  ExactIseResult run() {
    ExactIseResult result;
    if (instance_.empty()) {
      result.solved = true;
      result.feasible = true;
      result.schedule = Schedule::empty_like(instance_, instance_.machines);
      return result;
    }
    const auto lower =
        static_cast<int>(calibration_lower_bound(instance_));
    for (int k = std::max(1, lower); k <= options_.max_calibrations; ++k) {
      calibrations_.clear();
      if (choose_times(k, 0)) {
        result.solved = true;
        result.feasible = true;
        result.optimal_calibrations = static_cast<std::size_t>(k);
        result.schedule = build_schedule();
        result.nodes = nodes_;
        return result;
      }
      if (budget_hit_) {
        result.nodes = nodes_;
        if (poller_.status() != SolveStatus::kOk) {
          result.status = poller_.status();
        } else if (sub_status_ != SolveStatus::kOk) {
          result.status = sub_status_;  // a packing sub-search was stopped
        } else {
          result.status = SolveStatus::kLimitExceeded;
        }
        return result;  // solved = false
      }
    }
    result.solved = true;
    result.status = SolveStatus::kInfeasible;
    result.nodes = nodes_;
    return result;  // feasible = false within the calibration cap
  }

 private:
  [[nodiscard]] bool job_fits(const Job& job, Time cal_start) const {
    if (options_.require_tise) {
      return job.release <= cal_start &&
             cal_start + instance_.T <= job.deadline;
    }
    const Time earliest = std::max(cal_start, job.release);
    const Time latest = std::min(cal_start + instance_.T, job.deadline);
    return earliest + job.proc <= latest;
  }

  /// Picks `remaining` more calibration start times, nondecreasing, from
  /// grid_[from..], keeping the sliding overlap within the machine count.
  bool choose_times(int remaining, std::size_t from) {
    if (++nodes_ > node_budget_ ||
        poller_.poll() != SolveStatus::kOk) {
      budget_hit_ = true;  // either way: abandon the whole search
      return false;
    }
    if (remaining == 0) return pack_jobs(0);
    for (std::size_t g = from; g < grid_.size(); ++g) {
      const Time t = grid_[g];
      // Overlap check: calibrations already chosen with start > t - T all
      // intersect [t, t+T)'s left edge region together with the new one.
      int overlap = 1;
      for (const SearchCalibration& cal : calibrations_) {
        if (cal.start > t - instance_.T) ++overlap;
      }
      if (overlap > instance_.machines) continue;
      calibrations_.push_back({t, 0, {}});
      if (choose_times(remaining - 1, g)) return true;
      calibrations_.pop_back();
      if (budget_hit_) return false;
    }
    return false;
  }

  /// Assigns jobs_by_deadline_[index..] to the chosen calibrations.
  bool pack_jobs(std::size_t index) {
    if (++nodes_ > node_budget_ ||
        poller_.poll() != SolveStatus::kOk) {
      budget_hit_ = true;  // either way: abandon the whole search
      return false;
    }
    if (index == jobs_by_deadline_.size()) return true;
    const Job& job = *jobs_by_deadline_[index];
    Time last_tried_start = std::numeric_limits<Time>::min();
    for (SearchCalibration& cal : calibrations_) {
      // Symmetry break: identical empty twins behave identically.
      if (cal.start == last_tried_start && cal.assigned.empty()) continue;
      if (!job_fits(job, cal.start)) continue;
      if (cal.load + job.proc > instance_.T) continue;
      cal.assigned.push_back(&job);
      cal.load += job.proc;
      if (calibration_packable(cal) && pack_jobs(index + 1)) return true;
      cal.assigned.pop_back();
      cal.load -= job.proc;
      if (budget_hit_) return false;
      if (cal.assigned.empty()) last_tried_start = cal.start;
    }
    return false;
  }

  /// Exact single-machine feasibility of one calibration's job set with
  /// windows clipped to the calibration interval. A *stopped* sub-search
  /// (its node budget or the shared RunLimits) must abandon the whole
  /// search with the stop reason — treating it as "not packable" would
  /// report a budget artifact as an infeasibility verdict.
  [[nodiscard]] bool calibration_packable(const SearchCalibration& cal) {
    Instance clipped;
    clipped.machines = 1;
    clipped.T = instance_.T;
    for (const Job* job : cal.assigned) {
      Job clip = *job;
      clip.release = std::max(job->release, cal.start);
      clip.deadline = std::min(job->deadline, cal.start + instance_.T);
      clipped.jobs.push_back(clip);
    }
    const MMFeasibility packed = bnb_mm_feasibility(
        clipped, 1, /*node_budget=*/100'000, options_.limits);
    if (packed.status != SolveStatus::kOk) {
      budget_hit_ = true;
      sub_status_ = packed.status;
      return false;
    }
    return packed.feasible;
  }

  /// Rebuilds the full schedule from the final packing: greedy interval
  /// coloring for machines, then the per-calibration 1-machine schedule.
  [[nodiscard]] Schedule build_schedule() const {
    Schedule schedule = Schedule::empty_like(instance_, instance_.machines);
    std::vector<const SearchCalibration*> order;
    for (const SearchCalibration& cal : calibrations_) order.push_back(&cal);
    std::sort(order.begin(), order.end(),
              [](const SearchCalibration* a, const SearchCalibration* b) {
                return a->start < b->start;
              });
    std::vector<Time> machine_free(static_cast<std::size_t>(instance_.machines),
                                   std::numeric_limits<Time>::min());
    for (const SearchCalibration* cal : order) {
      int machine = -1;
      for (std::size_t i = 0; i < machine_free.size(); ++i) {
        if (machine_free[i] <= cal->start) {
          machine = static_cast<int>(i);
          break;
        }
      }
      assert(machine >= 0 && "coloring fits: overlap checked in choose_times");
      machine_free[static_cast<std::size_t>(machine)] = cal->start + instance_.T;
      schedule.calibrations.push_back({machine, cal->start});

      Instance clipped;
      clipped.machines = 1;
      clipped.T = instance_.T;
      for (const Job* job : cal->assigned) {
        Job clip = *job;
        clip.release = std::max(job->release, cal->start);
        clip.deadline = std::min(job->deadline, cal->start + instance_.T);
        clipped.jobs.push_back(clip);
      }
      const MMFeasibility packed =
          bnb_mm_feasibility(clipped, 1, /*node_budget=*/100'000);
      assert(packed.feasible && "re-pack of a packable calibration");
      for (const ScheduledJob& sj : packed.schedule.jobs) {
        schedule.jobs.push_back({sj.job, machine, sj.start});
      }
    }
    schedule.normalize();
    return schedule;
  }

  const Instance& instance_;
  ExactIseOptions options_;
  std::int64_t node_budget_;
  LimitPoller poller_;
  std::vector<Time> grid_;
  std::vector<const Job*> jobs_by_deadline_;
  std::vector<SearchCalibration> calibrations_;
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
  SolveStatus sub_status_ = SolveStatus::kOk;
};

}  // namespace

MMFeasibility bnb_mm_feasibility(const Instance& instance, int machines,
                                 std::int64_t node_budget,
                                 const RunLimits& limits) {
  MMFeasibility result;
  if (instance.empty()) {
    result.feasible = true;
    result.schedule.machines = machines;
    return result;
  }
  FeasibilitySearch search(instance, machines, node_budget, limits);
  const bool feasible = search.run();
  result.status = search.status();
  result.nodes = search.nodes();
  if (result.status == SolveStatus::kOk && feasible) {
    result.feasible = true;
    result.schedule = search.schedule();
  }
  return result;
}

ExactIseResult solve_exact_ise_bnb(const Instance& instance,
                                   const ExactIseOptions& options) {
  ExactSearch search(instance, options);
  return search.run();
}

}  // namespace calisched
