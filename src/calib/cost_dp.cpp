#include "calib/cost_dp.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "mm/mm.hpp"

namespace calisched {
namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
constexpr int kMaxJobs = 20;

/// The winning transition out of a memoized state, for reconstruction.
struct Entry {
  std::int64_t cost = kInf;
  Time start = 0;
  int type = 0;
  std::uint32_t subset = 0;
};

class CostDp {
 public:
  CostDp(const Instance& instance, const CostDpOptions& options)
      : instance_(instance),
        options_(options),
        node_budget_(options.limits.node_budget_or(5'000'000)),
        model_(instance.effective_model()),
        poller_(options.limits, /*stride=*/256) {
    for (const Job& job : instance.jobs) jobs_.push_back(&job);
    std::sort(jobs_.begin(), jobs_.end(),
              [](const Job* a, const Job* b) { return a->id < b->id; });
    // Useful integer starts, pooled across types (a start is kept when any
    // job fits any type there; per-type fit is re-checked at use).
    const Time hi = instance.max_deadline();
    std::vector<Time> starts;
    for (int k = 0; k < static_cast<int>(model_.size()); ++k) {
      const Time lo =
          instance.min_release() - model_.types[idx(k)].span() + 1;
      for (Time t = lo; t < hi; ++t) {
        for (const Job* job : jobs_) {
          if (fits(*job, t, k)) {
            starts.push_back(t);
            break;
          }
        }
      }
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    starts_ = std::move(starts);
  }

  CostDpResult run() {
    CostDpResult result;
    if (instance_.machines != 1) {
      result.status = SolveStatus::kInfeasible;
      result.solved = true;
      return result;
    }
    if (instance_.empty()) {
      result.solved = true;
      result.feasible = true;
      result.schedule = Schedule::empty_like(instance_, 1);
      return result;
    }
    if (jobs_.size() > kMaxJobs) {
      result.status = SolveStatus::kLimitExceeded;
      return result;  // solved = false: mask-indexed DP caps out
    }
    const std::int64_t cost =
        best(0, std::numeric_limits<Time>::min());
    result.nodes = nodes_;
    if (budget_hit_) {
      if (poller_.status() != SolveStatus::kOk) {
        result.status = poller_.status();
      } else if (sub_status_ != SolveStatus::kOk) {
        result.status = sub_status_;  // a packing sub-search was stopped
      } else {
        result.status = SolveStatus::kLimitExceeded;
      }
      return result;  // solved = false
    }
    result.solved = true;
    if (cost == kInf) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
    result.feasible = true;
    result.total_cost = cost;
    result.schedule = reconstruct();
    return result;
  }

 private:
  static std::size_t idx(int k) { return static_cast<std::size_t>(k); }

  [[nodiscard]] std::uint32_t full_mask() const {
    return (std::uint32_t{1} << jobs_.size()) - 1;
  }

  /// ISE fit of one job inside a type-k calibration starting at t.
  [[nodiscard]] bool fits(const Job& job, Time t, int k) const {
    const CalibrationType& type = model_.types[idx(k)];
    const Time earliest = std::max(t + type.activation_delay, job.release);
    const Time latest = std::min(t + type.span(), job.deadline);
    return earliest + job.proc <= latest;
  }

  /// Can the earliest-deadline unscheduled job still complete when the
  /// machine frees up at `free`? Cheap dead-state cut: job j fits some
  /// future calibration iff some type k has p <= L_k and
  /// max(free + delta_k, r_j) + p <= d_j (start the calibration at
  /// max(free, r_j - delta_k); the window then covers the run).
  [[nodiscard]] bool urgent_job_alive(std::uint32_t mask, Time free) const {
    const Job* urgent = nullptr;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (mask & (std::uint32_t{1} << j)) continue;
      if (urgent == nullptr || jobs_[j]->deadline < urgent->deadline) {
        urgent = jobs_[j];
      }
    }
    if (urgent == nullptr) return true;
    for (const CalibrationType& type : model_.types) {
      if (urgent->proc > type.length) continue;
      const Time start =
          std::max(free == std::numeric_limits<Time>::min()
                       ? urgent->release
                       : free + type.activation_delay,
                   urgent->release);
      if (start + urgent->proc <= urgent->deadline) return true;
    }
    return false;
  }

  /// Minimum cost to schedule the jobs outside `mask` on a machine that
  /// frees up at `free`. kInf when impossible (or the budget fired).
  std::int64_t best(std::uint32_t mask, Time free) {
    if (mask == full_mask()) return 0;
    const auto key = std::make_pair(mask, free);
    if (const auto it = memo_.find(key); it != memo_.end()) {
      return it->second.cost;
    }
    if (!urgent_job_alive(mask, free)) {
      memo_.emplace(key, Entry{});
      return kInf;
    }
    Entry entry;
    for (const Time s : starts_) {
      if (s < free) continue;
      for (int k = 0; k < static_cast<int>(model_.size()); ++k) {
        const CalibrationType& type = model_.types[idx(k)];
        std::uint32_t eligible = 0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
          const std::uint32_t bit = std::uint32_t{1} << j;
          if ((mask & bit) == 0 && fits(*jobs_[j], s, k)) eligible |= bit;
        }
        if (eligible == 0) continue;
        // All nonempty subsets of the eligible jobs.
        for (std::uint32_t sub = eligible; sub != 0;
             sub = (sub - 1) & eligible) {
          if (++nodes_ > node_budget_ ||
              poller_.poll() != SolveStatus::kOk) {
            budget_hit_ = true;
            return kInf;  // unmemoized: the value is not trustworthy
          }
          if (subset_load(sub) > type.length) continue;
          if (!packable(sub, s, k)) continue;
          const std::int64_t rest = best(mask | sub, s + type.span());
          if (budget_hit_) return kInf;
          if (rest == kInf) continue;
          const std::int64_t total = type.cost + rest;
          if (total < entry.cost) {
            entry = Entry{total, s, k, sub};
          }
        }
      }
    }
    memo_.emplace(key, entry);
    return entry.cost;
  }

  [[nodiscard]] Time subset_load(std::uint32_t sub) const {
    Time load = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (sub & (std::uint32_t{1} << j)) load += jobs_[j]->proc;
    }
    return load;
  }

  /// Jobs in `sub` with windows clipped to the availability window of a
  /// type-k calibration starting at s.
  [[nodiscard]] Instance clipped(std::uint32_t sub, Time s, int k) const {
    const CalibrationType& type = model_.types[idx(k)];
    const Time avail_start = s + type.activation_delay;
    const Time avail_end = s + type.span();
    Instance clip;
    clip.machines = 1;
    clip.T = std::max<Time>(2, type.length);
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if ((sub & (std::uint32_t{1} << j)) == 0) continue;
      Job job = *jobs_[j];
      job.release = std::max(job.release, avail_start);
      job.deadline = std::min(job.deadline, avail_end);
      clip.jobs.push_back(job);
    }
    return clip;
  }

  /// A *stopped* packing sub-search must abandon the whole DP with the
  /// stop reason — "not packable" would turn a budget artifact into a
  /// pruned (possibly optimal) transition.
  [[nodiscard]] bool packable(std::uint32_t sub, Time s, int k) {
    const MMFeasibility packed = exact_mm_feasibility(
        clipped(sub, s, k), 1, /*node_budget=*/100'000, options_.limits);
    if (packed.status != SolveStatus::kOk) {
      budget_hit_ = true;
      sub_status_ = packed.status;
      return false;
    }
    return packed.feasible;
  }

  /// Replays the memoized winning transitions into a schedule.
  [[nodiscard]] Schedule reconstruct() const {
    Schedule schedule = Schedule::empty_like(instance_, 1);
    std::uint32_t mask = 0;
    Time free = std::numeric_limits<Time>::min();
    while (mask != full_mask()) {
      const auto it = memo_.find(std::make_pair(mask, free));
      assert(it != memo_.end() && it->second.cost != kInf);
      const Entry& entry = it->second;
      schedule.calibrations.push_back({0, entry.start, entry.type});
      const MMFeasibility packed =
          exact_mm_feasibility(clipped(entry.subset, entry.start, entry.type),
                               1, /*node_budget=*/100'000);
      assert(packed.feasible && "packability was checked during the DP");
      for (const ScheduledJob& sj : packed.schedule.jobs) {
        schedule.jobs.push_back({sj.job, 0, sj.start});
      }
      mask |= entry.subset;
      free = entry.start + model_.types[idx(entry.type)].span();
    }
    schedule.normalize();
    return schedule;
  }

  const Instance& instance_;
  CostDpOptions options_;
  std::int64_t node_budget_;
  CalibrationModel model_;
  LimitPoller poller_;
  std::vector<const Job*> jobs_;
  std::vector<Time> starts_;
  std::map<std::pair<std::uint32_t, Time>, Entry> memo_;
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
  SolveStatus sub_status_ = SolveStatus::kOk;
};

}  // namespace

CostDpResult solve_cost_dp(const Instance& instance,
                           const CostDpOptions& options) {
  CostDp dp(instance, options);
  return dp.run();
}

}  // namespace calisched
