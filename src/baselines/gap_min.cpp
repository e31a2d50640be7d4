#include "baselines/gap_min.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace calisched {
namespace {

/// Exact feasibility of unit jobs into the given sorted slot times:
/// walk slots in time order, at each slot run the earliest-deadline
/// released-and-unscheduled job (classic exchange argument).
bool match_slots(const Instance& instance, const std::vector<Time>& slots,
                 std::vector<ScheduledJob>* placed) {
  std::vector<bool> done(instance.size(), false);
  std::size_t remaining = instance.size();
  if (placed) placed->clear();
  for (const Time slot : slots) {
    std::size_t chosen = instance.size();
    for (std::size_t j = 0; j < instance.size(); ++j) {
      if (done[j]) continue;
      const Job& job = instance.jobs[j];
      if (job.release > slot || slot + 1 > job.deadline) continue;
      if (chosen == instance.size() ||
          job.deadline < instance.jobs[chosen].deadline) {
        chosen = j;
      }
    }
    if (chosen == instance.size()) return false;  // an empty slot is waste
    done[chosen] = true;
    if (placed) placed->push_back({instance.jobs[chosen].id, 0, slot});
    --remaining;
  }
  return remaining == 0;
}

class BlockSearch {
 public:
  BlockSearch(const Instance& instance, const GapMinOptions& options)
      : instance_(instance),
        options_(options),
        node_budget_(options.limits.node_budget_or(2'000'000)),
        poller_(options.limits, /*stride=*/1024) {
    // Candidate block start times: any integer in [min_r, max_d).
    for (Time t = instance.min_release(); t < instance.max_deadline(); ++t) {
      grid_.push_back(t);
    }
  }

  GapMinResult run() {
    GapMinResult result;
    const auto n = static_cast<Time>(instance_.size());
    for (int k = 1; k <= options_.max_blocks && k <= static_cast<int>(n); ++k) {
      blocks_.clear();
      if (place_blocks(k, n, 0)) {
        result.solved = true;
        result.feasible = true;
        result.busy_blocks = static_cast<std::size_t>(k);
        result.slots = best_slots_;
        result.nodes = nodes_;
        return result;
      }
      if (budget_hit_) {
        result.nodes = nodes_;
        result.status = poller_.status() != SolveStatus::kOk
                            ? poller_.status()
                            : SolveStatus::kLimitExceeded;
        return result;
      }
    }
    result.solved = true;  // infeasible within max_blocks
    result.status = SolveStatus::kInfeasible;
    result.nodes = nodes_;
    return result;
  }

 private:
  /// Chooses `remaining_blocks` disjoint blocks (>= 1 idle slot apart)
  /// with total length `remaining_len`, starting at grid index >= from.
  bool place_blocks(int remaining_blocks, Time remaining_len, std::size_t from) {
    if (++nodes_ > node_budget_ ||
        poller_.poll() != SolveStatus::kOk) {
      budget_hit_ = true;  // either way: abandon the whole search
      return false;
    }
    if (remaining_blocks == 0) {
      if (remaining_len != 0) return false;
      std::vector<Time> slots;
      for (const auto& [start, length] : blocks_) {
        for (Time i = 0; i < length; ++i) slots.push_back(start + i);
      }
      return match_slots(instance_, slots, &best_slots_);
    }
    // Each remaining block needs length >= 1 plus a gap.
    for (std::size_t g = from; g < grid_.size(); ++g) {
      const Time start = grid_[g];
      const Time max_len =
          remaining_len - static_cast<Time>(remaining_blocks - 1);
      for (Time length = 1; length <= max_len; ++length) {
        if (start + length > instance_.max_deadline()) break;
        blocks_.emplace_back(start, length);
        // Next block starts at least one idle slot later.
        const Time next_min = start + length + 1;
        const auto next_it =
            std::lower_bound(grid_.begin(), grid_.end(), next_min);
        if (place_blocks(remaining_blocks - 1, remaining_len - length,
                         static_cast<std::size_t>(next_it - grid_.begin()))) {
          return true;
        }
        blocks_.pop_back();
        if (budget_hit_) return false;
      }
    }
    return false;
  }

  const Instance& instance_;
  GapMinOptions options_;
  std::int64_t node_budget_;
  LimitPoller poller_;
  std::vector<Time> grid_;
  std::vector<std::pair<Time, Time>> blocks_;  // (start, length)
  std::vector<ScheduledJob> best_slots_;
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

GapMinResult solve_min_gaps_unit(const Instance& instance,
                                 const GapMinOptions& options) {
  GapMinResult empty_result;
  if (instance.empty()) {
    empty_result.solved = true;
    empty_result.feasible = true;
    return empty_result;
  }
  for (const Job& job : instance.jobs) {
    assert(job.proc == 1 && "gap minimizer requires unit jobs");
    (void)job;
  }
  BlockSearch search(instance, options);
  return search.run();
}

}  // namespace calisched
