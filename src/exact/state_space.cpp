// State-space search: one layered BFS over hash-consed schedule states,
// driven by two move sets.
//
// Implementation notes:
//
//   * LayeredSearch<Record> is the engine. It owns the struct-of-vectors
//     arena (scheduled-set words, one Record per machine, parent + edge +
//     cost per state), so a search is a few large allocations, not a node
//     soup, and reconstruction is a parent walk. It also owns the layer
//     loop with its limit poll and state budget, the merge/dominance
//     bucket, commit, and the counter flush into the trace.
//   * A move set (MmMoves: Time frontiers; IseMoves: IseSlot calibration
//     slots plus a calibration count as the state's cost) generates the
//     children of one state, canonicalizes and prunes them, and replays
//     the winning path into a schedule.
//   * The per-layer index is an unordered_multimap from the scheduled-set
//     hash to state ids in the *next* layer; equal_range gives the handful
//     of states sharing a job set, against which a newborn candidate is
//     merged (identical records and cost), discarded (dominated at no
//     lower cost), or installed (possibly killing bucket members it
//     dominates — they stay in the arena with a dead flag and are never
//     expanded). MM's cost is always 0, so the cost conditions reduce to
//     its frontier rules.
//   * Stopping: MM asks for the first complete state (a feasibility
//     witness), which commits without the bucket and ends the search; ISE
//     keeps the cheapest complete state of the last layer.
//   * Edges store (job, slot position[, calibration start]); start times
//     are *recomputed* during replay from the same canonical frontier
//     values the search saw, which keeps edges small and makes replay an
//     independent re-derivation of the schedule rather than a trust-me
//     copy. The canonicalization clamps (schedule_state.hpp) are
//     value-preserving for every start the remaining jobs can take, so
//     replayed starts equal real left-shifted starts.
//   * Remaining-set aggregates (min release, min latest start, min
//     processing, the ISE new-calibration floor) are maintained as
//     (min, second-min) pairs per expanded state, so each child gets its
//     floors in O(1) instead of O(n).
//   * Identical jobs are placed in index order (twin_prev_links), which
//     shrinks the reachable subset lattice from 2^n bitsets to per-class
//     counts — the symmetry collapse that lets the layered engine certify
//     instances whose permutation count drowns the branch-and-bound DFS.
#include "exact/state_space.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exact/schedule_state.hpp"
#include "trace/trace.hpp"

namespace calisched {
namespace {

constexpr Time kTimeMax = std::numeric_limits<Time>::max();
constexpr std::uint32_t kNone = 0xffffffffu;
constexpr Time kNoNewCal = std::numeric_limits<Time>::min();

/// (min, runner-up) of a stream of (value, key) pairs; value_without(key)
/// answers "what is the min if `key` is excluded" in O(1) — the child-state
/// floor question asked once per (state, job) pair.
struct MinPair {
  Time best = kTimeMax;
  Time second = kTimeMax;
  std::int32_t best_key = -1;

  void feed(Time value, std::int32_t key) noexcept {
    if (value < best) {
      second = best;
      best = value;
      best_key = key;
    } else if (value < second) {
      second = value;
    }
  }
  [[nodiscard]] Time value_without(std::int32_t key) const noexcept {
    return key == best_key ? second : best;
  }
};

/// Scheduled-set scratch: parent words + one extra bit, hashed.
std::uint64_t hash_words(const std::vector<std::uint64_t>& words) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t word : words) {
    h ^= word;
    h *= 1099511628211ULL;
  }
  return h;
}

bool words_equal(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t count) noexcept {
  return std::equal(a, a + count, b);
}

bool is_scheduled(const std::uint64_t* words, std::size_t j) noexcept {
  return (words[j >> 6] >> (j & 63)) & 1;
}

/// twin_prev[j] = the largest k < j with an identical (release, deadline,
/// proc) triple, or -1. Any schedule can be relabelled so identical jobs are
/// placed in index order (swapping two identical jobs' assignments changes
/// nothing the verifier or the objective can see), so a move set may
/// refuse to place job j while twin_prev[j] is still unscheduled. That
/// canonical-representative rule collapses the reachable subset lattice
/// from per-copy bitsets to per-class counts: with classes of sizes
/// n_1..n_k only prod (n_i + 1) job sets are reachable instead of 2^n,
/// which is exactly the regime where the layered engine beats DFS (a DFS
/// without the rule re-proves infeasibility once per permutation of twins).
std::vector<std::int32_t> twin_prev_links(const Instance& instance) {
  const std::size_t n = instance.size();
  std::vector<std::int32_t> prev(n, -1);
  for (std::size_t j = 1; j < n; ++j) {
    const Job& job = instance.jobs[j];
    for (std::size_t k = j; k-- > 0;) {
      const Job& other = instance.jobs[k];
      if (other.release == job.release && other.deadline == job.deadline &&
          other.proc == job.proc) {
        prev[j] = static_cast<std::int32_t>(k);
        break;
      }
    }
  }
  return prev;
}

/// Job indices by nondecreasing deadline (the energetic tests' scan order).
std::vector<std::size_t> jobs_by_deadline(const Instance& instance) {
  std::vector<std::size_t> order(instance.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return instance.jobs[a].deadline < instance.jobs[b].deadline;
  });
  return order;
}

bool dominates(const std::vector<Time>& a, const std::vector<Time>& b) {
  return mm_frontiers_dominate(a, b);
}
bool dominates(const std::vector<IseSlot>& a, const std::vector<IseSlot>& b) {
  return ise_slots_dominate(a, b);
}

/// One move on a path from the root: job `job` placed via record position
/// `slot`, after opening a calibration at `cal_start` (kNoNewCal: none).
struct Edge {
  std::int32_t job;
  std::int32_t slot;
  Time cal_start;
};

// --------------------------------------------------------------- engine --

template <typename Record>
class LayeredSearch {
 public:
  struct Outcome {
    SolveStatus status = SolveStatus::kOk;
    std::uint32_t leaf = kNone;  ///< the complete state found, or kNone
    std::int64_t states = 0;     ///< candidate states built
  };

  /// `first_complete`: stop at the first complete state (MM) instead of
  /// keeping the cheapest complete state of the last layer (ISE).
  LayeredSearch(std::size_t jobs, std::size_t machines, std::int64_t budget,
                const RunLimits& limits, TraceContext* trace,
                bool first_complete)
      : n_(jobs),
        m_(machines),
        words_((jobs + 63) / 64),
        budget_(budget),
        first_complete_(first_complete),
        poller_(limits, /*stride=*/256),
        trace_(trace) {}

  /// Explores from the root whose machines all hold `root`, calling
  /// moves.expand() once per live state; expand() returns false to stop
  /// (budget spent, or the first complete state committed).
  template <typename Moves>
  Outcome run(Moves& moves, const Record& root) {
    seed(root);
    std::vector<std::uint32_t> current{0};
    for (layer_ = 0; layer_ < n_ && !current.empty(); ++layer_) {
      TraceSpan span(trace_, "layer");
      ++layers_;
      bucket_.clear();
      next_.clear();
      for (const std::uint32_t id : current) {
        if (dead_[id]) continue;
        ++expanded_;
        if (poller_.poll() != SolveStatus::kOk) {
          return finish(poller_.status(), kNone);
        }
        load(id);
        if (!moves.expand()) {
          return complete_ != kNone ? finish(SolveStatus::kOk, complete_)
                                    : finish(SolveStatus::kLimitExceeded, kNone);
        }
      }
      current.clear();
      for (const std::uint32_t id : next_) {
        if (!dead_[id]) current.push_back(id);
      }
    }
    // After the last layer `current` holds the live complete states; the
    // optimum is the cheapest. Empty: no complete state exists (within the
    // move set's pruning cap), a definitive verdict.
    std::uint32_t best = kNone;
    for (const std::uint32_t id : current) {
      if (best == kNone || cost_[id] < cost_[best]) best = id;
    }
    return finish(SolveStatus::kOk, best);
  }

  // --- the loaded parent, stable while its children are built --------------
  [[nodiscard]] const std::uint64_t* parent_words() const noexcept {
    return parent_words_.data();
  }
  [[nodiscard]] const Record* parent_records() const noexcept {
    return parent_records_.data();
  }
  [[nodiscard]] std::int32_t parent_cost() const noexcept {
    return cost_[parent_];
  }
  /// Children of the current layer schedule every job.
  [[nodiscard]] bool last_layer() const noexcept { return layer_ + 1 == n_; }

  // --- building one child --------------------------------------------------
  /// Counts one candidate child against the state budget; false once the
  /// budget is spent (the candidate is then not built).
  [[nodiscard]] bool charge() noexcept { return ++states_ <= budget_; }

  /// The candidate's records: the parent's with position `slot` replaced
  /// by `updated` at its sorted place. The move set canonicalizes them in
  /// place before offer().
  std::vector<Record>& child(std::size_t slot, const Record& updated) {
    child_.clear();
    for (std::size_t s = 0; s < m_; ++s) {
      if (s != slot) child_.push_back(parent_records_[s]);
    }
    child_.insert(std::lower_bound(child_.begin(), child_.end(), updated),
                  updated);
    return child_;
  }

  /// Drops the candidate as dead; true (keep expanding).
  bool prune() noexcept {
    ++pruned_;
    return true;
  }

  /// Offers the candidate (child()'s records, after `edge` from the loaded
  /// parent, at `cost`): merged into an identical state, dropped when
  /// dominated, or committed to the next layer (killing the states it
  /// dominates). In a first-complete search a complete candidate commits
  /// directly and ends the search: offer() then returns false.
  bool offer(const Edge& edge, std::int32_t cost) {
    set_ = parent_words_;
    set_[static_cast<std::size_t>(edge.job) >> 6] |= std::uint64_t{1}
                                                     << (edge.job & 63);
    if (first_complete_ && last_layer()) {
      complete_ = commit(edge, cost);
      return false;
    }
    const std::uint64_t hash = hash_words(set_);
    auto range = bucket_.equal_range(hash);
    for (auto it = range.first; it != range.second;) {
      const std::uint32_t other = it->second;
      if (!words_equal(set_words(other), set_.data(), words_)) {
        ++it;
        continue;
      }
      const Record* theirs = records(other);
      const std::vector<Record> their_records(theirs, theirs + m_);
      if (cost_[other] == cost && child_ == their_records) {
        ++merged_;
        return true;
      }
      if (cost_[other] <= cost && dominates(their_records, child_)) {
        ++dominated_;
        return true;
      }
      if (cost <= cost_[other] && dominates(child_, their_records)) {
        ++dominated_;
        dead_[other] = 1;
        it = bucket_.erase(it);
        continue;
      }
      ++it;
    }
    const std::uint32_t id = commit(edge, cost);
    bucket_.insert({hash, id});
    next_.push_back(id);
    return true;
  }

  // --- results -------------------------------------------------------------
  [[nodiscard]] std::int32_t cost(std::uint32_t id) const noexcept {
    return cost_[id];
  }

  /// The edges from the root to `leaf`, in placement order.
  [[nodiscard]] std::vector<Edge> path(std::uint32_t leaf) const {
    std::vector<Edge> edges;
    for (std::uint32_t id = leaf; parent_of_[id] != kNone;
         id = parent_of_[id]) {
      edges.push_back(edge_[id]);
    }
    std::reverse(edges.begin(), edges.end());
    return edges;
  }

 private:
  void seed(const Record& root) {
    set_pool_.assign(words_, 0);
    record_pool_.assign(m_, root);
    parent_of_.push_back(kNone);
    edge_.push_back({-1, -1, kNoNewCal});
    cost_.push_back(0);
    dead_.push_back(0);
    states_ = 1;
  }

  [[nodiscard]] const Record* records(std::uint32_t id) const noexcept {
    return record_pool_.data() + static_cast<std::size_t>(id) * m_;
  }
  [[nodiscard]] const std::uint64_t* set_words(std::uint32_t id) const noexcept {
    return set_pool_.data() + static_cast<std::size_t>(id) * words_;
  }

  /// Copies state `id` out of the pools: commit() appends to them and
  /// would invalidate pointers into them.
  void load(std::uint32_t id) {
    parent_ = id;
    parent_words_.assign(set_words(id), set_words(id) + words_);
    parent_records_.assign(records(id), records(id) + m_);
  }

  std::uint32_t commit(const Edge& edge, std::int32_t cost) {
    const auto id = static_cast<std::uint32_t>(parent_of_.size());
    set_pool_.insert(set_pool_.end(), set_.begin(), set_.end());
    record_pool_.insert(record_pool_.end(), child_.begin(), child_.end());
    parent_of_.push_back(parent_);
    edge_.push_back(edge);
    cost_.push_back(cost);
    dead_.push_back(0);
    return id;
  }

  Outcome finish(SolveStatus status, std::uint32_t leaf) {
    trace_add(trace_, "state_space.searches");
    trace_add(trace_, "state_space.states", states_);
    trace_add(trace_, "state_space.merged", merged_);
    trace_add(trace_, "state_space.dominated", dominated_);
    trace_add(trace_, "state_space.pruned", pruned_);
    trace_add(trace_, "state_space.expanded", expanded_);
    trace_add(trace_, "state_space.layers", layers_);
    return {status, leaf, states_};
  }

  std::size_t n_;
  std::size_t m_;
  std::size_t words_;
  std::int64_t budget_;
  bool first_complete_;
  LimitPoller poller_;
  TraceContext* trace_;

  // Arena, one entry per committed state.
  std::vector<std::uint64_t> set_pool_;
  std::vector<Record> record_pool_;
  std::vector<std::uint32_t> parent_of_;
  std::vector<Edge> edge_;
  std::vector<std::int32_t> cost_;
  std::vector<char> dead_;

  std::unordered_multimap<std::uint64_t, std::uint32_t> bucket_;
  std::vector<std::uint32_t> next_;
  std::size_t layer_ = 0;
  std::uint32_t parent_ = 0;
  std::vector<std::uint64_t> parent_words_;
  std::vector<Record> parent_records_;
  std::vector<Record> child_;
  std::vector<std::uint64_t> set_;
  std::uint32_t complete_ = kNone;

  std::int64_t states_ = 0;
  std::int64_t merged_ = 0;
  std::int64_t dominated_ = 0;
  std::int64_t pruned_ = 0;
  std::int64_t expanded_ = 0;
  std::int64_t layers_ = 0;
};

// ------------------------------------------------------------------- MM --

class MmMoves {
 public:
  MmMoves(const Instance& instance, int machines, std::int64_t budget,
          const RunLimits& limits, TraceContext* trace)
      : instance_(instance),
        n_(instance.size()),
        m_(static_cast<std::size_t>(machines)),
        twin_prev_(twin_prev_links(instance)),
        by_deadline_(jobs_by_deadline(instance)),
        search_(n_, m_, budget, limits, trace, /*first_complete=*/true) {}

  MMFeasibility run() {
    const auto found = search_.run(*this, instance_.min_release());
    MMFeasibility result;
    result.status = found.status;
    result.nodes = found.states;
    if (found.leaf != kNone) {
      result.feasible = true;
      result.schedule = replay(search_.path(found.leaf));
    }
    return result;
  }

  /// Places each remaining job on every frontier a left-shifted schedule
  /// could use. False once the search must stop.
  bool expand() {
    const std::uint64_t* words = search_.parent_words();
    const Time* base = search_.parent_records();
    remaining_.clear();
    MinPair release, latest;
    for (std::size_t j = 0; j < n_; ++j) {
      if (is_scheduled(words, j)) continue;
      remaining_.push_back(j);
      const Job& job = instance_.jobs[j];
      release.feed(job.release, static_cast<std::int32_t>(j));
      latest.feed(job.deadline - job.proc, static_cast<std::int32_t>(j));
    }
    for (const std::size_t j : remaining_) {
      // Canonical-representative rule: identical jobs go in index order.
      const std::int32_t twin = twin_prev_[j];
      if (twin >= 0 && !is_scheduled(words, static_cast<std::size_t>(twin))) {
        continue;
      }
      const Job& job = instance_.jobs[j];
      const auto key = static_cast<std::int32_t>(j);
      const Time child_floor = release.value_without(key);
      const Time child_latest = latest.value_without(key);
      // Largest frontier at or before the release: every earlier frontier
      // yields the same start r_j and a dominated remainder, so one child
      // stands in for all of them.
      std::size_t at_release = m_;  // index, m_ = none
      for (std::size_t s = 0; s < m_; ++s) {
        if (base[s] <= job.release) at_release = s;
      }
      if (at_release != m_ &&
          !emit(j, at_release, job.release, child_floor, child_latest)) {
        return false;
      }
      // Distinct frontiers strictly after the release start the job at the
      // frontier itself.
      Time previous = kTimeMax;
      for (std::size_t s = 0; s < m_; ++s) {
        const Time f = base[s];
        if (f <= job.release || f == previous) continue;
        previous = f;
        if (f + job.proc > job.deadline) break;  // sorted: later only worse
        if (!emit(j, s, f, child_floor, child_latest)) return false;
      }
    }
    return true;
  }

 private:
  /// Builds, canonicalizes, prunes, and offers one child.
  bool emit(std::size_t j, std::size_t slot, Time start, Time child_floor,
            Time child_latest) {
    if (!search_.charge()) return false;
    std::vector<Time>& child =
        search_.child(slot, start + instance_.jobs[j].proc);
    if (!search_.last_layer()) {
      canonicalize_mm_frontiers(child, child_floor);
      // Dead state: some remaining job misses its deadline even on the
      // earliest frontier, or the remaining work cannot fit.
      if (child[0] > child_latest || energetic_dead(child, j)) {
        return search_.prune();
      }
    }
    return search_.offer({static_cast<std::int32_t>(j),
                          static_cast<std::int32_t>(slot), kNoNewCal},
                         /*cost=*/0);
  }

  /// Energetic dead test on the canonicalized child frontiers: for every
  /// deadline D in increasing order, the remaining work due by D must fit
  /// into the machine-time the frontiers leave open before D,
  ///   sum_{remaining q : d_q <= D} p_q  <=  sum_s max(0, D - frontier_s);
  /// a violation proves no completion exists, whatever the placements.
  /// (Canonicalization clamps frontiers up to the remaining release floor,
  /// which only tightens the bound: no remaining job can use machine time
  /// before its release anyway.) Catches doomed states where every job
  /// still fits individually but the aggregate cannot — e.g. a saturated
  /// early wave abandoned while the search schedules later jobs.
  [[nodiscard]] bool energetic_dead(const std::vector<Time>& frontiers,
                                    std::size_t placed) const {
    const std::uint64_t* words = search_.parent_words();
    Time work = 0;
    Time fsum = 0;      // sum of frontiers strictly below the current D
    std::size_t s = 0;  // count of those frontiers
    for (const std::size_t q : by_deadline_) {
      if (q == placed || is_scheduled(words, q)) continue;
      const Job& job = instance_.jobs[q];
      while (s < m_ && frontiers[s] < job.deadline) fsum += frontiers[s++];
      work += job.proc;
      if (work > static_cast<Time>(s) * job.deadline - fsum) return true;
    }
    return false;
  }

  /// Replays the edge path, re-deriving every start from the same
  /// canonical frontier values the search used, with machine identities
  /// carried alongside.
  MMSchedule replay(const std::vector<Edge>& path) const {
    MMSchedule schedule;
    schedule.machines = static_cast<int>(m_);
    std::vector<std::pair<Time, int>> machines(m_);  // (frontier, machine)
    for (std::size_t s = 0; s < m_; ++s) {
      machines[s] = {instance_.min_release(), static_cast<int>(s)};
    }
    std::vector<char> done(n_, 0);
    for (const Edge& edge : path) {
      const auto j = static_cast<std::size_t>(edge.job);
      const Job& job = instance_.jobs[j];
      done[j] = 1;
      auto& target = machines[static_cast<std::size_t>(edge.slot)];
      const Time start = std::max(target.first, job.release);
      schedule.jobs.push_back({job.id, target.second, start});
      target.first = start + job.proc;
      Time floor = kTimeMax;
      for (std::size_t q = 0; q < n_; ++q) {
        if (!done[q]) floor = std::min(floor, instance_.jobs[q].release);
      }
      if (floor != kTimeMax) {
        for (auto& entry : machines) {
          if (entry.first < floor) entry.first = floor;
        }
      }
      std::sort(machines.begin(), machines.end());
    }
    return schedule;
  }

  const Instance& instance_;
  std::size_t n_;
  std::size_t m_;
  std::vector<std::int32_t> twin_prev_;
  std::vector<std::size_t> by_deadline_;
  std::vector<std::size_t> remaining_;
  LayeredSearch<Time> search_;
};

// ------------------------------------------------------------------ ISE --

/// min over jobs of r_j + p_j - T: no useful calibration starts earlier,
/// so every machine's initial (never calibrated) slot sits there.
Time new_calibration_floor(const Instance& instance) {
  Time floor = kTimeMax;
  for (const Job& job : instance.jobs) {
    floor = std::min(floor, job.release + job.proc - instance.T);
  }
  return floor;
}

class IseMoves {
 public:
  IseMoves(const Instance& instance, const ExactIseOptions& options,
           int upper_bound_hint)
      : instance_(instance),
        require_tise_(options.require_tise),
        n_(instance.size()),
        m_(static_cast<std::size_t>(instance.machines)),
        cap_(upper_bound_hint > 0 && upper_bound_hint < options.max_calibrations
                 ? upper_bound_hint
                 : options.max_calibrations),
        twin_prev_(twin_prev_links(instance)),
        by_deadline_(jobs_by_deadline(instance)),
        search_(n_, m_, options.limits.node_budget_or(5'000'000),
                options.limits, options.trace, /*first_complete=*/false) {}

  ExactIseResult run() {
    const Time floor = new_calibration_floor(instance_);
    const auto found = search_.run(*this, IseSlot{floor, floor});
    ExactIseResult result;
    result.nodes = found.states;
    if (found.status != SolveStatus::kOk) {
      result.status = found.status;
      return result;  // solved = false: stopped, not a verdict
    }
    result.solved = true;
    if (found.leaf == kNone) {
      result.status = SolveStatus::kInfeasible;  // none within the cap
      return result;
    }
    result.feasible = true;
    result.optimal_calibrations =
        static_cast<std::size_t>(search_.cost(found.leaf));
    result.schedule = replay(search_.path(found.leaf));
    return result;
  }

  /// Places each remaining job into every distinct open slot it fits and
  /// into a fresh calibration at every useful integer start. False once
  /// the budget is spent.
  bool expand() {
    const std::uint64_t* words = search_.parent_words();
    const IseSlot* base = search_.parent_records();
    const std::int32_t parent_cals = search_.parent_cost();
    remaining_.clear();
    MinPair release, latest, newcal_floor, min_proc;
    for (std::size_t j = 0; j < n_; ++j) {
      if (is_scheduled(words, j)) continue;
      remaining_.push_back(j);
      const Job& job = instance_.jobs[j];
      const auto key = static_cast<std::int32_t>(j);
      release.feed(job.release, key);
      latest.feed(job.deadline - job.proc, key);
      newcal_floor.feed(job.release + job.proc - instance_.T, key);
      min_proc.feed(job.proc, key);
    }
    for (const std::size_t j : remaining_) {
      // Canonical-representative rule: identical jobs go in index order.
      const std::int32_t twin = twin_prev_[j];
      if (twin >= 0 && !is_scheduled(words, static_cast<std::size_t>(twin))) {
        continue;
      }
      const Job& job = instance_.jobs[j];
      const auto key = static_cast<std::int32_t>(j);
      Child child;
      child.job = j;
      child.floors.release_floor = release.value_without(key);
      child.floors.new_cal_floor = newcal_floor.value_without(key);
      child.latest = latest.value_without(key);
      child.min_proc = min_proc.value_without(key);
      // Place into an existing calibration (one child per distinct slot).
      for (std::size_t s = 0; s < m_; ++s) {
        if (s > 0 && base[s] == base[s - 1]) continue;
        if (!fits_slot(job, base[s])) continue;
        const Time start = std::max(base[s].free, job.release);
        if (!emit(child, s, kNoNewCal, IseSlot{base[s].end, start + job.proc},
                  parent_cals)) {
          return false;
        }
      }
      // Open a fresh calibration. One candidate slot per distinct expiry —
      // among equal expiries, sacrificing the most-loaded slot leaves the
      // dominant remainder (sorted order: the last of the group).
      if (parent_cals < cap_) {
        const auto [lo, hi] = new_cal_range(job);
        for (std::size_t s = 0; s < m_; ++s) {
          if (s + 1 < m_ && base[s + 1].end == base[s].end) continue;
          for (Time t = std::max(lo, base[s].end); t <= hi; ++t) {
            const Time start = std::max(t, job.release);
            if (!emit(child, s, t, IseSlot{t + instance_.T, start + job.proc},
                      parent_cals + 1)) {
              return false;
            }
          }
        }
      }
    }
    return true;
  }

 private:
  /// What every child placing `job` shares: the remaining-set aggregates
  /// with `job` excluded.
  struct Child {
    std::size_t job = 0;
    RemainingFloors floors;
    Time latest = 0;    ///< min latest start d - p
    Time min_proc = 0;  ///< min processing time
  };

  /// Placement rule: can `job` run inside `slot`? (TISE additionally nests
  /// the calibration window inside the job window.)
  [[nodiscard]] bool fits_slot(const Job& job, const IseSlot& slot) const {
    if (require_tise_ &&
        !(job.release <= slot.end - instance_.T && slot.end <= job.deadline)) {
      return false;
    }
    const Time start = std::max(slot.free, job.release);
    return start + job.proc <= std::min(slot.end, job.deadline);
  }

  /// Integer start range of a fresh calibration that can host `job`
  /// (contiguous; see exact_ise.hpp's completeness note). Empty when
  /// lo > hi.
  [[nodiscard]] std::pair<Time, Time> new_cal_range(const Job& job) const {
    if (job.proc > instance_.T || job.release + job.proc > job.deadline) {
      return {1, 0};  // the job fits no calibration at all
    }
    if (require_tise_) {
      return {job.release, job.deadline - instance_.T};
    }
    return {job.release + job.proc - instance_.T, job.deadline - job.proc};
  }

  /// Builds, canonicalizes, prunes, and offers one child.
  bool emit(const Child& c, std::size_t slot, Time cal_start, IseSlot updated,
            std::int32_t cals) {
    if (!search_.charge()) return false;
    std::vector<IseSlot>& slots = search_.child(slot, updated);
    if (!search_.last_layer()) {
      // Cheap no-job-fits test for rule 2: nothing shorter remains.
      canonicalize_ise_slots(slots, c.floors, [&](const IseSlot& s) {
        return s.free + c.min_proc <= s.end;
      });
      std::sort(slots.begin(), slots.end());
      if (is_dead(slots, c.job, c.latest) ||
          energetic_dead(slots, c.job, cals, c.floors)) {
        return search_.prune();
      }
    }
    return search_.offer({static_cast<std::int32_t>(c.job),
                          static_cast<std::int32_t>(slot), cal_start},
                         cals);
  }

  /// Dead-state test on the freshly canonicalized child slots: some
  /// remaining job (`placed` excluded — it was just placed) can run
  /// neither in an existing slot nor in any future calibration. Fast path:
  /// the earliest expiry still allows a fresh calibration for every
  /// remaining job.
  [[nodiscard]] bool is_dead(const std::vector<IseSlot>& slots,
                             std::size_t placed, Time child_latest) const {
    const Time min_end = slots.front().end;
    if (min_end <= child_latest) return false;
    for (const std::size_t q : remaining_) {
      if (q == placed) continue;
      const Job& job = instance_.jobs[q];
      bool hosted = false;
      for (const IseSlot& slot : slots) {
        if (fits_slot(job, slot)) {
          hosted = true;
          break;
        }
      }
      if (hosted) continue;
      const auto [lo, hi] = new_cal_range(job);
      if (std::max(lo, min_end) > hi) return true;
    }
    return false;
  }

  /// Energetic dead test, ISE flavor: remaining work due by each deadline D
  /// must fit into the usable slot time before D plus what the remaining
  /// calibration allowance could open,
  ///   sum_{remaining q : d_q <= D} p_q
  ///     <= sum_slots max(0, min(end, D) - free)
  ///        + (cap - cals) * min(T, max(0, D - new_cal_floor)),
  /// since a future calibration starts no earlier than the remaining
  /// new-calibration floor and contributes at most T units before any D.
  /// A pure capacity relaxation (single-calibration containment and the
  /// machine overlap constraint are ignored), so a violation is a proof.
  [[nodiscard]] bool energetic_dead(const std::vector<IseSlot>& slots,
                                    std::size_t placed, std::int32_t cals,
                                    const RemainingFloors& floors) const {
    const std::uint64_t* words = search_.parent_words();
    const auto allowance = static_cast<Time>(cap_ - cals);
    Time work = 0;
    for (const std::size_t q : by_deadline_) {
      if (q == placed || is_scheduled(words, q)) continue;
      const Job& job = instance_.jobs[q];
      work += job.proc;
      Time capacity =
          allowance * std::min<Time>(instance_.T,
                                     std::max<Time>(0, job.deadline -
                                                           floors.new_cal_floor));
      if (work <= capacity) continue;  // fresh calibrations already suffice
      for (const IseSlot& slot : slots) {
        const Time usable = std::min(slot.end, job.deadline) - slot.free;
        if (usable > 0) capacity += usable;
      }
      if (work > capacity) return true;
    }
    return false;
  }

  Schedule replay(const std::vector<Edge>& path) const {
    Schedule schedule =
        Schedule::empty_like(instance_, static_cast<int>(m_));
    struct ReplaySlot {
      IseSlot slot;
      int machine;
      bool operator<(const ReplaySlot& o) const noexcept {
        if (slot.end != o.slot.end) return slot.end < o.slot.end;
        if (slot.free != o.slot.free) return slot.free < o.slot.free;
        return machine < o.machine;
      }
    };
    const Time floor_newcal = new_calibration_floor(instance_);
    std::vector<ReplaySlot> machines(m_);
    for (std::size_t s = 0; s < m_; ++s) {
      machines[s] = {{floor_newcal, floor_newcal}, static_cast<int>(s)};
    }
    std::vector<char> done(n_, 0);
    for (const Edge& edge : path) {
      const auto j = static_cast<std::size_t>(edge.job);
      const Job& job = instance_.jobs[j];
      done[j] = 1;
      ReplaySlot& target = machines[static_cast<std::size_t>(edge.slot)];
      if (edge.cal_start != kNoNewCal) {
        schedule.calibrations.push_back({target.machine, edge.cal_start});
        target.slot.end = edge.cal_start + instance_.T;
        target.slot.free = edge.cal_start;
      }
      const Time start = std::max(target.slot.free, job.release);
      schedule.jobs.push_back({job.id, target.machine, start});
      target.slot.free = start + job.proc;
      // Re-apply the exact canonicalization the search used, so the next
      // move's slot index addresses the same sorted multiset of values.
      RemainingFloors floors{kTimeMax, kTimeMax};
      Time min_proc = kTimeMax;
      for (std::size_t q = 0; q < n_; ++q) {
        if (done[q]) continue;
        const Job& rest = instance_.jobs[q];
        floors.release_floor = std::min(floors.release_floor, rest.release);
        floors.new_cal_floor = std::min(
            floors.new_cal_floor, rest.release + rest.proc - instance_.T);
        min_proc = std::min(min_proc, rest.proc);
      }
      if (min_proc != kTimeMax) {
        for (ReplaySlot& rs : machines) {
          std::vector<IseSlot> one{rs.slot};
          canonicalize_ise_slots(one, floors, [&](const IseSlot& s) {
            return s.free + min_proc <= s.end;
          });
          rs.slot = one[0];
        }
      }
      std::sort(machines.begin(), machines.end());
    }
    schedule.normalize();
    return schedule;
  }

  const Instance& instance_;
  bool require_tise_;
  std::size_t n_;
  std::size_t m_;
  std::int32_t cap_;
  std::vector<std::int32_t> twin_prev_;
  std::vector<std::size_t> by_deadline_;
  std::vector<std::size_t> remaining_;
  LayeredSearch<IseSlot> search_;
};

}  // namespace

MMFeasibility exact_mm_feasibility(const Instance& instance, int machines,
                                   std::int64_t node_budget,
                                   const RunLimits& limits,
                                   TraceContext* trace) {
  if (instance.empty()) {
    MMFeasibility result;
    result.feasible = true;
    result.schedule.machines = machines;
    return result;
  }
  return MmMoves(instance, machines, node_budget, limits, trace).run();
}

ExactIseResult state_space_ise_minimize(const Instance& instance,
                                        const ExactIseOptions& options,
                                        int upper_bound_hint) {
  if (instance.empty()) {
    ExactIseResult result;
    result.solved = true;
    result.feasible = true;
    result.schedule = Schedule::empty_like(instance, instance.machines);
    return result;
  }
  return IseMoves(instance, options, upper_bound_hint).run();
}

}  // namespace calisched
