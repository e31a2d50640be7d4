#include "core/calibration_points.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>
#include <utility>

namespace calisched {
namespace {

/// All sums of at most `max_count` spans drawn (with repetition) from
/// `spans`, strictly below `limit`. Always contains 0. For a single span T
/// this is {0, T, 2T, ..., kT} — the Lemma 3 offsets.
std::vector<Time> span_sums(std::vector<Time> spans, std::size_t max_count,
                            Time limit) {
  std::sort(spans.begin(), spans.end());
  spans.erase(std::unique(spans.begin(), spans.end()), spans.end());
  std::set<Time> sums{0};
  std::vector<Time> frontier{0};
  for (std::size_t round = 0; round < max_count && !frontier.empty(); ++round) {
    std::vector<Time> next;
    for (const Time base : frontier) {
      for (const Time span : spans) {
        const Time sum = base + span;
        if (sum >= limit) break;  // spans sorted: larger ones only overshoot
        if (sums.insert(sum).second) next.push_back(sum);
      }
    }
    frontier = std::move(next);
  }
  return {sums.begin(), sums.end()};
}

Time floor_mod(Time value, Time modulus) {
  const Time rest = value % modulus;
  return rest < 0 ? rest + modulus : rest;
}

/// The last Lemma-3 grid point at or below a time e: the largest r_i + k*T
/// with 0 <= k <= n and r_i + k*T <= e. Queries must not decrease. A
/// release r_i within n*T below e contributes e - ((e - r_i) mod T), so the
/// releases in [e - n*T, e] live in an ordered set of their residues mod T;
/// one further below contributes r_i + n*T, and the largest such release is
/// the last one to leave the window.
class LastGridPoint {
 public:
  LastGridPoint(std::vector<Time> releases, Time T)
      : releases_(std::move(releases)),
        T_(T),
        reach_(static_cast<Time>(releases_.size()) * T) {}

  Time at(Time e) {
    for (; entered_ < releases_.size() && releases_[entered_] <= e; ++entered_) {
      residues_.insert(floor_mod(releases_[entered_], T_));
    }
    for (; left_ < entered_ && releases_[left_] < e - reach_; ++left_) {
      residues_.erase(residues_.find(floor_mod(releases_[left_], T_)));
    }
    Time best = left_ > 0 ? releases_[left_ - 1] + reach_
                          : std::numeric_limits<Time>::min();
    if (!residues_.empty()) {
      // The nearest residue at or below e's, cyclically.
      const Time phase = floor_mod(e, T_);
      const auto above = residues_.upper_bound(phase);
      const Time gap = above != residues_.begin()
                           ? phase - *std::prev(above)
                           : phase - *residues_.rbegin() + T_;
      best = std::max(best, e - gap);
    }
    return best;
  }

 private:
  std::vector<Time> releases_;  ///< ascending
  Time T_;
  Time reach_;                  ///< n * T
  std::size_t entered_ = 0;     ///< releases_[0, entered_) are <= e
  std::size_t left_ = 0;        ///< releases_[0, left_) are < e - reach_
  std::multiset<Time> residues_;
};

}  // namespace

std::vector<Time> canonical_calibration_points(const Instance& instance) {
  std::vector<Time> points;
  if (instance.empty()) return points;
  const Time horizon = instance.max_deadline();
  const CalibrationModel model = instance.effective_model();
  std::vector<Time> spans;
  spans.reserve(model.size());
  for (const CalibrationType& type : model.types) spans.push_back(type.span());
  // Offsets below horizon - min_release cover every job: r_j + s < horizon
  // forces s < horizon - r_j <= horizon - min_release.
  const std::vector<Time> sums =
      span_sums(std::move(spans), instance.size(), horizon - instance.min_release());
  points.reserve(instance.size() * sums.size());
  for (const Job& job : instance.jobs) {
    for (const Time sum : sums) {
      const Time t = job.release + sum;
      if (t >= horizon) break;  // a calibration starting after every deadline is useless
      points.push_back(t);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

std::vector<Time> tise_calibration_points(const Instance& instance) {
  std::vector<Time> points = canonical_calibration_points(instance);
  // t is feasible for some job exactly when the largest d_j - T among the
  // jobs released by t reaches t. Points ascend, so one pass over the jobs
  // in release order decides every point.
  std::vector<std::pair<Time, Time>> windows;  // (r_j, d_j - T)
  windows.reserve(instance.size());
  for (const Job& job : instance.jobs) {
    windows.emplace_back(job.release, job.deadline - instance.T);
  }
  std::sort(windows.begin(), windows.end());
  std::size_t released = 0;
  Time reach = std::numeric_limits<Time>::min();
  std::size_t kept = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Time t = points[p];
    for (; released < windows.size() && windows[released].first <= t; ++released) {
      reach = std::max(reach, windows[released].second);
    }
    if (reach >= t) points[kept++] = t;
  }
  points.resize(kept);
  return points;
}

std::vector<DominantBlock> dominant_blocks(const Instance& instance) {
  const Time T = instance.T;
  const auto end_of = [&](std::size_t j) { return instance.jobs[j].deadline - T; };
  std::vector<std::size_t> order(instance.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return instance.jobs[a].release < instance.jobs[b].release;
  });
  std::vector<Time> releases;
  releases.reserve(order.size());
  for (const std::size_t j : order) {
    assert(instance.jobs[j].release <= end_of(j));
    releases.push_back(instance.jobs[j].release);
  }
  LastGridPoint last_point(releases, T);

  std::vector<DominantBlock> blocks;
  std::vector<Time> ends;
  for (std::size_t first = 0, last = 0; first < order.size(); first = last) {
    // A block grows while the next release is within the running reach of
    // d - T (closed intervals: touching windows share a point).
    Time reach = end_of(order[first]);
    for (last = first + 1; last < order.size() && releases[last] <= reach; ++last) {
      reach = std::max(reach, end_of(order[last]));
    }
    DominantBlock& block = blocks.emplace_back();
    block.jobs.assign(order.begin() + static_cast<std::ptrdiff_t>(first),
                      order.begin() + static_cast<std::ptrdiff_t>(last));
    std::sort(block.jobs.begin(), block.jobs.end());
    ends.clear();
    for (const std::size_t j : block.jobs) ends.push_back(end_of(j));
    std::sort(ends.begin(), ends.end());
    // Starts come before ends at equal times. A clique closes at an end if
    // a start was seen since the previous end.
    std::size_t started = first;
    bool rising = false;
    for (const Time e : ends) {
      for (; started < last && releases[started] <= e; ++started) rising = true;
      if (!rising) continue;
      block.points.push_back(last_point.at(e));
      rising = false;
    }
  }
  return blocks;
}

}  // namespace calisched
