#include "core/calibration_points.hpp"

#include <algorithm>
#include <set>

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
  const auto feasible_for_some_job = [&](Time t) {
    return std::any_of(instance.jobs.begin(), instance.jobs.end(),
                       [&](const Job& job) {
                         return job.release <= t && t <= job.deadline - instance.T;
                       });
  };
  std::erase_if(points, [&](Time t) { return !feasible_for_some_job(t); });
  return points;
}

std::vector<int> dominant_point_indices(const Instance& instance,
                                        const std::vector<Time>& points) {
  // Each job covers one index range [first, last] of the sorted points.
  // J(p) escapes J(p - 1) exactly when some range starts at p, and escapes
  // J(p + 1) exactly when some range ends at p. So a run of equal sets is
  // maximal when a range starts at its first point and one ends at its
  // last: keep a point where a range ends, if a range started since the
  // previous range end.
  std::vector<char> starts(points.size(), 0);
  std::vector<char> ends(points.size(), 0);
  for (const Job& job : instance.jobs) {
    const auto first =
        std::lower_bound(points.begin(), points.end(), job.release);
    const auto last =
        std::upper_bound(first, points.end(), job.deadline - instance.T);
    if (first == last) continue;  // no point in the job's trimmed window
    starts[static_cast<std::size_t>(first - points.begin())] = 1;
    ends[static_cast<std::size_t>(last - points.begin()) - 1] = 1;
  }
  std::vector<int> dominant;
  bool rising = false;
  for (std::size_t p = 0; p < points.size(); ++p) {
    rising = rising || starts[p] != 0;
    if (ends[p] == 0) continue;
    if (rising) dominant.push_back(static_cast<int>(p));
    rising = false;
  }
  return dominant;
}

}  // namespace calisched
