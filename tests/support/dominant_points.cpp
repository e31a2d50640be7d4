// Dominant points read off a built grid (the reference for the endpoint
// sweep of dominant_blocks; see oracles.hpp).
#include <algorithm>

#include "oracles.hpp"

namespace calisched {

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
