// ExactMM: exact machine minimization as a search over increasing machine
// counts, each a feasibility search of the layered state-space engine
// (src/exact/state_space.cpp).
#include <utility>

#include "mm/lower_bounds.hpp"
#include "mm/mm.hpp"

namespace calisched {

MMResult ExactMM::solve(const Instance& instance, const RunLimits& limits,
                        TraceContext* trace) const {
  MMResult result;
  result.algorithm = name();
  if (instance.empty()) {
    result.feasible = true;
    result.schedule.machines = 0;
    return result;
  }
  const std::int64_t budget = limits.node_budget_or(4'000'000);
  const int n = static_cast<int>(instance.size());
  for (int m = mm_lower_bound(instance); m <= n; ++m) {
    MMFeasibility search =
        exact_mm_feasibility(instance, m, budget, limits, trace);
    result.search_nodes += search.nodes;
    if (search.status == SolveStatus::kLimitExceeded) {
      // Node/state budget: give up on exactness; report the greedy
      // schedule instead (the algorithm string records the downgrade).
      MMResult fallback = GreedyEdfMM().minimize(instance, limits);
      fallback.algorithm = name() + "(budget-exceeded)->greedy-edf";
      fallback.search_nodes = result.search_nodes;
      return fallback;
    }
    if (search.status != SolveStatus::kOk) {
      // Deadline / cancellation: stop immediately, no fallback work.
      result.status = search.status;
      return result;
    }
    if (search.feasible) {
      result.feasible = true;
      result.schedule = std::move(search.schedule);
      return result;
    }
  }
  result.status = SolveStatus::kInfeasible;
  return result;  // unreachable: m = n is always feasible
}

}  // namespace calisched
