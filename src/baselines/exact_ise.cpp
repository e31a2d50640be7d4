#include "baselines/exact_ise.hpp"

#include "calib/greedy_cost.hpp"
#include "verify/verify.hpp"

namespace calisched {

ExactIseResult solve_exact_ise(const Instance& instance,
                               const ExactIseOptions& options) {
  int hint = 0;
  if (!options.require_tise) {
    // The greedy schedule must be independently verified before its count
    // may prune the exact search.
    const GreedyCostResult greedy = solve_greedy_cost(instance, options.limits);
    if (greedy.feasible &&
        greedy.schedule.num_calibrations() <=
            static_cast<std::size_t>(options.max_calibrations) &&
        verify_ise(instance, greedy.schedule).ok()) {
      hint = static_cast<int>(greedy.schedule.num_calibrations());
    }
  }
  return state_space_ise_minimize(instance, options, hint);
}

}  // namespace calisched
