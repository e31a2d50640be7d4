#include "baselines/exact_ise.hpp"

#include <utility>

#include "baselines/baseline.hpp"
#include "exact/state_space.hpp"
#include "verify/verify.hpp"

namespace calisched {

/// A verified greedy solution (when one exists) tightens the calibration
/// cap before the exhaustive search starts.
ExactIseResult solve_exact_ise(const Instance& instance,
                               const ExactIseOptions& options) {
  ExactIseResult result;
  if (instance.empty()) {
    result.solved = true;
    result.feasible = true;
    result.schedule = Schedule::empty_like(instance, instance.machines);
    return result;
  }
  StateSpaceIseOptions space;
  space.state_budget = options.limits.node_budget_or(5'000'000);
  space.max_calibrations = options.max_calibrations;
  space.require_tise = options.require_tise;
  space.limits = options.limits;
  space.trace = options.trace;
  if (!options.require_tise) {
    // The greedy schedule is ISE-only; it must be independently verified
    // before its count may prune the exact search.
    const BaselineResult greedy =
        GreedyLazyIse().solve(instance, options.limits);
    if (greedy.feasible &&
        greedy.schedule.num_calibrations() <=
            static_cast<std::size_t>(options.max_calibrations) &&
        verify_ise(instance, greedy.schedule).ok()) {
      space.upper_bound_hint =
          static_cast<int>(greedy.schedule.num_calibrations());
    }
  }
  StateSpaceIseResult found = state_space_ise_minimize(instance, space);
  result.nodes = found.states;
  if (found.status != SolveStatus::kOk) {
    result.status = found.status;
    return result;  // solved = false: stopped, not a verdict
  }
  result.solved = true;
  if (found.feasible) {
    result.feasible = true;
    result.optimal_calibrations = found.calibrations;
    result.schedule = std::move(found.schedule);
  } else {
    result.status = SolveStatus::kInfeasible;
  }
  return result;
}

}  // namespace calisched
