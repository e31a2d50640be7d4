// Exact minimum-calibration solver for small integral instances.
//
// Used by the experiments to measure *true* approximation ratios (E5-E7).
// Exponential by design; a node budget keeps it honest.
//
// Completeness: for integral instances, repeatedly left-shifting any
// feasible schedule (shift the earliest unblocked event until it meets a
// release time, a same-machine predecessor's completion, or its
// calibration boundary) reaches a fixpoint whose event times are all sums
// of instance data, hence integers. It therefore suffices to search
// integer calibration start times, which the layered state-space
// exploration of src/exact/state_space.hpp does: it merges partial
// schedules with equal summaries and prunes dominated ones, which is what
// pushes certified optima well past branch-and-bound sizes.
#pragma once

#include "exact/state_space.hpp"

namespace calisched {

/// state_space_ise_minimize, with the calibration cap tightened by the
/// lazy greedy's count when it finds an independently verified ISE
/// schedule (never for TISE: the greedy's schedule is ISE-only).
[[nodiscard]] ExactIseResult solve_exact_ise(const Instance& instance,
                                             const ExactIseOptions& options = {});

}  // namespace calisched
