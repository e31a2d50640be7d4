// Hash-consed schedule states for the exact state-space engine.
//
// A state summarizes everything a partial schedule exposes to its future:
//
//   * which jobs are already scheduled (a bitset over job indices — the
//     `lookup_key` that buckets states for merge/dominance checks),
//   * one record per machine describing its frontier — for machine
//     minimization just the time the machine frees up; for calibration
//     minimization the open calibration's availability end plus the free
//     time inside it,
//   * (ISE only) the number of calibrations opened so far.
//
// Two partial schedules with equal summaries are interchangeable, so the
// explorer keeps one (a merge). Beyond exact equality, a *dominance* rule
// discards states that are uniformly no better (schedule_state.cpp
// documents the simulation argument per problem). To make merges fire as
// often as soundly possible, states are canonicalized before hashing:
// frontier components that cannot influence any remaining job are clamped
// to a floor derived from the unscheduled set (the point-interval analogue
// of the exemplar's finish-interval widening — the clamp coarsens the
// state without admitting any schedule the original could not realize).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"

namespace calisched {

/// One machine's frontier in the calibration (ISE) state space: the open
/// calibration is usable until `end` (availability end = start + T) and
/// the machine is busy inside it until `free`. A machine with no usable
/// calibration is canonicalized to the closed sentinel free == end, with
/// end clamped to the new-calibration floor (see canonicalize_ise_slots).
struct IseSlot {
  Time end = 0;
  Time free = 0;

  friend constexpr bool operator==(const IseSlot&, const IseSlot&) noexcept =
      default;
  friend constexpr bool operator<(const IseSlot& a, const IseSlot& b) noexcept {
    return a.end != b.end ? a.end < b.end : a.free < b.free;
  }
};

/// True when slot `a` can take over slot `b`'s role in any continuation:
/// every job sequence `b` could still host fits in `a` at starts no later,
/// and every future calibration `b`'s machine could open, `a`'s machine
/// can open too. Two provable cases: slot b useless (free_b >= end_b, then
/// end_a <= end_b suffices — only the occupancy constraint remains), or
/// same expiry with a freer machine (end_a == end_b && free_a <= free_b).
/// Proof sketch in schedule_state.cpp.
[[nodiscard]] bool ise_slot_simulates(const IseSlot& a,
                                      const IseSlot& b) noexcept;

/// Componentwise simulation over canonically sorted slot vectors: position
/// i of `a` must simulate position i of `b`. Positional matching after
/// sorting is sufficient (never unsound) but not complete — it may miss a
/// valid non-positional matching and merely prune less.
[[nodiscard]] bool ise_slots_dominate(const std::vector<IseSlot>& a,
                                      const std::vector<IseSlot>& b) noexcept;

/// MM frontiers: machine `a` freeing no later than `b` can host any job
/// `b` hosts at a start no later, so componentwise <= over the sorted
/// frontier vectors is a sound dominance rule on identical machines.
[[nodiscard]] bool mm_frontiers_dominate(const std::vector<Time>& a,
                                         const std::vector<Time>& b) noexcept;

/// Floors derived from the unscheduled job set, used by canonicalization:
///   release_floor — min release over remaining jobs: any frontier earlier
///     than this behaves exactly like the floor (every future start is
///     max(frontier, r_j) = r_j), so clamping merges equivalent states.
///   new_cal_floor — min over remaining jobs of r_j + p_j - T: no useful
///     calibration can start earlier (ISE only).
struct RemainingFloors {
  Time release_floor = 0;
  Time new_cal_floor = 0;
};

/// Clamps MM frontiers below the release floor up to it (in place; input
/// and output sorted ascending). Preserves every reachable completion and
/// every future start time exactly.
void canonicalize_mm_frontiers(std::vector<Time>& frontiers,
                               Time release_floor) noexcept;

/// ISE slot canonicalization (in place; re-sorts):
///   1. free below the release floor is clamped up to it,
///   2. a slot no remaining job fits becomes free == end (its free time
///      can never matter again),
///   3. a useless slot whose end is at or below the new-calibration floor
///      becomes the sentinel (floor, floor) — its occupancy constraint is
///      inactive, so "expired calibration" and "never calibrated" merge.
/// `fits` decides rule 2: fits(slot) is true when some unscheduled job can
/// run in the slot (the caller owns the TISE/ISE placement rule).
template <typename FitsFn>
void canonicalize_ise_slots(std::vector<IseSlot>& slots,
                            const RemainingFloors& floors, FitsFn&& fits) {
  for (IseSlot& slot : slots) {
    if (slot.free < floors.release_floor) slot.free = floors.release_floor;
    if (slot.free < slot.end && !fits(slot)) slot.free = slot.end;
    if (slot.free >= slot.end && slot.end <= floors.new_cal_floor) {
      slot.end = floors.new_cal_floor;
      slot.free = floors.new_cal_floor;
    }
  }
}

}  // namespace calisched
