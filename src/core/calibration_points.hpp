// The canonical calibration grid of Lemma 3, generalized to type tables.
//
// Lemma 3 (unit model): some optimal TISE solution only starts calibrations
// at times of the form r_j + k*T with 0 <= k <= n (a release time, or packed
// directly after the previous calibration on the same machine). The same
// exchange argument applies verbatim to the untrimmed ISE problem, so the
// exact reference solver uses the grid too.
//
// Generalized model: "packed directly after the previous calibration" now
// advances by that calibration's *span* (activation delay + length), and the
// predecessors may be of any type, so the grid becomes r_j + s for every sum
// s of at most n type spans. For the unit model the only span is T and the
// sums collapse to {0, T, ..., n*T} — the classic grid, recovered exactly
// (test_property asserts this over the TISE sweep).
#pragma once

#include <vector>

#include "core/instance.hpp"

namespace calisched {

/// All distinct r_j + s (s a sum of at most n type spans of the effective
/// model) that start before the last deadline. Sorted ascending. Unit
/// model: all distinct r_j + k*T with k in [0, n], size O(n^2).
[[nodiscard]] std::vector<Time> canonical_calibration_points(const Instance& instance);

/// The subset of the canonical grid that is TISE-feasible for at least one
/// long job, i.e. exists j with r_j <= t <= d_j - T. Points outside every
/// job's trimmed window carry C_t = 0 in some LP optimum, so the paper's
/// TISE LP is built over this (much smaller) set. Unit-model semantics: the
/// classic pipelines that call this are gated on the unit model by the
/// registry.
[[nodiscard]] std::vector<Time> tise_calibration_points(const Instance& instance);

/// A connected block of trimmed windows [r_j, d_j - T] (closed intervals)
/// and its dominant points. Let J(t) = {j : r_j <= t <= d_j - T}. A
/// dominant point ends a run of consecutive tise_calibration_points with
/// one maximal J(t), so J(t) is a maximal clique of the interval graph of
/// the trimmed windows, and every grid point's set lies inside a dominant
/// point's set. No clique spans two blocks.
struct DominantBlock {
  std::vector<std::size_t> jobs;  ///< indices into instance.jobs, ascending
  std::vector<Time> points;       ///< the block's dominant points, ascending
};

/// The dominant points of tise_calibration_points(instance), grouped by
/// block, found from the job endpoints without building the grid. Blocks
/// come in time order, so their points concatenate ascending. One sweep
/// over the endpoints of each block finds its maximal cliques; each
/// clique's point is the last grid point of its run: the largest
/// r_i + k*T at or below the clique's end, 0 <= k <= n, over every job i.
/// O(n log n). Every trimmed window must be nonempty (r_j <= d_j - T, as
/// for long jobs). Unit model (the grid's span is T).
[[nodiscard]] std::vector<DominantBlock> dominant_blocks(const Instance& instance);

}  // namespace calisched
