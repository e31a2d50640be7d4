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
/// job's trimmed window carry C_t = 0 in some LP optimum, so the TISE LP is
/// built over this (much smaller) set. Unit-model semantics: the classic
/// pipelines that call this are gated on the unit model by the registry.
[[nodiscard]] std::vector<Time> tise_calibration_points(const Instance& instance);

/// Indices into `points` (sorted ascending, e.g. tise_calibration_points)
/// of the dominant points: those whose set of TISE-feasible jobs
/// J(t) = {j : r_j <= t <= d_j - T} is maximal under inclusion, one per run
/// of consecutive points with equal sets (its last point). Every point's set
/// lies inside a dominant point's set. Each J(t) is the set of job ranges
/// [r_j, d_j - T] that contain t, so these are the maximal cliques of an
/// interval graph, found by one sweep in O(n log P + P). Ascending.
[[nodiscard]] std::vector<int> dominant_point_indices(
    const Instance& instance, const std::vector<Time>& points);

}  // namespace calisched
