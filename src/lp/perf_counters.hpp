// Process-wide hardware-sympathy counters for the LP engine.
//
// Wall-clock alone cannot keep a performance claim honest across machines:
// E12's "revised is Nx dense" number moves with clock speed and cache
// size, while the *work* the engine did — pivots taken, eta entries
// streamed, pricing nonzeros scanned, buffers grown — is a deterministic
// function of the model and the code. This layer counts that work so the
// benches can report reproducible counters next to the (advisory) rates
// derived from them, and so the sanitizer jobs can assert structural
// properties ("a reused workspace stops allocating") directly.
//
// Design: the engine accumulates into plain per-solve locals and flushes
// one relaxed-atomic add per counter when the solve is torn down, so the
// pivot loop never touches shared cache lines. Snapshots are not a
// consistent cut across concurrent solves — callers measure deltas around
// regions they control (benches, tests), where solves complete before the
// second snapshot.
#pragma once

#include <cstdint>

namespace calisched {

/// One snapshot (or delta of two snapshots) of the cumulative counters.
struct LpPerfCounters {
  std::int64_t solves = 0;           ///< revised-engine solves completed
  std::int64_t pivots = 0;           ///< basis changes (phases + expel)
  std::int64_t etas_applied = 0;     ///< eta matrices fired (FTRAN + BTRAN)
  std::int64_t eta_entries = 0;      ///< off-pivot eta nonzeros streamed
  std::int64_t pricing_columns = 0;  ///< columns whose reduced cost was formed
  std::int64_t pricing_entries = 0;  ///< matrix nonzeros streamed by pricing
  std::int64_t refactorizations = 0; ///< basis rebuilds (incl. warm installs)
  std::int64_t workspace_reuses = 0; ///< solves that arrived at a warm arena
  std::int64_t buffer_growths = 0;   ///< solves that grew any arena buffer

  /// Estimated bytes streamed through the sparse kernels: every counted
  /// entry is one (value, row index) pair read from the nonzero pools.
  [[nodiscard]] std::int64_t bytes_streamed() const noexcept {
    constexpr std::int64_t kEntryBytes =
        static_cast<std::int64_t>(sizeof(double) + sizeof(int));
    return (eta_entries + pricing_entries) * kEntryBytes;
  }

  [[nodiscard]] LpPerfCounters operator-(const LpPerfCounters& o) const noexcept {
    LpPerfCounters d;
    d.solves = solves - o.solves;
    d.pivots = pivots - o.pivots;
    d.etas_applied = etas_applied - o.etas_applied;
    d.eta_entries = eta_entries - o.eta_entries;
    d.pricing_columns = pricing_columns - o.pricing_columns;
    d.pricing_entries = pricing_entries - o.pricing_entries;
    d.refactorizations = refactorizations - o.refactorizations;
    d.workspace_reuses = workspace_reuses - o.workspace_reuses;
    d.buffer_growths = buffer_growths - o.buffer_growths;
    return d;
  }
};

/// Current cumulative totals since process start (or the last reset).
[[nodiscard]] LpPerfCounters lp_perf_snapshot() noexcept;

/// Engine-side flush: adds `delta` to the process totals (one relaxed
/// atomic add per field). Not for external callers.
void lp_perf_accumulate(const LpPerfCounters& delta) noexcept;

}  // namespace calisched
