#include "lp/perf_counters.hpp"

#include <atomic>

namespace calisched {
namespace {

/// The process-wide registry. Relaxed ordering throughout: every field is
/// an independent monotone sum, and callers only read deltas around
/// regions they quiesce themselves.
struct Registry {
  std::atomic<std::int64_t> solves{0};
  std::atomic<std::int64_t> pivots{0};
  std::atomic<std::int64_t> etas_applied{0};
  std::atomic<std::int64_t> eta_entries{0};
  std::atomic<std::int64_t> pricing_columns{0};
  std::atomic<std::int64_t> pricing_entries{0};
  std::atomic<std::int64_t> refactorizations{0};
  std::atomic<std::int64_t> workspace_reuses{0};
  std::atomic<std::int64_t> buffer_growths{0};
};

Registry& registry() noexcept {
  static Registry instance;
  return instance;
}

}  // namespace

LpPerfCounters lp_perf_snapshot() noexcept {
  Registry& r = registry();
  LpPerfCounters s;
  s.solves = r.solves.load(std::memory_order_relaxed);
  s.pivots = r.pivots.load(std::memory_order_relaxed);
  s.etas_applied = r.etas_applied.load(std::memory_order_relaxed);
  s.eta_entries = r.eta_entries.load(std::memory_order_relaxed);
  s.pricing_columns = r.pricing_columns.load(std::memory_order_relaxed);
  s.pricing_entries = r.pricing_entries.load(std::memory_order_relaxed);
  s.refactorizations = r.refactorizations.load(std::memory_order_relaxed);
  s.workspace_reuses = r.workspace_reuses.load(std::memory_order_relaxed);
  s.buffer_growths = r.buffer_growths.load(std::memory_order_relaxed);
  return s;
}

void lp_perf_accumulate(const LpPerfCounters& delta) noexcept {
  Registry& r = registry();
  r.solves.fetch_add(delta.solves, std::memory_order_relaxed);
  r.pivots.fetch_add(delta.pivots, std::memory_order_relaxed);
  r.etas_applied.fetch_add(delta.etas_applied, std::memory_order_relaxed);
  r.eta_entries.fetch_add(delta.eta_entries, std::memory_order_relaxed);
  r.pricing_columns.fetch_add(delta.pricing_columns, std::memory_order_relaxed);
  r.pricing_entries.fetch_add(delta.pricing_entries, std::memory_order_relaxed);
  r.refactorizations.fetch_add(delta.refactorizations,
                               std::memory_order_relaxed);
  r.workspace_reuses.fetch_add(delta.workspace_reuses,
                               std::memory_order_relaxed);
  r.buffer_growths.fetch_add(delta.buffer_growths, std::memory_order_relaxed);
}

}  // namespace calisched
