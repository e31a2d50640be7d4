// Structured telemetry: named counters, nanosecond span timers, and a
// hierarchical per-solve TraceContext that serializes to JSON.
//
// Every pipeline stage reports through one of these instead of a bespoke
// telemetry struct: the solver owns a root context, each pipeline gets a
// child ("long_window", "short_window"), and each substrate a grandchild
// ("simplex", "mm"). The legacy LongWindowTelemetry / ShortWindowTelemetry
// structs are derived *from* the trace as compatibility views.
//
// Naming scheme (see DESIGN.md "Telemetry & tracing"):
//   * contexts: snake_case stage names ("long_window", "simplex", "mm");
//   * counters/values: dotted paths, category first ("lp.pivots",
//     "calibrations.total", "mm.machines.sum");
//   * spans: the stage verb being timed ("lp", "rounding", "edf", "mm");
//     repeated spans with one name aggregate (total_ns + count).
//
// Thread-safety: a TraceContext is NOT internally synchronized. The
// pipelines only mutate their context from the solve's calling thread
// (the simplex's parallel row elimination happens *inside* a pivot, while
// counters are touched once per pivot on the caller); concurrent solves
// must each own a separate context, which is how the bench harness and the
// batch tests use them. Fan-out stages that *do* record from worker
// threads (the parallel short-window interval solve) follow the
// thread-local-child contract instead: each worker records into a scratch
// TraceContext it exclusively owns, and after the workers have joined the
// owner merges the scratch traces into the shared parent with absorb(), in
// a deterministic order fixed by the work items (never by completion
// time). That keeps the merged trace — counter values *and* key insertion
// order — byte-identical at any thread count.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/json.hpp"

namespace calisched {

class TraceContext {
 public:
  explicit TraceContext(std::string name = "trace") : name_(std::move(name)) {}

  // Children hold stable pointers into this object; copying/moving would
  // silently detach live spans, so neither is allowed.
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // --- integer counters ------------------------------------------------------
  void add(std::string_view counter, std::int64_t delta = 1);
  void set(std::string_view counter, std::int64_t value);
  [[nodiscard]] std::int64_t counter(std::string_view name) const;  ///< 0 if absent
  [[nodiscard]] bool has_counter(std::string_view name) const;

  // --- double-valued gauges --------------------------------------------------
  void set_value(std::string_view name, double value);
  [[nodiscard]] double value(std::string_view name) const;  ///< 0.0 if absent

  // --- string annotations (distinct values per key, insertion order) --------
  void note(std::string_view key, std::string_view value);
  [[nodiscard]] std::vector<std::string> notes(std::string_view key) const;

  // --- spans -----------------------------------------------------------------
  /// Adds `ns` to the span's running total (creating it on first use).
  void record_span(std::string_view name, std::int64_t ns);
  [[nodiscard]] std::int64_t span_ns(std::string_view name) const;    ///< 0 if absent
  [[nodiscard]] std::int64_t span_count(std::string_view name) const; ///< 0 if absent
  [[nodiscard]] bool has_span(std::string_view name) const;

  // --- merging ---------------------------------------------------------------
  /// Folds everything recorded in `other` into this context: counters are
  /// summed, gauges overwritten, notes unioned (insertion order preserved),
  /// spans merged by summing total_ns and count, and children merged
  /// recursively by name (created here when absent). `other` is left
  /// untouched and its name is ignored — only its contents transfer. This is
  /// the ordered-merge half of the thread-local-child contract above; the
  /// caller must serialize absorb() calls and fix their order independently
  /// of thread scheduling.
  void absorb(const TraceContext& other);

  // --- hierarchy -------------------------------------------------------------
  /// Finds or creates the child with `name`; the reference stays valid for
  /// this context's lifetime.
  TraceContext& child(std::string_view name);
  [[nodiscard]] const TraceContext* find(std::string_view name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<TraceContext>>& children()
      const noexcept {
    return children_;
  }

  // --- serialization ---------------------------------------------------------
  [[nodiscard]] JsonValue to_json() const;
  [[nodiscard]] std::string json(int indent = 2) const;

 private:
  struct SpanStat {
    std::string name;
    std::int64_t total_ns = 0;
    std::int64_t count = 0;
  };
  struct NoteSet {
    std::string key;
    std::vector<std::string> values;
  };

  std::string name_;
  std::vector<std::pair<std::string, std::int64_t>> counters_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<SpanStat> spans_;
  std::vector<NoteSet> notes_;
  std::vector<std::unique_ptr<TraceContext>> children_;
};

/// RAII span timer. A null context makes every operation a no-op, so call
/// sites need no branching when tracing is disabled.
class TraceSpan {
 public:
  TraceSpan(TraceContext* context, std::string_view name)
      : context_(context), name_(name) {
    if (context_) start_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan() { stop(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Records the elapsed time now instead of at scope exit (idempotent).
  void stop() {
    if (!context_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    context_->record_span(
        name_,
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    context_ = nullptr;
  }

 private:
  TraceContext* context_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

// Null-safe helpers for call sites holding a nullable TraceContext*.
inline void trace_add(TraceContext* context, std::string_view counter,
                      std::int64_t delta = 1) {
  if (context) context->add(counter, delta);
}
inline void trace_set(TraceContext* context, std::string_view counter,
                      std::int64_t value) {
  if (context) context->set(counter, value);
}

}  // namespace calisched
