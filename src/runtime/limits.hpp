// Wall-clock deadlines and cooperative cancellation for long-running solves.
//
// Every algorithm entry point accepts a RunLimits (by value: one time_point
// and one pointer). Inner loops — simplex pivots, branch-and-bound nodes,
// per-interval MM calls — poll through a LimitPoller, which strides the
// steady_clock reads so the check costs an atomic load on most iterations.
// A default-constructed RunLimits is unlimited and polls to kOk forever, so
// existing call sites pay (almost) nothing.
//
// Contract for implementations: the *first* poll always reads the clock, so
// an already-expired deadline (deadline "0") stops a solve before any real
// work; subsequent polls re-read it every `stride` calls. With the strides
// used in this codebase every algorithm notices an expired deadline well
// within 100 ms.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "runtime/status.hpp"

namespace calisched {

/// Shared cooperative-cancellation flag. One token may be observed by many
/// concurrent solves (the batch driver hands the same token to every
/// instance); cancel() is sticky until reset().
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }
  void reset() noexcept { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-run resource limits. Copyable and cheap; the referenced CancelToken
/// (if any) must outlive the run.
struct RunLimits {
  using Clock = std::chrono::steady_clock;

  /// Absolute wall-clock deadline; time_point::max() means none.
  Clock::time_point deadline = Clock::time_point::max();
  /// Optional cooperative cancellation; not owned, may be null.
  const CancelToken* cancel = nullptr;
  /// Search-node/state budget for the exact solvers; 0 means "use the
  /// solver's own default". Only exact engines consume it (greedy and LP
  /// boxes ignore it), and exhaustion surfaces as kLimitExceeded — it is a
  /// resource limit, never an infeasibility verdict. Not part of
  /// unlimited(): a budget alone doesn't require clock/cancel polling.
  /// No options struct carries a second, settable budget.
  std::int64_t node_budget = 0;

  [[nodiscard]] static RunLimits none() noexcept { return {}; }

  /// Deadline `budget` from now (a zero or negative budget is already
  /// expired — useful for tests and for "fail fast" probes).
  [[nodiscard]] static RunLimits deadline_after(
      std::chrono::nanoseconds budget) noexcept {
    RunLimits limits;
    limits.deadline = Clock::now() + budget;
    return limits;
  }

  /// The budget an exact solver runs under: node_budget, or the solver's
  /// `fallback` when it is 0.
  [[nodiscard]] std::int64_t node_budget_or(
      std::int64_t fallback) const noexcept {
    return node_budget > 0 ? node_budget : fallback;
  }

  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline != Clock::time_point::max();
  }
  [[nodiscard]] bool unlimited() const noexcept {
    return !has_deadline() && cancel == nullptr;
  }

  /// Full check (reads the clock when a deadline is set). Cancellation wins
  /// over an expired deadline when both apply.
  [[nodiscard]] SolveStatus check() const noexcept {
    if (cancel != nullptr && cancel->cancelled()) return SolveStatus::kCancelled;
    if (has_deadline() && Clock::now() >= deadline) {
      return SolveStatus::kDeadlineExceeded;
    }
    return SolveStatus::kOk;
  }
};

/// Amortized limit checks for hot loops. Cancellation (an atomic load) is
/// checked on every poll; the clock only on the first poll and then every
/// `stride` polls. Once a poll returns non-kOk the poller is stuck there.
class LimitPoller {
 public:
  explicit LimitPoller(const RunLimits& limits, int stride = 64) noexcept
      : limits_(limits),
        stride_(stride < 1 ? 1 : stride),
        countdown_(1),  // first poll always reads the clock
        unlimited_(limits.unlimited()) {}

  /// kOk, or the sticky stop reason.
  SolveStatus poll() noexcept {
    if (status_ != SolveStatus::kOk) return status_;
    if (unlimited_) return SolveStatus::kOk;
    if (limits_.cancel != nullptr && limits_.cancel->cancelled()) {
      return status_ = SolveStatus::kCancelled;
    }
    if (--countdown_ > 0) return SolveStatus::kOk;
    countdown_ = stride_;
    if (limits_.has_deadline() &&
        RunLimits::Clock::now() >= limits_.deadline) {
      return status_ = SolveStatus::kDeadlineExceeded;
    }
    return SolveStatus::kOk;
  }

  [[nodiscard]] SolveStatus status() const noexcept { return status_; }
  [[nodiscard]] bool stopped() const noexcept {
    return status_ != SolveStatus::kOk;
  }

 private:
  RunLimits limits_;
  int stride_;
  int countdown_;
  bool unlimited_;
  SolveStatus status_ = SolveStatus::kOk;
};

}  // namespace calisched
