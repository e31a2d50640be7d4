// Machine-minimization (MM) black boxes.
//
// The short-window algorithm (Section 4) and the reduction of Theorem 1
// treat "an algorithm for the MM problem" as a black box: given jobs with
// release times, deadlines, and processing times, produce a nonpreemptive
// schedule on as few machines as possible.
//
// The paper's concrete instantiations (Chuzhoy et al., Raghavan-Thompson,
// Im et al.) are approximation *analyses*; as practical boxes we provide:
//   * GreedyEdfMM  — polynomial first-fit EDF list scheduling over
//                    increasing machine counts (always succeeds by m = n);
//   * ExactMM      — exact search over left-shifted schedules (layered
//                    state-space engine; measures realized alpha);
//   * UnitEdfMM    — exact and polynomial for unit processing times.
#pragma once

#include <memory>
#include <string>

#include "exact/state_space.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"
#include "verify/verify.hpp"

namespace calisched {

class TraceContext;

struct MMResult {
  bool feasible = false;       ///< false if the box gave up or was stopped
  /// Structured outcome: kOk iff feasible; kLimitExceeded (node cap),
  /// kDeadlineExceeded / kCancelled (RunLimits) otherwise.
  SolveStatus status = SolveStatus::kOk;
  MMSchedule schedule;         ///< valid when feasible
  std::string algorithm;       ///< which box produced it
  std::int64_t search_nodes = 0;  ///< exact-search states (0 for greedy)
};

/// Abstract MM black box; implementations must return verifier-clean
/// schedules whenever they report feasible, and must honor `limits`
/// (deadline + cancellation) by returning the matching failure status
/// promptly instead of running to completion.
class MachineMinimizer {
 public:
  virtual ~MachineMinimizer() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs the box. With a non-null `trace`, records an "mm" span and the
  /// invocation / machines-returned / search-node counters there, and the
  /// box hands the same trace to its sub-solvers (the start-time LP, the
  /// exact searches).
  [[nodiscard]] MMResult minimize(const Instance& instance,
                                  const RunLimits& limits = RunLimits::none(),
                                  TraceContext* trace = nullptr) const;

 protected:
  [[nodiscard]] virtual MMResult solve(const Instance& instance,
                                       const RunLimits& limits,
                                       TraceContext* trace) const = 0;
};

/// First-fit EDF list scheduling, trying m = lower_bound(I), ..., n.
/// Polynomial; the measured machine count is the "alpha * w" the
/// short-window analysis charges against.
class GreedyEdfMM final : public MachineMinimizer {
 public:
  [[nodiscard]] std::string name() const override { return "greedy-edf"; }

 protected:
  [[nodiscard]] MMResult solve(const Instance& instance,
                               const RunLimits& limits,
                               TraceContext* trace) const override;
};

/// Exact MM over left-shifted schedules with a state budget, searched by
/// the layered state-space engine (src/exact/state_space.hpp). Exceeding
/// the budget falls back to the greedy result (and the MMResult notes it
/// via `algorithm`); the budget is `limits.node_budget` (4M when 0) per
/// machine count tried.
class ExactMM final : public MachineMinimizer {
 public:
  [[nodiscard]] std::string name() const override { return "exact-state"; }

 protected:
  [[nodiscard]] MMResult solve(const Instance& instance,
                               const RunLimits& limits,
                               TraceContext* trace) const override;
};

/// Exact MM for unit processing times (p_j = 1 for all j): timestep-by-
/// timestep EDF is an optimal feasibility test, searched over m.
/// Requires a unit-job instance (asserts otherwise).
class UnitEdfMM final : public MachineMinimizer {
 public:
  [[nodiscard]] std::string name() const override { return "unit-edf"; }

 protected:
  [[nodiscard]] MMResult solve(const Instance& instance,
                               const RunLimits& limits,
                               TraceContext* trace) const override;
};

/// s-speed resource augmentation as a wrapper (the "s-speed
/// alpha-approximation algorithm" of Theorem 1): gives the inner box
/// machines `speed` times faster by scaling the instance timeline
/// (r, d, T multiplied by speed; processing times unchanged), then
/// reports the inner schedule in 1/speed-unit ticks via MMSchedule::speed.
/// Speed augmentation can only reduce the machine count.
class SpeedupMM final : public MachineMinimizer {
 public:
  SpeedupMM(std::shared_ptr<const MachineMinimizer> inner, std::int64_t speed)
      : inner_(std::move(inner)), speed_(speed) {}
  [[nodiscard]] std::string name() const override {
    return "speed" + std::to_string(speed_) + "x(" + inner_->name() + ")";
  }

 protected:
  /// Runs the inner box without `trace`, so one minimize() call records
  /// one invocation.
  [[nodiscard]] MMResult solve(const Instance& instance,
                               const RunLimits& limits,
                               TraceContext* trace) const override;

 private:
  std::shared_ptr<const MachineMinimizer> inner_;
  std::int64_t speed_;
};

}  // namespace calisched
