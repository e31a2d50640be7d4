// The uniform Algorithm interface and the registry of every concrete
// algorithm in this repository.
//
// Before this layer, each front end (CLI, benches, tests) re-implemented
// its own dispatch over the Theorem-1 solver, the two pipelines, the MM
// black boxes, and the baselines, each with a slightly different result
// shape. An Algorithm adapter normalizes all of them to one contract:
//
//   run(instance, limits, trace) -> RunResult
//
// with three guarantees every adapter upholds:
//   (1) an already-violated RunLimits returns its status *before* any
//       other validation or work (a deadline-0 probe is uniform across
//       algorithms);
//   (2) a capability mismatch (long pipeline on a mixed instance, unit
//       baseline on non-unit jobs) returns kInfeasible with a formatted
//       reason instead of asserting;
//   (3) a feasible result has been re-checked by the independent verifier
//       (verify_ise / verify_mm); a verifier rejection is reported as
//       kNumericalFailure, never silently passed through.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/schedule.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"
#include "verify/verify.hpp"

namespace calisched {

class TraceContext;

/// Static facts the batch driver and front ends use to pick applicable
/// algorithms and interpret their results.
struct AlgorithmCapabilities {
  bool requires_all_long = false;   ///< every job long (Definition 1)
  bool requires_all_short = false;  ///< every window <= 2T
  bool requires_unit_jobs = false;  ///< every p_j = 1
  /// Only single-machine instances (the calibration-cost DP).
  bool requires_single_machine = false;
  /// Understands explicit calibration-type tables (arbitrary lengths,
  /// per-type costs, activation delays). Algorithms predating the cost
  /// model leave this false and report capability-mismatch infeasible on
  /// non-unit instances instead of silently ignoring the table.
  bool supports_calibration_model = false;
  bool exact = false;               ///< exponential search; tiny instances only
  /// Decides with arrival-time information only: the algorithm is (a
  /// registry adapter over) an OnlineScheduler replayed through the
  /// event-driven simulator, so its schedule respects the append-only
  /// contract — nothing is committed before the triggering arrival. The
  /// service's `subscribe` sessions only accept algorithms with this set.
  bool supports_online = false;
  /// False for MM boxes and the gap minimizer: they report a machine /
  /// block count, and RunResult::schedule stays empty.
  bool produces_ise_schedule = true;
  /// Verification policy for the produced schedule (relaxed for boxes that
  /// emit overlapping calibrations under footnote 3).
  CalibrationPolicy policy = CalibrationPolicy::kStrict;
};

/// Normalized outcome of one algorithm run on one instance.
struct RunResult {
  SolveStatus status = SolveStatus::kOk;
  bool feasible = false;
  std::string error;     ///< format_failure() output when not feasible
  /// Valid when feasible and the algorithm produces an ISE schedule.
  Schedule schedule;
  /// Objective summary (filled for feasible results): calibrations used
  /// (busy blocks for the gap minimizer), machines used, machine speed.
  std::size_t calibrations = 0;
  int machines = 0;
  std::int64_t speed = 1;
  /// Total calibration cost under the instance's type table; equals
  /// `calibrations` under the unit model (every type costs 1).
  std::int64_t total_cost = 0;
  bool verified = false;  ///< independent verifier re-checked the result
};

/// One registered algorithm. Implementations are stateless and const; a
/// single instance may be run from many threads concurrently (the batch
/// driver relies on this), so run() must not mutate shared state.
class Algorithm {
 public:
  virtual ~Algorithm() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual AlgorithmCapabilities capabilities() const = 0;
  /// `trace` may be null; when provided it must be exclusive to this call
  /// (TraceContext is not internally synchronized; solvers that fan work
  /// out internally record into per-task scratch traces and merge them
  /// back deterministically — see the thread-local-child contract in
  /// trace/trace.hpp — so exclusivity at this boundary is all a caller
  /// needs). Adapters keep intra-solve fan-out off by default: the batch
  /// driver owns cross-instance parallelism, and nesting the two would
  /// oversubscribe the machine.
  [[nodiscard]] virtual RunResult run(const Instance& instance,
                                      const RunLimits& limits,
                                      TraceContext* trace) const = 0;

  [[nodiscard]] RunResult run(const Instance& instance) const {
    return run(instance, RunLimits::none(), nullptr);
  }
};

/// Name -> Algorithm lookup. Instances are immutable once built; the
/// builtin() registry is constructed on first use and safe to share.
class AlgorithmRegistry {
 public:
  /// Registers `algorithm`; throws std::invalid_argument on a duplicate
  /// name (registry names are the CLI/JSONL contract).
  void add(std::shared_ptr<const Algorithm> algorithm);

  [[nodiscard]] const Algorithm* find(std::string_view name) const noexcept;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const noexcept { return algorithms_.size(); }
  [[nodiscard]] const std::vector<std::shared_ptr<const Algorithm>>& all()
      const noexcept {
    return algorithms_;
  }

  /// The registry of every built-in algorithm:
  ///   combined, long, long-speed, short        (paper pipelines / solver)
  ///   greedy-lazy, per-job, saturate, bender-lazy, exact-ise (baselines)
  ///   mm-greedy, mm-exact, mm-unit, mm-lp-rounding          (MM boxes)
  ///   gap-min                                   (related problem, Sec. 5)
  ///   exact-calib-cost, dp-calib-cost  (cost model, Angel et al. 2015;
  ///                       greedy-lazy accepts type tables too)
  ///   online-edf                  (arrival-stream heuristic, simulator-run)
  [[nodiscard]] static const AlgorithmRegistry& builtin();

 private:
  std::vector<std::shared_ptr<const Algorithm>> algorithms_;
};

}  // namespace calisched
