// The complete long-window algorithm of Section 3 (Theorem 12), and its
// speed-augmented variant (Theorem 14).
//
// Pipeline for an all-long instance on m machines:
//   1. m' = 3m                        (Lemma 2: a TISE solution on 3m
//                                      machines costs <= 3x the ISE optimum)
//   2. solve the TISE LP relaxation   (fractional calibrations <= C*_TISE)
//   3. Algorithm 1 rounding           (<= 2x LP calibrations, 3m' machines)
//   4. mirror + Algorithm 2 EDF       (integral jobs, 6m' = 18m machines)
// Total: <= 18m machines, <= 12 C* calibrations, no speed augmentation.
//
// Theorem 14 variant: feed the Theorem-12 schedule through the Lemma 13
// transform with group size c = schedule.machines / m, yielding m machines
// at speed 2c (= 36 when the pipeline used all 18m machines).
#pragma once

#include <string>

#include "core/schedule.hpp"
#include "longwin/tise_lp.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"

namespace calisched {

/// Compatibility view over the pipeline's TraceContext (the pipeline
/// records everything there first; this struct is derived from it, so the
/// two can never disagree).
struct LongWindowTelemetry {
  int m_prime = 0;               ///< 3m
  int machines_allotted = 0;     ///< 18m
  double lp_objective = 0.0;     ///< fractional calibrations (lower-bounds C*_TISE on m')
  std::int64_t lp_pivots = 0;
  int lp_rows = 0;
  int lp_columns = 0;
  std::size_t rounded_calibrations = 0;  ///< after Algorithm 1 (before mirroring)
  std::size_t total_calibrations = 0;    ///< in the final schedule

  [[nodiscard]] static LongWindowTelemetry from_trace(const TraceContext& trace);
};

struct LongWindowResult {
  bool feasible = false;         ///< false: no fractional TISE schedule on 3m
                                 ///< machines exists (or a pipeline guarantee
                                 ///< failed; `status`/`error` distinguish)
  /// Structured outcome: kInfeasible (no fractional TISE schedule),
  /// kDeadlineExceeded / kCancelled (RunLimits fired inside the LP),
  /// kNumericalFailure (a pipeline guarantee was violated), kLimitExceeded
  /// (LP pivot cap). `error` is format_failure() of this status.
  SolveStatus status = SolveStatus::kOk;
  Schedule schedule;             ///< valid when feasible; verify_tise-clean
  LongWindowTelemetry telemetry;
  std::string error;
};

struct LongWindowOptions {
  /// Deadline + cancellation, polled inside the simplex pivot loop (the
  /// pipeline's only superpolynomial-in-practice stage).
  RunLimits limits;
  /// Optional telemetry sink: stage spans (trim/lp/rounding/edf), LP shape
  /// and pivot counters, and calibration totals land here; the simplex
  /// itself reports into a "simplex" child context. Not owned.
  TraceContext* trace = nullptr;
  /// Machine multiplier for the TISE relaxation; the paper's analysis uses
  /// 3 (Lemma 2). Exposed for the ablation benchmark.
  int trim_multiplier = 3;
  /// Try Algorithm 2 on the unmirrored calendar first and only fall back
  /// to the mirrored (Lemma 9) run if some job is left unassigned. Halves
  /// the calibration count whenever plain EDF already completes; the
  /// fallback preserves the Theorem 12 guarantee. Off by default: the
  /// paper's algorithm always mirrors.
  bool adaptive_mirror = false;
  /// Drop calibrations that host no job from the final schedule. Off by
  /// default (the analysis charges for them); the ablation bench measures
  /// the saving.
  bool prune_empty_calibrations = false;
};

/// Theorem 12. `instance.machines` is the ISE machine count m the result is
/// compared against; every job in `instance` must be long (Definition 1).
[[nodiscard]] LongWindowResult solve_long_window(const Instance& instance,
                                                 const LongWindowOptions& options = {});

/// Theorem 14: Theorem 12 followed by the Lemma 13 machines-to-speed
/// transform down to `instance.machines` machines. The schedule in the
/// result has speed = 2 * ceil(18m / m) = 36 and matching denominator.
[[nodiscard]] LongWindowResult solve_long_window_speed(
    const Instance& instance, const LongWindowOptions& options = {});

}  // namespace calisched
