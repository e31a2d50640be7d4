// Algorithm 5: scheduling one length-2*gamma*T interval of short jobs by
// transforming a machine-minimization schedule into an ISE schedule.
//
// Given jobs whose windows nest inside [t0, t0 + 2*gamma*T):
//   * run the MM black box, yielding schedule S on w machines;
//   * allocate 3w ISE machines: machines [0, w) carry a full calendar of
//     2*gamma back-to-back calibrations (t0 + kT); machines [w, 2w) and
//     [2w, 3w) receive one dedicated calibration per even-/odd-k crossing
//     job (a job whose execution spans a calendar boundary);
//   * every job keeps its MM start time.
// Lemma 15 shows the result is a valid ISE schedule; Lemma 19 bounds it by
// 4*gamma*w calibrations on 3w machines.
#pragma once

#include <string>

#include "core/schedule.hpp"
#include "mm/mm.hpp"
#include "trace/trace.hpp"

namespace calisched {

struct IntervalScheduleResult {
  bool feasible = false;
  /// Structured outcome; mirrors the MM box's status when the box failed.
  SolveStatus status = SolveStatus::kOk;
  /// Valid when feasible: machines = 3w, absolute times, denominator 1.
  Schedule schedule;
  int mm_machines = 0;  ///< w, after compacting unused machines
  std::string mm_algorithm;
  std::string error;
};

/// The short-window factor gamma; Definition 1 fixes it at 2.
inline constexpr Time kGamma = 2;

struct IntervalOptions {
  /// Deadline + cancellation, forwarded to every MM black-box invocation.
  RunLimits limits;
  /// Optional telemetry sink (the short-window pipeline's context): MM
  /// invocations, per-interval spans, and partition/union counters land
  /// here. Not owned; spans with one name aggregate across intervals.
  TraceContext* trace = nullptr;
  /// When true, skip calendar calibrations that host no job. Off by
  /// default: the paper's Algorithm 5 calibrates unconditionally and
  /// Lemma 19 charges for all 2*gamma of them; the ablation bench flips
  /// this to measure the slack.
  bool trim_unused_calibrations = false;
  /// Footnote 3's easier model: calibrations on one machine may overlap.
  /// Crossing jobs then keep their MM machine with a dedicated overlapping
  /// calibration, so Algorithm 5 needs only w machines instead of 3w.
  /// Schedules built this way verify under CalibrationPolicy::kOverlapAllowed.
  bool relaxed_calibrations = false;
  /// Worker threads for the per-interval MM fan-out in solve_short_window
  /// (the intervals are disjoint, so Algorithm 5 runs are independent).
  /// 1 = sequential (default), 0 = hardware_concurrency. Any value yields
  /// byte-identical schedules and telemetry: results and per-interval scratch
  /// traces are merged in interval order, never completion order. Ignored by
  /// schedule_interval itself.
  int threads = 1;
};

/// `jobs` must all nest in [interval_start, interval_start + 2*gamma*T).
[[nodiscard]] IntervalScheduleResult schedule_interval(
    const Instance& jobs, Time interval_start, const MachineMinimizer& mm,
    const IntervalOptions& options = {});

}  // namespace calisched
