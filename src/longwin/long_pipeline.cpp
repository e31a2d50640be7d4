#include "longwin/long_pipeline.hpp"

#include <cassert>

#include "longwin/edf_assign.hpp"
#include "longwin/rounding.hpp"
#include "longwin/speed_transform.hpp"
#include "trace/trace.hpp"

namespace calisched {

LongWindowTelemetry LongWindowTelemetry::from_trace(const TraceContext& trace) {
  LongWindowTelemetry telemetry;
  telemetry.m_prime = static_cast<int>(trace.counter("m_prime"));
  telemetry.machines_allotted =
      static_cast<int>(trace.counter("machines.allotted"));
  telemetry.lp_objective = trace.value("lp.objective");
  telemetry.lp_pivots = trace.counter("lp.pivots");
  telemetry.lp_rows = static_cast<int>(trace.counter("lp.rows"));
  telemetry.lp_columns = static_cast<int>(trace.counter("lp.columns"));
  telemetry.rounded_calibrations =
      static_cast<std::size_t>(trace.counter("calibrations.rounded"));
  telemetry.total_calibrations =
      static_cast<std::size_t>(trace.counter("calibrations.total"));
  return telemetry;
}

LongWindowResult solve_long_window(const Instance& instance,
                                   const LongWindowOptions& options) {
  LongWindowResult result;
  // All telemetry flows through the trace; the caller's sink is used when
  // provided, a local one otherwise, and the legacy telemetry struct is
  // derived from it on every exit path.
  TraceContext local_trace("long_window");
  TraceContext* trace = options.trace ? options.trace : &local_trace;
  const auto finish = [&]() {
    result.telemetry = LongWindowTelemetry::from_trace(*trace);
    return std::move(result);
  };
  for (const Job& job : instance.jobs) {
    assert(job.is_long(instance.T) && "long-window pipeline requires long jobs");
    (void)job;
  }
  trace->set("jobs", static_cast<std::int64_t>(instance.size()));

  // Step 1: trim to m' machines (Lemma 2).
  TraceSpan trim_span(trace, "trim");
  const int m_prime = options.trim_multiplier * instance.machines;
  trim_span.stop();
  trace->set("m_prime", m_prime);
  trace->set("machines.allotted", 6 * m_prime);
  if (instance.empty()) {
    result.feasible = true;
    result.schedule = Schedule::empty_like(instance, 0);
    return finish();
  }

  // Step 2: LP relaxation on m' machines. The simplex reports pivots and
  // phase timings into its own child context.
  SimplexOptions lp_options;
  lp_options.limits = options.limits;
  lp_options.trace = &trace->child("simplex");
  TraceSpan lp_span(trace, "lp");
  const TiseFractional fractional = solve_tise_lp(instance, m_prime, lp_options);
  lp_span.stop();
  trace->set_value("lp.objective", fractional.objective);
  trace->set("lp.pivots", fractional.pivots);
  trace->set("lp.rows", fractional.lp_rows);
  trace->set("lp.columns", fractional.lp_columns);
  trace->set("lp.blocks", fractional.blocks);
  trace->set("lp.window_fallback", fractional.window_fallback ? 1 : 0);
  if (fractional.status != LpStatus::kOptimal) {
    fail_result(result, lp_status_to_solve(fractional.status),
                fractional.status == LpStatus::kInfeasible
                    ? "TISE LP infeasible on " + std::to_string(m_prime) +
                          " machines"
                    : "LP solver did not converge",
                "lp");
    return finish();
  }

  // Step 3: Algorithm 1 rounding onto 3m' machines, round robin (Lemma 4).
  TraceSpan rounding_span(trace, "rounding");
  const std::vector<Time> starts =
      round_calibrations(fractional.points, fractional.calibration_mass);
  const Schedule calendar = assign_round_robin(instance, starts, 3 * m_prime);
  rounding_span.stop();
  trace->set("calibrations.rounded", static_cast<std::int64_t>(starts.size()));

  // Step 4: mirror + EDF (Algorithm 2) onto 6m' machines. With the
  // adaptive-mirror optimization, first try the bare 3m' calendar.
  TraceSpan edf_span(trace, "edf");
  EdfAssignResult assigned;
  bool used_mirror = true;
  if (options.adaptive_mirror) {
    assigned = edf_assign_jobs(instance, calendar, /*mirror=*/false);
    used_mirror = !assigned.unassigned.empty();
  }
  if (used_mirror) {
    assigned = edf_assign_jobs(instance, calendar, /*mirror=*/true);
  }
  edf_span.stop();
  trace->set("edf.mirrored", used_mirror ? 1 : 0);
  if (!assigned.unassigned.empty()) {
    fail_result(result, SolveStatus::kNumericalFailure,
                "EDF assignment left " +
                    std::to_string(assigned.unassigned.size()) +
                    " job(s) unscheduled (pipeline guarantee violated)",
                "edf");
    return finish();
  }
  result.feasible = true;
  result.schedule = std::move(assigned.schedule);
  if (options.prune_empty_calibrations) {
    result.schedule.prune_empty_calibrations(instance);
  }
  result.schedule.normalize();
  trace->set("calibrations.total",
             static_cast<std::int64_t>(result.schedule.num_calibrations()));
  return finish();
}

LongWindowResult solve_long_window_speed(const Instance& instance,
                                         const LongWindowOptions& options) {
  TraceContext local_trace("long_window");
  TraceContext* trace = options.trace ? options.trace : &local_trace;
  LongWindowOptions traced_options = options;
  traced_options.trace = trace;
  LongWindowResult result = solve_long_window(instance, traced_options);
  if (!result.feasible) return result;
  if (instance.empty()) return result;
  // Group size c such that c * m covers the Theorem-12 machine allotment.
  TraceSpan transform_span(trace, "speed_transform");
  const int c = (result.schedule.machines + instance.machines - 1) /
                instance.machines;
  auto transformed = speed_transform(instance, result.schedule, c);
  transform_span.stop();
  if (!transformed) {
    fail_result(result, SolveStatus::kNumericalFailure,
                "speed transform failed (contradicts Lemma 13)",
                "speed_transform");
    result.telemetry = LongWindowTelemetry::from_trace(*trace);
    return result;
  }
  result.schedule = std::move(*transformed);
  result.schedule.normalize();
  trace->set("speed", result.schedule.speed);
  trace->set("calibrations.total",
             static_cast<std::int64_t>(result.schedule.num_calibrations()));
  result.telemetry = LongWindowTelemetry::from_trace(*trace);
  return result;
}

}  // namespace calisched
