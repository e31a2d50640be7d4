// Tests for the telemetry layer (src/trace/): counter/span aggregation,
// JSON round-trips of nested contexts, and the integration contract that
// the trace a solve produces agrees with the legacy telemetry structs it
// derives.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "longwin/long_pipeline.hpp"
#include "mm/mm.hpp"
#include "shortwin/short_pipeline.hpp"
#include "solver/ise_solver.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace calisched {
namespace {

TEST(Trace, CountersAddAndSet) {
  TraceContext trace("t");
  EXPECT_EQ(trace.counter("x"), 0);
  EXPECT_FALSE(trace.has_counter("x"));
  trace.add("x");
  trace.add("x", 4);
  EXPECT_EQ(trace.counter("x"), 5);
  EXPECT_TRUE(trace.has_counter("x"));
  trace.set("x", 2);
  EXPECT_EQ(trace.counter("x"), 2);
  trace.set_value("pi", 3.25);
  EXPECT_DOUBLE_EQ(trace.value("pi"), 3.25);
  EXPECT_DOUBLE_EQ(trace.value("absent"), 0.0);
}

TEST(Trace, NotesKeepDistinctValuesInInsertionOrder) {
  TraceContext trace("t");
  trace.note("mm.algorithm", "greedy-edf");
  trace.note("mm.algorithm", "exact");
  trace.note("mm.algorithm", "greedy-edf");  // duplicate: kept once
  const auto notes = trace.notes("mm.algorithm");
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_EQ(notes[0], "greedy-edf");
  EXPECT_EQ(notes[1], "exact");
}

TEST(Trace, SpansAggregateByName) {
  TraceContext trace("t");
  trace.record_span("mm", 100);
  trace.record_span("mm", 250);
  trace.record_span("lp", 7);
  EXPECT_EQ(trace.span_ns("mm"), 350);
  EXPECT_EQ(trace.span_count("mm"), 2);
  EXPECT_EQ(trace.span_ns("lp"), 7);
  EXPECT_EQ(trace.span_count("lp"), 1);
  EXPECT_FALSE(trace.has_span("edf"));
}

TEST(Trace, AbsorbMergesCountersValuesNotesSpansChildren) {
  TraceContext parent("p");
  parent.add("pivots", 2);
  parent.note("algo", "a");
  parent.record_span("mm", 10);
  parent.child("lp").add("rows", 3);

  TraceContext other("scratch");
  other.add("pivots", 5);
  other.add("fresh", 1);
  other.set_value("ratio", 0.5);
  other.note("algo", "a");  // duplicate across contexts: kept once
  other.note("algo", "b");
  other.record_span("mm", 32);
  other.record_span("mm", 8);
  other.child("lp").add("rows", 4);
  other.child("edf").note("box", "greedy");

  parent.absorb(other);
  EXPECT_EQ(parent.counter("pivots"), 7);
  EXPECT_EQ(parent.counter("fresh"), 1);
  EXPECT_DOUBLE_EQ(parent.value("ratio"), 0.5);
  EXPECT_EQ(parent.notes("algo"), (std::vector<std::string>{"a", "b"}));
  // Span aggregates merge as aggregates: total_ns summed, count summed
  // (not bumped once per absorb).
  EXPECT_EQ(parent.span_ns("mm"), 50);
  EXPECT_EQ(parent.span_count("mm"), 3);
  ASSERT_NE(parent.find("lp"), nullptr);
  EXPECT_EQ(parent.find("lp")->counter("rows"), 7);
  ASSERT_NE(parent.find("edf"), nullptr);
  EXPECT_EQ(parent.find("edf")->notes("box"),
            std::vector<std::string>{"greedy"});
  // The source is read-only throughout.
  EXPECT_EQ(other.counter("pivots"), 5);
  EXPECT_EQ(other.span_count("mm"), 2);
}

TEST(Trace, ConcurrentScratchRecordingMergesDeterministically) {
  // The thread-local-child contract (trace.hpp): workers record into
  // exclusively-owned scratch traces concurrently, and the owner absorbs
  // them in task order after the join. The merged trace must be
  // byte-identical to a sequential run of the same tasks — and TSan must
  // see no data races (CI runs this test under the tsan preset).
  constexpr int kTasks = 16;
  const auto record = [](TraceContext& scratch, int i) {
    scratch.add("task.count");
    scratch.add("work", i);
    scratch.record_span("interval", 10 + i);
    scratch.note("box", i % 2 == 0 ? "even" : "odd");
    scratch.child("mm").add("invocations", 2);
  };

  // deque: TraceContext is neither copyable nor movable.
  std::deque<TraceContext> scratch;
  for (int i = 0; i < kTasks; ++i) scratch.emplace_back("scratch");
  std::vector<std::thread> threads;
  threads.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    threads.emplace_back(
        [&record, &scratch, i] { record(scratch[static_cast<std::size_t>(i)], i); });
  }
  for (std::thread& thread : threads) thread.join();
  TraceContext merged("root");
  for (const TraceContext& s : scratch) merged.absorb(s);

  TraceContext reference("root");
  std::deque<TraceContext> sequential;
  for (int i = 0; i < kTasks; ++i) {
    sequential.emplace_back("scratch");
    record(sequential.back(), i);
    reference.absorb(sequential.back());
  }
  EXPECT_EQ(merged.json(), reference.json());
  EXPECT_EQ(merged.counter("task.count"), kTasks);
  ASSERT_NE(merged.find("mm"), nullptr);
  EXPECT_EQ(merged.find("mm")->counter("invocations"), 2 * kTasks);
}

TEST(Trace, TraceSpanStopIsIdempotentAndNullSafe) {
  TraceContext trace("t");
  {
    TraceSpan span(&trace, "stage");
    span.stop();
    span.stop();  // second stop must not double-record
  }                // destructor must not record a third time
  EXPECT_EQ(trace.span_count("stage"), 1);
  TraceSpan null_span(nullptr, "stage");  // must be a no-op
  null_span.stop();
  EXPECT_EQ(trace.span_count("stage"), 1);
}

TEST(Trace, ChildFindOrCreateIsStable) {
  TraceContext trace("root");
  TraceContext& a = trace.child("long_window");
  a.add("jobs", 3);
  TraceContext& again = trace.child("long_window");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(trace.children().size(), 1u);
  ASSERT_NE(trace.find("long_window"), nullptr);
  EXPECT_EQ(trace.find("long_window")->counter("jobs"), 3);
  EXPECT_EQ(trace.find("missing"), nullptr);
}

TEST(Trace, JsonRoundTripNestedContext) {
  TraceContext trace("solve_ise");
  trace.set("jobs", 12);
  trace.set_value("lp.objective", 4.75);
  trace.note("algorithm", "combined");
  trace.record_span("split", 123);
  TraceContext& lw = trace.child("long_window");
  lw.set("lp.pivots", 99);
  lw.child("simplex").set("pivots.phase1", 42);
  TraceContext& sw = trace.child("short_window");
  sw.record_span("mm", 1000);
  sw.record_span("mm", 2000);

  // Serialization is deterministic and ordered: keys in insertion order,
  // repeated spans aggregated, children nested in creation order.
  EXPECT_EQ(
      trace.json(0),
      R"({"name":"solve_ise","counters":{"jobs":12},)"
      R"("values":{"lp.objective":4.75},"notes":{"algorithm":["combined"]},)"
      R"("spans":{"split":{"ns":123,"count":1}},"children":[)"
      R"({"name":"long_window","counters":{"lp.pivots":99},"children":[)"
      R"({"name":"simplex","counters":{"pivots.phase1":42}}]},)"
      R"({"name":"short_window","spans":{"mm":{"ns":3000,"count":2}}}]})");
}

TEST(Json, IntegersSurviveRoundTripExactly) {
  JsonValue::Object obj;
  obj.emplace_back("big", JsonValue(std::int64_t{1} << 53));
  obj.emplace_back("neg", JsonValue(std::int64_t{-7}));
  obj.emplace_back("frac", JsonValue(0.5));
  const JsonValue value{std::move(obj)};
  const JsonValue reparsed = JsonValue::parse(value.dump());
  EXPECT_TRUE(reparsed.find("big")->is_int());
  EXPECT_EQ(reparsed.find("big")->as_int(), std::int64_t{1} << 53);
  EXPECT_EQ(reparsed.find("neg")->as_int(), -7);
  EXPECT_TRUE(reparsed.find("frac")->is_double());
  EXPECT_DOUBLE_EQ(reparsed.find("frac")->as_double(), 0.5);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("true false"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, NestingIsCappedAtMaxParseDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)JsonValue::parse(nested(JsonValue::kMaxParseDepth)));
  EXPECT_THROW((void)JsonValue::parse(nested(JsonValue::kMaxParseDepth + 1)),
               std::runtime_error);
  // Objects count too, and a hostile depth fails fast instead of
  // overflowing the stack.
  EXPECT_THROW((void)JsonValue::parse(std::string(200000, '[')),
               std::runtime_error);
  std::string objects;
  for (int i = 0; i <= JsonValue::kMaxParseDepth; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)JsonValue::parse(objects), std::runtime_error);
}

Instance mixed_instance(std::uint64_t seed) {
  GenParams params;
  params.seed = seed;
  params.n = 16;
  params.T = 10;
  params.machines = 2;
  params.horizon = 80;
  params.min_proc = 1;
  params.max_proc = 6;
  return generate_mixed(params, 0.5);
}

TEST(TraceIntegration, SolveIseTraceMatchesTelemetryViews) {
  const Instance instance = mixed_instance(3);
  TraceContext trace("solve_ise");
  IseSolverOptions options;
  options.trace = &trace;
  const IseSolveResult result = solve_ise(instance, options);
  ASSERT_TRUE(result.feasible);

  // Top level: job split and totals.
  EXPECT_EQ(trace.counter("jobs.long"),
            static_cast<std::int64_t>(result.long_job_count));
  EXPECT_EQ(trace.counter("jobs.short"),
            static_cast<std::int64_t>(result.short_job_count));
  EXPECT_EQ(trace.counter("calibrations.total"),
            static_cast<std::int64_t>(result.total_calibrations));
  EXPECT_EQ(trace.counter("machines.allotted"), result.machines_allotted);
  EXPECT_TRUE(trace.has_span("split"));
  EXPECT_TRUE(trace.has_span("combine"));

  // Long-window child mirrors LongWindowTelemetry (including the LP pivot
  // count the LpSolution reported).
  const TraceContext* lw = trace.find("long_window");
  ASSERT_NE(lw, nullptr);
  EXPECT_EQ(lw->counter("lp.pivots"), result.long_telemetry.lp_pivots);
  EXPECT_EQ(lw->counter("lp.rows"), result.long_telemetry.lp_rows);
  EXPECT_EQ(lw->counter("lp.columns"), result.long_telemetry.lp_columns);
  EXPECT_DOUBLE_EQ(lw->value("lp.objective"),
                   result.long_telemetry.lp_objective);
  EXPECT_EQ(lw->counter("calibrations.total"),
            static_cast<std::int64_t>(result.long_telemetry.total_calibrations));
  EXPECT_TRUE(lw->has_span("trim"));
  EXPECT_TRUE(lw->has_span("lp"));
  EXPECT_TRUE(lw->has_span("rounding"));
  EXPECT_TRUE(lw->has_span("edf"));

  // The simplex grandchild reports its per-phase pivots; their sum is the
  // pivot total the LP solution carried into the telemetry.
  const TraceContext* simplex = lw->find("simplex");
  ASSERT_NE(simplex, nullptr);
  EXPECT_EQ(simplex->counter("pivots.phase1") + simplex->counter("pivots.phase2"),
            result.long_telemetry.lp_pivots);

  // Short-window child mirrors ShortWindowTelemetry and traces MM calls.
  const TraceContext* sw = trace.find("short_window");
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->counter("mm.machines.sum"),
            result.short_telemetry.sum_mm_machines);
  EXPECT_EQ(sw->counter("intervals.pass1") + sw->counter("intervals.pass2"),
            result.short_telemetry.intervals_pass1 +
                result.short_telemetry.intervals_pass2);
  EXPECT_TRUE(sw->has_span("partition"));
  if (result.short_job_count > 0) {
    EXPECT_GT(sw->counter("mm.invocations"), 0);
    EXPECT_TRUE(sw->has_span("mm"));
    EXPECT_EQ(sw->notes("mm.algorithm").size(),
              result.short_telemetry.mm_algorithms.size());
  }
}

TEST(TraceIntegration, PipelinesProduceSameTelemetryWithAndWithoutTrace) {
  // The compatibility view must not depend on whether the caller supplied
  // a sink: field-for-field identical results either way.
  GenParams params;
  params.seed = 7;
  params.n = 10;
  params.T = 10;
  params.machines = 2;
  params.horizon = 80;
  params.max_proc = 10;
  const Instance long_instance = generate_long_window(params);

  const LongWindowResult untraced = solve_long_window(long_instance);
  TraceContext trace("long_window");
  LongWindowOptions traced_options;
  traced_options.trace = &trace;
  const LongWindowResult traced = solve_long_window(long_instance, traced_options);
  ASSERT_EQ(untraced.feasible, traced.feasible);
  EXPECT_EQ(untraced.telemetry.m_prime, traced.telemetry.m_prime);
  EXPECT_EQ(untraced.telemetry.machines_allotted,
            traced.telemetry.machines_allotted);
  EXPECT_DOUBLE_EQ(untraced.telemetry.lp_objective,
                   traced.telemetry.lp_objective);
  EXPECT_EQ(untraced.telemetry.lp_pivots, traced.telemetry.lp_pivots);
  EXPECT_EQ(untraced.telemetry.rounded_calibrations,
            traced.telemetry.rounded_calibrations);
  EXPECT_EQ(untraced.telemetry.total_calibrations,
            traced.telemetry.total_calibrations);

  GenParams short_params;
  short_params.seed = 5;
  short_params.n = 12;
  short_params.T = 10;
  short_params.machines = 2;
  short_params.horizon = 100;
  short_params.max_proc = 9;
  const Instance short_instance = generate_short_window(short_params);
  const GreedyEdfMM mm;
  const ShortWindowResult plain = solve_short_window(short_instance, mm);
  TraceContext short_trace("short_window");
  IntervalOptions interval_options;
  interval_options.trace = &short_trace;
  const ShortWindowResult with_trace =
      solve_short_window(short_instance, mm, interval_options);
  ASSERT_TRUE(plain.feasible);
  ASSERT_TRUE(with_trace.feasible);
  EXPECT_EQ(plain.telemetry.intervals_pass1,
            with_trace.telemetry.intervals_pass1);
  EXPECT_EQ(plain.telemetry.intervals_pass2,
            with_trace.telemetry.intervals_pass2);
  EXPECT_EQ(plain.telemetry.sum_mm_machines,
            with_trace.telemetry.sum_mm_machines);
  EXPECT_EQ(plain.telemetry.max_mm_machines,
            with_trace.telemetry.max_mm_machines);
  EXPECT_EQ(plain.telemetry.machines_allotted,
            with_trace.telemetry.machines_allotted);
  EXPECT_EQ(plain.telemetry.total_calibrations,
            with_trace.telemetry.total_calibrations);
  EXPECT_EQ(plain.telemetry.mm_algorithms, with_trace.telemetry.mm_algorithms);
}

}  // namespace
}  // namespace calisched
