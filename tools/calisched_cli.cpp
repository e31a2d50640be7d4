// calisched — command-line front end.
//
// Reads an instance (see src/core/instance.hpp for the text format), runs
// the chosen algorithm, verifies the schedule independently, and prints a
// summary, an optional ASCII Gantt chart, and optional CSV.
//
// Usage:
//   calisched <instance-file> [--algo=NAME] [--gantt] [--csv] [--quiet]
//             [--adaptive-mirror] [--prune-empty] [--relaxed] [--mm=NAME]
//             [--node-budget=N] [--solve-threads=N] [--trace-json=FILE]
//   calisched --generate=FAMILY --n=N --T=N --machines=N [--seed=N] --out=F
//   calisched solve-batch [instance-files...] [--algo=NAME] [--threads=N]
//             [--timeout-ms=N] [--node-budget=N] [--out=FILE] [--no-timing]
//             [--trace]
//             [--family=F --count=N --seed=N --n=N --T=N --machines=N ...]
//   calisched serve (--stdio | --port=P) [--threads=N] [--queue-capacity=N]
//             [--cache-capacity=N] [--cache-shards=N]
//             [--io-threads=N] [--backlog=N]
//   calisched replay <instance-file> [--algo=online-edf] [--schedule]
//
// replay feeds the instance through the online-arrival simulator (each job
// becomes known at its release time) and prints the schedule-delta stream:
// one NDJSON "delta" line per advancement — byte-identical to what a
// `subscribe` session over serve streams for the same trace — followed by
// one "result" line (--schedule attaches the full committed schedule).
// The replay is deterministic: the same instance prints the same bytes on
// every run. Exit status 0 when the online run is feasible, 1 when the
// heuristic lost a job (the stream and result line are still printed).
//
// serve starts the persistent solve service (see src/service/): newline-
// delimited JSON requests in, one response line per request, in request
// order. --stdio speaks over stdin/stdout (the response stream is byte-
// identical for any --threads value); --port=P listens on 127.0.0.1:P
// (0 picks a free port, printed to stderr) with the nonblocking epoll
// event loop (--io-threads event-loop threads, --backlog listen()
// backlog, <= 0 meaning SOMAXCONN). Both front ends drive one connection
// engine and produce byte-identical response streams; a request line
// over 1 MiB gets one "error" response and ends the conversation. The
// service runs every request through the algorithm registry behind a
// bounded queue (--queue-capacity, full queue => "reject" response, never
// unbounded growth) and a sharded LRU result cache (--cache-capacity
// total entries over --cache-shards independently locked shards) keyed by
// a canonical instance hash, so permuted copies of one instance hit the
// same entry.
// Request deadlines (timeout_ms) map onto RunLimits; a "stats" request
// reports requests/rejects/cache hits/latency percentiles (p50 to p999);
// "shutdown" drains in-flight solves and exits cleanly. See DESIGN.md
// sections 11 and 14 for the protocol and the event loop.
//
// solve-batch runs one registered algorithm over many instances concurrently
// and writes one JSON record per instance (JSONL). Instances come from the
// positional files, or — when none are given — from the generator spec flags
// (same family flags as --generate, plus --count; instance i uses a seed
// derived from --seed and i). Results are deterministic: the output is
// byte-identical for every --threads value once --no-timing drops the
// elapsed-time fields. --timeout-ms is a per-instance wall-clock deadline
// (records report status "deadline-exceeded" when it fires). --algo accepts
// any registry name (see AlgorithmRegistry::builtin()), including the MM
// boxes (mm-*), gap-min, exact-ise and bender-lazy, which the single-
// instance path below does not accept.
//
// --solve-threads=N fans the short-window pipeline's per-interval MM solves
// out over N worker threads (0 = all hardware threads; default 1). The
// schedule and every counter are byte-identical at any value — results are
// merged in interval order, never completion order.
//
// --trace-json=FILE writes the solve's full stage trace (per-stage spans,
// counters, LP/MM telemetry, schedule stats) as JSON; FILE of "-" means
// stdout.
//
// --node-budget=N caps the state count of the exact solvers ("exact" and
// --mm=exact; exhaustion reports "budget exhausted", never "infeasible");
// 0 keeps each solver's default.
//
// MM boxes can be speed-augmented with --mm-speed=S (Theorem 1's s-speed
// augmentation).
// Algorithms (--algo) on the single-instance path; an unknown name lists
// these:
//   combined     Theorem 1 solver (default)
//   long         Theorem 12 long-window pipeline (requires all-long input)
//   long-speed   Theorem 14 (m machines, speed 36)
//   short        Theorem 20 short-window pipeline (requires all-short input)
//   greedy-lazy  non-unit lazy binning heuristic (no guarantee)
//   per-job      one calibration per job
//   saturate     always-calibrated grid baseline
//   bender       lazy binning (unit jobs only)
//   exact        exact minimum calibrations (tiny instances only)
//   exact-calib-cost   exact minimum cost under a caltype table (tiny)
//   dp-calib-cost      single-machine cost DP (exact, tiny)
//   greedy-calib-cost  lazy greedy over the caltype table
// online-edf runs through `replay`; every other registry name (exact-ise,
// bender-lazy, gap-min, mm-*) through `solve-batch`.
// MM boxes (--mm): greedy (default), exact, unit, lp-rounding.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>

#include "baselines/baseline.hpp"
#include "core/schedule_io.hpp"
#include "baselines/calibration_bounds.hpp"
#include "baselines/exact_ise.hpp"
#include "calib/cost_dp.hpp"
#include "calib/exact_cost.hpp"
#include "calib/greedy_cost.hpp"
#include "gen/generators.hpp"
#include "longwin/long_pipeline.hpp"
#include "mm/lp_rounding_mm.hpp"
#include "mm/mm.hpp"
#include "online/online.hpp"
#include "service/protocol.hpp"
#include "report/ascii_gantt.hpp"
#include "report/stats.hpp"
#include "runtime/batch.hpp"
#include "service/epoll_server.hpp"
#include "service/server.hpp"
#include "shortwin/short_pipeline.hpp"
#include "solver/ise_solver.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "verify/verify.hpp"

namespace {

using namespace calisched;

int generate_mode(const CliArgs& args) {
  GenParams params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  params.n = static_cast<int>(args.get_int("n", 12));
  params.T = args.get_int("T", 10);
  params.machines = static_cast<int>(args.get_int("machines", 2));
  params.horizon = args.get_int("horizon", 10 * params.T);
  params.max_proc = args.get_int("max-proc", params.T);
  const std::string family = args.get("generate", "mixed");
  Instance instance;
  if (family == "mixed") {
    instance = generate_mixed(params, args.get_double("long-fraction", 0.5));
  } else if (family == "long") {
    instance = generate_long_window(params);
  } else if (family == "short") {
    instance = generate_short_window(params);
  } else if (family == "unit") {
    instance = generate_unit(params, args.get_int("max-window", 2 * params.T - 1));
  } else if (family == "clustered") {
    instance = generate_clustered(params,
                                  static_cast<int>(args.get_int("bursts", 3)),
                                  args.get_int("burst-span", params.T),
                                  args.get_bool("long-windows", false));
  } else if (family == "calib-cheap-short") {
    instance = generate_calib_cost(params, CalibTableRegime::kCheapShort);
  } else if (family == "calib-expensive-long") {
    instance = generate_calib_cost(params, CalibTableRegime::kExpensiveLong);
  } else if (family == "calib-delayed") {
    instance = generate_calib_cost(params, CalibTableRegime::kDelayed);
  } else if (family == "online-poisson") {
    instance = generate_online_poisson(params, args.get_double("mean-gap", 0.0));
  } else if (family == "online-burst") {
    instance = generate_online_burst(
        params, static_cast<int>(args.get_int("bursts", 4)));
  } else if (family == "online-drip") {
    instance = generate_online_drip(params);
  } else {
    std::cerr << "unknown family '" << family
              << "' (mixed|long|short|unit|clustered|calib-cheap-short|"
                 "calib-expensive-long|calib-delayed|online-poisson|"
                 "online-burst|online-drip)\n";
    return 2;
  }
  const std::string out = args.get("out", "");
  if (out.empty()) {
    write_instance(std::cout, instance);
  } else {
    std::ofstream file(out);
    if (!file) {
      std::cerr << "cannot open " << out << " for writing\n";
      return 2;
    }
    write_instance(file, instance);
    std::cout << "wrote " << instance.size() << " jobs to " << out << '\n';
  }
  return 0;
}

int solve_batch_mode(const CliArgs& args) {
  const std::string algo = args.get("algo", "combined");
  const AlgorithmRegistry& registry = AlgorithmRegistry::builtin();
  const Algorithm* algorithm = registry.find(algo);
  if (!algorithm) {
    std::cerr << "unknown algorithm '" << algo << "'; registered:";
    for (const std::string& name : registry.names()) std::cerr << ' ' << name;
    std::cerr << '\n';
    return 2;
  }

  std::vector<Instance> instances;
  BatchOptions options;
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() > 1) {
    for (std::size_t i = 1; i < positional.size(); ++i) {
      std::ifstream file(positional[i]);
      if (!file) {
        std::cerr << "cannot read " << positional[i] << '\n';
        return 2;
      }
      try {
        instances.push_back(read_instance(file));
      } catch (const std::exception& error) {
        std::cerr << positional[i] << ": " << error.what() << '\n';
        return 2;
      }
    }
  } else {
    BatchSpec spec;
    spec.family = args.get("family", "mixed");
    spec.count = static_cast<std::size_t>(args.get_int("count", 32));
    spec.params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    spec.params.n = static_cast<int>(args.get_int("n", 12));
    spec.params.T = args.get_int("T", 10);
    spec.params.machines = static_cast<int>(args.get_int("machines", 2));
    spec.params.horizon = args.get_int("horizon", 10 * spec.params.T);
    spec.params.max_proc = args.get_int("max-proc", spec.params.T);
    spec.long_fraction = args.get_double("long-fraction", 0.5);
    spec.max_window = args.get_int("max-window", 0);
    spec.bursts = static_cast<int>(args.get_int("bursts", 3));
    spec.burst_span = args.get_int("burst-span", 0);
    spec.long_windows = args.get_bool("long-windows", false);
    try {
      instances = generate_batch(spec, &options.seeds);
    } catch (const std::exception& error) {
      std::cerr << error.what() << '\n';
      return 2;
    }
  }

  options.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const std::int64_t timeout_ms = args.get_int("timeout-ms", 0);
  if (timeout_ms > 0) {
    options.per_instance_deadline = std::chrono::milliseconds(timeout_ms);
  }
  options.node_budget = args.get_int("node-budget", 0);
  options.collect_traces = args.get_bool("trace", false);
  const bool include_timing = !args.get_bool("no-timing", false);

  const std::vector<BatchRecord> records =
      BatchRunner(*algorithm).run(instances, options);

  const std::string out_path = args.get("out", "");
  if (out_path.empty() || out_path == "-") {
    write_batch_jsonl(std::cout, records, include_timing);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 2;
    }
    write_batch_jsonl(out, records, include_timing);
    std::cout << "wrote " << records.size() << " records to " << out_path
              << '\n';
  }

  std::size_t solved = 0;
  std::size_t limited = 0;
  for (const BatchRecord& record : records) {
    if (record.feasible) ++solved;
    if (is_limit_status(record.status)) ++limited;
  }
  std::cerr << "solve-batch: " << algo << " on " << records.size()
            << " instances, " << solved << " solved, " << limited
            << " limit-stopped\n";
  for (const std::string& flag : args.unused()) {
    std::cerr << "warning: unused flag --" << flag << '\n';
  }
  return 0;
}

int serve_mode(const CliArgs& args) {
  // Before any I/O: unsynced std::cin is buffered, so the --stdio reader
  // takes whatever a pipe delivered in one read, not one byte per call.
  std::ios::sync_with_stdio(false);
  ServiceOptions options;
  options.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 64));
  options.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache-capacity", 128));
  options.cache_shards =
      static_cast<std::size_t>(args.get_int("cache-shards", 8));
  const bool stdio = args.get_bool("stdio", false);
  const std::int64_t port = args.get_int("port", -1);
  const std::int64_t backlog = args.get_int("backlog", 0);
  const std::size_t io_threads =
      static_cast<std::size_t>(args.get_int("io-threads", 1));
  if (!stdio && port < 0) {
    std::cerr << "serve needs --stdio or --port=P\n";
    return 2;
  }
  for (const std::string& flag : args.unused()) {
    std::cerr << "warning: unused flag --" << flag << '\n';
  }

  if (stdio) {
    ServeReport report;
    const int code = run_stdio_server(AlgorithmRegistry::builtin(), options,
                                      std::cin, std::cout, &report);
    std::cerr << "serve: " << report.lines << " request(s), "
              << report.malformed << " malformed, "
              << (report.shutdown_requested ? "shutdown requested"
                                            : "input closed")
              << '\n';
    return code;
  }

  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServerOptions server_options;
  server_options.port = static_cast<int>(port);
  server_options.backlog = static_cast<int>(backlog);
  server_options.io_threads = io_threads;
  EpollServer server(service, server_options);
  try {
    server.start();
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return 2;
  }
  std::cerr << "serve: listening on 127.0.0.1:" << server.port() << " (epoll, "
            << io_threads << " io thread(s), " << options.threads
            << " worker thread(s), queue " << options.queue_capacity
            << ", cache " << options.cache_capacity << "x"
            << options.cache_shards << " shard(s))\n";
  server.serve();
  service.shutdown(/*drain=*/true);
  const ServiceStats stats = service.stats();
  std::cerr << "serve: " << stats.received << " request(s), "
            << stats.cache_hits << " cache hit(s), " << stats.rejected
            << " reject(s)\n";
  return 0;
}

int replay_mode(const CliArgs& args) {
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() < 2) {
    std::cerr << "replay needs an instance file\n";
    return 2;
  }
  std::ifstream file(positional[1]);
  if (!file) {
    std::cerr << "cannot read " << positional[1] << '\n';
    return 2;
  }
  Instance instance;
  try {
    instance = read_instance(file);
  } catch (const std::exception& error) {
    std::cerr << positional[1] << ": " << error.what() << '\n';
    return 2;
  }
  const std::string algo = args.get("algo", "online-edf");
  const bool want_schedule = args.get_bool("schedule", false);
  for (const std::string& flag : args.unused()) {
    std::cerr << "warning: unused flag --" << flag << '\n';
  }

  const ArrivalTrace trace = ArrivalTrace::from_instance(instance);
  const OnlineResult result = simulate_trace(algo, trace);
  // The stream a subscribe client would see for the same trace, byte for
  // byte: one delta line per advancement (null id — replay has no request
  // ids), then the result line a finalize would answer with.
  const bool unit_model = trace.cal.empty();
  for (const ScheduleDelta& delta : result.deltas) {
    std::cout << dump_response(make_delta_response(JsonValue(), delta.time,
                                                   delta.calibrations,
                                                   delta.jobs, unit_model))
              << '\n';
  }
  SolveOutcome outcome;
  outcome.status =
      result.feasible ? SolveStatus::kOk : SolveStatus::kInfeasible;
  outcome.feasible = result.feasible;
  outcome.verified = result.feasible;  // finish() ran the verifier
  outcome.jobs = result.schedule.jobs.size();
  outcome.calibrations = result.schedule.num_calibrations();
  outcome.machines = result.schedule.machines;
  outcome.speed = result.schedule.speed;
  outcome.total_cost = result.schedule.total_cost();
  outcome.error = result.error;
  outcome.schedule = result.schedule;
  std::cout << dump_response(
                   make_result_response(JsonValue(), outcome, want_schedule))
            << '\n';
  std::cerr << "replay: " << algo << " over " << trace.events.size()
            << " arrival(s), " << result.events << " event(s), "
            << result.alarms << " alarm(s), "
            << (result.feasible ? "feasible" : "infeasible: " + result.error)
            << '\n';
  return result.feasible ? 0 : 1;
}

std::shared_ptr<const MachineMinimizer> make_mm(const std::string& name,
                                                std::int64_t speed,
                                                std::int64_t node_budget) {
  std::shared_ptr<const MachineMinimizer> box;
  if (name == "greedy") box = std::make_shared<GreedyEdfMM>();
  if (name == "exact") {
    box = std::make_shared<ExactMM>(node_budget > 0 ? node_budget : 4'000'000);
  }
  if (name == "unit") box = std::make_shared<UnitEdfMM>();
  if (name == "lp-rounding") box = std::make_shared<LpRoundingMM>();
  if (box && speed > 1) box = std::make_shared<SpeedupMM>(box, speed);
  return box;
}

struct RunOutcome {
  bool feasible = false;
  Schedule schedule;
  std::string error;
  CalibrationPolicy policy = CalibrationPolicy::kStrict;
  bool tise = false;
};

/// The --algo names run_algorithm dispatches, in usage order.
constexpr const char* kCliAlgorithms[] = {
    "combined", "long", "long-speed", "short", "greedy-lazy", "per-job",
    "saturate", "bender", "exact", "exact-calib-cost", "dp-calib-cost",
    "greedy-calib-cost"};

RunOutcome run_algorithm(const Instance& instance, const CliArgs& args,
                         const std::string& algo, TraceContext* trace) {
  RunOutcome outcome;
  if (std::find(std::begin(kCliAlgorithms), std::end(kCliAlgorithms), algo) ==
      std::end(kCliAlgorithms)) {
    outcome.error = "unknown algorithm '" + algo + "'; accepted:";
    for (const char* name : kCliAlgorithms) {
      outcome.error += ' ';
      outcome.error += name;
    }
    outcome.error +=
        " (online-edf runs through replay, other registry names through "
        "solve-batch)";
    return outcome;
  }
  // Same gate the registry applies: algorithms that predate the
  // calibration-cost model only understand the unit model.
  const bool model_aware = algo == "exact-calib-cost" ||
                           algo == "dp-calib-cost" ||
                           algo == "greedy-calib-cost";
  if (!model_aware && !instance.is_unit_model()) {
    outcome.error = "requires the unit calibration model "
                    "(instance has a caltype table)";
    return outcome;
  }
  LongWindowOptions long_options;
  long_options.trace = trace;
  long_options.adaptive_mirror = args.get_bool("adaptive-mirror", false);
  long_options.prune_empty_calibrations = args.get_bool("prune-empty", false);
  IntervalOptions short_options;
  short_options.trace = trace;
  short_options.relaxed_calibrations = args.get_bool("relaxed", false);
  short_options.trim_unused_calibrations = args.get_bool("prune-empty", false);
  short_options.threads =
      static_cast<int>(args.get_int("solve-threads", 1));
  if (short_options.relaxed_calibrations) {
    outcome.policy = CalibrationPolicy::kOverlapAllowed;
  }
  const std::int64_t node_budget = args.get_int("node-budget", 0);
  const auto mm = make_mm(args.get("mm", "greedy"), args.get_int("mm-speed", 1),
                          node_budget);
  if (!mm) {
    outcome.error = "unknown MM box (greedy|exact|unit|lp-rounding)";
    return outcome;
  }

  if (algo == "combined") {
    IseSolverOptions options;
    options.long_window = long_options;
    options.short_window = short_options;
    options.mm = mm;
    options.trace = trace;
    IseSolveResult result = solve_ise(instance, options);
    outcome.feasible = result.feasible;
    outcome.schedule = std::move(result.schedule);
    outcome.error = std::move(result.error);
  } else if (algo == "long" || algo == "long-speed") {
    LongWindowResult result = algo == "long"
                                  ? solve_long_window(instance, long_options)
                                  : solve_long_window_speed(instance, long_options);
    outcome.feasible = result.feasible;
    outcome.schedule = std::move(result.schedule);
    outcome.error = std::move(result.error);
    outcome.tise = algo == "long";
  } else if (algo == "short") {
    ShortWindowResult result = solve_short_window(instance, *mm, short_options);
    outcome.feasible = result.feasible;
    outcome.schedule = std::move(result.schedule);
    outcome.error = std::move(result.error);
  } else if (algo == "greedy-lazy") {
    BaselineResult result = GreedyLazyIse().solve(instance);
    outcome.feasible = result.feasible;
    outcome.schedule = std::move(result.schedule);
    outcome.error = std::move(result.error);
  } else if (algo == "per-job") {
    BaselineResult result = PerJobCalibration().solve(instance);
    outcome.feasible = result.feasible;
    outcome.schedule = std::move(result.schedule);
    outcome.error = std::move(result.error);
  } else if (algo == "saturate") {
    BaselineResult result = SaturateCalibration().solve(instance);
    outcome.feasible = result.feasible;
    outcome.schedule = std::move(result.schedule);
    outcome.error = std::move(result.error);
  } else if (algo == "bender") {
    BaselineResult result = BenderUnitLazyBinning().solve(instance);
    outcome.feasible = result.feasible;
    outcome.schedule = std::move(result.schedule);
    outcome.error = std::move(result.error);
  } else if (algo == "exact") {
    ExactIseOptions options;
    if (node_budget > 0) options.node_budget = node_budget;
    options.trace = trace;
    const ExactIseResult result = solve_exact_ise(instance, options);
    outcome.feasible = result.solved && result.feasible;
    outcome.schedule = result.schedule;
    if (!result.solved) outcome.error = "search budget exhausted";
    else if (!result.feasible) outcome.error = "instance infeasible";
  } else if (algo == "exact-calib-cost") {
    const CalibCostResult result = solve_exact_calib_cost(instance);
    outcome.feasible = result.solved && result.feasible;
    outcome.schedule = result.schedule;
    if (!result.solved) outcome.error = "search budget exhausted";
    else if (!result.feasible) outcome.error = "instance infeasible";
  } else if (algo == "dp-calib-cost") {
    const CostDpResult result = solve_cost_dp(instance);
    outcome.feasible = result.solved && result.feasible;
    outcome.schedule = result.schedule;
    if (!result.solved) outcome.error = "DP budget exhausted";
    else if (!result.feasible) outcome.error = "instance infeasible";
  } else if (algo == "greedy-calib-cost") {
    GreedyCostResult result = solve_greedy_cost(instance);
    outcome.feasible = result.feasible;
    outcome.schedule = std::move(result.schedule);
    outcome.error = std::move(result.error);
  }
  return outcome;
}

int run_cli(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("generate")) return generate_mode(args);
  if (!args.positional().empty() && args.positional()[0] == "solve-batch") {
    return solve_batch_mode(args);
  }
  if (!args.positional().empty() && args.positional()[0] == "serve") {
    return serve_mode(args);
  }
  if (!args.positional().empty() && args.positional()[0] == "replay") {
    return replay_mode(args);
  }

  if (args.positional().empty()) {
    std::cerr << "usage: calisched <instance-file> [--algo=NAME] [--gantt] "
                 "[--csv]\n       calisched --generate=FAMILY --out=FILE\n"
                 "       calisched solve-batch [files...] [--algo=NAME] "
                 "[--threads=N] [--timeout-ms=N]\n"
                 "       calisched serve (--stdio | --port=P) [--threads=N]\n"
                 "       calisched replay <instance-file> "
                 "[--algo=online-edf] [--schedule]\n";
    return 2;
  }
  std::ifstream file(args.positional()[0]);
  if (!file) {
    std::cerr << "cannot read " << args.positional()[0] << '\n';
    return 2;
  }
  Instance instance;
  try {
    instance = read_instance(file);
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return 2;
  }

  const std::string algo = args.get("algo", "combined");
  // A bare --trace-json (parsed as "true") and "-" both mean stdout.
  const bool want_trace = args.has("trace-json");
  const std::string trace_path = args.get("trace-json", "");
  TraceContext trace(algo == "combined" ? "solve_ise" : algo);
  trace.note("algorithm", algo);
  TraceSpan solve_span(&trace, "solve");
  const RunOutcome outcome =
      run_algorithm(instance, args, algo, want_trace ? &trace : nullptr);
  solve_span.stop();
  if (!outcome.feasible) {
    std::cerr << algo << ": " << outcome.error << '\n';
    return 1;
  }
  const VerifyResult check =
      verify_ise(instance, outcome.schedule, outcome.tise, outcome.policy);
  if (!check.ok()) {
    std::cerr << "INTERNAL ERROR: schedule failed verification\n"
              << check.to_string();
    return 1;
  }

  const ScheduleStats stats = compute_stats(instance, outcome.schedule);
  if (want_trace) {
    record_stats(stats, &trace);
    if (trace_path.empty() || trace_path == "-" || trace_path == "true") {
      std::cout << trace.json() << '\n';
    } else {
      std::ofstream trace_file(trace_path);
      if (!trace_file) {
        std::cerr << "cannot open " << trace_path << " for writing\n";
        return 2;
      }
      trace_file << trace.json() << '\n';
    }
  }
  if (!args.get_bool("quiet", false)) {
    std::cout << "algorithm        : " << algo << '\n'
              << "jobs             : " << instance.size() << '\n'
              << "calibrations     : " << stats.calibrations;
    if (instance.is_unit_model()) {
      // The load/coloring bound assumes unit-length calibrations; it is
      // meaningless (and possibly above the optimum) under a type table.
      std::cout << "  (lower bound " << calibration_lower_bound(instance)
                << ")\n";
    } else {
      std::cout << '\n'
                << "total cost       : " << outcome.schedule.total_cost()
                << '\n';
    }
    std::cout << "machines used    : " << stats.machines_used << '\n'
              << "speed            : " << outcome.schedule.speed << '\n'
              << "utilization      : " << format_double(stats.utilization, 3)
              << '\n'
              << "verified         : ok\n";
  }
  if (args.get_bool("gantt", false)) {
    std::cout << '\n' << render_schedule(instance, outcome.schedule);
  }
  const std::string save_path = args.get("save-schedule", "");
  if (!save_path.empty()) {
    std::ofstream out(save_path);
    if (!out) {
      std::cerr << "cannot open " << save_path << " for writing\n";
      return 2;
    }
    write_schedule(out, outcome.schedule);
    std::cout << "schedule saved to " << save_path << '\n';
  }
  if (args.get_bool("csv", false)) {
    Table csv({"kind", "machine", "start", "length"});
    for (const Calibration& cal : outcome.schedule.calibrations) {
      csv.row()
          .cell("calibration")
          .cell(std::int64_t{cal.machine})
          .cell(cal.start)
          .cell(outcome.schedule.available_end_ticks(cal) -
                outcome.schedule.available_start_ticks(cal));
    }
    for (const ScheduledJob& sj : outcome.schedule.jobs) {
      csv.row()
          .cell("job" + std::to_string(sj.job))
          .cell(std::int64_t{sj.machine})
          .cell(sj.start)
          .cell(outcome.schedule.job_duration_ticks(
              instance.job_by_id(sj.job).proc));
    }
    std::cout << '\n';
    csv.print_csv(std::cout);
  }
  for (const std::string& flag : args.unused()) {
    std::cerr << "warning: unused flag --" << flag << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flag errors (malformed values, bare '--') are user errors, not crashes:
  // CliArgs accessors throw std::invalid_argument naming the flag and value.
  try {
    return run_cli(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
