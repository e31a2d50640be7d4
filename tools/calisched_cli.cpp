// calisched — command-line front end.
//
// Reads an instance (see src/core/instance.hpp for the text format), runs
// the chosen algorithm from the registry (AlgorithmRegistry::builtin(),
// which re-checks every result with the independent verifier), and prints
// a summary, an optional ASCII Gantt chart, and optional CSV.
//
// Usage:
//   calisched <instance-file> [--algo=NAME] [--gantt] [--csv] [--quiet]
//             [--node-budget=N] [--trace-json=FILE] [--save-schedule=FILE]
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
// (records report status "deadline-exceeded" when it fires). --algo takes
// the same registry names as the single-instance path.
//
// --trace-json=FILE writes the solve's full stage trace (per-stage spans,
// counters, LP/MM telemetry, schedule stats) as JSON; FILE of "-" means
// stdout.
//
// --node-budget=N caps the state count of every exact search (exact-ise,
// mm-exact, gap-min, exact-calib-cost, dp-calib-cost); exhaustion reports
// "limit-exceeded", never "infeasible" (mm-exact falls back to greedy
// instead). 0 keeps each solver's default.
//
// Algorithms (--algo), the registry's names; an unknown name lists them:
//   combined     Theorem 1 solver (default)
//   long         Theorem 12 long-window pipeline (requires all-long input)
//   long-speed   Theorem 14 (m machines, speed 36)
//   short        Theorem 20 short-window pipeline (requires all-short input)
//   greedy-lazy  lazy binning for non-unit jobs, cheapest hosting type
//                under a caltype table (no guarantee)
//   per-job      one calibration per job
//   saturate     always-calibrated grid baseline
//   bender-lazy  lazy binning (unit jobs only)
//   exact-ise    exact minimum calibrations (tiny instances only)
//   mm-greedy, mm-exact, mm-unit, mm-lp-rounding
//                machine-minimization black boxes (machines only)
//   gap-min      exact busy-block minimization (unit jobs, one machine)
//   exact-calib-cost   exact minimum cost under a caltype table (tiny)
//   dp-calib-cost      single-machine cost DP (exact, tiny)
//   online-edf   the online heuristic over the instance's arrival trace
// The MM boxes and gap-min produce no ISE schedule: they print their
// objective only, and --gantt, --csv and --save-schedule do not apply.
#include <fstream>
#include <iostream>
#include <optional>

#include "baselines/calibration_bounds.hpp"
#include "core/schedule_io.hpp"
#include "online/online.hpp"
#include "report/ascii_gantt.hpp"
#include "report/stats.hpp"
#include "runtime/batch.hpp"
#include "service/epoll_server.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace calisched;

/// The registry entry named `name`, or null after listing the registered
/// names on stderr (the single-instance path and solve-batch share this).
const Algorithm* find_algorithm(const std::string& name) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::builtin();
  const Algorithm* algorithm = registry.find(name);
  if (!algorithm) {
    std::cerr << "unknown algorithm '" << name << "'; registered:";
    for (const std::string& known : registry.names()) std::cerr << ' ' << known;
    std::cerr << '\n';
  }
  return algorithm;
}

/// Reads the instance file at `path`; false after saying why on stderr.
bool read_instance_file(const std::string& path, Instance* instance) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "cannot read " << path << '\n';
    return false;
  }
  try {
    *instance = read_instance(file);
  } catch (const std::exception& error) {
    std::cerr << path << ": " << error.what() << '\n';
    return false;
  }
  return true;
}

/// The generator flags --generate and solve-batch share. An unknown family
/// surfaces later, from generate_family_instance, as a flag error.
BatchSpec read_generator_flags(const CliArgs& args, const std::string& family) {
  BatchSpec spec;
  spec.family = family;
  spec.params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  spec.params.n = static_cast<int>(args.get_int("n", 12));
  spec.params.T = args.get_int("T", 10);
  spec.params.machines = static_cast<int>(args.get_int("machines", 2));
  spec.params.horizon = args.get_int("horizon", 10 * spec.params.T);
  spec.params.max_proc = args.get_int("max-proc", spec.params.T);
  spec.long_fraction = args.get_double("long-fraction", 0.5);
  spec.max_window = args.get_int("max-window", 0);
  spec.bursts = static_cast<int>(args.get_int("bursts", 0));
  spec.burst_span = args.get_int("burst-span", 0);
  spec.long_windows = args.get_bool("long-windows", false);
  return spec;
}

void warn_unused(const CliArgs& args) {
  for (const std::string& flag : args.unused()) {
    std::cerr << "warning: unused flag --" << flag << '\n';
  }
}

int generate_mode(const CliArgs& args) {
  const BatchSpec spec =
      read_generator_flags(args, args.get("generate", "mixed"));
  const Instance instance = generate_family_instance(spec, spec.params);
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
  warn_unused(args);
  return 0;
}

int solve_batch_mode(const CliArgs& args) {
  const std::string algo = args.get("algo", "combined");
  const Algorithm* algorithm = find_algorithm(algo);
  if (!algorithm) return 2;

  std::vector<Instance> instances;
  BatchOptions options;
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() > 1) {
    instances.resize(positional.size() - 1);
    for (std::size_t i = 1; i < positional.size(); ++i) {
      if (!read_instance_file(positional[i], &instances[i - 1])) return 2;
    }
  } else {
    BatchSpec spec = read_generator_flags(args, args.get("family", "mixed"));
    spec.count = static_cast<std::size_t>(args.get_int("count", 32));
    instances = generate_batch(spec, &options.seeds);
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
  warn_unused(args);
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
  warn_unused(args);

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
  Instance instance;
  if (!read_instance_file(positional[1], &instance)) return 2;
  const std::string algo = args.get("algo", "online-edf");
  const bool want_schedule = args.get_bool("schedule", false);
  warn_unused(args);

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

int solve_mode(const CliArgs& args) {
  Instance instance;
  if (!read_instance_file(args.positional()[0], &instance)) return 2;
  const std::string algo = args.get("algo", "combined");
  const Algorithm* algorithm = find_algorithm(algo);
  if (!algorithm) return 2;
  RunLimits limits;
  limits.node_budget = args.get_int("node-budget", 0);

  // A bare --trace-json (parsed as "true") and "-" both mean stdout.
  const bool want_trace = args.has("trace-json");
  const std::string trace_path = args.get("trace-json", "");
  TraceContext trace(algo == "combined" ? "solve_ise" : algo);
  trace.note("algorithm", algo);
  TraceSpan solve_span(&trace, "solve");
  const RunResult result =
      algorithm->run(instance, limits, want_trace ? &trace : nullptr);
  solve_span.stop();
  if (!result.feasible) {
    std::cerr << result.error << '\n';
    return 1;
  }
  const Schedule& schedule = result.schedule;
  // The MM boxes and gap-min report an objective, not an ISE schedule.
  std::optional<ScheduleStats> stats;
  if (algorithm->capabilities().produces_ise_schedule) {
    stats = compute_stats(instance, schedule);
  }

  if (want_trace) {
    if (stats) record_stats(*stats, &trace);
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
              << "jobs             : " << instance.size() << '\n';
    if (!stats) {
      if (result.calibrations > 0) {
        std::cout << "calibrations     : " << result.calibrations << '\n';
      }
      std::cout << "machines         : " << result.machines << '\n';
    } else {
      std::cout << "calibrations     : " << stats->calibrations;
      if (instance.is_unit_model()) {
        // The load/coloring bound assumes unit-length calibrations; it is
        // meaningless (and possibly above the optimum) under a type table.
        std::cout << "  (lower bound " << calibration_lower_bound(instance)
                  << ")\n";
      } else {
        std::cout << '\n'
                  << "total cost       : " << schedule.total_cost() << '\n';
      }
      std::cout << "machines used    : " << stats->machines_used << '\n'
                << "speed            : " << schedule.speed << '\n'
                << "utilization      : "
                << format_double(stats->utilization, 3) << '\n';
    }
    std::cout << "verified         : ok\n";
  }
  if (!stats) {  // nothing to draw, save or tabulate
    warn_unused(args);
    return 0;
  }
  if (args.get_bool("gantt", false)) {
    std::cout << '\n' << render_schedule(instance, schedule);
  }
  const std::string save_path = args.get("save-schedule", "");
  if (!save_path.empty()) {
    std::ofstream out(save_path);
    if (!out) {
      std::cerr << "cannot open " << save_path << " for writing\n";
      return 2;
    }
    write_schedule(out, schedule);
    std::cout << "schedule saved to " << save_path << '\n';
  }
  if (args.get_bool("csv", false)) {
    Table csv({"kind", "machine", "start", "length"});
    for (const Calibration& cal : schedule.calibrations) {
      csv.row()
          .cell("calibration")
          .cell(std::int64_t{cal.machine})
          .cell(cal.start)
          .cell(schedule.available_end_ticks(cal) -
                schedule.available_start_ticks(cal));
    }
    for (const ScheduledJob& sj : schedule.jobs) {
      csv.row()
          .cell("job" + std::to_string(sj.job))
          .cell(std::int64_t{sj.machine})
          .cell(sj.start)
          .cell(schedule.job_duration_ticks(instance.job_by_id(sj.job).proc));
    }
    std::cout << '\n';
    csv.print_csv(std::cout);
  }
  warn_unused(args);
  return 0;
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
  return solve_mode(args);
}

}  // namespace

int main(int argc, char** argv) {
  // Flag errors (malformed values, bare '--', an unknown generator family)
  // are user errors, not crashes: CliArgs accessors and
  // generate_family_instance throw std::invalid_argument naming the value.
  try {
    return run_cli(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
