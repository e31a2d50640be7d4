// loadgen — open-loop load generator for the calisched solve service.
//
// Drives N concurrent NDJSON connections against a serve front end at a
// target request rate (Poisson or fixed pacing; rate 0 floods) and
// reports sustained throughput, scheduled-send-to-response latency
// percentiles, and protocol correctness counters (per-connection response
// ordering, error/reject responses). See src/service/loadgen.hpp for the
// open-loop semantics.
//
// Usage:
//   loadgen --port=P [--connections=N] [--requests=N] [--rate=R]
//           [--pacing=fixed|poisson] [--seed=S] [--timeout-ms=N]
//           [--preset=ping|solve | --body=FRAGMENT] [--json]
//   loadgen --self-serve [--threads=N] [--io-threads=N]
//           [--queue-capacity=N] [--cache-capacity=N] [--cache-shards=N]
//           [...load flags as above]
//
// --self-serve starts the service plus the epoll front end in this
// process on an ephemeral port and runs the load against it — one
// hermetic command with no port scraping, which is how the CI smoke uses
// it. --preset=solve sends one small generated instance on every request
// (identical payloads: after the first completion, pure cache-hit
// traffic); --body overrides the request fragment wholesale (the JSON
// members after the injected "id"). The exit code is 0 iff every request
// was answered, in order, with no "error" responses.
#include <iostream>
#include <optional>
#include <string>

#include "gen/generators.hpp"
#include "runtime/registry.hpp"
#include "service/epoll_server.hpp"
#include "service/loadgen.hpp"
#include "service/protocol.hpp"
#include "util/cli.hpp"

namespace {

using namespace calisched;

std::string preset_body(const std::string& preset) {
  if (preset == "ping") return "\"type\":\"ping\"";
  if (preset == "solve") {
    GenParams params;
    params.seed = 7;
    params.n = 8;
    params.T = 6;
    params.machines = 2;
    params.horizon = 60;
    params.max_proc = params.T;
    const Instance instance = generate_mixed(params, 0.5);
    return "\"type\":\"solve\",\"algo\":\"greedy-lazy\",\"instance\":" +
           dump_response(instance_to_json(instance));
  }
  return "";
}

void print_report(const LoadGenReport& report, bool as_json) {
  if (as_json) {
    std::cout << "{\"sent\":" << report.sent
              << ",\"received\":" << report.received
              << ",\"errors\":" << report.errors
              << ",\"rejects\":" << report.rejects
              << ",\"order_violations\":" << report.order_violations
              << ",\"elapsed_s\":" << report.elapsed_s
              << ",\"received_per_s\":" << report.received_per_s
              << ",\"latency_p50_ns\":" << report.latency_p50_ns
              << ",\"latency_p99_ns\":" << report.latency_p99_ns
              << ",\"latency_p999_ns\":" << report.latency_p999_ns
              << ",\"latency_samples\":" << report.latency_samples
              << ",\"completed\":" << (report.completed ? "true" : "false")
              << "}\n";
    return;
  }
  std::cout << "sent             : " << report.sent << '\n'
            << "received         : " << report.received << '\n'
            << "errors           : " << report.errors << '\n'
            << "rejects          : " << report.rejects << '\n'
            << "order violations : " << report.order_violations << '\n'
            << "elapsed          : " << report.elapsed_s << " s\n"
            << "throughput       : " << report.received_per_s << " req/s\n"
            << "latency p50      : " << report.latency_p50_ns / 1000 << " us\n"
            << "latency p99      : " << report.latency_p99_ns / 1000 << " us\n"
            << "latency p999     : " << report.latency_p999_ns / 1000
            << " us\n";
}

int run(const CliArgs& args) {
  LoadGenOptions load;
  load.port = static_cast<int>(args.get_int("port", 0));
  load.connections = static_cast<std::size_t>(args.get_int("connections", 1));
  load.requests = args.get_int("requests", 1000);
  load.rate = args.get_double("rate", 0.0);
  const std::string pacing = args.get("pacing", "fixed");
  if (pacing == "poisson") {
    load.pacing = LoadGenOptions::Pacing::kPoisson;
  } else if (pacing != "fixed") {
    std::cerr << "unknown pacing '" << pacing << "' (fixed|poisson)\n";
    return 2;
  }
  load.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  load.timeout_ms = args.get_int("timeout-ms", 120000);
  const std::string preset = args.get("preset", "ping");
  load.body = args.get("body", preset_body(preset));
  if (load.body.empty()) {
    std::cerr << "unknown preset '" << preset << "' (ping|solve)\n";
    return 2;
  }
  const bool as_json = args.get_bool("json", false);
  const bool self_serve = args.get_bool("self-serve", false);
  if (!self_serve && load.port <= 0) {
    std::cerr << "loadgen needs --port=P or --self-serve\n";
    return 2;
  }

  // Every flag is read before the unused-flag check runs.
  ServiceOptions service_options;
  EpollServerOptions server_options;
  if (self_serve) {
    service_options.threads =
        static_cast<std::size_t>(args.get_int("threads", 1));
    service_options.queue_capacity =
        static_cast<std::size_t>(args.get_int("queue-capacity", 64));
    service_options.cache_capacity =
        static_cast<std::size_t>(args.get_int("cache-capacity", 128));
    service_options.cache_shards =
        static_cast<std::size_t>(args.get_int("cache-shards", 8));
    server_options.io_threads =
        static_cast<std::size_t>(args.get_int("io-threads", 1));
  }
  for (const std::string& flag : args.unused()) {
    std::cerr << "warning: unused flag --" << flag << '\n';
  }

  LoadGenReport report;
  if (self_serve) {
    SolveService service(AlgorithmRegistry::builtin(), service_options);
    EpollServer server(service, server_options);
    load.port = server.start();
    report = run_loadgen(load);
    server.stop();
    server.serve();
    service.shutdown(/*drain=*/true);
  } else {
    report = run_loadgen(load);
  }

  if (!report.error.empty()) {
    std::cerr << "loadgen: " << report.error << '\n';
    return 2;
  }
  print_report(report, as_json);
  const bool ok =
      report.completed && report.order_violations == 0 && report.errors == 0;
  if (!ok) {
    std::cerr << "loadgen: FAILED (completed=" << report.completed
              << ", order_violations=" << report.order_violations
              << ", errors=" << report.errors << ")\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
