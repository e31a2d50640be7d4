// Experiment E19 — open-loop load on the epoll front end.
//
// Drives the in-process solve service through real loopback sockets with
// the open-loop generator (src/service/loadgen.hpp): a warm-up request
// populates the result cache, so every measured request is answered from
// the cache-hit fast path and the numbers isolate the *front end* —
// framing, ordering, socket I/O — from solver cost.
//
// Two parts:
//   * Flood capacity: rate-0 floods at 1 / 64 / 1024 connections against
//     the epoll server, best of `trials` runs per point (the generator
//     shares the host with the server, so single runs are noisy).
//     Throughput is the meaningful number; flood percentiles mostly
//     measure position in the flood, so they stay in the table.
//   * Paced tail latency: a Poisson arrival process well under capacity,
//     where scheduled-send-to-response percentiles are meaningful; p50/
//     p99/p999 are exported (advisory: wall-clock flavoured).
//
// Correctness gates ride along on every run: all requests answered, zero
// error responses, zero per-connection ordering violations, and the
// service-level hit/miss split (exactly one miss: the warm-up).
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "harness.hpp"
#include "runtime/registry.hpp"
#include "service/epoll_server.hpp"
#include "service/loadgen.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace {

using namespace calisched;

/// One small instance, identical on every request, so all post-warm-up
/// traffic hits the result cache (same payload as `loadgen --preset=solve`).
std::string solve_body() {
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

/// Correctness counters accumulated across every trial of every run; the
/// flood rows report the best trial, but a protocol error in any trial
/// still fails the bench.
struct Tally {
  std::int64_t errors = 0;
  std::int64_t order_violations = 0;
  bool completed = true;

  void absorb(const LoadGenReport& report) {
    errors += report.errors;
    order_violations += report.order_violations;
    completed = completed && report.completed && report.error.empty();
  }
};

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("E19", "open-loop load on the epoll front end", argc,
                     argv);
  const std::int64_t requests = bench.args().get_int("requests", 8000);
  const int trials = static_cast<int>(bench.args().get_int("trials", 2));
  const std::int64_t paced_requests =
      bench.args().get_int("paced-requests", 2000);
  const double paced_rate = bench.args().get_double("paced-rate", 2000.0);
  const std::string body = solve_body();
  Tally tally;

  // Best-of-`trials` flood against `port`; every trial's correctness
  // counters land in the tally.
  const auto best_flood = [&](int port, std::size_t connections) {
    LoadGenReport best;
    for (int trial = 0; trial < trials; ++trial) {
      LoadGenOptions load;
      load.port = port;
      load.connections = connections;
      load.requests = requests;
      load.rate = 0.0;
      load.body = body;
      load.timeout_ms = 120000;
      const LoadGenReport report = run_loadgen(load);
      tally.absorb(report);
      if (report.received_per_s > best.received_per_s) best = report;
    }
    return best;
  };
  const auto flood_row = [](Table& table, std::size_t connections,
                            const LoadGenReport& report) {
    table.row()
        .cell(static_cast<std::int64_t>(connections))
        .cell(report.sent)
        .cell(report.received)
        .cell(report.received_per_s, 0)
        .cell(static_cast<double>(report.latency_p50_ns) / 1e3, 0)
        .cell(static_cast<double>(report.latency_p99_ns) / 1e3, 0)
        .cell(static_cast<double>(report.latency_p999_ns) / 1e3, 0);
  };

  ServiceOptions options;
  options.threads = 2;
  options.queue_capacity = 256;
  options.cache_capacity = 128;
  options.cache_shards = 8;
  SolveService service(AlgorithmRegistry::builtin(), options);

  EpollServerOptions epoll_options;
  epoll_options.io_threads = 2;
  EpollServer epoll_server(service, epoll_options);
  const int epoll_port = epoll_server.start();

  // Warm-up: the single cache miss of the whole experiment. Everything
  // after this is served from the cache-hit fast path.
  {
    LoadGenOptions warm_options;
    warm_options.port = epoll_port;
    warm_options.connections = 1;
    warm_options.requests = 1;
    warm_options.body = body;
    const LoadGenReport warm = run_loadgen(warm_options);
    tally.absorb(warm);
    bench.check("warm-up solve completes",
                warm.completed && warm.errors == 0);
  }

  Table& floods = bench.table(
      "floods", {"conns", "requests", "received", "req/s", "p50-us",
                 "p99-us", "p999-us"});
  std::int64_t flood_received = 0;
  for (const std::size_t connections : {std::size_t{1}, std::size_t{64},
                                        std::size_t{1024}}) {
    const LoadGenReport report = best_flood(epoll_port, connections);
    flood_row(floods, connections, report);
    bench.metric("flood_c" + std::to_string(connections) + "_received_per_s",
                 report.received_per_s);
    flood_received += report.received;
  }
  bench.metric("flood_received_best_runs",
               static_cast<double>(flood_received));
  bench.print_table("floods", "rate-0 floods of " + std::to_string(requests) +
                                  " cache-hit solve requests, best of " +
                                  std::to_string(trials) + " runs");

  // Paced run: Poisson arrivals well under capacity, so the tail
  // percentiles measure service latency rather than flood position.
  LoadGenOptions paced;
  paced.port = epoll_port;
  paced.connections = 64;
  paced.requests = paced_requests;
  paced.rate = paced_rate;
  paced.pacing = LoadGenOptions::Pacing::kPoisson;
  paced.seed = 1;
  paced.body = body;
  const LoadGenReport paced_report = run_loadgen(paced);
  tally.absorb(paced_report);
  Table& tail = bench.table(
      "paced", {"rate-target", "requests", "received", "p50-us", "p99-us",
                "p999-us"});
  tail.row()
      .cell(paced_rate, 0)
      .cell(paced_report.sent)
      .cell(paced_report.received)
      .cell(static_cast<double>(paced_report.latency_p50_ns) / 1e3, 0)
      .cell(static_cast<double>(paced_report.latency_p99_ns) / 1e3, 0)
      .cell(static_cast<double>(paced_report.latency_p999_ns) / 1e3, 0);
  bench.print_table("paced", "Poisson-paced run at " +
                                 format_double(paced_rate, 0) +
                                 " req/s target, 64 connections");
  bench.metric("paced_received", static_cast<double>(paced_report.received));
  bench.metric("paced_latency_p50_ns",
               static_cast<double>(paced_report.latency_p50_ns));
  bench.metric("paced_latency_p99_ns",
               static_cast<double>(paced_report.latency_p99_ns));
  bench.metric("paced_latency_p999_ns",
               static_cast<double>(paced_report.latency_p999_ns));

  epoll_server.stop();
  epoll_server.serve();
  const ServiceStats stats = service.stats();
  service.shutdown(/*drain=*/true);

  // Correctness gates: counted, deterministic, baseline-stable.
  bench.metric("loadgen_errors", static_cast<double>(tally.errors));
  bench.metric("order_violations",
               static_cast<double>(tally.order_violations));
  bench.metric("service_cache_misses",
               static_cast<double>(stats.cache_misses));
  bench.check("every request of every run answered", tally.completed);
  bench.check("zero ordering violations across all runs",
              tally.order_violations == 0);
  bench.check("zero error responses across all runs", tally.errors == 0);
  bench.check("exactly one cache miss (the warm-up)",
              stats.cache_misses == 1);

  bench.note(
      "every measured request is the same small instance, so after the "
      "single warm-up miss the service answers from the sharded result "
      "cache and the run measures the front end alone. The epoll server "
      "(2 I/O threads) keeps per-connection state on one loop and batches "
      "responses into single write() calls. Flood percentiles measure "
      "position in the flood and stay in the table; the Poisson-paced run "
      "at " +
      format_double(paced_rate, 0) +
      " req/s is the one whose p50/p99/p999 mean service latency. Rates "
      "and latencies are advisory for the regression checker; the counted "
      "gates are completion, zero errors, zero ordering violations, and "
      "the exact hit/miss split.");
  return bench.finish();
}
