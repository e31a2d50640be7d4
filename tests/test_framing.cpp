// Tests for the nonblocking serve path (src/service/): incremental NDJSON
// line framing, the sharded LRU result cache, and the epoll event-loop
// front end.
//
// The framing contracts pinned here:
//   * a request split across arbitrary read boundaries — one byte per
//     feed included — reassembles into exactly the getline lines;
//   * many requests arriving in one read all come out, in order;
//   * an oversized line is rejected deterministically, however the reads
//     were segmented, terminated or not;
//   * a final unterminated line at EOF is still a line (getline parity).
//
// The epoll contracts mirror tests/test_service.cpp's stdio/TCP suite:
// one response line per request, in request order, byte-identical to the
// stdio front end for the same script at any worker-thread count.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gen/generators.hpp"
#include "service/epoll_server.hpp"
#include "service/framing.hpp"
#include "service/instance_hash.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/sharded_cache.hpp"

namespace calisched {
namespace {

// ------------------------------------------------------------- LineFramer --

std::vector<std::string> collect(LineFramer& framer, std::string_view data,
                                 LineFramer::FeedResult* result = nullptr) {
  std::vector<std::string> lines;
  const auto outcome = framer.feed(data, [&lines](std::string_view line) {
    lines.emplace_back(line);
    return true;
  });
  if (result != nullptr) *result = outcome;
  return lines;
}

TEST(LineFramer, MultipleLinesInOneFeed) {
  LineFramer framer(1024);
  const auto lines = collect(framer, "alpha\nbeta\n\ngamma\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "alpha");
  EXPECT_EQ(lines[1], "beta");
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(lines[3], "gamma");
  EXPECT_EQ(framer.buffered(), 0u);
  EXPECT_EQ(framer.lines_delivered(), 4);
}

TEST(LineFramer, ReassemblesAcrossEveryChunkSize) {
  // The same stream split at every granularity must produce the same
  // lines — this is the property the server relies on, since the kernel
  // chooses the read boundaries.
  const std::string stream = "first line\nsecond\nthird one here\nlast\n";
  std::vector<std::string> expected;
  {
    LineFramer whole(1024);
    expected = collect(whole, stream);
  }
  ASSERT_EQ(expected.size(), 4u);
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    LineFramer framer(1024);
    std::vector<std::string> lines;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      framer.feed(std::string_view(stream).substr(at, chunk),
                  [&lines](std::string_view line) {
                    lines.emplace_back(line);
                    return true;
                  });
    }
    EXPECT_EQ(lines, expected) << "chunk size " << chunk;
  }
}

TEST(LineFramer, StripsCarriageReturnLikeBlankFilter) {
  LineFramer framer(1024);
  const auto lines = collect(framer, "ping\r\npong\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "ping");
  EXPECT_EQ(lines[1], "pong");
}

TEST(LineFramer, FinishDeliversTrailingPartialLine) {
  LineFramer framer(1024);
  auto lines = collect(framer, "complete\ntail without newline");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(framer.buffered(), std::string("tail without newline").size());
  std::string tail;
  framer.finish([&tail](std::string_view line) {
    tail = std::string(line);
    return true;
  });
  EXPECT_EQ(tail, "tail without newline");
  EXPECT_EQ(framer.buffered(), 0u);
  // Idempotent: a second finish delivers nothing.
  framer.finish([](std::string_view) {
    ADD_FAILURE() << "finish delivered twice";
    return true;
  });
}

TEST(LineFramer, OversizedLineOverflowsRegardlessOfSegmentation) {
  const std::string giant(100, 'x');
  // Unterminated, one feed.
  {
    LineFramer framer(64);
    LineFramer::FeedResult result;
    collect(framer, giant, &result);
    EXPECT_EQ(result, LineFramer::FeedResult::kOverflow);
  }
  // Unterminated, fed byte-by-byte: overflow fires once the buffered
  // prefix passes the limit, long before any newline could arrive.
  {
    LineFramer framer(64);
    bool overflowed = false;
    for (const char character : giant) {
      LineFramer::FeedResult result;
      collect(framer, std::string_view(&character, 1), &result);
      if (result == LineFramer::FeedResult::kOverflow) {
        overflowed = true;
        break;
      }
    }
    EXPECT_TRUE(overflowed);
  }
  // Terminated in the same feed: still rejected — segmentation must not
  // decide whether a 100-byte line passes a 64-byte limit.
  {
    LineFramer framer(64);
    LineFramer::FeedResult result;
    const auto lines = collect(framer, giant + "\nafter\n", &result);
    EXPECT_EQ(result, LineFramer::FeedResult::kOverflow);
    EXPECT_TRUE(lines.empty());
  }
  // At EOF.
  {
    LineFramer framer(64);
    collect(framer, std::string(60, 'y'));
    EXPECT_EQ(framer.finish([](std::string_view) { return true; }),
              LineFramer::FeedResult::kOk);
    LineFramer other(64);
    // finish() on a buffer below the limit is fine; the feed-side cap
    // already rejected anything above it, so just pin the boundary.
    collect(other, std::string(64, 'y'));
    EXPECT_EQ(other.finish([](std::string_view) { return true; }),
              LineFramer::FeedResult::kOk);
  }
  // Exactly at the limit (terminator excluded): allowed.
  {
    LineFramer framer(64);
    LineFramer::FeedResult result;
    const auto lines = collect(framer, std::string(64, 'z') + "\n", &result);
    EXPECT_EQ(result, LineFramer::FeedResult::kOk);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].size(), 64u);
  }
}

TEST(LineFramer, SinkFalseStopsDeliveryAndDropsRemainder) {
  // The server's shutdown semantics: lines buffered after the stopping
  // line are never consumed (parity with the stdio reader, which stops
  // calling getline).
  LineFramer framer(1024);
  std::vector<std::string> lines;
  framer.feed("one\nstop\nnever\n", [&lines](std::string_view line) {
    lines.emplace_back(line);
    return line != "stop";
  });
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "stop");
  EXPECT_EQ(framer.buffered(), 0u);
}

// ---------------------------------------------------------- ShardedCache --

TEST(ShardedCache, SingleShardKeepsLegacyEvictionOrder) {
  // shards=1 must behave exactly like the bare LruCache: one recency
  // list, capacity-wide eviction.
  ShardedLruCache<int, std::string> cache(2, 1);
  cache.put(1, 1, "a");
  cache.put(2, 2, "b");
  cache.put(3, 3, "c");  // evicts 1
  std::string value;
  EXPECT_FALSE(cache.get(1, 1, &value));
  ASSERT_TRUE(cache.get(2, 2, &value));
  EXPECT_EQ(value, "b");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedCache, RoutesOnHighHashBits) {
  // The shard index comes from the hash's top bits: distinct high
  // prefixes spread across shards (2 entries per shard here, well under
  // the per-shard budget of 4), so nothing evicts.
  ShardedLruCache<int, int> cache(16, 4);
  for (int i = 0; i < 8; ++i) {
    cache.put(static_cast<std::uint64_t>(i) << 48, i, i * 10);
  }
  for (int i = 0; i < 8; ++i) {
    int value = -1;
    ASSERT_TRUE(cache.get(static_cast<std::uint64_t>(i) << 48, i, &value));
    EXPECT_EQ(value, i * 10);
  }
  EXPECT_EQ(cache.size(), 8u);
}

TEST(ShardedCache, CapacitySplitsAcrossShards) {
  // Total capacity 8 over 4 shards = 2 per shard: a shard overflows
  // independently of its siblings.
  ShardedLruCache<int, int> cache(8, 4);
  // Three entries routed to one shard (same high bits) overflow it...
  const std::uint64_t shard_hash = 0x0001'0000'0000'0000ull;
  cache.put(shard_hash, 1, 1);
  cache.put(shard_hash, 2, 2);
  cache.put(shard_hash, 3, 3);
  int value = 0;
  EXPECT_FALSE(cache.get(shard_hash, 1, &value));  // evicted within shard
  EXPECT_TRUE(cache.get(shard_hash, 2, &value));
  EXPECT_TRUE(cache.get(shard_hash, 3, &value));
  // ...while other shards are untouched.
  cache.put(0x0002'0000'0000'0000ull, 9, 9);
  EXPECT_TRUE(cache.get(0x0002'0000'0000'0000ull, 9, &value));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ShardedCache, DistinctKeysWithEqualHashCoexist) {
  // The hash only routes; the key decides identity (the service keys on
  // algorithm + hash + budget, so equal instance hashes collide here).
  ShardedLruCache<std::string, int> cache(8, 4);
  cache.put(42, "combined#x", 1);
  cache.put(42, "per-job#x", 2);
  int value = 0;
  ASSERT_TRUE(cache.get(42, "combined#x", &value));
  EXPECT_EQ(value, 1);
  ASSERT_TRUE(cache.get(42, "per-job#x", &value));
  EXPECT_EQ(value, 2);
}

// ------------------------------------------------------------ epoll serve --

GenParams small_params(std::uint64_t seed, int n = 10) {
  GenParams params;
  params.seed = seed;
  params.n = n;
  params.T = 8;
  params.machines = 2;
  params.horizon = 80;
  params.max_proc = 7;
  return params;
}

std::string solve_line(const Instance& instance, int id,
                       const std::string& algorithm = "combined") {
  JsonValue::Object request;
  request.emplace_back("type", JsonValue("solve"));
  request.emplace_back("id", JsonValue(std::int64_t{id}));
  request.emplace_back("algo", JsonValue(algorithm));
  request.emplace_back("instance", instance_to_json(instance));
  return JsonValue(std::move(request)).dump(0) + "\n";
}

class TcpClient {
 public:
  explicit TcpClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                           sizeof address) == 0;
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  void send(std::string_view text) {
    const char* data = text.data();
    std::size_t remaining = text.size();
    while (remaining > 0) {
      const ssize_t written = ::write(fd_, data, remaining);
      ASSERT_GT(written, 0);
      data += written;
      remaining -= static_cast<std::size_t>(written);
    }
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// Hard abort: SO_LINGER(0) turns close() into an RST, the way a
  /// crashed or killed client looks to the server.
  void abort_close() {
    const linger opt{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &opt, sizeof opt);
    ::close(fd_);
    fd_ = -1;
  }

  /// Reads until `lines` newline-terminated responses arrived (or EOF).
  [[nodiscard]] std::vector<std::string> read_lines(std::size_t lines) {
    std::vector<std::string> result;
    std::string current;
    char buffer[4096];
    while (result.size() < lines) {
      const ssize_t count = ::read(fd_, buffer, sizeof buffer);
      if (count <= 0) break;
      for (ssize_t i = 0; i < count; ++i) {
        if (buffer[i] == '\n') {
          result.push_back(current);
          current.clear();
        } else {
          current.push_back(buffer[i]);
        }
      }
    }
    return result;
  }

  /// Reads everything until the server closes the connection.
  [[nodiscard]] std::string read_all() {
    std::string all;
    char buffer[4096];
    for (;;) {
      const ssize_t count = ::read(fd_, buffer, sizeof buffer);
      if (count <= 0) break;
      all.append(buffer, static_cast<std::size_t>(count));
    }
    return all;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// One epoll server conversation: sends `input` in `chunk`-byte pieces,
/// half-closes, and returns the full response stream.
std::string epoll_script(const std::string& input, std::size_t threads,
                         std::size_t io_threads = 1, std::size_t chunk = 0) {
  ServiceOptions options;
  options.threads = threads;
  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServerOptions server_options;
  server_options.io_threads = io_threads;
  EpollServer server(service, server_options);
  const int port = server.start();
  EXPECT_GT(port, 0);
  std::string output;
  {
    TcpClient client(port);
    EXPECT_TRUE(client.connected());
    if (chunk == 0) {
      client.send(input);
    } else {
      for (std::size_t at = 0; at < input.size(); at += chunk) {
        client.send(std::string_view(input).substr(at, chunk));
      }
    }
    client.half_close();
    output = client.read_all();
  }
  server.stop();
  server.serve();
  service.shutdown(/*drain=*/true);
  return output;
}

std::string stdio_script(const std::string& input, std::size_t threads) {
  ServiceOptions options;
  options.threads = threads;
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(
      run_stdio_server(AlgorithmRegistry::builtin(), options, in, out, nullptr),
      0);
  return out.str();
}

std::string mixed_script(int* request_count = nullptr) {
  std::string input;
  int id = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    input += solve_line(generate_mixed(small_params(seed), 0.5), id++);
  }
  input += "{\"id\":100,\"type\":\"ping\"}\n";
  ++id;
  input += "not json\n";
  ++id;
  input += solve_line(generate_mixed(small_params(1), 0.5), id++);  // duplicate
  input += solve_line(generate_mixed(small_params(9), 0.5), id++, "nope");
  // No stats line here: a stats response embeds latency percentiles
  // (wall-clock), which would break byte-for-byte comparison.
  if (request_count != nullptr) *request_count = id;
  return input;
}

TEST(ServeEpoll, ByteIdenticalToStdioFrontEnd) {
  // The cross-front-end contract: one script, same bytes out of the epoll
  // TCP path and the stdio path, at any worker-thread count and any read
  // segmentation.
  int requests = 0;
  const std::string input = mixed_script(&requests);
  const std::string reference = stdio_script(input, 1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(static_cast<int>(
                std::count(reference.begin(), reference.end(), '\n')),
            requests);
  EXPECT_EQ(reference, stdio_script(input, 4));
  EXPECT_EQ(reference, epoll_script(input, 1));
  EXPECT_EQ(reference, epoll_script(input, 4));
  EXPECT_EQ(reference, epoll_script(input, 4, /*io_threads=*/2));
}

TEST(ServeEpoll, RequestsSplitAcrossArbitraryReadBoundaries) {
  // Tiny chunks force every request to straddle many reads; 1-byte chunks
  // are the worst case. The response stream must not change.
  const std::string input = "{\"id\":1,\"type\":\"ping\"}\n" +
                            solve_line(generate_mixed(small_params(3), 0.5), 2) +
                            "{\"id\":3,\"type\":\"ping\"}\n";
  const std::string reference = stdio_script(input, 1);
  EXPECT_EQ(reference, epoll_script(input, 1, 1, /*chunk=*/1));
  EXPECT_EQ(reference, epoll_script(input, 1, 1, /*chunk=*/7));
  EXPECT_EQ(reference, epoll_script(input, 1, 1, /*chunk=*/64));
}

TEST(ServeEpoll, ManyRequestsInOneWrite) {
  // The opposite extreme: one write carrying the whole pipeline of
  // requests; every line is answered, in order.
  std::string input;
  for (int i = 0; i < 50; ++i) {
    input += "{\"id\":" + std::to_string(i) + ",\"type\":\"ping\"}\n";
  }
  const std::string output = epoll_script(input, 2);
  std::istringstream stream(output);
  std::string line;
  int expected = 0;
  while (std::getline(stream, line)) {
    EXPECT_NE(line.find("{\"id\":" + std::to_string(expected) + ","),
              std::string::npos)
        << line;
    ++expected;
  }
  EXPECT_EQ(expected, 50);
}

TEST(ServeEpoll, OversizedLineGetsErrorAndClose) {
  // Both front ends: the ping is answered, the over-long line gets one
  // error, and nothing after it is read.
  const auto expect_ping_then_error = [](const std::string& output) {
    std::istringstream stream(output);
    std::vector<std::string> lines;
    for (std::string line; std::getline(stream, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u) << output.substr(0, 512);
    EXPECT_NE(lines[0].find("\"op\":\"ping\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"error\""), std::string::npos);
    EXPECT_NE(lines[1].find("exceeds"), std::string::npos);
  };
  const std::string ping = "{\"id\":1,\"type\":\"ping\"}\n";
  const std::string later = "{\"id\":3,\"type\":\"ping\"}\n";

  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServerOptions server_options;
  server_options.max_line_bytes = 256;
  EpollServer server(service, server_options);
  const int port = server.start();
  {
    TcpClient client(port);
    ASSERT_TRUE(client.connected());
    client.send(ping);
    client.send(std::string(1024, 'x'));  // no newline needed to trip it
    expect_ping_then_error(client.read_all());  // server closes
  }
  server.stop();
  server.serve();
  EXPECT_EQ(server.totals().overflows, 1);
  service.shutdown(/*drain=*/true);

  // stdio has the fixed default bound; a terminated line one byte over it
  // is rejected and the ping behind it is never answered.
  ServeReport report;
  std::istringstream in(ping + std::string(kMaxRequestLineBytes + 1, 'x') +
                        "\n" + later);
  std::ostringstream out;
  ServiceOptions stdio_options;
  stdio_options.threads = 1;
  EXPECT_EQ(run_stdio_server(AlgorithmRegistry::builtin(), stdio_options, in,
                             out, &report),
            0);
  expect_ping_then_error(out.str());
  EXPECT_EQ(report.lines, 1);
}

TEST(ServeEpoll, StatsReportsTailPercentilesAndCacheHits) {
  const Instance instance = generate_mixed(small_params(40), 0.5);
  std::string input = solve_line(instance, 1);
  input += solve_line(instance, 2);  // duplicate: cache hit
  input += "{\"id\":3,\"type\":\"stats\"}\n";
  const std::string output = epoll_script(input, 1);
  EXPECT_NE(output.find("\"cache_hits\":1"), std::string::npos) << output;
  EXPECT_NE(output.find("\"latency_p99_ns\":"), std::string::npos) << output;
  EXPECT_NE(output.find("\"latency_p999_ns\":"), std::string::npos) << output;
}

TEST(ServeEpoll, ShutdownRequestStopsServerAndDropsLaterLines) {
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServer server(service);
  const int port = server.start();
  {
    TcpClient client(port);
    ASSERT_TRUE(client.connected());
    client.send("{\"id\":1,\"type\":\"ping\"}\n{\"id\":2,\"type\":\"shutdown\"}\n" +
                solve_line(generate_mixed(small_params(5), 0.5), 3));
    const std::string output = client.read_all();
    EXPECT_NE(output.find("\"op\":\"ping\""), std::string::npos);
    EXPECT_NE(output.find("\"op\":\"shutdown\""), std::string::npos);
    // The post-shutdown solve was never consumed: exactly two responses.
    EXPECT_EQ(std::count(output.begin(), output.end(), '\n'), 2);
  }
  server.serve();  // returns because the shutdown request stopped it
  const EpollServerTotals totals = server.totals();
  EXPECT_TRUE(totals.shutdown_requested);
  EXPECT_EQ(totals.lines, 2);
  service.shutdown(/*drain=*/true);
}

TEST(ServeEpoll, ConcurrentConnectionsAreIsolated) {
  ServiceOptions options;
  options.threads = 2;
  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServerOptions server_options;
  server_options.io_threads = 2;
  EpollServer server(service, server_options);
  const int port = server.start();
  {
    std::vector<std::unique_ptr<TcpClient>> clients;
    for (int i = 0; i < 8; ++i) {
      clients.push_back(std::make_unique<TcpClient>(port));
      ASSERT_TRUE(clients.back()->connected()) << i;
    }
    // Interleave sends; each connection's responses are still its own, in
    // its own order.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 8; ++i) {
        const int id = i * 10 + round;
        clients[static_cast<std::size_t>(i)]->send(
            "{\"id\":" + std::to_string(id) + ",\"type\":\"ping\"}\n");
      }
    }
    for (int i = 0; i < 8; ++i) {
      const auto lines = clients[static_cast<std::size_t>(i)]->read_lines(3);
      ASSERT_EQ(lines.size(), 3u) << i;
      for (int round = 0; round < 3; ++round) {
        const int id = i * 10 + round;
        EXPECT_NE(lines[static_cast<std::size_t>(round)].find(
                      "{\"id\":" + std::to_string(id) + ","),
                  std::string::npos)
            << lines[static_cast<std::size_t>(round)];
      }
    }
  }
  server.stop();
  server.serve();
  EXPECT_EQ(server.totals().connections, 8);
  EXPECT_EQ(server.totals().lines, 24);
  service.shutdown(/*drain=*/true);
}

TEST(ServeEpoll, AbandonedPauseDoesNotWedgeTheService) {
  // A client pauses, submits a solve, and vanishes; connection teardown
  // resumes the service (stdio-parity), so the next client's solve runs.
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServer server(service);
  const int port = server.start();
  {
    TcpClient rude(port);
    ASSERT_TRUE(rude.connected());
    rude.send("{\"id\":1,\"type\":\"pause\"}\n" +
              solve_line(generate_mixed(small_params(6), 0.5), 2));
    const auto ack = rude.read_lines(1);
    ASSERT_EQ(ack.size(), 1u);
    EXPECT_NE(ack[0].find("\"op\":\"pause\""), std::string::npos);
  }  // disconnects with the pause held and a solve queued
  {
    TcpClient polite(port);
    ASSERT_TRUE(polite.connected());
    polite.send(solve_line(generate_mixed(small_params(7), 0.5), 1));
    const auto lines = polite.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos)
        << lines[0];
  }
  server.stop();
  server.serve();
  service.shutdown(/*drain=*/true);
  EXPECT_FALSE(service.stats().paused);
}

TEST(ServeEpoll, WatermarkDeferredBurstDrainsWithoutFurtherInput) {
  // Regression: a pipelined burst whose responses exceed the
  // write-high-watermark must fully drain while the client just waits —
  // no further read and no solve completion will ever arrive to re-pump,
  // so the event loop itself has to keep serializing deferred slots as
  // the backlog flushes.
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServerOptions server_options;
  server_options.write_high_watermark = 256;  // far below the burst
  EpollServer server(service, server_options);
  const int port = server.start();
  {
    TcpClient client(port);
    ASSERT_TRUE(client.connected());
    std::string burst;
    for (int i = 0; i < 300; ++i) {
      burst += "{\"id\":" + std::to_string(i) + ",\"type\":\"ping\"}\n";
    }
    client.send(burst);
    // Deliberately no half_close: the connection stays open, exactly the
    // shape that used to strand everything past the first watermark.
    const auto lines = client.read_lines(300);
    ASSERT_EQ(lines.size(), 300u);
    for (int i = 0; i < 300; ++i) {
      EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                    "{\"id\":" + std::to_string(i) + ","),
                std::string::npos)
          << lines[static_cast<std::size_t>(i)];
    }
  }
  server.stop();
  server.serve();
  service.shutdown(/*drain=*/true);
}

TEST(ServeEpoll, SlotBackpressureKeepsPipelinedSolvesLive) {
  // A client pipelines solves behind a held pause: the slot bound stops
  // the server from buffering its requests without limit, and — the
  // liveness half — reading must resume as the queue drains, so every
  // response still arrives, in order, once another connection resumes.
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServerOptions server_options;
  server_options.max_queued_slots = 4;  // trip on a 20-deep pipeline
  EpollServer server(service, server_options);
  const int port = server.start();
  {
    TcpClient pipeliner(port);
    ASSERT_TRUE(pipeliner.connected());
    pipeliner.send("{\"id\":0,\"type\":\"pause\"}\n");
    const auto ack = pipeliner.read_lines(1);  // pause definitely held
    ASSERT_EQ(ack.size(), 1u);
    EXPECT_NE(ack[0].find("\"op\":\"pause\""), std::string::npos);
    std::string burst;
    for (int id = 1; id <= 20; ++id) {
      // Distinct seeds: a cache hit would complete even while paused.
      burst += solve_line(generate_mixed(small_params(100 + id), 0.5), id);
    }
    pipeliner.send(burst);
    pipeliner.half_close();
    TcpClient releaser(port);
    ASSERT_TRUE(releaser.connected());
    releaser.send("{\"id\":99,\"type\":\"resume\"}\n");
    const auto resumed = releaser.read_lines(1);
    ASSERT_EQ(resumed.size(), 1u);
    const auto lines = pipeliner.read_lines(20);
    ASSERT_EQ(lines.size(), 20u);
    for (int id = 1; id <= 20; ++id) {
      EXPECT_NE(lines[static_cast<std::size_t>(id - 1)].find(
                    "{\"id\":" + std::to_string(id) + ","),
                std::string::npos)
          << lines[static_cast<std::size_t>(id - 1)];
    }
  }
  server.stop();
  server.serve();
  service.shutdown(/*drain=*/true);
}

TEST(ServeEpoll, AbortiveCloseReleasesAnAbandonedPause) {
  // A client holding the pause dies with an RST instead of a clean EOF —
  // the EPOLLERR/EPOLLHUP teardown must release the pause just like the
  // EOF path does, or the whole service wedges.
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  EpollServer server(service);
  const int port = server.start();
  {
    TcpClient rude(port);
    ASSERT_TRUE(rude.connected());
    rude.send("{\"id\":1,\"type\":\"pause\"}\n");
    const auto ack = rude.read_lines(1);
    ASSERT_EQ(ack.size(), 1u);
    EXPECT_NE(ack[0].find("\"op\":\"pause\""), std::string::npos);
    rude.send(solve_line(generate_mixed(small_params(8), 0.5), 2));
    rude.abort_close();
  }
  {
    TcpClient polite(port);
    ASSERT_TRUE(polite.connected());
    polite.send(solve_line(generate_mixed(small_params(9), 0.5), 1));
    const auto lines = polite.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos) << lines[0];
  }
  server.stop();
  server.serve();
  service.shutdown(/*drain=*/true);
  EXPECT_FALSE(service.stats().paused);
}

// ----------------------------------------------- service p99/p999 surface --

TEST(SolveServiceLatency, TailPercentilesPopulateAfterCompletions) {
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  const Instance instance = generate_mixed(small_params(50), 0.5);
  ServiceRequest request;
  request.type = RequestType::kSolve;
  request.instance = instance;
  for (int i = 0; i < 5; ++i) (void)service.submit(request)->wait();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.latency_samples, 5);
  EXPECT_GT(stats.latency_p50_ns, 0);
  EXPECT_GE(stats.latency_p99_ns, stats.latency_p50_ns);
  EXPECT_GE(stats.latency_p999_ns, stats.latency_p99_ns);
}

TEST(SolveServiceLatency, CacheHitFastPathCompletesSynchronously) {
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  const Instance instance = generate_mixed(small_params(51), 0.5);
  ServiceRequest request;
  request.type = RequestType::kSolve;
  request.instance = instance;
  (void)service.submit(request)->wait();
  service.pause();  // a hit must not need a worker
  auto hit = service.submit(request);
  EXPECT_TRUE(hit->ready());
  EXPECT_TRUE(hit->wait().feasible);
  service.resume();
  EXPECT_EQ(service.stats().cache_hits, 1);
}

// ------------------------------------------------ subscribe over epoll --

TEST(EpollServe, SubscribeStreamMatchesStdioFrontEnd) {
  // A subscribe session is front-end agnostic: the exact bytes the stdio
  // server writes for a conversation — ack, per-arrival deltas, an
  // interleaved solve result, the finalize result — must come back over a
  // TCP connection to the epoll front end too. Sessions run synchronously
  // on the reader/loop thread, so thread counts must not matter either.
  std::string input;
  input += "{\"type\":\"subscribe\",\"id\":1,\"machines\":2,\"T\":10}\n";
  input += "{\"type\":\"arrive\",\"id\":2,\"time\":0,"
           "\"jobs\":[[1,0,6,3],[2,0,8,3]]}\n";
  input += "{\"type\":\"solve\",\"id\":3,\"algo\":\"combined\",\"instance\":"
           "{\"machines\":1,\"T\":4,\"jobs\":[[0,0,4,2]]}}\n";
  input += "{\"type\":\"arrive\",\"id\":4,\"time\":5,\"jobs\":[[3,5,15,2]]}\n";
  input += "{\"type\":\"finalize\",\"id\":5,\"schedule\":true}\n";
  const std::string stdio_output = stdio_script(input, 2);
  EXPECT_NE(stdio_output.find("\"type\":\"delta\""), std::string::npos)
      << stdio_output;
  EXPECT_EQ(stdio_output, epoll_script(input, 2));
  // Byte-for-byte stable when the input dribbles in 7-byte chunks and the
  // pools are sized differently.
  EXPECT_EQ(stdio_output, epoll_script(input, 4, 2, 7));
}

TEST(SolveServiceLatency, OnReadyHookFiresOnceFromCompletion) {
  ServiceOptions options;
  options.threads = 1;
  SolveService service(AlgorithmRegistry::builtin(), options);
  const Instance instance = generate_mixed(small_params(52), 0.5);
  ServiceRequest request;
  request.type = RequestType::kSolve;
  request.instance = instance;
  std::atomic<int> fired{0};
  auto pending = service.submit(request);
  pending->on_ready([&fired] { fired.fetch_add(1); });
  (void)pending->wait();
  service.shutdown(/*drain=*/true);
  EXPECT_EQ(fired.load(), 1);
  // Registering after completion fires immediately (the event loop races
  // completion all the time).
  std::atomic<int> late{0};
  pending->on_ready([&late] { late.fetch_add(1); });
  EXPECT_EQ(late.load(), 1);
}

}  // namespace
}  // namespace calisched
