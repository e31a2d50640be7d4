// Nonblocking epoll front end of the solve service: the TCP side of the
// per-connection ServeConnection engine (server.hpp).
//
// A fixed small set of I/O threads each runs one level-triggered epoll
// loop; every accepted connection is owned by exactly one loop for its
// whole life, so connection state is never shared between threads — the
// only cross-thread traffic is a completed solve poking its loop's
// eventfd inbox.
//
// Per connection, the engine frames, dispatches and orders the requests
// (see server.hpp for the ordering contract); the loop keeps only socket
// I/O:
//   * reads drain into the engine, which queues one response slot per
//     request line;
//   * writes are batched: every slot that is ready at the head renders
//     into one output buffer flushed with as few write() calls as the
//     socket accepts (EPOLLOUT is registered only while a flush is
//     blocked);
//   * the write queue is bounded: past `write_high_watermark` buffered
//     bytes — or past `max_queued_slots` response slots queued behind an
//     incomplete solve, where no bytes serialize at all — the loop stops
//     reading from that connection (level-triggered readiness re-fires
//     once draining re-enables EPOLLIN), so a slow reader or a client
//     pipelining behind a slow solve throttles itself instead of growing
//     the server.
//
// Slots render only at the head and the output buffer is append-only and
// written in order, and TCP preserves byte order, so response order ==
// request order and a stream is byte-identical to the stdio front end's.
//
// A line exceeding `max_line_bytes` cannot be resynced (its terminator
// may never arrive): the connection gets one structured error response
// and is closed after the flush.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "service/server.hpp"
#include "service/service.hpp"

namespace calisched {

struct EpollServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
  int port = 0;
  /// listen() backlog; <= 0 means SOMAXCONN.
  int backlog = 0;
  /// Event-loop threads. Connections are assigned round-robin at accept.
  std::size_t io_threads = 1;
  /// Framing limit: one request line, terminator excluded.
  std::size_t max_line_bytes = kMaxRequestLineBytes;
  /// Stop reading from a connection while more than this many response
  /// bytes are queued for it (slow-reader backpressure).
  std::size_t write_high_watermark = 4u << 20;
  /// Stop reading from a connection while more than this many response
  /// slots are queued for it. The byte watermark cannot trip while the
  /// head slot is an incomplete solve (nothing serializes), so this
  /// bounds the slots themselves against a client pipelining requests
  /// behind one slow solve.
  std::size_t max_queued_slots = 4096;
};

/// Aggregate across all connections, for the CLI summary and the tests.
struct EpollServerTotals {
  std::int64_t connections = 0;  ///< accepted over the server's lifetime
  std::int64_t lines = 0;        ///< non-blank request lines consumed
  std::int64_t malformed = 0;    ///< lines answered with an "error"
  std::int64_t overflows = 0;    ///< connections dropped for oversized lines
  bool shutdown_requested = false;
};

class EpollServer {
 public:
  /// The service must outlive the server.
  EpollServer(SolveService& service, EpollServerOptions options = {});
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Binds 127.0.0.1, listens, and spawns the I/O threads; throws
  /// std::runtime_error on failure. Returns the bound port.
  int start();
  /// Blocks until stop() or a client "shutdown" request; all I/O threads
  /// are joined before returning.
  void serve();
  /// Unblocks serve() from any thread (including a loop thread handling
  /// a shutdown request). Idempotent.
  void stop();

  [[nodiscard]] int port() const noexcept;
  /// Totals so far; exact once serve() returned.
  [[nodiscard]] EpollServerTotals totals() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace calisched
