// Front ends of the solve service: one per-connection engine
// (ServeConnection) driven by two thin front ends, the --stdio pipe mode
// below and the epoll TCP server (epoll_server.hpp).
//
// Ordering contract: responses are written in request-arrival order, one
// line each, regardless of the worker-thread count. The engine turns
// every non-blank request line into one slot of a FIFO — ready text, a
// pending solve, or a deferred stats snapshot — and a slot is rendered
// only when it reaches the head. Because solve responses carry no timing
// and no cache marker, a response stream is byte-identical for any
// `--threads` value and on either front end. A "stats" slot renders only
// after every earlier request has completed and been answered, so its
// counters are reproducible for sequential scripts.
//
// Control requests (pause/resume) take effect when the *reader* sees
// them — their acks are still emitted in order, but a paused service never
// deadlocks the writer, and the end of a connection's input always resumes
// the service so an abandoned pause cannot wedge it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>

#include "service/framing.hpp"
#include "service/service.hpp"
#include "service/subscribe.hpp"

namespace calisched {

/// Longest request line a front end accepts by default (terminator
/// excluded). A longer line gets one structured error and ends reading.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// One NDJSON conversation: frames the bytes read, dispatches each request
/// line, and queues its response slot. The reader side (feed/finish) and
/// the writer side (head_ready/render_ready/render_next) may run on two
/// threads; rendering touches only the slot it took off the FIFO and the
/// service, never the framer, the session or the counters.
class ServeConnection {
 public:
  /// `on_solve_ready`, when set, is registered as the completion hook of
  /// every solve that is still running when it is queued (an event loop
  /// uses it to come back and render). It runs on a worker thread.
  explicit ServeConnection(SolveService& service,
                           std::size_t max_line_bytes = kMaxRequestLineBytes,
                           std::function<void()> on_solve_ready = {});

  ServeConnection(const ServeConnection&) = delete;
  ServeConnection& operator=(const ServeConnection&) = delete;

  /// Queues one slot per complete non-blank line in `bytes`. Returns false
  /// once reading is done: after a "shutdown" request (later bytes are
  /// never consumed) or a line over the bound (answered with one error).
  [[nodiscard]] bool feed(std::string_view bytes);
  /// End of input: the trailing unterminated line, if any, is a line.
  /// Marks reading done and resumes the service, so an abandoned pause
  /// cannot leave queued solves waiting forever. Idempotent.
  void finish();

  /// True when the FIFO's head slot can render without blocking.
  [[nodiscard]] bool head_ready() const;
  /// Appends head responses, one line each, to `out` while the head is
  /// ready and `out` holds at most `limit` bytes. Never blocks.
  void render_ready(std::string& out, std::size_t limit);
  /// Waits for the next slot and for its solve, then appends its response
  /// line to `out`. Returns false once reading is done and the FIFO is
  /// empty.
  [[nodiscard]] bool render_next(std::string& out);

  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] bool reading_done() const noexcept { return done_; }
  [[nodiscard]] std::int64_t lines() const noexcept { return lines_; }
  [[nodiscard]] std::int64_t malformed() const noexcept { return malformed_; }
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_requested_;
  }
  [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }

 private:
  struct Slot {
    enum class Kind { kText, kSolve, kStats };
    Kind kind = Kind::kText;
    std::string text;
    SolveService::PendingPtr pending;
    JsonValue id;
    bool want_schedule = false;
    std::int64_t lines_seen = 0;  ///< kStats: counters at read time
    std::int64_t malformed_seen = 0;

    /// Renders without blocking: text and stats always, a solve once done.
    [[nodiscard]] bool ready() const {
      return kind != Kind::kSolve || pending->ready();
    }
  };

  bool handle_line(std::string_view line);
  void push(Slot slot);
  void push_text(std::string text);
  void stop_reading();
  void render(const Slot& slot, std::string& out) const;

  SolveService* service_;
  std::function<void()> on_solve_ready_;
  LineFramer framer_;
  /// At most one live subscribe session per connection, driven on the
  /// reader's thread, so its responses are ready text when queued.
  OnlineSession session_;
  std::int64_t lines_ = 0;
  std::int64_t malformed_ = 0;
  bool shutdown_requested_ = false;
  bool overflowed_ = false;

  /// Guards the FIFO and `done_` against the other side's thread.
  mutable std::mutex mutex_;
  std::condition_variable slot_cv_;
  std::deque<Slot> slots_;
  bool done_ = false;
};

/// What one stdio conversation saw; the CLI summary and the tests read this.
struct ServeReport {
  std::int64_t lines = 0;      ///< non-empty request lines consumed
  std::int64_t malformed = 0;  ///< lines answered with an "error" response
  bool shutdown_requested = false;
};

/// Runs one NDJSON conversation over the pair of streams until EOF, a
/// "shutdown" request, or a line over kMaxRequestLineBytes. The calling
/// thread reads; a writer thread renders each head slot as it completes,
/// so a client may wait for each response before sending the next line.
/// Leaves the service running; callers own shutdown().
ServeReport serve_connection(SolveService& service, std::istream& in,
                             std::ostream& out);

/// Renders the "stats" response: the full ServiceStats snapshot — latency
/// p50/p95/p99/p999 included — plus the per-connection lines/malformed
/// counters captured at read time.
JsonValue make_stats_response(const JsonValue& id, const ServiceStats& stats,
                              std::int64_t lines, std::int64_t malformed);

/// The `calisched serve --stdio` body: one service, one conversation on
/// (in, out), then a draining shutdown. Returns the process exit code.
int run_stdio_server(const AlgorithmRegistry& registry,
                     const ServiceOptions& options, std::istream& in,
                     std::ostream& out, ServeReport* report = nullptr);

}  // namespace calisched
