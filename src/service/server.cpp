#include "service/server.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

namespace calisched {

namespace {

bool is_blank(std::string_view line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

JsonValue make_stats_response(const JsonValue& id, const ServiceStats& stats,
                              std::int64_t lines, std::int64_t malformed) {
  JsonValue::Object body;
  body.emplace_back("requests", JsonValue(stats.received));
  body.emplace_back("accepted", JsonValue(stats.accepted));
  body.emplace_back("rejected", JsonValue(stats.rejected));
  body.emplace_back("errors", JsonValue(stats.errors));
  body.emplace_back("completed", JsonValue(stats.completed));
  body.emplace_back("outstanding", JsonValue(stats.outstanding));
  body.emplace_back("cache_hits", JsonValue(stats.cache_hits));
  body.emplace_back("cache_misses", JsonValue(stats.cache_misses));
  body.emplace_back("cache_size", JsonValue(stats.cache_size));
  body.emplace_back("paused", JsonValue(stats.paused));
  body.emplace_back("latency_p50_ns", JsonValue(stats.latency_p50_ns));
  body.emplace_back("latency_p95_ns", JsonValue(stats.latency_p95_ns));
  body.emplace_back("latency_p99_ns", JsonValue(stats.latency_p99_ns));
  body.emplace_back("latency_p999_ns", JsonValue(stats.latency_p999_ns));
  body.emplace_back("latency_samples", JsonValue(stats.latency_samples));
  body.emplace_back("lines", JsonValue(lines));
  body.emplace_back("malformed", JsonValue(malformed));
  JsonValue::Object object;
  object.emplace_back("id", id);
  object.emplace_back("type", JsonValue("stats"));
  object.emplace_back("stats", JsonValue(std::move(body)));
  return JsonValue(std::move(object));
}

// -------------------------------------------------------- ServeConnection --

ServeConnection::ServeConnection(SolveService& service,
                                 std::size_t max_line_bytes,
                                 std::function<void()> on_solve_ready)
    : service_(&service),
      on_solve_ready_(std::move(on_solve_ready)),
      framer_(max_line_bytes) {}

bool ServeConnection::feed(std::string_view bytes) {
  if (done_) return false;
  const auto result = framer_.feed(
      bytes, [this](std::string_view line) { return handle_line(line); });
  if (result == LineFramer::FeedResult::kOverflow) {
    // Unrecoverable framing: the terminator that would end the line may
    // never come. Answer once and stop reading.
    overflowed_ = true;
    push_text(dump_response(make_error_response(
        JsonValue(), "request line exceeds " +
                         std::to_string(framer_.max_line_bytes()) +
                         " bytes")));
    stop_reading();
  }
  return !done_;
}

void ServeConnection::finish() {
  if (!done_) {
    (void)framer_.finish(
        [this](std::string_view line) { return handle_line(line); });
    stop_reading();
  }
  service_->resume();
}

bool ServeConnection::handle_line(std::string_view line) {
  if (is_blank(line)) return true;
  ++lines_;
  const ParsedRequest parsed = parse_request(line);
  if (!parsed.ok) {
    ++malformed_;
    push_text(dump_response(make_error_response(parsed.id, parsed.error)));
    return true;
  }
  const ServiceRequest& request = parsed.request;
  switch (request.type) {
    case RequestType::kPing:
      push_text(dump_response(make_ack_response(parsed.id, "ping")));
      return true;
    case RequestType::kPause:
      service_->pause();
      push_text(dump_response(make_ack_response(parsed.id, "pause")));
      return true;
    case RequestType::kResume:
      service_->resume();
      push_text(dump_response(make_ack_response(parsed.id, "resume")));
      return true;
    case RequestType::kStats: {
      Slot slot;
      slot.kind = Slot::Kind::kStats;
      slot.id = parsed.id;
      slot.lines_seen = lines_;
      slot.malformed_seen = malformed_;
      push(std::move(slot));
      return true;
    }
    case RequestType::kShutdown:
      push_text(dump_response(make_ack_response(parsed.id, "shutdown")));
      shutdown_requested_ = true;
      stop_reading();
      return false;  // lines after shutdown are never consumed
    case RequestType::kSubscribe:
    case RequestType::kArrive:
    case RequestType::kFinalize:
      push_text(session_.handle(request));
      return true;
    case RequestType::kSolve: {
      Slot slot;
      slot.kind = Slot::Kind::kSolve;
      slot.pending = service_->submit(request);
      slot.id = parsed.id;
      slot.want_schedule = request.want_schedule;
      if (on_solve_ready_ && !slot.pending->ready()) {
        slot.pending->on_ready(on_solve_ready_);
      }
      push(std::move(slot));
      return true;
    }
  }
  return true;
}

void ServeConnection::push(Slot slot) {
  {
    std::scoped_lock lock(mutex_);
    slots_.push_back(std::move(slot));
  }
  slot_cv_.notify_one();
}

void ServeConnection::push_text(std::string text) {
  Slot slot;
  slot.text = std::move(text);
  push(std::move(slot));
}

void ServeConnection::stop_reading() {
  {
    std::scoped_lock lock(mutex_);
    done_ = true;
  }
  slot_cv_.notify_all();
}

bool ServeConnection::head_ready() const {
  std::scoped_lock lock(mutex_);
  return !slots_.empty() && slots_.front().ready();
}

void ServeConnection::render_ready(std::string& out, std::size_t limit) {
  while (out.size() <= limit) {
    Slot slot;
    {
      std::scoped_lock lock(mutex_);
      if (slots_.empty() || !slots_.front().ready()) return;
      slot = std::move(slots_.front());
      slots_.pop_front();
    }
    render(slot, out);
  }
}

bool ServeConnection::render_next(std::string& out) {
  Slot slot;
  {
    std::unique_lock lock(mutex_);
    slot_cv_.wait(lock, [this] { return done_ || !slots_.empty(); });
    if (slots_.empty()) return false;
    slot = std::move(slots_.front());
    slots_.pop_front();
  }
  render(slot, out);
  return true;
}

std::size_t ServeConnection::queued() const {
  std::scoped_lock lock(mutex_);
  return slots_.size();
}

void ServeConnection::render(const Slot& slot, std::string& out) const {
  switch (slot.kind) {
    case Slot::Kind::kText:
      out += slot.text;
      break;
    case Slot::Kind::kSolve: {
      const SolveOutcome& outcome = slot.pending->wait();
      out += outcome.rejected
                 ? dump_response(make_reject_response(slot.id, outcome.error))
                 : dump_response(make_result_response(slot.id, outcome,
                                                      slot.want_schedule));
      break;
    }
    case Slot::Kind::kStats:
      // Head of the FIFO: every earlier request has been answered.
      out += dump_response(make_stats_response(
          slot.id, service_->stats(), slot.lines_seen, slot.malformed_seen));
      break;
  }
  out += '\n';
}

// --------------------------------------------------------- stdio front end --

ServeReport serve_connection(SolveService& service, std::istream& in,
                             std::ostream& out) {
  ServeConnection connection(service);
  std::thread writer([&connection, &out] {
    std::string line;
    while (connection.render_next(line)) {
      out << line;
      out.flush();
      line.clear();
    }
  });

  // Block for the first byte only, then take whatever else the stream has
  // buffered: a client that waits for each response before sending the
  // next line must never leave the reader waiting for more.
  std::streambuf& buffer = *in.rdbuf();
  char chunk[65536];
  while (buffer.sgetc() != std::char_traits<char>::eof()) {
    const std::streamsize count = buffer.sgetn(
        chunk, std::clamp<std::streamsize>(buffer.in_avail(), 1, sizeof chunk));
    if (count <= 0 || !connection.feed(std::string_view(
                          chunk, static_cast<std::size_t>(count)))) {
      break;
    }
  }
  connection.finish();
  writer.join();
  return {connection.lines(), connection.malformed(),
          connection.shutdown_requested()};
}

int run_stdio_server(const AlgorithmRegistry& registry,
                     const ServiceOptions& options, std::istream& in,
                     std::ostream& out, ServeReport* report) {
  SolveService service(registry, options);
  const ServeReport seen = serve_connection(service, in, out);
  service.shutdown(/*drain=*/true);
  if (report != nullptr) *report = seen;
  return 0;
}

}  // namespace calisched
