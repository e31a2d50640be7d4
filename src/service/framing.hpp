// Incremental NDJSON line framing for the serve front ends.
//
// Both front ends read whatever their source has — a socket for the epoll
// server, a stream buffer for --stdio — and need back the complete lines,
// however the bytes were split across reads: one request per read, half a
// request, twenty requests and a torn twenty-first. LineFramer owns that
// buffer and the scan state. Lines are handed out as string_views into the
// buffer (no per-line allocation, no istream); the consumed prefix is
// compacted once per feed, after the views die.
//
// Framing follows std::getline: '\n' terminates a line, and a final
// unterminated line at EOF is still a line. One trailing '\r' is stripped,
// so CRLF clients produce the same lines as LF clients.
//
// The one failure mode is a line that outgrows the limit — terminated or
// not (an unterminated one can never resync: the newline that would end
// the giant line may never come). feed() reports overflow and the
// connection answers with one structured error and stops reading.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace calisched {

class LineFramer {
 public:
  /// `max_line_bytes` caps one line (terminator excluded); a line longer
  /// than this makes feed()/finish() report overflow.
  explicit LineFramer(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  enum class FeedResult {
    kOk,        ///< all complete lines delivered; remainder buffered
    kOverflow,  ///< an unterminated line exceeded max_line_bytes
  };

  /// Appends `data` and invokes `sink(line)` for each newly completed
  /// line, in order. `sink` is any callable taking std::string_view; the
  /// view dies when feed() returns. If `sink` returns false, delivery
  /// stops and the remaining buffered bytes are dropped (the connection
  /// is done reading — shutdown or a fatal request). Returns kOverflow
  /// when the partial line exceeds the limit; buffered state is cleared
  /// and the framer must not be fed again.
  template <typename Sink>
  FeedResult feed(std::string_view data, Sink&& sink) {
    buffer_.append(data.data(), data.size());
    std::size_t start = 0;
    for (;;) {
      const std::size_t newline = buffer_.find('\n', std::max(start, scan_));
      if (newline == std::string::npos) break;
      std::string_view line(buffer_.data() + start, newline - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.size() > max_line_bytes_) {
        buffer_.clear();
        scan_ = 0;
        return FeedResult::kOverflow;
      }
      ++lines_;
      start = newline + 1;
      scan_ = start;
      if (!sink(line)) {
        buffer_.clear();
        scan_ = 0;
        return FeedResult::kOk;
      }
    }
    buffer_.erase(0, start);
    scan_ = buffer_.size();
    if (buffer_.size() > max_line_bytes_) {
      buffer_.clear();
      scan_ = 0;
      return FeedResult::kOverflow;
    }
    return FeedResult::kOk;
  }

  /// EOF: delivers the trailing partial line, if any, to `sink` (getline
  /// treats a final unterminated line as a line). Idempotent afterwards.
  template <typename Sink>
  FeedResult finish(Sink&& sink) {
    if (buffer_.empty()) return FeedResult::kOk;
    std::string_view line(buffer_);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() > max_line_bytes_) {
      buffer_.clear();
      scan_ = 0;
      return FeedResult::kOverflow;
    }
    ++lines_;
    sink(line);
    // Clear only after the sink ran: clear() terminates the (now empty)
    // string in place, which would stomp the view's first byte.
    buffer_.clear();
    scan_ = 0;
    return FeedResult::kOk;
  }

  [[nodiscard]] std::size_t max_line_bytes() const noexcept {
    return max_line_bytes_;
  }
  /// Bytes currently buffered (the torn tail of the last read).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size();
  }
  /// Complete lines delivered so far (blank ones included).
  [[nodiscard]] std::int64_t lines_delivered() const noexcept {
    return lines_;
  }

 private:
  std::size_t max_line_bytes_;
  std::string buffer_;
  /// Scan resume point: bytes before it are known newline-free, so a
  /// torn 1 MiB line is scanned once, not once per subsequent read.
  std::size_t scan_ = 0;
  std::int64_t lines_ = 0;
};

}  // namespace calisched
