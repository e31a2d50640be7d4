#include "service/epoll_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/server.hpp"

namespace calisched {

namespace {

/// epoll user-data tags below this are loop-internal; connections count up
/// from it. Tag 0 = listener, 1 = inbox eventfd.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kInboxTag = 1;
constexpr std::uint64_t kFirstConnectionTag = 2;

/// Cross-thread mailbox of one loop: completed-solve wakeups and newly
/// accepted connections land here; the eventfd makes epoll_wait return.
/// Held by shared_ptr so a solve completing after its loop died (server
/// torn down mid-solve with the service still draining) pokes a live
/// object or nothing.
struct Inbox {
  Inbox() : event_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~Inbox() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof one);
  }

  void post_ready(std::uint64_t connection) {
    {
      std::scoped_lock lock(mutex);
      ready.push_back(connection);
    }
    wake();
  }

  void post_connection(int fd) {
    {
      std::scoped_lock lock(mutex);
      accepted.push_back(fd);
    }
    wake();
  }

  void post_stop() {
    {
      std::scoped_lock lock(mutex);
      stop = true;
    }
    wake();
  }

  int event_fd;
  std::mutex mutex;
  std::vector<std::uint64_t> ready;
  std::vector<int> accepted;
  bool stop = false;
};

/// Socket state around one ServeConnection engine, owned and driven by one
/// loop thread for its whole life. The loop closes it once the engine's
/// reading is done and both its FIFO and the output buffer have drained.
struct Connection {
  Connection(int fd_in, std::uint64_t tag_in, SolveService& service,
             std::size_t max_line_bytes, std::function<void()> on_solve_ready)
      : fd(fd_in),
        tag(tag_in),
        engine(service, max_line_bytes, std::move(on_solve_ready)) {}

  int fd;
  std::uint64_t tag;
  ServeConnection engine;
  std::string out;
  std::size_t out_pos = 0;
  bool reading_disabled = false; ///< EPOLLIN dropped for backpressure
  bool want_write = false;       ///< EPOLLOUT currently registered
};

}  // namespace

// ------------------------------------------------------------------- Impl --

struct EpollServer::Impl {
  SolveService* service = nullptr;
  EpollServerOptions options;
  int listen_fd = -1;
  int bound_port = 0;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> next_loop{0};

  std::atomic<std::int64_t> total_connections{0};
  std::atomic<std::int64_t> total_lines{0};
  std::atomic<std::int64_t> total_malformed{0};
  std::atomic<std::int64_t> total_overflows{0};
  std::atomic<bool> shutdown_requested{false};

  struct Loop {
    Impl* impl = nullptr;
    std::size_t index = 0;
    int epoll_fd = -1;
    std::shared_ptr<Inbox> inbox;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
    std::uint64_t next_tag = kFirstConnectionTag;
    std::thread thread;

    void run();
    void accept_ready();
    void add_connection(int fd);
    void handle_io(std::uint64_t tag, std::uint32_t events);
    void handle_read(Connection& c);
    /// pump/flush return false when they destroyed the connection — the
    /// caller must not touch `c` afterwards.
    [[nodiscard]] bool pump(Connection& c);
    [[nodiscard]] bool flush(Connection& c);
    void update_interest(Connection& c);
    void destroy(Connection& c);
    void close_all();
  };
  std::vector<std::unique_ptr<Loop>> loops;

  void request_stop();
};

// ---------------------------------------------------------------- lifecycle

EpollServer::EpollServer(SolveService& service, EpollServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->service = &service;
  impl_->options = options;
}

EpollServer::~EpollServer() {
  stop();
  for (auto& loop : impl_->loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
}

int EpollServer::port() const noexcept { return impl_->bound_port; }

EpollServerTotals EpollServer::totals() const {
  EpollServerTotals totals;
  totals.connections = impl_->total_connections.load(std::memory_order_relaxed);
  totals.lines = impl_->total_lines.load(std::memory_order_relaxed);
  totals.malformed = impl_->total_malformed.load(std::memory_order_relaxed);
  totals.overflows = impl_->total_overflows.load(std::memory_order_relaxed);
  totals.shutdown_requested =
      impl_->shutdown_requested.load(std::memory_order_relaxed);
  return totals;
}

int EpollServer::start() {
  Impl& impl = *impl_;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<std::uint16_t>(impl.options.port));
  const int backlog =
      impl.options.backlog > 0 ? impl.options.backlog : SOMAXCONN;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot listen on 127.0.0.1:" +
                             std::to_string(impl.options.port));
  }
  socklen_t length = sizeof address;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length);
  impl.bound_port = ntohs(address.sin_port);
  impl.listen_fd = fd;

  const std::size_t threads =
      impl.options.io_threads == 0 ? 1 : impl.options.io_threads;
  impl.loops.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    auto loop = std::make_unique<Impl::Loop>();
    loop->impl = &impl;
    loop->index = i;
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->inbox = std::make_shared<Inbox>();
    if (loop->epoll_fd < 0 || loop->inbox->event_fd < 0) {
      throw std::runtime_error("epoll_create1/eventfd failed");
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = kInboxTag;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->inbox->event_fd, &event);
    if (i == 0) {
      event.events = EPOLLIN;
      event.data.u64 = kListenerTag;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, impl.listen_fd, &event);
    }
    impl.loops.push_back(std::move(loop));
  }
  for (auto& loop : impl.loops) {
    Impl::Loop* raw = loop.get();
    loop->thread = std::thread([raw] { raw->run(); });
  }
  return impl.bound_port;
}

void EpollServer::serve() {
  for (auto& loop : impl_->loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
}

void EpollServer::stop() { impl_->request_stop(); }

void EpollServer::Impl::request_stop() {
  if (stopping.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& loop : loops) loop->inbox->post_stop();
}

// -------------------------------------------------------------------- Loop

void EpollServer::Impl::Loop::run() {
  std::vector<epoll_event> events(128);
  for (;;) {
    const int count = ::epoll_wait(epoll_fd, events.data(),
                                   static_cast<int>(events.size()), -1);
    if (count < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool stop_now = false;
    for (int i = 0; i < count; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (tag == kListenerTag) {
        accept_ready();
      } else if (tag == kInboxTag) {
        std::uint64_t drained;
        while (::read(inbox->event_fd, &drained, sizeof drained) > 0) {
        }
        std::vector<std::uint64_t> ready;
        std::vector<int> accepted;
        {
          std::scoped_lock lock(inbox->mutex);
          ready.swap(inbox->ready);
          accepted.swap(inbox->accepted);
          stop_now = stop_now || inbox->stop;
        }
        for (const int fd : accepted) add_connection(fd);
        for (const std::uint64_t conn : ready) {
          const auto it = conns.find(conn);
          if (it != conns.end()) (void)pump(*it->second);
        }
      } else {
        handle_io(tag, mask);
      }
    }
    if (stop_now || impl->stopping.load(std::memory_order_acquire)) break;
  }
  close_all();
}

void EpollServer::Impl::Loop::accept_ready() {
  for (;;) {
    const int client = ::accept4(impl->listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or the listener is closing down
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    impl->total_connections.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target =
        impl->next_loop.fetch_add(1, std::memory_order_relaxed) %
        impl->loops.size();
    if (target == index) {
      add_connection(client);
    } else {
      impl->loops[target]->inbox->post_connection(client);
    }
  }
}

void EpollServer::Impl::Loop::add_connection(int fd) {
  const std::uint64_t tag = next_tag++;
  // Solve-completion hook: poke this loop's inbox. weak_ptr: the solve may
  // outlive the server (the service drains after teardown).
  std::weak_ptr<Inbox> weak = inbox;
  auto connection = std::make_unique<Connection>(
      fd, tag, *impl->service, impl->options.max_line_bytes, [weak, tag] {
        if (const std::shared_ptr<Inbox> box = weak.lock()) {
          box->post_ready(tag);
        }
      });
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = tag;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
    ::close(fd);
    return;
  }
  conns.emplace(tag, std::move(connection));
}

void EpollServer::Impl::Loop::handle_io(std::uint64_t tag,
                                        std::uint32_t events) {
  const auto it = conns.find(tag);
  if (it == conns.end()) return;
  Connection& c = *it->second;
  // EPOLLHUP/EPOLLERR are reported regardless of the interest mask. Once
  // reading has stopped (EOF seen, or backpressure with nothing currently
  // flushable) no read() will ever consume the hangup, so leaving it
  // unhandled makes epoll_wait return immediately in a busy loop until
  // the last pending solve lands. A hung-up peer can never receive the
  // queued responses anyway — tear the connection down.
  if ((events & EPOLLERR) != 0 ||
      ((events & EPOLLHUP) != 0 &&
       (c.engine.reading_done() || c.reading_disabled))) {
    destroy(c);
    return;
  }
  // EPOLLHUP still delivers through read(): drain whatever the peer sent
  // before it closed, then the 0-byte read runs the EOF path.
  if ((events & (EPOLLIN | EPOLLHUP)) != 0 && !c.reading_disabled &&
      !c.engine.reading_done()) {
    handle_read(c);
    if (conns.find(tag) == conns.end()) return;  // destroyed during read
  }
  if ((events & EPOLLOUT) != 0) {
    // pump, not flush: draining the backlog may release slots that pump()
    // deferred at the write-high-watermark, and no further read or
    // solve-completion wakeup need ever arrive to serialize them.
    (void)pump(c);
  }
}

void EpollServer::Impl::Loop::handle_read(Connection& c) {
  char buffer[65536];
  bool eof = false;
  while (!c.engine.reading_done()) {
    const ssize_t count = ::read(c.fd, buffer, sizeof buffer);
    if (count > 0) {
      // false: a shutdown request or an over-long line ended reading.
      if (!c.engine.feed(
              std::string_view(buffer, static_cast<std::size_t>(count)))) {
        break;
      }
      // Serialize (and usually flush) what this chunk produced before
      // reading more; a slow reader then trips the byte watermark below,
      // and a client pipelining behind an incomplete solve (no bytes
      // serialize, so the byte watermark never trips) trips the slot
      // bound. Either way reading stops until the backlog drains.
      if (!pump(c)) return;
      if (c.out.size() - c.out_pos > impl->options.write_high_watermark ||
          c.engine.queued() > impl->options.max_queued_slots) {
        c.reading_disabled = true;
        update_interest(c);
        return;
      }
      continue;
    }
    if (count == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    destroy(c);
    return;
  }
  if (eof) c.engine.finish();
  // A done-reading connection must drop EPOLLIN, or level-triggered
  // readiness (EOF is "readable" forever) spins until the last pending
  // solve lands.
  if (c.engine.reading_done()) update_interest(c);
  (void)pump(c);
}

bool EpollServer::Impl::Loop::pump(Connection& c) {
  const std::size_t watermark = impl->options.write_high_watermark;
  for (;;) {
    // Bound the serialized backlog too: render only while the unflushed
    // bytes stay under the watermark.
    c.engine.render_ready(c.out, c.out_pos + watermark);
    if (!flush(c)) return false;
    // flush() survived, so `c` is alive. If it fully drained a backlog
    // that stopped rendering at the watermark, the remaining slots have no
    // other wakeup (no read, no solve completion may ever come) — go
    // around again. Exit only when no progress is possible: head not
    // ready, or the watermark still tripped (a blocked write; EPOLLOUT
    // re-pumps).
    if (!c.engine.head_ready() || c.out.size() - c.out_pos > watermark) {
      return true;
    }
  }
}

bool EpollServer::Impl::Loop::flush(Connection& c) {
  while (c.out_pos < c.out.size()) {
    // MSG_NOSIGNAL: a client that vanished mid-solve must surface as
    // EPIPE here, not as a process-killing SIGPIPE.
    const ssize_t written = ::send(c.fd, c.out.data() + c.out_pos,
                                   c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (written > 0) {
      c.out_pos += static_cast<std::size_t>(written);
      continue;
    }
    if (written < 0 && errno == EINTR) continue;
    if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.want_write) {
        c.want_write = true;
        update_interest(c);
      }
      return true;
    }
    destroy(c);  // EPIPE/ECONNRESET: the peer is gone
    return false;
  }
  c.out.clear();
  c.out_pos = 0;
  if (c.want_write) {
    c.want_write = false;
    update_interest(c);
  }
  if (c.reading_disabled && !c.engine.reading_done() &&
      c.engine.queued() <= impl->options.max_queued_slots) {
    c.reading_disabled = false;
    update_interest(c);  // level-triggered: pending bytes re-fire EPOLLIN
  }
  if (c.engine.reading_done() && c.engine.queued() == 0) {
    const bool shutdown_server = c.engine.shutdown_requested();
    destroy(c);
    if (shutdown_server) impl->request_stop();
    return false;
  }
  return true;
}

void EpollServer::Impl::Loop::update_interest(Connection& c) {
  epoll_event event{};
  event.events = 0;
  if (!c.reading_disabled && !c.engine.reading_done()) {
    event.events |= EPOLLIN;
  }
  if (c.want_write) event.events |= EPOLLOUT;
  event.data.u64 = c.tag;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &event);
}

void EpollServer::Impl::Loop::destroy(Connection& c) {
  // Any disconnect releases a pause, on *every* teardown path — clean EOF
  // resumed already (ServeConnection::finish), but an abrupt one
  // (RST/EPOLLERR, EPOLLHUP, EPIPE mid-flush) must not leave the service
  // wedged either. Idempotent.
  impl->service->resume();
  impl->total_lines.fetch_add(c.engine.lines(), std::memory_order_relaxed);
  impl->total_malformed.fetch_add(c.engine.malformed(),
                                  std::memory_order_relaxed);
  if (c.engine.overflowed()) {
    impl->total_overflows.fetch_add(1, std::memory_order_relaxed);
  }
  if (c.engine.shutdown_requested()) {
    impl->shutdown_requested.store(true, std::memory_order_relaxed);
  }
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::shutdown(c.fd, SHUT_RDWR);
  ::close(c.fd);
  conns.erase(c.tag);  // invalidates c
}

void EpollServer::Impl::Loop::close_all() {
  // Leftover inbox fds (accepted but never registered) and live
  // connections are closed; queued solves keep running in the service —
  // their completion hooks hit a dead (weak) inbox and no-op.
  std::vector<int> accepted;
  {
    std::scoped_lock lock(inbox->mutex);
    accepted.swap(inbox->accepted);
  }
  for (const int fd : accepted) ::close(fd);
  while (!conns.empty()) destroy(*conns.begin()->second);
  ::close(epoll_fd);
  epoll_fd = -1;
}

}  // namespace calisched
