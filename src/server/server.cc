#include "server/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.h"
#include "common/stopwatch.h"

namespace drli {
namespace server {

namespace {

// One frame's worth of socket reads per EPOLLIN burst iteration.
constexpr std::size_t kReadChunk = 64 * 1024;
// Cap on bytes drained per EPOLLIN event: epoll is level-triggered,
// so whatever is left re-arms immediately, and a firehose client can
// neither pin its loop thread nor grow inbuf without bound while
// other connections wait.
constexpr std::size_t kMaxReadBurst = 4 * kReadChunk;
constexpr int kEpollWaitMs = 50;
constexpr int kListenBacklog = 128;
// Connections with a reply stuck mid-write this long are closed.
constexpr double kIoTimeoutSeconds = 10.0;
// Shutdown() waits this long for in-flight work and reply flushes.
constexpr double kDrainTimeoutSeconds = 5.0;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

// A connected client socket. The owning event loop is the only thread
// that touches fd / inbuf / epoll registration; workers hand replies
// over through outbuf under `mu` and wake the loop, which does every
// actual send. `closed` flips exactly once (under `mu`), after which
// workers drop replies instead of appending -- the fd may already be
// reused by a new connection.
struct Connection {
  int fd = -1;
  std::size_t loop = 0;

  // Loop-thread state.
  std::vector<std::uint8_t> inbuf;
  std::size_t inpos = 0;
  bool want_write = false;
  Stopwatch last_activity;

  // Shared state.
  std::mutex mu;
  std::vector<std::uint8_t> outbuf;
  std::size_t outpos = 0;
  bool closed = false;
  bool close_after_flush = false;
  Stopwatch last_write_progress;  // meaningful while outbuf nonempty
};

namespace {

struct WorkItem {
  std::shared_ptr<Connection> conn;
  wire::Request request;
  std::uint32_t request_id = 0;
  // Started when the frame was decoded: wire deadlines count queue
  // wait against this clock.
  Stopwatch arrival;
  std::size_t admitted = 0;  // wire queries counted against in-flight
};

struct EventLoop {
  std::size_t index = 0;
  int epoll_fd = -1;
  int listen_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  // The loop thread owns the map's contents; the mutex covers the map
  // structure itself, which the drain path reads from another thread.
  std::mutex conns_mu;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;

  std::vector<std::shared_ptr<Connection>> Snapshot() {
    std::lock_guard<std::mutex> lock(conns_mu);
    std::vector<std::shared_ptr<Connection>> out;
    out.reserve(conns.size());
    for (auto& [fd, conn] : conns) out.push_back(conn);
    return out;
  }
};

}  // namespace

struct TopKServer::Impl {
  ServerOptions options;
  ServingEngine engine;
  std::uint16_t bound_port = 0;

  std::vector<std::unique_ptr<EventLoop>> loops;
  std::vector<std::thread> workers;
  std::thread watcher;

  // Every request writes the counters and the work queue below from
  // loop and worker threads. Starting them on a cache line of their own
  // keeps those writes off the lines of the read-mostly members above
  // (options, engine, loops), whatever the sizes of those members.
  alignas(64) std::atomic<bool> started{false};
  std::atomic<bool> draining{false};
  std::atomic<bool> stop{false};

  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> conns_opened{0};

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<WorkItem> queue;
  std::atomic<std::uint64_t> busy_workers{0};
  std::mutex shutdown_mu;  // serializes concurrent Shutdown calls

  ~Impl() { ShutdownNow(); }

  // --- startup ---

  Status Start(const std::string& dir, const ServerOptions& opts);
  StatusOr<int> OpenListener();

  // --- event loop ---

  void LoopMain(std::size_t loop_index);
  void AcceptAll(EventLoop& loop);
  void ReadConn(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  void ProcessFrames(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   wire::Frame&& frame);
  void FlushConn(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  void CloseConn(EventLoop& loop, int fd);
  void ScanTimeouts(EventLoop& loop);

  // --- workers ---

  void WorkerMain();
  void Execute(WorkItem& item);

  void WatcherMain();

  // Queues `payload` as one reply frame on `conn` and wakes its loop.
  void SendReply(const std::shared_ptr<Connection>& conn,
                 std::uint32_t request_id,
                 const std::vector<std::uint8_t>& payload);
  void WakeLoop(std::size_t loop_index);
  void WakeAllLoops();

  bool AllFlushedAndIdle();
  void ShutdownNow();
};

Status TopKServer::Impl::Start(const std::string& dir,
                               const ServerOptions& opts) {
  options = opts;
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  if (options.num_loops == 0) options.num_loops = std::min<std::size_t>(cores, 4);
  if (options.num_workers == 0) {
    options.num_workers = std::min<std::size_t>(cores, 8);
  }
  if (options.max_in_flight == 0) options.max_in_flight = 256;

  Status status = engine.Open(dir);
  if (!status.ok()) return status;

  bound_port = options.port;
  for (std::size_t i = 0; i < options.num_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->index = i;
    auto listener = OpenListener();
    if (!listener.ok()) return listener.status();
    loop->listen_fd = listener.value();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) return Errno("epoll_create1");
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->wake_fd < 0) return Errno("eventfd");
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = loop->listen_fd;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->listen_fd, &ev) != 0) {
      return Errno("epoll_ctl(listener)");
    }
    ev.data.fd = loop->wake_fd;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) != 0) {
      return Errno("epoll_ctl(eventfd)");
    }
    loops.push_back(std::move(loop));
  }

  started.store(true);
  for (std::size_t i = 0; i < loops.size(); ++i) {
    loops[i]->thread = std::thread([this, i] { LoopMain(i); });
  }
  for (std::size_t i = 0; i < options.num_workers; ++i) {
    workers.emplace_back([this] { WorkerMain(); });
  }
  watcher = std::thread([this] { WatcherMain(); });
  return Status::Ok();
}

StatusOr<int> TopKServer::Impl::OpenListener() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every loop binds its own listener to the same port: the kernel
  // load-balances accepts across them (thread-per-core accepting).
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(bound_port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen host: " + options.host);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Errno("bind " + options.host + ":" +
                          std::to_string(bound_port));
    ::close(fd);
    return status;
  }
  if (bound_port == 0) {
    // First listener picked the ephemeral port; the rest reuse it.
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
        0) {
      Status status = Errno("getsockname");
      ::close(fd);
      return status;
    }
    bound_port = ntohs(addr.sin_port);
  }
  if (::listen(fd, kListenBacklog) != 0) {
    Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  return fd;
}

// --- event loop ---

void TopKServer::Impl::LoopMain(std::size_t loop_index) {
  EventLoop& loop = *loops[loop_index];
  bool accepting = true;
  struct epoll_event events[64];
  while (true) {
    const int n = ::epoll_wait(loop.epoll_fd, events, 64, kEpollWaitMs);
    if (n < 0 && errno != EINTR) break;
    if (accepting && draining.load()) {
      // Drain: stop accepting; existing connections keep flushing.
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, loop.listen_fd, nullptr);
      ::close(loop.listen_fd);
      loop.listen_fd = -1;
      accepting = false;
    }
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        std::uint64_t drainer = 0;
        while (::read(loop.wake_fd, &drainer, sizeof(drainer)) > 0) {
        }
        // A wake means some connection has replies to flush.
        for (auto& conn : loop.Snapshot()) FlushConn(loop, conn);
        continue;
      }
      if (fd == loop.listen_fd && accepting) {
        AcceptAll(loop);
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(loop.conns_mu);
        auto it = loop.conns.find(fd);
        if (it == loop.conns.end()) continue;
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(loop, fd);
        continue;
      }
      if (events[i].events & EPOLLIN) ReadConn(loop, conn);
      if (events[i].events & EPOLLOUT) FlushConn(loop, conn);
    }
    ScanTimeouts(loop);
    if (stop.load()) break;
  }
  // Hard stop: close the sockets this loop owns. wake_fd and epoll_fd
  // stay open -- workers and WakeLoop may still write to wake_fd until
  // they are joined, and closing here could hand the fd number to an
  // unrelated descriptor mid-write. ShutdownNow closes both after
  // every thread that can touch them has been joined.
  for (auto& conn : loop.Snapshot()) CloseConn(loop, conn->fd);
  if (loop.listen_fd >= 0) {
    ::close(loop.listen_fd);
    loop.listen_fd = -1;
  }
}

void TopKServer::Impl::AcceptAll(EventLoop& loop) {
  while (true) {
    const int fd = ::accept4(loop.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept error: wait for epoll
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->loop = loop.index;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(loop.conns_mu);
      loop.conns.emplace(fd, std::move(conn));
    }
    conns_opened.fetch_add(1);
  }
}

void TopKServer::Impl::ReadConn(EventLoop& loop,
                                const std::shared_ptr<Connection>& conn) {
  bool peer_closed = false;
  std::size_t burst = 0;
  while (burst < kMaxReadBurst) {
    const std::size_t old_size = conn->inbuf.size();
    conn->inbuf.resize(old_size + kReadChunk);
    const ssize_t n =
        ::recv(conn->fd, conn->inbuf.data() + old_size, kReadChunk, 0);
    if (n > 0) {
      conn->inbuf.resize(old_size + static_cast<std::size_t>(n));
      conn->last_activity.Restart();
      burst += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < kReadChunk) break;
      continue;
    }
    conn->inbuf.resize(old_size);
    if (n == 0) {
      peer_closed = true;  // mid-request disconnects land here
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    peer_closed = true;
    break;
  }
  if (!conn->inbuf.empty()) ProcessFrames(loop, conn);
  if (peer_closed) CloseConn(loop, conn->fd);
}

void TopKServer::Impl::ProcessFrames(EventLoop& loop,
                                     const std::shared_ptr<Connection>& conn) {
  while (true) {
    wire::Frame frame;
    std::string error;
    const wire::FrameScan scan =
        wire::ScanFrame(conn->inbuf, &conn->inpos, &frame, &error);
    if (scan == wire::FrameScan::kNeedMore) break;
    if (scan == wire::FrameScan::kCorrupt) {
      // The stream cannot be resynchronized: one best-effort reply,
      // then close once it flushes.
      malformed.fetch_add(1);
      SendReply(conn, 0,
                wire::EncodeStatusReply(wire::ReplyStatus::kMalformed, error));
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->close_after_flush = true;
      }
      conn->inbuf.clear();
      conn->inpos = 0;
      FlushConn(loop, conn);
      return;
    }
    HandleFrame(conn, std::move(frame));
  }
  // Drop consumed bytes so the buffer never grows beyond one frame
  // plus one read burst.
  if (conn->inpos > 0) {
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() +
                          static_cast<std::ptrdiff_t>(conn->inpos));
    conn->inpos = 0;
  }
  FlushConn(loop, conn);
}

void TopKServer::Impl::HandleFrame(const std::shared_ptr<Connection>& conn,
                                   wire::Frame&& frame) {
  wire::Request request;
  Status status = wire::DecodeRequest(frame.payload, &request);
  if (!status.ok()) {
    // Frame was intact (CRC passed) but the payload is nonsense: the
    // stream is still framed, so reply and keep the connection.
    malformed.fetch_add(1);
    SendReply(conn, frame.request_id,
              wire::EncodeStatusReply(wire::ReplyStatus::kMalformed,
                                      status.message()));
    return;
  }
  if (draining.load()) {
    SendReply(conn, frame.request_id,
              wire::EncodeStatusReply(wire::ReplyStatus::kShuttingDown,
                                      "server is draining"));
    return;
  }
  switch (request.verb) {
    case wire::Verb::kHealth: {
      wire::HealthInfo info;
      auto gen = engine.Acquire();
      info.generation = gen->sequence;
      info.queries_served = served.load();
      info.queries_shed = shed.load();
      info.queries_in_flight = in_flight.load();
      info.reloads = engine.reload_count();
      info.malformed_frames = malformed.load();
      info.draining = draining.load() ? 1 : 0;
      SendReply(conn, frame.request_id, wire::EncodeHealthReply(info));
      return;
    }
    case wire::Verb::kInspect: {
      wire::InspectInfo info;
      auto gen = engine.Acquire();
      info.engine = gen->index->name();
      info.snapshot = gen->snapshot;
      info.generation = gen->sequence;
      info.num_points = gen->index->size();
      info.dim = static_cast<std::uint32_t>(gen->dim);
      info.last_reload_error = engine.last_reload_error();
      SendReply(conn, frame.request_id, wire::EncodeInspectReply(info));
      return;
    }
    case wire::Verb::kReload: {
      WorkItem item;
      item.conn = conn;
      item.request = std::move(request);
      item.request_id = frame.request_id;
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back(std::move(item));
      }
      queue_cv.notify_one();
      return;
    }
    case wire::Verb::kQuery:
    case wire::Verb::kBatch: {
      const std::size_t n = request.queries.size();
      // Validate before shedding: a request that can only be refused
      // answers kInvalidQuery before admission, so it never takes or
      // waits on an in-flight slot.
      // One reply frame carries every result, so the worst-case
      // encoded reply is bounded here: a well-formed request whose
      // answer could bust the frame cap is refused instead of sent
      // untransmittable. Reverse results are interval- (data-)
      // bounded, not k-bounded; non-plain batch slots answer
      // kInvalidQuery and carry no items. A single query whose k
      // exceeds the wire bound is refused too (ExecuteWireQuery keeps
      // the same check for in-process callers).
      std::uint64_t worst_items = 0;
      bool k_too_large = false;
      for (const wire::WireQuery& q : request.queries) {
        if (request.verb == wire::Verb::kBatch &&
            q.scenario != wire::Scenario::kPlain) {
          continue;
        }
        k_too_large |= request.verb == wire::Verb::kQuery &&
                       q.k > wire::kMaxWireItems;
        worst_items += q.scenario == wire::Scenario::kReverse
                           ? wire::kMaxWireItems
                           : std::min<std::uint64_t>(q.k, wire::kMaxWireItems);
      }
      const bool fits = wire::ReplyFits(n, worst_items);
      if (!fits || k_too_large) {
        std::vector<wire::WireResult> results(n);
        for (auto& r : results) {
          r.status = wire::ReplyStatus::kInvalidQuery;
          r.termination =
              static_cast<std::uint8_t>(Termination::kInvalidQuery);
          r.message = fits ? "k exceeds the wire reply bound (" +
                                 std::to_string(wire::kMaxWireItems) + ")"
                           : "worst-case reply exceeds the frame payload "
                             "cap; lower k or split the batch";
        }
        SendReply(conn, frame.request_id, wire::EncodeResultReply(results));
        return;
      }
      // Deterministic admission: increment first, then shed the whole
      // request on overshoot, so concurrent loop threads can never
      // admit past the cap -- a clear kOverloaded beats a
      // deadline-blown answer.
      const std::uint64_t before = in_flight.fetch_add(n);
      if (before + n > options.max_in_flight) {
        in_flight.fetch_sub(n);
        shed.fetch_add(n);
        std::vector<wire::WireResult> results(n);
        for (auto& r : results) {
          r.status = wire::ReplyStatus::kOverloaded;
          r.termination = static_cast<std::uint8_t>(Termination::kShed);
          r.retry_after_ms = options.retry_after_ms;
          r.message = "shed: server at max in-flight (" +
                      std::to_string(options.max_in_flight) + ")";
        }
        SendReply(conn, frame.request_id, wire::EncodeResultReply(results));
        return;
      }
      WorkItem item;
      item.conn = conn;
      item.request = std::move(request);
      item.request_id = frame.request_id;
      item.admitted = n;
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back(std::move(item));
      }
      queue_cv.notify_one();
      return;
    }
  }
  SendReply(conn, frame.request_id,
            wire::EncodeStatusReply(wire::ReplyStatus::kMalformed,
                                    "unknown verb"));
}

void TopKServer::Impl::FlushConn(EventLoop& loop,
                                 const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  bool want_write = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    while (conn->outpos < conn->outbuf.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->outbuf.data() + conn->outpos,
                 conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->outpos += static_cast<std::size_t>(n);
        conn->last_write_progress.Restart();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_write = true;
        break;
      }
      close_now = true;  // peer gone mid-write
      break;
    }
    if (conn->outpos == conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->outpos = 0;
      if (conn->close_after_flush) close_now = true;
    }
  }
  if (close_now) {
    CloseConn(loop, conn->fd);
    return;
  }
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd;
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }
}

void TopKServer::Impl::CloseConn(EventLoop& loop, int fd) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(loop.conns_mu);
    auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) return;
    conn = it->second;
    loop.conns.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
  }
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
}

void TopKServer::Impl::ScanTimeouts(EventLoop& loop) {
  for (auto& conn : loop.Snapshot()) {
    bool stuck_write = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed) continue;
      stuck_write = !conn->outbuf.empty() &&
                    conn->last_write_progress.ElapsedSeconds() >
                        kIoTimeoutSeconds;
    }
    const bool idle = conn->last_activity.ElapsedSeconds() >
                      options.idle_timeout_seconds;
    if (stuck_write || idle) CloseConn(loop, conn->fd);
  }
}

// --- workers ---

void TopKServer::Impl::WorkerMain() {
  while (true) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mu);
      queue_cv.wait(lock, [this] { return stop.load() || !queue.empty(); });
      if (queue.empty()) {
        if (stop.load()) return;
        continue;
      }
      item = std::move(queue.front());
      queue.pop_front();
      busy_workers.fetch_add(1);
    }
    Execute(item);
    busy_workers.fetch_sub(1);
  }
}

void TopKServer::Impl::Execute(WorkItem& item) {
  if (options.test_worker_delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options.test_worker_delay_ms));
  }
  if (item.request.verb == wire::Verb::kReload) {
    wire::ReloadInfo info;
    auto result = engine.PollReload();
    if (result.ok()) {
      info.reloaded = result.value() ? 1 : 0;
    } else {
      info.error = result.status().message();
    }
    info.generation = engine.Acquire()->sequence;
    SendReply(item.conn, item.request_id, wire::EncodeReloadReply(info));
    return;
  }

  auto generation = engine.Acquire();
  const std::size_t n = item.request.queries.size();
  std::vector<ExecBudget> budgets(n);
  for (std::size_t i = 0; i < n; ++i) {
    const wire::WireQuery& q = item.request.queries[i];
    double deadline_ms =
        q.deadline_ms > 0.0 ? q.deadline_ms : options.default_deadline_ms;
    if (deadline_ms > 0.0) {
      // The wire deadline covers queue wait: hand the traversal only
      // what is left, floored at a hair above zero so an already-
      // expired request trips the gate immediately and still returns
      // a well-formed certified partial.
      const double remaining =
          deadline_ms / 1e3 - item.arrival.ElapsedSeconds();
      budgets[i].deadline_seconds = std::max(remaining, 1e-9);
    }
    budgets[i].max_evals = static_cast<std::size_t>(q.max_evals);
  }

  std::vector<wire::WireResult> results;
  if (item.request.verb == wire::Verb::kQuery) {
    results.push_back(
        ExecuteWireQuery(*generation, item.request.queries[0], budgets[0]));
  } else {
    results = ExecuteWireBatch(*generation, item.request.queries, budgets);
  }
  served.fetch_add(n);
  in_flight.fetch_sub(item.admitted);
  SendReply(item.conn, item.request_id, wire::EncodeResultReply(results));
}

void TopKServer::Impl::WatcherMain() {
  Stopwatch since_poll;
  while (!stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (since_poll.ElapsedSeconds() < options.reload_poll_seconds) continue;
    since_poll.Restart();
    // Failures are recorded by the engine and surfaced via inspect;
    // the watcher keeps polling (the next publish may fix it).
    (void)engine.PollReload();
  }
}

void TopKServer::Impl::SendReply(const std::shared_ptr<Connection>& conn,
                                 std::uint32_t request_id,
                                 const std::vector<std::uint8_t>& payload) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;  // client went away; drop the reply
    if (conn->outbuf.empty()) conn->last_write_progress.Restart();
    if (!wire::AppendFrame(request_id, payload, &conn->outbuf)) {
      // Admission bounds the worst-case reply, so this is a belt-and-
      // braces path: degrade to a bare kError the client can parse
      // rather than ever aborting or emitting a broken frame.
      const bool sent = wire::AppendFrame(
          request_id,
          wire::EncodeStatusReply(wire::ReplyStatus::kError,
                                  "reply exceeds the frame payload cap"),
          &conn->outbuf);
      DRLI_CHECK(sent);  // a bare status reply is a few dozen bytes
    }
  }
  WakeLoop(conn->loop);
}

void TopKServer::Impl::WakeLoop(std::size_t loop_index) {
  if (loop_index >= loops.size()) return;
  if (loops[loop_index]->wake_fd < 0) return;  // already shut down
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(loops[loop_index]->wake_fd, &one, sizeof(one));
}

void TopKServer::Impl::WakeAllLoops() {
  for (std::size_t i = 0; i < loops.size(); ++i) WakeLoop(i);
}

bool TopKServer::Impl::AllFlushedAndIdle() {
  if (in_flight.load() != 0 || busy_workers.load() != 0) return false;
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    if (!queue.empty()) return false;
  }
  for (auto& loop : loops) {
    for (auto& conn : loop->Snapshot()) {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->closed && !conn->outbuf.empty()) return false;
    }
  }
  return true;
}

void TopKServer::Impl::ShutdownNow() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu);
  if (started.load()) {
    draining.store(true);
    WakeAllLoops();
    // Drain: let queued work finish and replies flush, bounded.
    Stopwatch drain;
    while (drain.ElapsedSeconds() < kDrainTimeoutSeconds) {
      // conns maps belong to live loop threads; AllFlushedAndIdle only
      // reads them while loops are still running, which they are here.
      if (AllFlushedAndIdle()) break;
      queue_cv.notify_all();
      WakeAllLoops();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    queue_cv.notify_all();
    WakeAllLoops();
    for (auto& worker : workers) {
      if (worker.joinable()) worker.join();
    }
    if (watcher.joinable()) watcher.join();
    for (auto& loop : loops) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    started.store(false);
  }
  // Only now -- with every worker and loop thread joined -- is it safe
  // to close the wake/epoll fds: no stray WakeLoop write can land on a
  // recycled descriptor. Also runs for a Start that failed partway, so
  // its half-built loops do not leak fds.
  for (auto& loop : loops) {
    if (loop->wake_fd >= 0) {
      ::close(loop->wake_fd);
      loop->wake_fd = -1;
    }
    if (loop->epoll_fd >= 0) {
      ::close(loop->epoll_fd);
      loop->epoll_fd = -1;
    }
    if (loop->listen_fd >= 0) {
      ::close(loop->listen_fd);
      loop->listen_fd = -1;
    }
  }
}

// --- public surface ---

TopKServer::TopKServer() : impl_(std::make_unique<Impl>()) {}

TopKServer::~TopKServer() { Shutdown(); }

Status TopKServer::Start(const std::string& dir,
                         const ServerOptions& options) {
  return impl_->Start(dir, options);
}

std::uint16_t TopKServer::port() const { return impl_->bound_port; }

void TopKServer::Shutdown() { impl_->ShutdownNow(); }

bool TopKServer::draining() const { return impl_->draining.load(); }

ServerCounters TopKServer::counters() const {
  ServerCounters counters;
  counters.queries_served = impl_->served.load();
  counters.queries_shed = impl_->shed.load();
  counters.queries_in_flight = impl_->in_flight.load();
  counters.malformed_frames = impl_->malformed.load();
  counters.connections_opened = impl_->conns_opened.load();
  counters.reloads = impl_->engine.reload_count();
  return counters;
}

ServingEngine& TopKServer::engine() { return impl_->engine; }

}  // namespace server
}  // namespace drli
