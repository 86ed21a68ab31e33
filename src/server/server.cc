#include "server/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.h"
#include "common/stopwatch.h"

namespace drli {
namespace server {

namespace {

// One frame's worth of socket reads per burst iteration; each pool
// thread reads into its own chunk of this size.
constexpr std::size_t kReadChunk = 64 * 1024;
// Cap on bytes read per claim of a connection: whatever is left waits
// for the re-arm, so a firehose client can neither pin a pool thread
// nor grow inbuf without bound while other connections wait.
constexpr std::size_t kMaxReadBurst = 4 * kReadChunk;
constexpr int kEpollWaitMs = 50;
constexpr int kListenBacklog = 128;
// Connections with a reply stuck mid-write this long are closed.
constexpr double kIoTimeoutSeconds = 10.0;
// Shutdown() waits this long for in-flight work and reply flushes.
constexpr double kDrainTimeoutSeconds = 5.0;
// The listener's epoll_data; connection ids count up from 1.
constexpr std::uint64_t kListenerId = 0;

using PollClock = std::chrono::steady_clock;
// A pool thread that finished a cycle less than this long ago polls the
// epoll set before it blocks (DESIGN.md §10). Set by measurement on
// dl-serve on a 4-core VM: 20, 50 and 100 us gained alike; the middle
// one leaves room for a client that turns a reply around more slowly.
constexpr std::chrono::microseconds kPollWindow{50};

// Whether the process may run on two CPUs or more. On one CPU, polling
// lowered the median but raised every p99 (DESIGN.md §10), so the pool
// does not poll there. A cgroup CPU quota is not visible here.
bool MayUseTwoCpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  return ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 &&
         CPU_COUNT(&cpus) >= 2;
}

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

// A connected client socket, registered EPOLLONESHOT under a stable id
// (never its fd, which a close can hand to a new connection). A pool
// thread claims it when its event fires and owns everything but `mu`,
// `claimed` and `closed` until it re-arms or closes it. Claim and
// re-arm both run under `mu`, which orders one holder's writes before
// the next holder's reads. Other threads read the owned state only
// under `mu` while the connection is unclaimed, and only a claim
// holder closes the fd.
struct Connection {
  std::uint64_t id = 0;
  int fd = -1;

  std::mutex mu;
  bool claimed = false;
  bool closed = false;

  // Owned by the claim holder.
  std::vector<std::uint8_t> inbuf;
  std::size_t inpos = 0;
  std::vector<std::uint8_t> outbuf;
  std::size_t outpos = 0;
  bool close_after_flush = false;
  Stopwatch last_activity;
  Stopwatch last_write_progress;  // meaningful while outbuf nonempty
};

namespace {

// An admitted request, run after its burst is decoded.
struct WorkItem {
  wire::Request request;
  std::uint32_t request_id = 0;
  // Started when the frame was decoded: wire deadlines count the wait
  // behind earlier frames of the burst against this clock.
  Stopwatch arrival;
  std::size_t admitted = 0;  // wire queries counted against in-flight
};

}  // namespace

struct TopKServer::Impl {
  ServerOptions options;
  ServingEngine engine;
  std::uint16_t bound_port = 0;
  bool poll_pays = false;  // read once at Start

  int epoll_fd = -1;
  std::vector<std::thread> pool;
  std::thread watcher;

  // Every request writes the members below from the pool threads.
  // Starting them on a cache line of their own keeps those writes off
  // the lines of the read-mostly members above (options, engine,
  // epoll_fd), whatever the sizes of those members.
  alignas(64) std::atomic<bool> started{false};
  std::atomic<bool> draining{false};
  std::atomic<bool> stop{false};

  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> conns_opened{0};
  std::atomic<std::uint64_t> polled_events{0};
  // Held by the one pool thread that polls the epoll set.
  std::atomic<bool> polling{false};

  // Covers listen_fd and next_id; the listener is EPOLLONESHOT too, so
  // only the drain path ever waits on it.
  std::mutex listen_mu;
  int listen_fd = -1;
  std::uint64_t next_id = kListenerId + 1;

  std::mutex conns_mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> conns;

  std::mutex reap_mu;  // one pool thread scans for timeouts at a time
  Stopwatch since_reap;
  std::mutex shutdown_mu;  // serializes concurrent Shutdown calls

  ~Impl() { ShutdownNow(); }

  Status Start(const std::string& dir, const ServerOptions& opts);
  Status OpenListener();
  void StopAccepting();

  // --- pool threads ---

  void PoolMain();
  bool PollForEvent(PollClock::time_point cycle_end,
                    struct epoll_event* event);
  void AcceptAll();
  void Serve(std::uint64_t id, std::uint32_t events, std::uint8_t* chunk);
  bool ReadBurst(Connection& conn, std::uint8_t* chunk);
  void DecodeFrames(Connection& conn, std::vector<WorkItem>* admitted);
  void HandleFrame(Connection& conn, wire::Frame&& frame,
                   std::vector<WorkItem>* admitted);
  void Execute(Connection& conn, WorkItem& item);
  bool Flush(Connection& conn);
  void Rearm(Connection& conn);
  void Close(const std::shared_ptr<Connection>& conn);
  void ReapTimeouts();

  void WatcherMain();

  // Appends `payload` to `conn`'s outbuf as one reply frame.
  void SendReply(Connection& conn, std::uint32_t request_id,
                 const std::vector<std::uint8_t>& payload);

  std::vector<std::shared_ptr<Connection>> Snapshot();
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
  poll_pays = MayUseTwoCpus();

  Status status = engine.Open(dir);
  if (!status.ok()) return status;

  epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return Errno("epoll_create1");
  status = OpenListener();
  if (!status.ok()) return status;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kListenerId;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) != 0) {
    return Errno("epoll_ctl(listener)");
  }

  started.store(true);
  for (std::size_t i = 0; i < options.num_loops + options.num_workers; ++i) {
    pool.emplace_back([this] { PoolMain(); });
  }
  watcher = std::thread([this] { WatcherMain(); });
  return Status::Ok();
}

Status TopKServer::Impl::OpenListener() {
  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + options.host);
  }
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + options.host + ":" + std::to_string(options.port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return Errno("getsockname");
  }
  bound_port = ntohs(addr.sin_port);
  if (::listen(listen_fd, kListenBacklog) != 0) return Errno("listen");
  return Status::Ok();
}

void TopKServer::Impl::StopAccepting() {
  std::lock_guard<std::mutex> lock(listen_mu);
  if (listen_fd < 0) return;
  if (epoll_fd >= 0) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
  }
  ::close(listen_fd);
  listen_fd = -1;
}

// --- pool threads ---

void TopKServer::Impl::PoolMain() {
  std::vector<std::uint8_t> chunk(kReadChunk);
  PollClock::time_point cycle_end;  // the epoch: no cycle yet
  while (!stop.load()) {
    // One event per wait: a thread never holds a ready connection it is
    // not serving.
    struct epoll_event event;
    const int n = PollForEvent(cycle_end, &event)
                      ? 1
                      : ::epoll_wait(epoll_fd, &event, 1, kEpollWaitMs);
    if (n < 0 && errno != EINTR) break;
    if (n == 1) {
      if (event.data.u64 == kListenerId) {
        AcceptAll();
      } else {
        Serve(event.data.u64, event.events, chunk.data());
      }
      cycle_end = PollClock::now();
    }
    ReapTimeouts();
  }
}

// A thread that finished a cycle less than kPollWindow ago polls the
// epoll set until the window closes, if no other thread is polling, so
// a busy server burns at most one core on polling and an idle one
// stops within a window. True when the poll got an event.
bool TopKServer::Impl::PollForEvent(PollClock::time_point cycle_end,
                                    struct epoll_event* event) {
  const PollClock::time_point deadline = cycle_end + kPollWindow;
  if (!poll_pays || PollClock::now() >= deadline ||
      polling.load(std::memory_order_relaxed) ||
      polling.exchange(true, std::memory_order_acquire)) {
    return false;
  }
  bool got;
  while (true) {
    got = ::epoll_wait(epoll_fd, event, 1, 0) == 1;
    if (got || PollClock::now() >= deadline) break;
    ::sched_yield();
  }
  polling.store(false, std::memory_order_release);
  if (got) polled_events.fetch_add(1, std::memory_order_relaxed);
  return got;
}

void TopKServer::Impl::AcceptAll() {
  std::lock_guard<std::mutex> lock(listen_mu);
  if (listen_fd < 0) return;  // draining
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept error: wait for epoll
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->id = next_id++;
    conn->fd = fd;
    {
      // Mapped before it is armed, so its first event finds it.
      std::lock_guard<std::mutex> conns_lock(conns_mu);
      conns.emplace(conn->id, conn);
    }
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      std::lock_guard<std::mutex> conns_lock(conns_mu);
      conns.erase(conn->id);
      ::close(fd);
      continue;
    }
    conns_opened.fetch_add(1);
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, listen_fd, &ev);
}

// One cycle: claim, read one burst, answer or admit every complete
// frame in it, run the admitted requests in frame order while flushing
// each reply, then re-arm (or close).
void TopKServer::Impl::Serve(std::uint64_t id, std::uint32_t events,
                             std::uint8_t* chunk) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    auto it = conns.find(id);
    if (it == conns.end()) return;
    conn = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed || conn->claimed) return;
    conn->claimed = true;
  }
  if (events & (EPOLLHUP | EPOLLERR)) {
    Close(conn);
    return;
  }
  bool peer_open = true;
  std::vector<WorkItem> admitted;
  if (events & EPOLLIN) {
    peer_open = ReadBurst(*conn, chunk);
    DecodeFrames(*conn, &admitted);
  }
  bool writable = Flush(*conn);
  for (WorkItem& item : admitted) {
    Execute(*conn, item);
    if (writable) writable = Flush(*conn);
  }
  const bool finished = conn->close_after_flush && conn->outbuf.empty();
  if (peer_open && writable && !finished) {
    Rearm(*conn);
  } else {
    Close(conn);
  }
}

// Reads through the calling thread's `chunk` (kReadChunk bytes) and
// appends only the bytes received. False once the peer has closed
// (mid-request disconnects land here).
bool TopKServer::Impl::ReadBurst(Connection& conn, std::uint8_t* chunk) {
  std::size_t burst = 0;
  while (burst < kMaxReadBurst) {
    const ssize_t n = ::recv(conn.fd, chunk, kReadChunk, 0);
    if (n > 0) {
      conn.inbuf.insert(conn.inbuf.end(), chunk, chunk + n);
      conn.last_activity.Restart();
      burst += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < kReadChunk) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

void TopKServer::Impl::DecodeFrames(Connection& conn,
                                    std::vector<WorkItem>* admitted) {
  while (true) {
    wire::Frame frame;
    std::string error;
    const wire::FrameScan scan =
        wire::ScanFrame(conn.inbuf, &conn.inpos, &frame, &error);
    if (scan == wire::FrameScan::kNeedMore) break;
    if (scan == wire::FrameScan::kCorrupt) {
      // The stream cannot be resynchronized: one best-effort reply,
      // then close once it flushes.
      malformed.fetch_add(1);
      SendReply(conn, 0,
                wire::EncodeStatusReply(wire::ReplyStatus::kMalformed, error));
      conn.close_after_flush = true;
      conn.inbuf.clear();
      conn.inpos = 0;
      return;
    }
    HandleFrame(conn, std::move(frame), admitted);
  }
  // Drop consumed bytes so the buffer never grows beyond one frame
  // plus one read burst.
  if (conn.inpos > 0) {
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() + static_cast<std::ptrdiff_t>(conn.inpos));
    conn.inpos = 0;
  }
}

void TopKServer::Impl::HandleFrame(Connection& conn, wire::Frame&& frame,
                                   std::vector<WorkItem>* admitted) {
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
      info.engine = gen->index().name();
      info.snapshot = gen->snapshot;
      info.generation = gen->sequence;
      info.num_points = gen->index().size();
      info.dim = static_cast<std::uint32_t>(gen->index().dim());
      info.last_reload_error = engine.last_reload_error();
      SendReply(conn, frame.request_id, wire::EncodeInspectReply(info));
      return;
    }
    case wire::Verb::kReload: {
      WorkItem item;
      item.request = std::move(request);
      item.request_id = frame.request_id;
      admitted->push_back(std::move(item));
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
      // request on overshoot, so concurrent pool threads can never
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
      item.request = std::move(request);
      item.request_id = frame.request_id;
      item.admitted = n;
      admitted->push_back(std::move(item));
      return;
    }
  }
  SendReply(conn, frame.request_id,
            wire::EncodeStatusReply(wire::ReplyStatus::kMalformed,
                                    "unknown verb"));
}

void TopKServer::Impl::Execute(Connection& conn, WorkItem& item) {
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
    SendReply(conn, item.request_id, wire::EncodeReloadReply(info));
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
      // The wire deadline covers the wait since decode: hand the
      // traversal only what is left, floored at a hair above zero so an
      // already-expired request trips the gate immediately and still
      // returns a well-formed certified partial.
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
  SendReply(conn, item.request_id, wire::EncodeResultReply(results));
  in_flight.fetch_sub(item.admitted);
}

// Writes outbuf until the socket would block; false once the peer is
// gone.
bool TopKServer::Impl::Flush(Connection& conn) {
  while (conn.outpos < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.outpos,
               conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outpos += static_cast<std::size_t>(n);
      conn.last_write_progress.Restart();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  conn.outbuf.clear();
  conn.outpos = 0;
  return true;
}

void TopKServer::Impl::Rearm(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.claimed = false;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  // A connection closing after its last reply reads nothing more.
  ev.events = (conn.close_after_flush ? 0u : EPOLLIN) |
              (conn.outbuf.empty() ? 0u : EPOLLOUT) | EPOLLONESHOT;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

// The caller holds the claim, or every pool thread has been joined.
void TopKServer::Impl::Close(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
  }
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  std::lock_guard<std::mutex> lock(conns_mu);
  conns.erase(conn->id);
}

void TopKServer::Impl::ReapTimeouts() {
  std::unique_lock<std::mutex> reap_lock(reap_mu, std::try_to_lock);
  if (!reap_lock.owns_lock() || since_reap.ElapsedMillis() < kEpollWaitMs) {
    return;
  }
  since_reap.Restart();
  for (auto& conn : Snapshot()) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->claimed || conn->closed) continue;
      const bool stuck_write =
          !conn->outbuf.empty() &&
          conn->last_write_progress.ElapsedSeconds() > kIoTimeoutSeconds;
      const bool idle = conn->last_activity.ElapsedSeconds() >
                        options.idle_timeout_seconds;
      if (!stuck_write && !idle) continue;
      conn->claimed = true;  // only a claim holder closes
    }
    Close(conn);
  }
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

void TopKServer::Impl::SendReply(Connection& conn, std::uint32_t request_id,
                                 const std::vector<std::uint8_t>& payload) {
  if (conn.outbuf.empty()) conn.last_write_progress.Restart();
  if (!wire::AppendFrame(request_id, payload, &conn.outbuf)) {
    // Admission bounds the worst-case reply, so this is a belt-and-
    // braces path: degrade to a bare kError the client can parse
    // rather than ever aborting or emitting a broken frame.
    const bool sent = wire::AppendFrame(
        request_id,
        wire::EncodeStatusReply(wire::ReplyStatus::kError,
                                "reply exceeds the frame payload cap"),
        &conn.outbuf);
    DRLI_CHECK(sent);  // a bare status reply is a few dozen bytes
  }
}

std::vector<std::shared_ptr<Connection>> TopKServer::Impl::Snapshot() {
  std::lock_guard<std::mutex> lock(conns_mu);
  std::vector<std::shared_ptr<Connection>> out;
  out.reserve(conns.size());
  for (auto& [id, conn] : conns) out.push_back(conn);
  return out;
}

// Admitted work lives only inside a claim, so an unclaimed connection
// with an empty outbuf has nothing left to answer.
bool TopKServer::Impl::AllFlushedAndIdle() {
  for (auto& conn : Snapshot()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->closed && (conn->claimed || !conn->outbuf.empty())) {
      return false;
    }
  }
  return true;
}

void TopKServer::Impl::ShutdownNow() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu);
  if (started.load()) {
    draining.store(true);
    StopAccepting();
    // Drain: let admitted work finish and replies flush, bounded.
    Stopwatch drain;
    while (drain.ElapsedSeconds() < kDrainTimeoutSeconds &&
           !AllFlushedAndIdle()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (auto& thread : pool) {
      if (thread.joinable()) thread.join();
    }
    if (watcher.joinable()) watcher.join();
    started.store(false);
  }
  // Every pool thread is joined (or never started), so no claim is
  // held. Also runs for a Start that failed partway, so its fds do not
  // leak.
  StopAccepting();
  for (auto& conn : Snapshot()) Close(conn);
  if (epoll_fd >= 0) {
    ::close(epoll_fd);
    epoll_fd = -1;
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
  counters.polled_events = impl_->polled_events.load();
  counters.reloads = impl_->engine.reload_count();
  return counters;
}

ServingEngine& TopKServer::engine() { return impl_->engine; }

}  // namespace server
}  // namespace drli
