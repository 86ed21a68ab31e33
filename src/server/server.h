// Epoll-based TCP serving front end (DESIGN.md §10): one pool of
// identical threads waits on one epoll set with one listener. The
// thread that gets a connection's event reads one burst from it,
// answers or admits every frame in it, runs the admitted requests in
// frame order through the QueryBatch machinery, writes each reply, and
// re-arms the connection. A thread that just finished a cycle polls the
// epoll set for a bounded window before it blocks (at most one thread
// polls at a time). A watcher thread polls the serving directory's
// CURRENT pointer for hot generation swaps.
//
// Robustness contract, in degradation order:
//   1. full answers while capacity and deadlines allow;
//   2. certified partials when a per-request deadline or step budget
//      trips mid-traversal (wire deadline_ms counts from frame decode,
//      the wait behind earlier frames of its burst included -- a
//      request that waited its whole deadline out gets an immediate
//      kDeadline partial, not a stale run);
//   3. deterministic load shedding with kOverloaded + retry-after once
//      admission control's in-flight cap is reached;
//   4. kShuttingDown while draining (in-flight work still completes).
// Malformed input never crashes: a corrupt frame header/CRC earns one
// best-effort kMalformed reply and a close, an undecodable payload
// under an intact frame earns kMalformed with the connection kept, and
// idle / stuck-IO connections are reaped by timeout.

#ifndef DRLI_SERVER_SERVER_H_
#define DRLI_SERVER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "server/protocol.h"
#include "server/serving_engine.h"

namespace drli {
namespace server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; port() reports the one the kernel chose.
  std::uint16_t port = 0;
  // The server runs num_loops + num_workers identical pool threads,
  // each of which accepts, reads, executes and replies.
  // 0 = one per core, capped at 4.
  std::size_t num_loops = 0;
  // 0 = one per core, capped at 8.
  std::size_t num_workers = 0;
  // Admission cap on wire queries admitted or executing; at the cap new
  // requests shed deterministically with kOverloaded. 0 = 256.
  std::size_t max_in_flight = 0;
  // Deadline applied to queries whose frame carries none (ms; 0 = no
  // default deadline).
  double default_deadline_ms = 0.0;
  // Connections silent this long are closed.
  double idle_timeout_seconds = 60.0;
  // CURRENT watcher period.
  double reload_poll_seconds = 0.25;
  // Retry hint carried in kOverloaded replies.
  std::uint32_t retry_after_ms = 50;
  // Test hook: the executing thread sleeps this long per admitted
  // request before running it, making overload and drain windows
  // deterministic.
  double test_worker_delay_ms = 0.0;
};

struct ServerCounters {
  std::uint64_t queries_served = 0;   // wire queries answered (any status)
  std::uint64_t queries_shed = 0;     // kOverloaded rejections
  std::uint64_t queries_in_flight = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t reloads = 0;
  // Events a pool thread got while polling before it would block
  // (DESIGN.md §10), not after blocking. In-process only.
  std::uint64_t polled_events = 0;
};

// The server. Start() spawns the pool and the watcher;
// Shutdown() drains gracefully (idempotent; the destructor calls it).
class TopKServer {
 public:
  TopKServer();
  ~TopKServer();
  TopKServer(const TopKServer&) = delete;
  TopKServer& operator=(const TopKServer&) = delete;

  // Opens `dir` through a ServingEngine (loads the CURRENT
  // generation), binds, listens, and spawns the threads.
  Status Start(const std::string& dir, const ServerOptions& options);

  // Port actually bound (== options.port unless that was 0).
  std::uint16_t port() const;

  // Graceful drain: stop accepting, answer admitted work, flush replies,
  // join every thread. Safe to call more than once / concurrently
  // with serving; wired to SIGTERM/SIGINT by `drli serve`.
  void Shutdown();

  bool draining() const;
  ServerCounters counters() const;
  // The generation manager (tests publish + force-poll through it).
  ServingEngine& engine();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace server
}  // namespace drli

#endif  // DRLI_SERVER_SERVER_H_
