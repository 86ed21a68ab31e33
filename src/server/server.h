// Epoll-based TCP serving front end (DESIGN.md §10): thread-per-core
// event loops (each with its own SO_REUSEPORT listener and epoll set)
// accept and frame connections; a shared worker pool answers query
// work through the QueryBatch machinery; a watcher thread polls the
// serving directory's CURRENT pointer for hot generation swaps.
//
// Robustness contract, in degradation order:
//   1. full answers while capacity and deadlines allow;
//   2. certified partials when a per-request deadline or step budget
//      trips mid-traversal (wire deadline_ms counts from frame arrival,
//      queue wait included -- a request that waited its whole deadline
//      out gets an immediate empty kDeadline partial, not a stale run);
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
  // Event loops (each an acceptor + epoll set). 0 = one per core,
  // capped at 4.
  std::size_t num_loops = 0;
  // Query worker threads. 0 = one per core, capped at 8.
  std::size_t num_workers = 0;
  // Admission cap on wire queries queued or executing; at the cap new
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
  // Test hook: every worker sleeps this long per request before
  // executing, making overload and drain windows deterministic.
  double test_worker_delay_ms = 0.0;
};

struct ServerCounters {
  std::uint64_t queries_served = 0;   // wire queries answered (any status)
  std::uint64_t queries_shed = 0;     // kOverloaded rejections
  std::uint64_t queries_in_flight = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t reloads = 0;
};

// The server. Start() spawns the loops, workers, and watcher;
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

  // Graceful drain: stop accepting, answer queued work, flush replies,
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
