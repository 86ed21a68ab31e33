// Generation management for the serving front end (DESIGN.md §10).
//
// A serving directory holds generation-named snapshot files (any
// format the CLI writes: dl+ v2, DRLS shard manifest + shards, DRLT
// tiered manifest + runs) plus one pointer file, CURRENT, whose first
// line names the snapshot to serve. Publishing a new generation is a
// write to CURRENT.tmp followed by an atomic rename, so a reader of
// CURRENT sees either the old name or the new name, never a torn one.
//
// The engine polls CURRENT by stat (inode + mtime + size -- the rename
// always changes the inode) and, on a pointer change, loads the new
// snapshot read-only (mmap for v2 single indexes) and swaps it in
// behind a shared_ptr. In-flight queries keep the generation they
// started on pinned through their own shared_ptr copy, so a reload
// drops zero queries and frees the old mapping exactly when its last
// query finishes. A failed load (missing file, torn snapshot, bad
// CURRENT) keeps the old generation serving and surfaces the error
// through last_reload_error() / the kReload verb.

#ifndef DRLI_SERVER_SERVING_ENGINE_H_
#define DRLI_SERVER_SERVING_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "scenarios/diversified.h"
#include "server/protocol.h"
#include "shard/sharded_index.h"
#include "topk/query.h"

namespace drli {
namespace server {

// One loaded snapshot generation. Exactly one of the engine slots is
// engaged; `index` points at it through the common interface. Pinned
// by shared_ptr: the ServingEngine holds the serving generation, every
// in-flight query holds the generation it started on.
struct ServingGeneration {
  // Monotone per-process sequence number; bumps on every swap. Echoed
  // in every reply so a client (and the reload race test) can tie an
  // answer to the snapshot that produced it.
  std::uint64_t sequence = 0;
  // The CURRENT pointer value this generation was loaded from.
  std::string snapshot;

  std::optional<DualLayerIndex> dl;
  std::optional<ShardedDualLayerIndex> sharded;
  std::optional<TieredDualLayerIndex> tiered;
  const TopKIndex* index = nullptr;
  std::size_t dim = 0;
};

class ServingEngine {
 public:
  ServingEngine() = default;
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // Opens `dir` and loads the generation its CURRENT file names.
  Status Open(const std::string& dir);

  // Pins the serving generation (never null after a successful Open).
  std::shared_ptr<const ServingGeneration> Acquire() const;

  // Checks CURRENT for a pointer change; loads and swaps on one.
  // Returns true when a new generation was swapped in, false when the
  // pointer is unchanged. A failed load keeps the old generation
  // serving, records last_reload_error(), and returns the error.
  StatusOr<bool> PollReload();

  const std::string& dir() const { return dir_; }
  // Completed swaps since Open.
  std::uint64_t reload_count() const;
  // Detail of the most recent failed reload; empty after a clean one.
  std::string last_reload_error() const;

 private:
  Status LoadGeneration(const std::string& name,
                        std::shared_ptr<const ServingGeneration>* out);
  // Reads the first line of CURRENT (trimmed), rejecting empty or
  // path-escaping names.
  StatusOr<std::string> ReadCurrent() const;

  std::string dir_;
  mutable std::mutex mu_;           // guards everything below
  std::shared_ptr<const ServingGeneration> generation_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t reload_count_ = 0;
  std::string last_reload_error_;
  // Identity of CURRENT at the last load/poll (rename changes the
  // inode, so pointer bumps are detected without reading the file).
  std::uint64_t current_ino_ = 0;
  std::int64_t current_mtime_ns_ = 0;
  std::int64_t current_size_ = 0;
  std::mutex reload_mu_;  // serializes concurrent PollReload calls
};

// Atomically repoints `dir`/CURRENT at `snapshot_name` through
// WriteFileAtomic (storage/file_io.h: CURRENT.tmp, fsync, rename). The
// snapshot file(s) must already be saved -- publish is the last step.
Status PublishSnapshot(const std::string& dir,
                       const std::string& snapshot_name);

// Runs one wire query against a pinned generation with the budget the
// server derived from its deadline fields. Scenario support over the
// wire: plain and constrained run on every engine; diversified and
// reverse need a single dl+ generation (and reverse a 2-d relation);
// anything else is a recoverable kInvalidQuery reply, never a crash.
wire::WireResult ExecuteWireQuery(const ServingGeneration& generation,
                                  const wire::WireQuery& query,
                                  const ExecBudget& budget);

// Runs a kBatch frame's plain queries through TopKIndex::QueryBatch;
// non-plain scenarios and k past the wire reply bound come back
// kInvalidQuery (use kQuery for scenario routing). budgets[i] is query
// i's ExecBudget. Nothing is shed here: the server's loop thread admits
// or sheds a whole request against its in-flight cap beforehand.
std::vector<wire::WireResult> ExecuteWireBatch(
    const ServingGeneration& generation,
    const std::vector<wire::WireQuery>& queries,
    const std::vector<ExecBudget>& budgets);

}  // namespace server
}  // namespace drli

#endif  // DRLI_SERVER_SERVING_ENGINE_H_
