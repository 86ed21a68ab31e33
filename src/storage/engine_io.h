// One loader for every saved DL+ engine (DESIGN.md §10): the snapshot's
// 4-byte magic picks the engine. A DRLS shard manifest loads a
// ShardedDualLayerIndex, a DRLT tiered manifest a TieredDualLayerIndex,
// and anything else a single DualLayerIndex (v2 snapshot, mmap). The
// CLI and the serving front end both load through it, so no caller
// routes a file by its format.

#ifndef DRLI_STORAGE_ENGINE_IO_H_
#define DRLI_STORAGE_ENGINE_IO_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "core/dual_layer.h"
#include "core/partition_merge.h"
#include "core/tiered_index.h"
#include "shard/sharded_index.h"
#include "topk/query.h"

namespace drli {

// A loaded engine: exactly one slot is engaged.
struct LoadedEngine {
  std::optional<DualLayerIndex> dl;
  std::optional<ShardedDualLayerIndex> sharded;
  std::optional<TieredDualLayerIndex> tiered;

  // The engaged slot through the common interface. Read from the slots
  // on every call, so a moved LoadedEngine never points into the old one.
  const TopKIndex& index() const {
    if (dl.has_value()) return *dl;
    if (sharded.has_value()) return *sharded;
    return *tiered;
  }

  // The shards or runs of a sharded or tiered engine, as its merges see
  // them; no parts for a single index.
  const PartitionSet& partitions() const;
};

// Loads the engine saved at `path`. A missing, torn or unknown file is
// an error status, never a crash.
StatusOr<LoadedEngine> LoadEngine(const std::string& path);

}  // namespace drli

#endif  // DRLI_STORAGE_ENGINE_IO_H_
