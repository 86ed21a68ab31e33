#include "storage/engine_io.h"

#include <utility>

#include "core/serialization.h"
#include "shard/shard_io.h"
#include "storage/tiered_io.h"

namespace drli {

PartitionSet LoadedEngine::partitions() const {
  if (sharded.has_value()) return sharded->partitions();
  if (tiered.has_value()) return tiered->partitions();
  return {};
}

StatusOr<LoadedEngine> LoadEngine(const std::string& path) {
  LoadedEngine engine;
  const auto fill = [](auto loaded, auto& slot) -> Status {
    if (!loaded.ok()) return loaded.status();
    slot.emplace(std::move(loaded).value());
    return Status::Ok();
  };
  Status status =
      IsShardManifest(path)    ? fill(LoadShardedIndex(path), engine.sharded)
      : IsTieredManifest(path) ? fill(LoadTieredIndex(path), engine.tiered)
                               : fill(LoadDualLayerIndex(path), engine.dl);
  if (!status.ok()) return status;
  return engine;
}

}  // namespace drli
