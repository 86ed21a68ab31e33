#include "shard/shard_io.h"

#include <cstdio>
#include <utility>

namespace drli {

namespace {

// The prologue's counters, in manifest order.
enum Counter { kNumShards, kTotalPoints, kPartitionSeed, kNumCounters };

constexpr ManifestFormat kFormat{"shard manifest", shard_manifest::kMagic,
                                 shard_manifest::kVersion, kNumCounters,
                                 "shard"};

}  // namespace

StatusOr<ShardManifestInfo> InspectShardManifest(const std::string& path) {
  ManifestReader reader(kFormat, path);
  ManifestPrologue prologue;
  if (Status status = reader.Open(&prologue); !status.ok()) return status;
  if (prologue.word > 1) return reader.Corrupt("unknown partitioner");
  const std::uint64_t num_shards = prologue.counters[kNumShards];
  const std::uint64_t total_points = prologue.counters[kTotalPoints];
  if (num_shards == 0 || num_shards > shard_manifest::kMaxShards) {
    return reader.Corrupt("shard count out of range");
  }
  if (total_points >= kInvalidTupleId) {
    return reader.Corrupt("total_points out of range");
  }

  ShardManifestInfo info;
  info.version = kFormat.version;
  info.dim = prologue.dim;
  info.partitioner = static_cast<ShardPartitioner>(prologue.word);
  info.num_shards = num_shards;
  info.total_points = total_points;
  info.partition_seed = prologue.counters[kPartitionSeed];
  info.name = std::move(prologue.name);
  info.shards.resize(static_cast<std::size_t>(num_shards));
  std::uint64_t members = 0;
  for (ManifestEntry& shard : info.shards) {
    reader.ResetAscending();
    if (Status status = reader.ReadEntry(total_points, &shard); !status.ok()) {
      return status;
    }
    members += shard.num_points;
  }
  if (Status status = reader.Finish(); !status.ok()) return status;
  // The member lists must form an exact partition of [0, total_points):
  // as many members as tuples (which also bounds the bitmap by the
  // bytes read), none in two shards.
  if (members != total_points) {
    return reader.Corrupt("shards do not cover the relation");
  }
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(total_points), 0);
  for (const ManifestEntry& shard : info.shards) {
    for (const TupleId id : shard.ids) {
      if (seen[id]++ != 0) {
        return reader.Corrupt("tuple assigned to two shards");
      }
    }
  }
  return info;
}

std::string ShardFilePath(const std::string& manifest_path, std::size_t s) {
  char suffix[32];  // ".shard-", up to 20 digits of a size_t, NUL
  std::snprintf(suffix, sizeof(suffix), ".shard-%04zu", s);
  return manifest_path + suffix;
}

Status SaveShardedIndex(const ShardedDualLayerIndex& index,
                        const std::string& path) {
  // Shards first, manifest last: the manifest only ever points at
  // fully committed shard snapshots.
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    const Status status =
        SaveDualLayerIndex(index.shard(s), ShardFilePath(path, s));
    if (!status.ok()) return status;
  }

  std::vector<std::uint8_t> bytes;
  AppendManifestPrologue(
      kFormat,
      ManifestPrologue{static_cast<std::uint32_t>(index.dim()),
                       static_cast<std::uint32_t>(index.partitioner()),
                       {index.num_shards(), index.size(),
                        index.partition_seed()},
                       index.name()},
      &bytes);
  const std::string base = BaseOf(path);
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    AppendManifestEntry(BaseOf(ShardFilePath(base, s)),
                        index.shard_members(s), &bytes);
  }
  return WriteManifest(path, std::move(bytes));
}

StatusOr<ShardedDualLayerIndex> LoadShardedIndex(
    const std::string& path, const ShardedLoadOptions& options) {
  StatusOr<ShardManifestInfo> info = InspectShardManifest(path);
  if (!info.ok()) return info.status();
  StatusOr<std::vector<DualLayerPartition>> shards =
      LoadManifestPartitions(kFormat, path, info.value().dim,
                             &info.value().shards, options.snapshot);
  if (!shards.ok()) return shards.status();

  ShardedDualLayerIndex index;
  index.dim_ = info.value().dim;
  index.total_points_ = static_cast<std::size_t>(info.value().total_points);
  index.partitioner_ = info.value().partitioner;
  index.partition_seed_ = info.value().partition_seed;
  index.name_ = info.value().name;
  index.shards_ = std::move(shards).value();
  index.MakePartitions();
  return index;
}

bool IsShardManifest(const std::string& path) {
  return FileStartsWithMagic(path, kFormat.magic);
}

}  // namespace drli
