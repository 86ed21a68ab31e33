// Persistence for ShardedDualLayerIndex: one standard v2 snapshot per
// shard (core/serialization -- checksummed sections, atomic writes,
// mmap zero-copy loads all apply unchanged) plus a small checksummed
// manifest that records the partition: which global tuple ids live in
// which shard file.
//
// The manifest is written with the partition-table codec the tiered
// manifest shares (storage/manifest_codec.h): magic "DRLS", version 1,
// the partitioner as the prologue word, the counters num_shards,
// total_points and partition_seed, then one entry per shard (its file
// "<manifest>.shard-NNNN" and ascending global member ids). The loader
// trusts nothing: every length is bounded before use, the member lists
// must form an exact partition of [0, total_points), the per-shard
// files must parse as valid snapshots of matching dim and cardinality.
// Shard corner bounds are recomputed from the loaded points on worker
// threads, never persisted.

#ifndef DRLI_SHARD_SHARD_IO_H_
#define DRLI_SHARD_SHARD_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/serialization.h"
#include "shard/sharded_index.h"
#include "storage/manifest_codec.h"

namespace drli {

namespace shard_manifest {
inline constexpr std::uint32_t kMagic = 0x534c5244;  // "DRLS" LE
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kMaxShards = 4096;
}  // namespace shard_manifest

struct ShardedLoadOptions {
  // Load options applied to every per-shard snapshot (mmap by default).
  SnapshotLoadOptions snapshot{};
};

// The on-disk file of shard `s` for a manifest at `manifest_path`:
// "<manifest_path>.shard-NNNN". Exposed so tests and tools can target
// individual shard files (fault injection, missing-file paths).
std::string ShardFilePath(const std::string& manifest_path, std::size_t s);

// Writes every shard snapshot and then the manifest, each atomically
// and durably (storage/file_io.h: temp file, fsync, rename), manifest
// last -- a crash mid-save leaves either the old index or stray shard
// files, never a manifest pointing at missing or torn shards.
Status SaveShardedIndex(const ShardedDualLayerIndex& index,
                        const std::string& path);

// Reads a manifest and all shard snapshots written by SaveShardedIndex.
StatusOr<ShardedDualLayerIndex> LoadShardedIndex(
    const std::string& path, const ShardedLoadOptions& options = {});

// Cheap probe: does `path` start with the shard-manifest magic? Used by
// LoadEngine (storage/engine_io.h) and by `drli stats`/`drli inspect`.
bool IsShardManifest(const std::string& path);

// --- manifest metadata (drli inspect, tests) ---

struct ShardManifestInfo {
  std::uint32_t version = 0;
  std::size_t dim = 0;
  ShardPartitioner partitioner = ShardPartitioner::kRandom;
  std::uint64_t num_shards = 0;
  std::uint64_t total_points = 0;
  std::uint64_t partition_seed = 0;
  std::string name;
  std::vector<ManifestEntry> shards;
};

// Parses and fully validates the manifest (checksum included) without
// touching the shard files.
StatusOr<ShardManifestInfo> InspectShardManifest(const std::string& path);

}  // namespace drli

#endif  // DRLI_SHARD_SHARD_IO_H_
