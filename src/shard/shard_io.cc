#include "shard/shard_io.h"

#include <cstdio>
#include <utility>

#include "common/crc32c.h"
#include "storage/file_io.h"
#include "storage/mmap_file.h"

namespace drli {

namespace {

using shard_manifest::kMagic;
using shard_manifest::kMaxNameLength;
using shard_manifest::kMaxShards;
using shard_manifest::kVersion;

Status CorruptManifest(const std::string& path, const std::string& detail) {
  return Status::Corruption("shard manifest " + path + ": " + detail);
}

// Parses + validates everything except the shard files themselves.
// `members` is optional (Inspect skips materializing the id lists).
Status ParseManifest(const std::string& path, ByteSpan bytes,
                     ShardManifestInfo* info,
                     std::vector<std::vector<TupleId>>* members) {
  // Header (40 bytes) + name length + checksum is the smallest legal
  // manifest; anything shorter cannot even hold the trailer.
  if (bytes.size() < 40 + 8 + 4) {
    return CorruptManifest(path, "truncated");
  }
  const std::size_t body = bytes.size() - 4;
  std::uint32_t stored_crc = 0;
  ByteReader(bytes.subspan(body)).ReadU32(&stored_crc);
  const std::uint32_t actual_crc = Crc32c(bytes.data(), body);
  ByteReader cursor(bytes.first(body));

  std::uint32_t magic = 0, version = 0, dim = 0, partitioner = 0;
  cursor.ReadU32(&magic);
  if (magic != kMagic) return CorruptManifest(path, "bad magic");
  // Magic before checksum so a non-manifest file reads as "not a
  // manifest", but any bit flip inside a real manifest -- trailer
  // included -- is a checksum failure.
  if (actual_crc != stored_crc) return CorruptManifest(path, "checksum mismatch");
  cursor.ReadU32(&version);
  if (version != kVersion) {
    return CorruptManifest(path,
                           "unsupported version " + std::to_string(version));
  }
  cursor.ReadU32(&dim);
  if (dim == 0 || dim > snapshot::kMaxDim) {
    return CorruptManifest(path, "dim out of range");
  }
  cursor.ReadU32(&partitioner);
  if (partitioner > 1) return CorruptManifest(path, "unknown partitioner");
  std::uint64_t num_shards = 0, total_points = 0, partition_seed = 0,
                flags = 0, name_len = 0;
  cursor.ReadU64(&num_shards);
  cursor.ReadU64(&total_points);
  cursor.ReadU64(&partition_seed);
  cursor.ReadU64(&flags);
  if (!cursor.ReadU64(&name_len)) return CorruptManifest(path, "truncated");
  if (num_shards == 0 || num_shards > kMaxShards) {
    return CorruptManifest(path, "shard count out of range");
  }
  if (total_points >= kInvalidTupleId) {
    return CorruptManifest(path, "total_points out of range");
  }
  // Every tuple id occupies 4 manifest bytes, so a total beyond
  // size/4 cannot be covered -- reject before sizing the seen bitmap.
  if (total_points > bytes.size() / 4) {
    return CorruptManifest(path, "total_points exceeds manifest capacity");
  }
  if (flags != 0) return CorruptManifest(path, "unknown flags");
  if (name_len > kMaxNameLength) return CorruptManifest(path, "name too long");
  std::string name;
  if (!cursor.ReadString(name_len, &name)) {
    return CorruptManifest(path, "truncated name");
  }

  info->version = version;
  info->dim = dim;
  info->partitioner = static_cast<ShardPartitioner>(partitioner);
  info->num_shards = num_shards;
  info->total_points = total_points;
  info->partition_seed = partition_seed;
  info->name = std::move(name);

  std::vector<std::uint8_t> seen(static_cast<std::size_t>(total_points), 0);
  std::uint64_t covered = 0;
  if (members != nullptr) members->resize(static_cast<std::size_t>(num_shards));
  for (std::uint64_t s = 0; s < num_shards; ++s) {
    std::uint64_t num_points = 0, file_len = 0;
    if (!cursor.ReadU64(&num_points) || !cursor.ReadU64(&file_len)) {
      return CorruptManifest(path, "truncated shard table");
    }
    if (num_points > total_points) {
      return CorruptManifest(path, "shard cardinality exceeds total");
    }
    if (file_len == 0 || file_len > kMaxNameLength) {
      return CorruptManifest(path, "shard file name length out of range");
    }
    std::string file;
    if (!cursor.ReadString(file_len, &file)) {
      return CorruptManifest(path, "truncated shard file name");
    }
    if (!SafeRelativeFile(file)) {
      return CorruptManifest(path, "unsafe shard file name: " + file);
    }
    if (cursor.remaining() < num_points * 4) {
      return CorruptManifest(path, "truncated member list");
    }
    TupleId previous = 0;
    bool first = true;
    std::vector<TupleId>* out =
        members != nullptr ? &(*members)[static_cast<std::size_t>(s)] : nullptr;
    if (out != nullptr) out->reserve(static_cast<std::size_t>(num_points));
    for (std::uint64_t i = 0; i < num_points; ++i) {
      std::uint32_t id = 0;
      cursor.ReadU32(&id);
      if (id >= total_points) {
        return CorruptManifest(path, "member id out of range");
      }
      if (!first && id <= previous) {
        return CorruptManifest(path, "member ids not strictly ascending");
      }
      if (seen[id] != 0) {
        return CorruptManifest(path, "tuple assigned to two shards");
      }
      seen[id] = 1;
      ++covered;
      previous = id;
      first = false;
      if (out != nullptr) out->push_back(id);
    }
    info->shards.push_back(
        ShardManifestShardInfo{num_points, std::move(file)});
  }
  if (covered != total_points) {
    return CorruptManifest(path, "shards do not cover the relation");
  }
  if (cursor.remaining() != 0) {
    return CorruptManifest(path, "trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

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
  AppendU32(&bytes, kMagic);
  AppendU32(&bytes, kVersion);
  AppendU32(&bytes, static_cast<std::uint32_t>(index.dim()));
  AppendU32(&bytes, static_cast<std::uint32_t>(index.partitioner()));
  AppendU64(&bytes, index.num_shards());
  AppendU64(&bytes, index.size());
  AppendU64(&bytes, index.partition_seed());
  AppendU64(&bytes, 0);  // flags
  const std::string name = index.name();
  AppendU64(&bytes, name.size());
  bytes.insert(bytes.end(), name.begin(), name.end());
  const std::string base = BaseOf(path);
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    const std::vector<TupleId>& members = index.shard_members(s);
    AppendU64(&bytes, members.size());
    const std::string file = BaseOf(ShardFilePath(base, s));
    AppendU64(&bytes, file.size());
    bytes.insert(bytes.end(), file.begin(), file.end());
    for (const TupleId id : members) AppendU32(&bytes, id);
  }
  AppendU32(&bytes, Crc32c(bytes.data(), bytes.size()));
  const ByteSpan parts[] = {bytes};
  return WriteFileAtomic(path, parts);
}

StatusOr<ShardedDualLayerIndex> LoadShardedIndex(
    const std::string& path, const ShardedLoadOptions& options) {
  StatusOr<std::vector<std::uint8_t>> bytes = MmapFile::ReadFileContents(path);
  if (!bytes.ok()) return bytes.status();
  ShardManifestInfo info;
  std::vector<std::vector<TupleId>> members;
  {
    const Status status = ParseManifest(path, bytes.value(), &info, &members);
    if (!status.ok()) return status;
  }

  ShardedDualLayerIndex index;
  index.dim_ = info.dim;
  index.total_points_ = static_cast<std::size_t>(info.total_points);
  index.partitioner_ = info.partitioner;
  index.partition_seed_ = info.partition_seed;
  index.name_ = info.name;
  index.members_ = std::move(members);

  const std::string dir = DirOf(path);
  index.shards_.reserve(static_cast<std::size_t>(info.num_shards));
  for (std::size_t s = 0; s < info.num_shards; ++s) {
    const std::string shard_path = dir + info.shards[s].file;
    StatusOr<DualLayerIndex> shard =
        LoadDualLayerIndex(shard_path, options.snapshot);
    if (!shard.ok()) return shard.status();
    if (shard.value().points().dim() != info.dim) {
      return Status::Corruption("shard " + shard_path +
                                ": dim does not match manifest");
    }
    if (shard.value().size() != info.shards[s].num_points) {
      return Status::Corruption("shard " + shard_path +
                                ": cardinality does not match manifest");
    }
    index.shards_.push_back(std::move(shard).value());
  }
  index.ComputeShardBounds(/*threads=*/0);
  return index;
}

bool IsShardManifest(const std::string& path) {
  return FileStartsWithMagic(path, kMagic);
}

StatusOr<ShardManifestInfo> InspectShardManifest(const std::string& path) {
  StatusOr<std::vector<std::uint8_t>> bytes = MmapFile::ReadFileContents(path);
  if (!bytes.ok()) return bytes.status();
  ShardManifestInfo info;
  const Status status = ParseManifest(path, bytes.value(), &info, nullptr);
  if (!status.ok()) return status;
  return info;
}

}  // namespace drli
