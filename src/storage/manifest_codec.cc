#include "storage/manifest_codec.h"

#include <utility>

#include "common/crc32c.h"
#include "common/parallel_for.h"
#include "storage/mmap_file.h"

namespace drli {

namespace {

// Bounds a manifest's name and every partition file name.
constexpr std::uint64_t kMaxNameLength = 4096;

}  // namespace

void AppendManifestPrologue(const ManifestFormat& format,
                            const ManifestPrologue& prologue,
                            std::vector<std::uint8_t>* out) {
  AppendU32(out, format.magic);
  AppendU32(out, format.version);
  AppendU32(out, prologue.dim);
  AppendU32(out, prologue.word);
  for (const std::uint64_t counter : prologue.counters) {
    AppendU64(out, counter);
  }
  AppendU64(out, 0);  // flags
  AppendU64(out, prologue.name.size());
  out->insert(out->end(), prologue.name.begin(), prologue.name.end());
}

void AppendManifestEntry(const std::string& file,
                         const std::vector<TupleId>& ids,
                         std::vector<std::uint8_t>* out) {
  AppendU64(out, ids.size());
  AppendU64(out, file.size());
  out->insert(out->end(), file.begin(), file.end());
  for (const TupleId id : ids) AppendU32(out, id);
}

Status WriteManifest(const std::string& path,
                     std::vector<std::uint8_t> bytes) {
  AppendU32(&bytes, Crc32c(bytes.data(), bytes.size()));
  const ByteSpan parts[] = {bytes};
  return WriteFileAtomic(path, parts);
}

Status ManifestReader::Corrupt(const std::string& detail) const {
  return Status::Corruption(std::string(format_.kind) + " " + path_ + ": " +
                            detail);
}

Status ManifestReader::Open(ManifestPrologue* out) {
  StatusOr<std::vector<std::uint8_t>> bytes =
      MmapFile::ReadFileContents(path_);
  if (!bytes.ok()) return bytes.status();
  bytes_ = std::move(bytes).value();
  // The four u32 words, the counters, flags and name length, and the
  // trailer are the smallest legal manifest.
  if (bytes_.size() < 16 + 8 * (format_.num_counters + 2) + 4) {
    return Corrupt("truncated");
  }
  const ByteSpan all(bytes_);
  const std::size_t body = all.size() - 4;
  std::uint32_t stored_crc = 0;
  ByteReader(all.subspan(body)).ReadU32(&stored_crc);
  cursor_ = ByteReader(all.first(body));

  std::uint32_t magic = 0, version = 0;
  cursor_.ReadU32(&magic);
  if (magic != format_.magic) return Corrupt("bad magic");
  if (Crc32c(all.data(), body) != stored_crc) {
    return Corrupt("checksum mismatch");
  }
  cursor_.ReadU32(&version);
  if (version != format_.version) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  cursor_.ReadU32(&out->dim);
  if (out->dim == 0 || out->dim > snapshot::kMaxDim) {
    return Corrupt("dim out of range");
  }
  cursor_.ReadU32(&out->word);
  out->counters.assign(format_.num_counters, 0);
  for (std::uint64_t& counter : out->counters) cursor_.ReadU64(&counter);
  std::uint64_t flags = 0, name_len = 0;
  cursor_.ReadU64(&flags);
  cursor_.ReadU64(&name_len);
  if (flags != 0) return Corrupt("unknown flags");
  if (name_len > kMaxNameLength) return Corrupt("name too long");
  if (!cursor_.ReadString(name_len, &out->name)) {
    return Corrupt("truncated name");
  }
  return Status::Ok();
}

Status ManifestReader::ReadAscendingIds(std::uint64_t count,
                                        std::uint64_t id_limit,
                                        const std::string& what,
                                        std::vector<TupleId>* out) {
  if (cursor_.remaining() / 4 < count) {
    return Corrupt("truncated " + what + " list");
  }
  out->resize(static_cast<std::size_t>(count));
  for (TupleId& id : *out) {
    cursor_.ReadU32(&id);
    if (id >= id_limit) return Corrupt(what + " id out of range");
    if (any_id_ && id <= last_id_) {
      return Corrupt(what + " ids not strictly ascending");
    }
    any_id_ = true;
    last_id_ = id;
  }
  return Status::Ok();
}

Status ManifestReader::ReadEntry(std::uint64_t id_limit, ManifestEntry* out) {
  const std::string noun = format_.noun;
  std::uint64_t file_len = 0;
  if (!cursor_.ReadU64(&out->num_points) || !cursor_.ReadU64(&file_len)) {
    return Corrupt("truncated " + noun + " table");
  }
  if (out->num_points > id_limit) {
    return Corrupt(noun + " cardinality exceeds id space");
  }
  if (file_len == 0 || file_len > kMaxNameLength) {
    return Corrupt(noun + " file name length out of range");
  }
  if (!cursor_.ReadString(file_len, &out->file)) {
    return Corrupt("truncated " + noun + " file name");
  }
  if (!SafeRelativeFile(out->file)) {
    return Corrupt("unsafe " + noun + " file name: " + out->file);
  }
  return ReadAscendingIds(out->num_points, id_limit, noun + " member",
                          &out->ids);
}

Status ManifestReader::Finish() const {
  return cursor_.remaining() == 0 ? Status::Ok() : Corrupt("trailing bytes");
}

StatusOr<std::vector<DualLayerPartition>> LoadManifestPartitions(
    const ManifestFormat& format, const std::string& path, std::size_t dim,
    std::vector<ManifestEntry>* entries, const SnapshotLoadOptions& options) {
  std::vector<DualLayerPartition> partitions;
  partitions.reserve(entries->size());
  for (ManifestEntry& entry : *entries) {
    const std::string file = DirOf(path) + entry.file;
    StatusOr<DualLayerIndex> index = LoadDualLayerIndex(file, options);
    if (!index.ok()) return index.status();
    const std::string where = std::string(format.noun) + " " + file;
    if (index.value().points().dim() != dim) {
      return Status::Corruption(where + ": dim does not match manifest");
    }
    if (index.value().size() != entry.num_points) {
      return Status::Corruption(where +
                                ": cardinality does not match manifest");
    }
    partitions.push_back(
        {std::move(index).value(), std::move(entry.ids), {}});
  }
  // Bound points cost an LP per LP-gated skyline member: one partition
  // per worker.
  ParallelFor(
      partitions.size(),
      [&](std::size_t p, std::size_t) {
        DualLayerPartition& part = partitions[p];
        part = MakeDualLayerPartition(std::move(part.index),
                                      std::move(part.ids));
      },
      /*threads=*/0);
  return partitions;
}

}  // namespace drli
