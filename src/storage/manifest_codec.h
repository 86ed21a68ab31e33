// The partition-table codec of the shard manifest (DRLS, shard/shard_io)
// and the tiered manifest (DRLT, storage/tiered_io). Both are
// little-endian, with a CRC-32C trailer over every byte before it:
//
//   prologue: u32 magic   u32 version   u32 dim   u32 word
//             u64 counter x N (N and their meaning fixed per format)
//             u64 flags (reserved, 0)   u64 name_len, name bytes
//   entry:    u64 num_points; u64 file_len, file bytes (relative,
//             path-separator-free); num_points x u32 strictly
//             ascending global ids
//
// The format lays out its entries and any further fields between the
// prologue and the trailer. Each entry names one partition file: a
// standard v2 snapshot (core/serialization) of a DualLayerPartition's
// index. The reader trusts nothing: every length is bounded before use
// and every rejection is a Status::Corruption naming the manifest.

#ifndef DRLI_STORAGE_MANIFEST_CODEC_H_
#define DRLI_STORAGE_MANIFEST_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/partition_merge.h"
#include "core/serialization.h"
#include "storage/file_io.h"

namespace drli {

// One manifest format: its name in errors ("shard manifest"), magic,
// version, prologue counter count, and the noun of its partitions.
struct ManifestFormat {
  const char* kind;
  std::uint32_t magic;
  std::uint32_t version;
  std::size_t num_counters;
  const char* noun;
};

struct ManifestPrologue {
  std::uint32_t dim = 0;
  std::uint32_t word = 0;  // DRLS: the partitioner; DRLT: reserved, 0
  std::vector<std::uint64_t> counters;
  std::string name;
};

struct ManifestEntry {
  std::uint64_t num_points = 0;
  std::string file;  // relative to the manifest's directory
  std::vector<TupleId> ids;
};

// Appends the prologue, or one entry, to a manifest being written.
void AppendManifestPrologue(const ManifestFormat& format,
                            const ManifestPrologue& prologue,
                            std::vector<std::uint8_t>* out);
void AppendManifestEntry(const std::string& file,
                         const std::vector<TupleId>& ids,
                         std::vector<std::uint8_t>* out);
// Appends the trailer and writes the manifest atomically and durably
// (storage/file_io.h).
Status WriteManifest(const std::string& path, std::vector<std::uint8_t> bytes);

// Reads one manifest front to back.
class ManifestReader {
 public:
  ManifestReader(const ManifestFormat& format, std::string path)
      : format_(format), path_(std::move(path)) {}

  // Reads the file and its prologue. The magic is checked before the
  // checksum, so a non-manifest file reads as "bad magic" while any
  // bit flip inside a real manifest -- trailer included -- is a
  // checksum failure.
  Status Open(ManifestPrologue* out);
  // Reads `count` u32 ids, each below `id_limit` and above every id
  // read since ResetAscending(); `what` names the list in errors.
  Status ReadAscendingIds(std::uint64_t count, std::uint64_t id_limit,
                          const std::string& what, std::vector<TupleId>* out);
  void ResetAscending() { any_id_ = false; }
  // Reads one entry, at most `id_limit` ids under the rule above.
  Status ReadEntry(std::uint64_t id_limit, ManifestEntry* out);

  // The format-specific fields between prologue and trailer.
  ByteReader& cursor() { return cursor_; }
  Status Corrupt(const std::string& detail) const;
  // Rejects bytes left unread before the trailer.
  Status Finish() const;

 private:
  const ManifestFormat& format_;
  std::string path_;
  std::vector<std::uint8_t> bytes_;
  ByteReader cursor_{ByteSpan{}};
  bool any_id_ = false;
  TupleId last_id_ = 0;
};

// Loads the partition file of every entry (relative to the manifest at
// `path`), checks its dim and cardinality against the manifest, and
// makes the partitions, bound points on worker threads. The entries'
// ids move into the partitions.
StatusOr<std::vector<DualLayerPartition>> LoadManifestPartitions(
    const ManifestFormat& format, const std::string& path, std::size_t dim,
    std::vector<ManifestEntry>* entries, const SnapshotLoadOptions& options);

}  // namespace drli

#endif  // DRLI_STORAGE_MANIFEST_CODEC_H_
