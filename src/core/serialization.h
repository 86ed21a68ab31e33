// Binary save/load of a built DualLayerIndex, so the pre-materialized
// structure can be constructed once and reused across sessions -- the
// operating model of a layer-based index (built offline, queried for
// many weight vectors).
//
// One on-disk format, v2 (core/snapshot_format.h): fixed header +
// section table, one 64-byte-aligned section per array, each carrying
// a CRC-32C. Written atomically and durably (storage/file_io.h: temp
// file, fsync, rename). Loads either zero-copy -- PointSet/CsrGraph
// views pointed straight into a shared mmap of the file, no copy of
// the point or adjacency payloads -- or into owned storage (the
// fallback). The retired v1 stream format is recognised by its version
// field and rejected with a hint to rebuild; no byte past that field
// is parsed.
//
// Load never trusts the file: lengths are bounded by the file size
// before any allocation, every section CRC is verified, edge targets /
// layer members / zero-layer chains are range-checked and
// cross-checked, and any violation surfaces as Status::Corruption or
// Status::IoError -- never a crash or an index that later reads out of
// bounds.

#ifndef DRLI_CORE_SERIALIZATION_H_
#define DRLI_CORE_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dual_layer.h"
#include "core/snapshot_format.h"

namespace drli {

// Writes the full index (points, layers, edges, zero layer) to `path`
// as a v2 snapshot, atomically and durably: the bytes go to
// "<path>.tmp", are fsync'ed and only then renamed over `path`, so a
// crash or full disk never leaves a torn file at `path`.
// Note: only the query-relevant structure is persisted; the loaded
// index reports default build options() and zeroed build timings.
Status SaveDualLayerIndex(const DualLayerIndex& index,
                          const std::string& path);

struct SnapshotLoadOptions {
  // mmap the snapshot and point the index's point / adjacency storage
  // directly into the mapping (the mapping is shared-owned by those
  // views and unmapped with the last of them). When false -- or when
  // mmap fails -- every array is copied into owned storage.
  bool prefer_mmap = true;
};

// Reads an index previously written by SaveDualLayerIndex. A v1 file
// returns Corruption naming `drli build` as the way to rebuild it.
StatusOr<DualLayerIndex> LoadDualLayerIndex(
    const std::string& path, const SnapshotLoadOptions& options = {});

// --- snapshot metadata (drli inspect, testing/fault_inject) ---

struct SnapshotSectionInfo {
  std::uint32_t kind = 0;   // snapshot::SectionKind
  std::string name;         // section name, e.g. "points"
  std::uint64_t offset = 0; // absolute file offset of the payload
  std::uint64_t length = 0; // payload bytes
  std::uint32_t crc = 0;    // stored CRC-32C
  bool crc_ok = false;      // payload CRC recomputed and matched
};

struct SnapshotInfo {
  std::uint32_t version = 0;
  std::size_t dim = 0;
  std::size_t num_points = 0;
  std::size_t num_virtual = 0;
  bool use_weight_table = false;
  std::uint64_t file_size = 0;
  // The section table, in file order, with verified CRCs.
  std::vector<SnapshotSectionInfo> sections;
};

// Parses snapshot metadata without constructing the index. Every
// section CRC is recomputed into SnapshotSectionInfo::crc_ok;
// structural corruption (bad magic/header/table, out-of-range
// sections) and a v1 file are a Corruption status.
StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path);

}  // namespace drli

#endif  // DRLI_CORE_SERIALIZATION_H_
