// Persistence for TieredDualLayerIndex: one standard v2 snapshot per
// run (core/serialization -- checksummed sections, atomic writes, mmap
// zero-copy loads all apply unchanged) plus a small checksummed
// generation manifest recording the dynamic state: the run table
// (uid, tier, stable-id list, file), the memtable rows, and the
// tombstone set.
//
// The manifest is written with the partition-table codec the shard
// manifest shares (storage/manifest_codec.h): magic "DRLT", version 1,
// a reserved zero prologue word, the counters generation, next_id,
// next_run_uid, num_runs, memtable_rows and num_tombstones; then per
// run a u32 uid, a u32 tier and its entry (the file
// "<manifest>.run-NNNNNN" and strictly ascending stable ids); then
// memtable_rows x u32 strictly ascending stable ids, memtable_rows x
// dim x f64 attribute rows (IEEE-754 bits), and num_tombstones x u32
// strictly ascending stable ids.
//
// Crash-recovery invariant: runs are written first (each atomically
// and durably: temp file, fsync, rename), the manifest last. A crash
// mid-save leaves either the previous manifest (whose run files were
// never touched -- new runs get fresh uid-derived names) or the new
// one with every run it references fully committed; stray run files
// from the torn generation are swept by the next successful save. The
// loader trusts nothing: every length is bounded, run id lists must be
// strictly ascending and pairwise disjoint intervals in manifest order,
// memtable ids must all exceed every run id, tombstones must resolve
// to run members, ids/uids must stay below next_id/next_run_uid, and
// every run file must parse as a valid snapshot of matching dim and
// cardinality. Run corner bounds (on worker threads) and per-run
// retire masks are recomputed from the loaded state, never persisted. An
// in-flight compaction job is transient state and is not persisted: a
// save mid-job records the pre-install generation and loading resumes
// with compaction idle.

#ifndef DRLI_STORAGE_TIERED_IO_H_
#define DRLI_STORAGE_TIERED_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/tiered_index.h"

namespace drli {

namespace tiered_manifest {
inline constexpr std::uint32_t kMagic = 0x544c5244;  // "DRLT" LE
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kMaxRuns = 4096;
}  // namespace tiered_manifest

struct TieredSaveOptions {
  // When set, receives the absolute path of every file this save wrote,
  // in write order (runs first, manifest last). The crash-recovery
  // sweep replays prefixes of this list over an older generation to
  // simulate a crash between any two file commits.
  std::vector<std::string>* write_order = nullptr;
  // Remove stale "<path>.run-*" files not referenced by the manifest
  // after a successful save (leftovers of compacted-away generations
  // or torn saves). On by default.
  bool sweep_strays = true;
};

// The on-disk file of run `uid` for a manifest at `manifest_path`:
// "<manifest_path>.run-NNNNNN". Exposed so tests and tools can target
// individual run files (fault injection, missing-file paths).
std::string TieredRunFilePath(const std::string& manifest_path,
                              std::uint32_t uid);

// Writes every run snapshot and then the manifest, each atomically and
// durably (storage/file_io.h: temp file, fsync, rename).
Status SaveTieredIndex(const TieredDualLayerIndex& index,
                       const std::string& path,
                       const TieredSaveOptions& options = {});

// Reads a manifest and all run snapshots written by SaveTieredIndex.
// Runs load with the default SnapshotLoadOptions (mmap); the loaded
// index keeps the default TieredIndexOptions, except that the persisted
// name, when nonempty, becomes its name.
StatusOr<TieredDualLayerIndex> LoadTieredIndex(const std::string& path);

// Cheap probe: does `path` start with the tiered-manifest magic? Used
// by LoadEngine (storage/engine_io.h) and by `drli stats`/`drli inspect`.
bool IsTieredManifest(const std::string& path);

// --- manifest metadata (drli inspect, tests) ---

struct TieredManifestRunInfo {
  std::uint32_t uid = 0;
  std::uint32_t tier = 0;
  std::uint64_t num_points = 0;
  std::string file;  // relative to the manifest's directory
};

struct TieredManifestInfo {
  std::uint32_t version = 0;
  std::size_t dim = 0;
  std::uint64_t generation = 0;
  std::uint64_t next_id = 0;
  std::uint64_t next_run_uid = 0;
  std::uint64_t memtable_rows = 0;
  std::uint64_t num_tombstones = 0;
  std::string name;
  std::vector<TieredManifestRunInfo> runs;
};

// Parses and fully validates the manifest (checksum included) without
// touching the run files.
StatusOr<TieredManifestInfo> InspectTieredManifest(const std::string& path);

}  // namespace drli

#endif  // DRLI_STORAGE_TIERED_IO_H_
