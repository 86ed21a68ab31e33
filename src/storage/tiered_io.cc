#include "storage/tiered_io.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "storage/manifest_codec.h"

namespace drli {

namespace {

// The prologue's counters, in manifest order.
enum Counter {
  kGeneration,
  kNextId,
  kNextRunUid,
  kNumRuns,
  kMemtableRows,
  kNumTombstones,
  kNumCounters
};

constexpr ManifestFormat kFormat{"tiered manifest", tiered_manifest::kMagic,
                                 tiered_manifest::kVersion, kNumCounters,
                                 "run"};

struct ParsedManifest {
  TieredManifestInfo info;
  std::vector<ManifestEntry> runs;
  std::vector<TupleId> memtable_ids;
  std::vector<double> memtable_rows;  // memtable_ids.size() x dim
  std::vector<TupleId> tombstones;    // ascending
};

// Reads and validates the manifest, not the run files themselves.
Status ReadManifest(const std::string& path, ParsedManifest* out) {
  ManifestReader reader(kFormat, path);
  ManifestPrologue prologue;
  if (Status status = reader.Open(&prologue); !status.ok()) return status;
  if (prologue.word != 0) return reader.Corrupt("reserved field not zero");
  const std::uint64_t next_id = prologue.counters[kNextId];
  const std::uint64_t next_run_uid = prologue.counters[kNextRunUid];
  const std::uint64_t num_runs = prologue.counters[kNumRuns];
  const std::uint64_t memtable_rows = prologue.counters[kMemtableRows];
  const std::uint64_t num_tombstones = prologue.counters[kNumTombstones];
  if (num_runs > tiered_manifest::kMaxRuns) {
    return reader.Corrupt("run count out of range");
  }
  if (next_id >= kInvalidTupleId) return reader.Corrupt("next_id out of range");
  if (next_run_uid > std::numeric_limits<std::uint32_t>::max()) {
    return reader.Corrupt("next_run_uid out of range");
  }

  TieredManifestInfo& info = out->info;
  info.version = kFormat.version;
  info.dim = prologue.dim;
  info.generation = prologue.counters[kGeneration];
  info.next_id = next_id;
  info.next_run_uid = next_run_uid;
  info.memtable_rows = memtable_rows;
  info.num_tombstones = num_tombstones;
  info.name = std::move(prologue.name);

  // Runs must appear in ascending-min-id order with pairwise disjoint
  // intervals -- exactly the in-memory invariant -- and the memtable
  // holds the newest ids: one ascending id order over every run and
  // then the memtable enforces all of it at once.
  out->runs.resize(static_cast<std::size_t>(num_runs));
  for (ManifestEntry& run : out->runs) {
    std::uint32_t uid = 0, tier = 0;
    if (!reader.cursor().ReadU32(&uid) || !reader.cursor().ReadU32(&tier)) {
      return reader.Corrupt("truncated run table");
    }
    if (uid >= next_run_uid) {
      return reader.Corrupt("run uid not below next_run_uid");
    }
    for (const TieredManifestRunInfo& prior : info.runs) {
      if (prior.uid == uid) return reader.Corrupt("duplicate run uid");
    }
    if (Status status = reader.ReadEntry(next_id, &run); !status.ok()) {
      return status;
    }
    if (run.num_points == 0) return reader.Corrupt("empty run");
    info.runs.push_back(
        TieredManifestRunInfo{uid, tier, run.num_points, run.file});
  }
  if (Status status = reader.ReadAscendingIds(memtable_rows, next_id,
                                              "memtable", &out->memtable_ids);
      !status.ok()) {
    return status;
  }
  // The memtable rows follow as raw doubles.
  if (reader.cursor().remaining() / 8 < memtable_rows * prologue.dim) {
    return reader.Corrupt("truncated memtable rows");
  }
  out->memtable_rows.resize(
      static_cast<std::size_t>(memtable_rows * prologue.dim));
  for (double& v : out->memtable_rows) reader.cursor().ReadF64(&v);
  // Tombstones ascend on their own; membership in a run is checked by
  // the loader against the materialized id lists.
  reader.ResetAscending();
  if (Status status = reader.ReadAscendingIds(num_tombstones, next_id,
                                              "tombstone", &out->tombstones);
      !status.ok()) {
    return status;
  }
  return reader.Finish();
}

// Removes "<base>.run-*" siblings of the manifest that the just-written
// manifest does not reference (leftovers of compacted-away runs or a
// torn earlier save). Best-effort: sweep failures are ignored -- stray
// files are garbage, not corruption.
void SweepStrayRunFiles(const std::string& manifest_path,
                        const std::vector<std::string>& referenced) {
  const std::string dir = DirOf(manifest_path);
  const std::string prefix = BaseOf(manifest_path) + ".run-";
  DIR* handle = opendir(dir.empty() ? "." : dir.c_str());
  if (handle == nullptr) return;
  std::vector<std::string> strays;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.rfind(prefix, 0) != 0) continue;
    if (std::find(referenced.begin(), referenced.end(), name) !=
        referenced.end()) {
      continue;
    }
    strays.push_back(dir + name);
  }
  closedir(handle);
  for (const std::string& stray : strays) std::remove(stray.c_str());
}

}  // namespace

std::string TieredRunFilePath(const std::string& manifest_path,
                              std::uint32_t uid) {
  char suffix[20];
  std::snprintf(suffix, sizeof(suffix), ".run-%06u", uid);
  return manifest_path + suffix;
}

Status SaveTieredIndex(const TieredDualLayerIndex& index,
                       const std::string& path,
                       const TieredSaveOptions& options) {
  if (options.write_order != nullptr) options.write_order->clear();
  // Runs first, manifest last: the manifest only ever points at fully
  // committed run snapshots, and run file names embed the uid, so a
  // newer generation never overwrites a file an older manifest still
  // references.
  std::vector<std::string> referenced;
  for (std::size_t r = 0; r < index.num_runs(); ++r) {
    const TieredRun& run = index.run(r);
    const std::string run_path = TieredRunFilePath(path, run.uid);
    const Status status = SaveDualLayerIndex(run.index, run_path);
    if (!status.ok()) return status;
    referenced.push_back(BaseOf(run_path));
    if (options.write_order != nullptr) {
      options.write_order->push_back(run_path);
    }
  }

  std::vector<std::uint8_t> bytes;
  AppendManifestPrologue(
      kFormat,
      ManifestPrologue{static_cast<std::uint32_t>(index.dim()),
                       0,  // reserved
                       {index.generation(), index.next_id(),
                        index.next_run_uid(), index.num_runs(),
                        index.memtable_size(), index.tombstone_count()},
                       index.options().name},
      &bytes);
  for (std::size_t r = 0; r < index.num_runs(); ++r) {
    const TieredRun& run = index.run(r);
    AppendU32(&bytes, run.uid);
    AppendU32(&bytes, run.tier);
    AppendManifestEntry(referenced[r], run.ids, &bytes);
  }
  for (const TupleId id : index.memtable_ids()) AppendU32(&bytes, id);
  for (std::size_t i = 0; i < index.memtable_size(); ++i) {
    const PointView row = index.memtable()[i];
    for (std::size_t d = 0; d < index.dim(); ++d) AppendF64(&bytes, row[d]);
  }
  std::vector<TupleId> tombs(index.tombstones().begin(),
                             index.tombstones().end());
  std::sort(tombs.begin(), tombs.end());
  for (const TupleId id : tombs) AppendU32(&bytes, id);
  const Status status = WriteManifest(path, std::move(bytes));
  if (!status.ok()) return status;
  if (options.write_order != nullptr) options.write_order->push_back(path);
  if (options.sweep_strays) SweepStrayRunFiles(path, referenced);
  return Status::Ok();
}

// Assembles the index from the manifest and the run snapshots,
// re-deriving everything that is not persisted (bounds, retire masks).
StatusOr<TieredDualLayerIndex> LoadTieredIndex(const std::string& path) {
  ParsedManifest parsed;
  if (Status status = ReadManifest(path, &parsed); !status.ok()) {
    return status;
  }
  const TieredManifestInfo& info = parsed.info;
  StatusOr<std::vector<DualLayerPartition>> runs = LoadManifestPartitions(
      kFormat, path, info.dim, &parsed.runs, SnapshotLoadOptions{});
  if (!runs.ok()) return runs.status();
  TieredIndexOptions opts;
  if (!info.name.empty()) opts.name = info.name;
  TieredDualLayerIndex index(info.dim, opts);
  index.runs_.reserve(info.runs.size());
  for (std::size_t r = 0; r < info.runs.size(); ++r) {
    index.runs_.push_back(TieredRun{std::move(runs.value()[r]),
                                    info.runs[r].uid, info.runs[r].tier});
  }

  index.memtable_ids_ = std::move(parsed.memtable_ids);
  index.memtable_.Reserve(index.memtable_ids_.size());
  for (std::size_t i = 0; i < index.memtable_ids_.size(); ++i) {
    index.memtable_.Add(
        PointView(&parsed.memtable_rows[i * info.dim], info.dim));
  }

  // Tombstones must resolve to run members (memtable deletes are
  // applied in place, so a tombstone naming a memtable or unknown id
  // means the manifest lies); each is retired in its run here.
  for (const TupleId id : parsed.tombstones) {
    const std::size_t slot = index.RunSlotOf(id);
    if (slot == static_cast<std::size_t>(-1)) {
      return Status::Corruption("tiered manifest " + path + ": tombstone " +
                                std::to_string(id) + " is not a run member");
    }
    index.tombstones_.insert(id);
    TieredDualLayerIndex::RetireMember(&index.runs_[slot], id);
  }

  index.next_id_ = static_cast<TupleId>(info.next_id);
  index.next_run_uid_ = static_cast<std::uint32_t>(info.next_run_uid);
  index.generation_ = info.generation;
  index.MakePartitions();
  return index;
}

bool IsTieredManifest(const std::string& path) {
  return FileStartsWithMagic(path, kFormat.magic);
}

StatusOr<TieredManifestInfo> InspectTieredManifest(const std::string& path) {
  ParsedManifest parsed;
  if (Status status = ReadManifest(path, &parsed); !status.ok()) {
    return status;
  }
  return std::move(parsed.info);
}

}  // namespace drli
