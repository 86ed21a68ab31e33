#include "storage/tiered_io.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "common/crc32c.h"
#include "core/partition_merge.h"

namespace drli {

namespace {

using tiered_manifest::kMagic;
using tiered_manifest::kMaxNameLength;
using tiered_manifest::kMaxRuns;
using tiered_manifest::kVersion;

void AppendU32(std::string* out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(bytes, 4);
}

void AppendU64(std::string* out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(bytes, 8);
}

void AppendF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  AppendU64(out, bits);
}

// Bounded little-endian reader over the manifest bytes; every Read
// checks the remaining length so a truncated or lying manifest becomes
// a Corruption status, never an out-of-bounds read.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool ReadU32(std::uint32_t* v) {
    if (size_ - pos_ < 4) return false;
    std::uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return true;
  }

  bool ReadU64(std::uint64_t* v) {
    if (size_ - pos_ < 8) return false;
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool ReadF64(double* v) {
    std::uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }

  bool ReadString(std::uint64_t length, std::string* v) {
    if (size_ - pos_ < length) return false;
    v->assign(data_ + pos_, static_cast<std::size_t>(length));
    pos_ += static_cast<std::size_t>(length);
    return true;
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Directory prefix of `path` including the trailing separator, "" for a
// bare filename -- run files are addressed relative to the manifest.
std::string DirOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string BaseOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + tmp + " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  const bool flushed = bool(out);
  out.close();
  if (!flushed || out.fail()) {
    std::remove(tmp.c_str());
    return Status::IoError("write failure on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot stat " + path);
  in.seekg(0, std::ios::beg);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  if (size > 0 && !in.read(bytes.data(), size)) {
    return Status::IoError("cannot read " + path);
  }
  return bytes;
}

// A run file name must stay inside the manifest's directory.
bool SafeRelativeFile(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  return name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos;
}

Status CorruptManifest(const std::string& path, const std::string& detail) {
  return Status::Corruption("tiered manifest " + path + ": " + detail);
}

struct ParsedManifest {
  TieredManifestInfo info;
  std::vector<std::vector<TupleId>> run_ids;  // per run, ascending
  std::vector<TupleId> memtable_ids;
  std::vector<double> memtable_rows;  // memtable_ids.size() x dim
  std::vector<TupleId> tombstones;    // ascending
};

// Parses + validates everything except the run files themselves.
// `full` is optional (Inspect skips materializing the id lists and
// memtable rows).
Status ParseManifest(const std::string& path, const std::string& bytes,
                     TieredManifestInfo* info, ParsedManifest* full) {
  // Fixed header (16 + 56 bytes) + checksum is the smallest legal
  // manifest; anything shorter cannot even hold the trailer.
  if (bytes.size() < 16 + 56 + 4) {
    return CorruptManifest(path, "truncated");
  }
  const std::size_t body = bytes.size() - 4;
  std::uint32_t stored_crc = 0;
  {
    Cursor trailer(bytes.data() + body, 4);
    trailer.ReadU32(&stored_crc);
  }
  const std::uint32_t actual_crc = Crc32c(bytes.data(), body);
  Cursor cursor(bytes.data(), body);

  std::uint32_t magic = 0, version = 0, dim = 0, reserved = 0;
  cursor.ReadU32(&magic);
  if (magic != kMagic) return CorruptManifest(path, "bad magic");
  // Magic before checksum so a non-manifest file reads as "not a
  // manifest", but any bit flip inside a real manifest -- trailer
  // included -- is a checksum failure.
  if (actual_crc != stored_crc) {
    return CorruptManifest(path, "checksum mismatch");
  }
  cursor.ReadU32(&version);
  if (version != kVersion) {
    return CorruptManifest(path,
                           "unsupported version " + std::to_string(version));
  }
  cursor.ReadU32(&dim);
  if (dim == 0 || dim > snapshot::kMaxDim) {
    return CorruptManifest(path, "dim out of range");
  }
  cursor.ReadU32(&reserved);
  if (reserved != 0) return CorruptManifest(path, "reserved field not zero");
  std::uint64_t generation = 0, next_id = 0, next_run_uid = 0, num_runs = 0,
                memtable_rows = 0, num_tombstones = 0, flags = 0,
                name_len = 0;
  cursor.ReadU64(&generation);
  cursor.ReadU64(&next_id);
  cursor.ReadU64(&next_run_uid);
  cursor.ReadU64(&num_runs);
  cursor.ReadU64(&memtable_rows);
  cursor.ReadU64(&num_tombstones);
  cursor.ReadU64(&flags);
  if (!cursor.ReadU64(&name_len)) return CorruptManifest(path, "truncated");
  if (num_runs > kMaxRuns) {
    return CorruptManifest(path, "run count out of range");
  }
  if (next_id >= kInvalidTupleId) {
    return CorruptManifest(path, "next_id out of range");
  }
  if (next_run_uid > std::numeric_limits<std::uint32_t>::max()) {
    return CorruptManifest(path, "next_run_uid out of range");
  }
  // Every stable id occupies at least 4 manifest bytes, so counts
  // beyond size/4 cannot be covered -- reject before reserving.
  if (memtable_rows > bytes.size() / 4 ||
      num_tombstones > bytes.size() / 4) {
    return CorruptManifest(path, "counts exceed manifest capacity");
  }
  if (flags != 0) return CorruptManifest(path, "unknown flags");
  if (name_len > kMaxNameLength) return CorruptManifest(path, "name too long");
  std::string name;
  if (!cursor.ReadString(name_len, &name)) {
    return CorruptManifest(path, "truncated name");
  }

  info->version = version;
  info->dim = dim;
  info->generation = generation;
  info->next_id = next_id;
  info->next_run_uid = next_run_uid;
  info->memtable_rows = memtable_rows;
  info->num_tombstones = num_tombstones;
  info->name = std::move(name);

  if (full != nullptr) {
    full->run_ids.resize(static_cast<std::size_t>(num_runs));
  }
  // Runs must appear in ascending-min-id order with pairwise disjoint
  // intervals -- exactly the in-memory invariant. Tracking the running
  // max id enforces both at once.
  TupleId max_seen = 0;
  bool any_seen = false;
  for (std::uint64_t r = 0; r < num_runs; ++r) {
    std::uint32_t uid = 0, tier = 0;
    std::uint64_t num_points = 0, file_len = 0;
    if (!cursor.ReadU32(&uid) || !cursor.ReadU32(&tier) ||
        !cursor.ReadU64(&num_points) || !cursor.ReadU64(&file_len)) {
      return CorruptManifest(path, "truncated run table");
    }
    if (uid >= next_run_uid) {
      return CorruptManifest(path, "run uid not below next_run_uid");
    }
    for (const TieredManifestRunInfo& prior : info->runs) {
      if (prior.uid == uid) {
        return CorruptManifest(path, "duplicate run uid");
      }
    }
    if (num_points == 0) {
      return CorruptManifest(path, "empty run");
    }
    if (num_points > next_id) {
      return CorruptManifest(path, "run cardinality exceeds id space");
    }
    if (file_len == 0 || file_len > kMaxNameLength) {
      return CorruptManifest(path, "run file name length out of range");
    }
    std::string file;
    if (!cursor.ReadString(file_len, &file)) {
      return CorruptManifest(path, "truncated run file name");
    }
    if (!SafeRelativeFile(file)) {
      return CorruptManifest(path, "unsafe run file name: " + file);
    }
    if (cursor.remaining() < num_points * 4) {
      return CorruptManifest(path, "truncated run member list");
    }
    std::vector<TupleId>* out =
        full != nullptr ? &full->run_ids[static_cast<std::size_t>(r)]
                        : nullptr;
    if (out != nullptr) out->reserve(static_cast<std::size_t>(num_points));
    for (std::uint64_t i = 0; i < num_points; ++i) {
      std::uint32_t id = 0;
      cursor.ReadU32(&id);
      if (id >= next_id) {
        return CorruptManifest(path, "run member id not below next_id");
      }
      if (any_seen && id <= max_seen) {
        return CorruptManifest(path, "run member ids not strictly ascending");
      }
      max_seen = id;
      any_seen = true;
      if (out != nullptr) out->push_back(id);
    }
    info->runs.push_back(TieredManifestRunInfo{uid, tier, num_points,
                                               std::move(file)});
  }

  // Memtable ids continue the ascending order (the memtable holds the
  // newest ids) and its rows follow as raw doubles.
  if (cursor.remaining() < memtable_rows * 4) {
    return CorruptManifest(path, "truncated memtable id list");
  }
  if (full != nullptr) {
    full->memtable_ids.reserve(static_cast<std::size_t>(memtable_rows));
  }
  for (std::uint64_t i = 0; i < memtable_rows; ++i) {
    std::uint32_t id = 0;
    cursor.ReadU32(&id);
    if (id >= next_id) {
      return CorruptManifest(path, "memtable id not below next_id");
    }
    if (any_seen && id <= max_seen) {
      return CorruptManifest(path, "memtable ids not above run ids");
    }
    max_seen = id;
    any_seen = true;
    if (full != nullptr) full->memtable_ids.push_back(id);
  }
  if (cursor.remaining() < memtable_rows * dim * 8) {
    return CorruptManifest(path, "truncated memtable rows");
  }
  for (std::uint64_t i = 0; i < memtable_rows * dim; ++i) {
    double v = 0.0;
    cursor.ReadF64(&v);
    if (full != nullptr) full->memtable_rows.push_back(v);
  }

  // Tombstones: strictly ascending; membership in a run is checked by
  // the loader against the materialized id lists.
  if (cursor.remaining() < num_tombstones * 4) {
    return CorruptManifest(path, "truncated tombstone list");
  }
  TupleId prev_tomb = 0;
  for (std::uint64_t i = 0; i < num_tombstones; ++i) {
    std::uint32_t id = 0;
    cursor.ReadU32(&id);
    if (id >= next_id) {
      return CorruptManifest(path, "tombstone id not below next_id");
    }
    if (i > 0 && id <= prev_tomb) {
      return CorruptManifest(path, "tombstone ids not strictly ascending");
    }
    prev_tomb = id;
    if (full != nullptr) full->tombstones.push_back(id);
  }
  if (cursor.remaining() != 0) {
    return CorruptManifest(path, "trailing bytes");
  }
  return Status::Ok();
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

// Friend of TieredDualLayerIndex: assembles a loaded index from parsed
// manifest state + run snapshots, re-deriving everything that is not
// persisted (bounds, dead counts).
class TieredIndexIO {
 public:
  static StatusOr<TieredDualLayerIndex> Assemble(
      const std::string& path, ParsedManifest parsed,
      const TieredLoadOptions& options) {
    const TieredManifestInfo& info = parsed.info;
    TieredIndexOptions opts = options.options;
    if (!info.name.empty()) opts.name = info.name;
    TieredDualLayerIndex index(info.dim, opts);

    const std::string dir = DirOf(path);
    index.runs_.reserve(info.runs.size());
    for (std::size_t r = 0; r < info.runs.size(); ++r) {
      const std::string run_path = dir + info.runs[r].file;
      StatusOr<DualLayerIndex> run =
          LoadDualLayerIndex(run_path, options.snapshot);
      if (!run.ok()) return run.status();
      if (run.value().points().dim() != info.dim) {
        return Status::Corruption("run " + run_path +
                                  ": dim does not match manifest");
      }
      if (run.value().size() != info.runs[r].num_points) {
        return Status::Corruption("run " + run_path +
                                  ": cardinality does not match manifest");
      }
      TieredRun loaded{info.runs[r].uid, info.runs[r].tier,
                       std::move(run).value(), std::move(parsed.run_ids[r]),
                       0, {}};
      loaded.bound_values = SkylineCorners(loaded.index);
      index.runs_.push_back(std::move(loaded));
    }

    index.memtable_ids_ = std::move(parsed.memtable_ids);
    index.memtable_.Reserve(index.memtable_ids_.size());
    for (std::size_t i = 0; i < index.memtable_ids_.size(); ++i) {
      index.memtable_.Add(
          PointView(&parsed.memtable_rows[i * info.dim], info.dim));
    }

    // Tombstones must resolve to run members (memtable deletes are
    // applied in place, so a tombstone naming a memtable or unknown id
    // means the manifest lies); dead counts are re-derived here.
    for (const TupleId id : parsed.tombstones) {
      const std::size_t slot = index.RunSlotOf(id);
      if (slot == static_cast<std::size_t>(-1)) {
        return CorruptManifest(path, "tombstone " + std::to_string(id) +
                                         " is not a run member");
      }
      index.tombstones_.insert(id);
      ++index.runs_[slot].dead;
    }

    index.next_id_ = static_cast<TupleId>(info.next_id);
    index.next_run_uid_ = static_cast<std::uint32_t>(info.next_run_uid);
    index.generation_ = info.generation;
    return index;
  }
};

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
    const Status status =
        SaveDualLayerIndex(run.index, run_path, options.snapshot);
    if (!status.ok()) return status;
    referenced.push_back(BaseOf(run_path));
    if (options.write_order != nullptr) {
      options.write_order->push_back(run_path);
    }
  }

  std::string bytes;
  AppendU32(&bytes, tiered_manifest::kMagic);
  AppendU32(&bytes, tiered_manifest::kVersion);
  AppendU32(&bytes, static_cast<std::uint32_t>(index.dim()));
  AppendU32(&bytes, 0);  // reserved
  AppendU64(&bytes, index.generation());
  AppendU64(&bytes, index.next_id());
  AppendU64(&bytes, index.next_run_uid());
  AppendU64(&bytes, index.num_runs());
  AppendU64(&bytes, index.memtable_size());
  AppendU64(&bytes, index.tombstone_count());
  AppendU64(&bytes, 0);  // flags
  const std::string name = index.options().name;
  AppendU64(&bytes, name.size());
  bytes.append(name);
  for (std::size_t r = 0; r < index.num_runs(); ++r) {
    const TieredRun& run = index.run(r);
    AppendU32(&bytes, run.uid);
    AppendU32(&bytes, run.tier);
    AppendU64(&bytes, run.ids.size());
    const std::string file = referenced[r];
    AppendU64(&bytes, file.size());
    bytes.append(file);
    for (const TupleId id : run.ids) AppendU32(&bytes, id);
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
  AppendU32(&bytes, Crc32c(bytes.data(), bytes.size()));
  const Status status = WriteFileAtomic(path, bytes);
  if (!status.ok()) return status;
  if (options.write_order != nullptr) options.write_order->push_back(path);
  if (options.sweep_strays) SweepStrayRunFiles(path, referenced);
  return Status::Ok();
}

StatusOr<TieredDualLayerIndex> LoadTieredIndex(
    const std::string& path, const TieredLoadOptions& options) {
  StatusOr<std::string> bytes = ReadWholeFile(path);
  if (!bytes.ok()) return bytes.status();
  ParsedManifest parsed;
  {
    const Status status =
        ParseManifest(path, bytes.value(), &parsed.info, &parsed);
    if (!status.ok()) return status;
  }
  return TieredIndexIO::Assemble(path, std::move(parsed), options);
}

bool IsTieredManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char bytes[4];
  if (!in.read(bytes, 4)) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes, 4);
  return magic == tiered_manifest::kMagic;  // little-endian build targets
}

StatusOr<TieredManifestInfo> InspectTieredManifest(const std::string& path) {
  StatusOr<std::string> bytes = ReadWholeFile(path);
  if (!bytes.ok()) return bytes.status();
  TieredManifestInfo info;
  const Status status = ParseManifest(path, bytes.value(), &info, nullptr);
  if (!status.ok()) return status;
  return info;
}

}  // namespace drli
