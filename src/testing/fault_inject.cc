#include "testing/fault_inject.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "core/serialization.h"
#include "core/tiered_index.h"
#include "storage/tiered_io.h"
#include "testing/differential.h"
#include "testing/result_check.h"

namespace drli {
namespace testing {

namespace {

using snapshot::HeaderV2;
using snapshot::SectionEntry;
using snapshot::SectionKind;

}  // namespace

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DRLI_CHECK(bool(in)) << "cannot open " << path;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  DRLI_CHECK(size >= 0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  DRLI_CHECK(bool(in)) << "short read on " << path;
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DRLI_CHECK(bool(out)) << "cannot open " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  DRLI_CHECK(bool(out)) << "short write on " << path;
}

SnapshotV2Editor::SnapshotV2Editor(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  DRLI_CHECK_GE(bytes_.size(), sizeof(HeaderV2));
  const HeaderV2 h = header();
  DRLI_CHECK(h.magic == snapshot::kMagic && h.version == snapshot::kVersionV2);
  DRLI_CHECK_LE(h.section_table_offset +
                    std::uint64_t{h.num_sections} * sizeof(SectionEntry),
                bytes_.size());
}

HeaderV2 SnapshotV2Editor::header() const {
  HeaderV2 h;
  std::memcpy(&h, bytes_.data(), sizeof(h));
  return h;
}

void SnapshotV2Editor::SetHeader(const HeaderV2& header, bool reseal) {
  HeaderV2 h = header;
  if (reseal) h.header_crc = snapshot::ComputeHeaderCrc(h);
  std::memcpy(bytes_.data(), &h, sizeof(h));
}

std::size_t SnapshotV2Editor::num_sections() const {
  return header().num_sections;
}

SectionEntry SnapshotV2Editor::entry(std::size_t i) const {
  const HeaderV2 h = header();
  DRLI_CHECK_LT(i, h.num_sections);
  SectionEntry e;
  std::memcpy(&e,
              bytes_.data() + h.section_table_offset + i * sizeof(SectionEntry),
              sizeof(e));
  return e;
}

void SnapshotV2Editor::SetEntry(std::size_t i, const SectionEntry& entry) {
  const HeaderV2 h = header();
  DRLI_CHECK_LT(i, h.num_sections);
  std::memcpy(bytes_.data() + h.section_table_offset + i * sizeof(SectionEntry),
              &entry, sizeof(entry));
  ResealTable();
}

void SnapshotV2Editor::ResealTable() {
  HeaderV2 h = header();
  h.section_table_crc =
      Crc32c(bytes_.data() + h.section_table_offset,
             std::uint64_t{h.num_sections} * sizeof(SectionEntry));
  SetHeader(h);
}

int SnapshotV2Editor::FindSection(SectionKind kind) const {
  for (std::size_t i = 0; i < num_sections(); ++i) {
    if (entry(i).kind == static_cast<std::uint32_t>(kind)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void SnapshotV2Editor::PatchSection(SectionKind kind,
                                    std::uint64_t offset_in_section,
                                    const void* data, std::size_t len) {
  const int i = FindSection(kind);
  DRLI_CHECK_GE(i, 0) << "no section " << snapshot::SectionKindName(kind);
  SectionEntry e = entry(static_cast<std::size_t>(i));
  DRLI_CHECK_LE(offset_in_section + len, e.length);
  std::memcpy(bytes_.data() + e.offset + offset_in_section, data, len);
  e.crc = Crc32c(bytes_.data() + e.offset, e.length);
  SetEntry(static_cast<std::size_t>(i), e);
}

std::string FaultSweepReport::ToString() const {
  std::ostringstream out;
  out << cases << " mutant load(s), " << rejected << " rejected, "
      << undetected << " loaded";
  if (!violations.empty()) {
    out << ", " << violations.size() << " violation(s):";
    for (const std::string& v : violations) out << "\n  " << v;
  }
  return out.str();
}

FaultSweepReport RunSnapshotFaultSweep(const std::string& path,
                                       const FaultSweepOptions& options) {
  FaultSweepReport report;
  const std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  const auto inspected = InspectSnapshot(path);
  if (!inspected.ok()) {
    report.violations.push_back("pristine snapshot fails inspection: " +
                                inspected.status().ToString());
    return report;
  }
  const SnapshotInfo& info = inspected.value();

  const std::string tmp = path + ".fault";
  // Every mutant must be rejected with Corruption or IoError; when
  // `hint` is given, the rejection must also mention it.
  const auto probe = [&](const std::vector<std::uint8_t>& mutant,
                         const std::string& what,
                         const std::string& hint = "") {
    WriteFileBytes(tmp, mutant);
    for (const bool mmap : {true, false}) {
      SnapshotLoadOptions load;
      load.prefer_mmap = mmap;
      const auto loaded = LoadDualLayerIndex(tmp, load);
      const std::string via = mmap ? "mmap" : "owning read";
      ++report.cases;
      if (loaded.ok()) {
        ++report.undetected;
        report.violations.push_back(what + " loaded successfully via " + via);
        continue;
      }
      const StatusCode code = loaded.status().code();
      if (code != StatusCode::kCorruption && code != StatusCode::kIoError) {
        report.violations.push_back(what + " returned unexpected status: " +
                                    loaded.status().ToString());
      } else if (loaded.status().message().find(hint) == std::string::npos) {
        report.violations.push_back(what + " rejected via " + via +
                                    " without \"" + hint +
                                    "\": " + loaded.status().ToString());
      } else {
        ++report.rejected;
      }
    }
  };

  // --- family 1: truncation at every section boundary (and +/- 1).
  std::set<std::uint64_t> cuts = {0, 4, 8, bytes.size() - 1};
  for (const SnapshotSectionInfo& row : info.sections) {
    for (const std::int64_t delta : {-1, 0, 1}) {
      const std::uint64_t edges[] = {row.offset, row.offset + row.length};
      for (const std::uint64_t edge : edges) {
        const std::int64_t cut = static_cast<std::int64_t>(edge) + delta;
        if (cut >= 0 && cut < static_cast<std::int64_t>(bytes.size())) {
          cuts.insert(static_cast<std::uint64_t>(cut));
        }
      }
    }
  }
  for (const std::uint64_t cut : cuts) {
    std::vector<std::uint8_t> mutant(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    probe(mutant, "truncation to " + std::to_string(cut) + " bytes");
  }

  // --- family 2: random single-byte flips. Every one must be detected:
  // all bytes are covered by a CRC, the zero-padding rule, or the
  // exact-size rule.
  Rng rng(options.seed);
  for (std::size_t i = 0; i < options.num_flips; ++i) {
    const std::size_t pos = rng.Index(bytes.size());
    const std::uint8_t mask =
        static_cast<std::uint8_t>(1u << rng.Index(8));
    std::vector<std::uint8_t> mutant = bytes;
    mutant[pos] ^= mask;
    probe(mutant, "byte flip at " + std::to_string(pos) + " mask " +
                      std::to_string(mask));
  }

  // --- family 3: adversarial metadata with CRCs fixed up, so the
  // mutation reaches the bounds checks instead of the checksum gate.
  const auto with_editor = [&](const std::string& what, auto mutate) {
    SnapshotV2Editor editor(bytes);
    mutate(editor);
    probe(editor.bytes(), what);
  };
  with_editor("huge num_points", [](SnapshotV2Editor& e) {
    HeaderV2 h = e.header();
    h.num_points = std::uint64_t{1} << 40;
    e.SetHeader(h);
  });
  with_editor("num_points + num_virtual overflowing 32-bit ids",
              [](SnapshotV2Editor& e) {
                HeaderV2 h = e.header();
                h.num_points = 0xffffffffull;
                h.num_virtual = 0xffffffffull;
                e.SetHeader(h);
              });
  with_editor("zero dim", [](SnapshotV2Editor& e) {
    HeaderV2 h = e.header();
    h.dim = 0;
    e.SetHeader(h);
  });
  with_editor("dim above kMaxDim", [](SnapshotV2Editor& e) {
    HeaderV2 h = e.header();
    h.dim = snapshot::kMaxDim + 1;
    e.SetHeader(h);
  });
  with_editor("zero sections", [](SnapshotV2Editor& e) {
    HeaderV2 h = e.header();
    h.num_sections = 0;
    e.SetHeader(h);
  });
  with_editor("section table pushed out of range", [&](SnapshotV2Editor& e) {
    HeaderV2 h = e.header();
    h.section_table_offset = bytes.size();
    e.SetHeader(h);
  });
  with_editor("unknown header flag", [](SnapshotV2Editor& e) {
    HeaderV2 h = e.header();
    h.flags |= 0x80000000u;
    e.SetHeader(h);
  });
  with_editor("huge section length", [](SnapshotV2Editor& e) {
    SectionEntry entry = e.entry(1);
    entry.length = 0xffffffffffffff00ull;
    e.SetEntry(1, entry);
  });
  with_editor("section offset past end of file", [&](SnapshotV2Editor& e) {
    SectionEntry entry = e.entry(1);
    entry.offset = (bytes.size() / snapshot::kSectionAlignment + 2) *
                   snapshot::kSectionAlignment;
    e.SetEntry(1, entry);
  });
  with_editor("misaligned section offset", [](SnapshotV2Editor& e) {
    SectionEntry entry = e.entry(1);
    entry.offset += 1;
    e.SetEntry(1, entry);
  });
  with_editor("unknown section kind", [](SnapshotV2Editor& e) {
    SectionEntry entry = e.entry(0);
    entry.kind = 77;
    e.SetEntry(0, entry);
  });
  with_editor("duplicate section kind", [](SnapshotV2Editor& e) {
    SectionEntry entry = e.entry(1);
    entry.kind = e.entry(0).kind;
    e.SetEntry(1, entry);
  });
  with_editor("overlapping sections", [](SnapshotV2Editor& e) {
    SectionEntry entry = e.entry(1);
    entry.offset = e.entry(0).offset;
    e.SetEntry(1, entry);
  });
  {
    // Shrink the points section with its CRC recomputed over the
    // shorter payload: the CRC passes, the shape check must not.
    SnapshotV2Editor editor(bytes);
    const int i = editor.FindSection(SectionKind::kPoints);
    if (i >= 0 && editor.entry(static_cast<std::size_t>(i)).length >= 8) {
      SectionEntry entry = editor.entry(static_cast<std::size_t>(i));
      entry.length -= 8;
      entry.crc = Crc32c(bytes.data() + entry.offset, entry.length);
      editor.SetEntry(static_cast<std::size_t>(i), entry);
      probe(editor.bytes(), "shrunk points section with resealed CRC");
    }
  }
  {
    // Nonzero byte in the padding gap between table and first section.
    SnapshotV2Editor editor(bytes);
    const HeaderV2 h = editor.header();
    const std::uint64_t table_end =
        h.section_table_offset +
        std::uint64_t{h.num_sections} * sizeof(SectionEntry);
    std::uint64_t first = bytes.size();
    for (std::size_t i = 0; i < editor.num_sections(); ++i) {
      first = std::min(first, editor.entry(i).offset);
    }
    if (first > table_end) {
      std::vector<std::uint8_t> mutant = bytes;
      mutant[table_end] = 0xAB;
      probe(mutant, "nonzero padding byte");
    }
  }
  {
    std::vector<std::uint8_t> mutant = bytes;
    mutant.push_back(0);
    probe(mutant, "trailing byte appended");
  }
  // The retired v1 and an unknown later version, header CRC resealed:
  // the v1 rejection must tell the user how to rebuild.
  for (const std::uint32_t version :
       {snapshot::kVersionV1, snapshot::kVersionV2 + 1}) {
    SnapshotV2Editor editor(bytes);
    HeaderV2 h = editor.header();
    h.version = version;
    editor.SetHeader(h);
    probe(editor.bytes(), "format version " + std::to_string(version),
          version == snapshot::kVersionV1 ? "drli build" : "");
  }

  std::remove(tmp.c_str());
  return report;
}

namespace {

namespace fs = std::filesystem;

// Manifest truncation is exhaustive (every byte) up to this size;
// larger manifests are cut at evenly strided positions.
constexpr std::size_t kTruncationCap = 4096;

// The fixed probe queries of the tiered sweep; answers are compared
// exactly (same ids, same score bits) against the durable generation.
std::vector<TopKQuery> TieredProbeQueries(std::uint64_t seed,
                                          std::size_t dim) {
  Rng rng(seed ^ 0x2545f4914f6cdd1dULL);
  std::vector<TopKQuery> queries;
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{9},
                              std::size_t{40}}) {
    TopKQuery query;
    query.k = k;
    query.weights = rng.SimplexWeight(dim);
    queries.push_back(std::move(query));
  }
  TopKQuery uniform;
  uniform.k = 5;
  uniform.weights.assign(dim, 1.0 / static_cast<double>(dim));
  queries.push_back(std::move(uniform));
  return queries;
}

std::vector<std::vector<ScoredTuple>> TieredProbeAnswers(
    const TieredDualLayerIndex& index, const std::vector<TopKQuery>& queries) {
  std::vector<std::vector<ScoredTuple>> answers;
  answers.reserve(queries.size());
  for (const TopKQuery& query : queries) {
    answers.push_back(index.Query(query).items);
  }
  return answers;
}

bool TieredAnswersEqual(const std::vector<std::vector<ScoredTuple>>& a,
                        const std::vector<std::vector<ScoredTuple>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size() ||
        !SameExactPrefix(a[q], b[q], a[q].size())) {
      return false;
    }
  }
  return true;
}

// One seeded mutation-trace step against the index (insert-heavy with
// erases mixed in, plus explicit maintenance pokes).
void TieredTraceStep(Rng* rng, TieredDualLayerIndex* index,
                     std::vector<TupleId>* live) {
  const std::size_t op = rng->Index(8);
  if (op <= 4 || live->empty()) {
    Point point;
    point.reserve(index->dim());
    for (std::size_t a = 0; a < index->dim(); ++a) {
      point.push_back(rng->Uniform());
    }
    live->push_back(index->Insert(PointView(point)));
  } else if (op <= 6) {
    const std::size_t pick = rng->Index(live->size());
    index->Erase((*live)[pick]);
    (*live)[pick] = live->back();
    live->pop_back();
  } else {
    index->CompactStep();
  }
}

}  // namespace

std::string TieredFaultReport::ToString() const {
  std::ostringstream out;
  out << cases << " case(s), " << rejected << " rejected, "
      << recovered_previous << " recovered to the previous generation, "
      << recovered_current << " loaded the new generation";
  if (!violations.empty()) {
    out << ", " << violations.size() << " violation(s):";
    for (const std::string& v : violations) out << "\n  " << v;
  }
  return out.str();
}

TieredFaultReport RunTieredFaultSweep(const std::string& scratch_dir,
                                      const TieredFaultOptions& options) {
  TieredFaultReport report;
  std::error_code ec;
  const fs::path scratch(scratch_dir);
  const fs::path dir_a = scratch / "gen_a";
  const fs::path dir_b = scratch / "gen_b";
  const fs::path dir_r = scratch / "recover";
  for (const fs::path& dir : {dir_a, dir_b, dir_r}) {
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec) {
      report.violations.push_back("cannot create scratch dir " +
                                  dir.string());
      return report;
    }
  }
  constexpr const char* kManifestName = "state.drlt";

  // Build generation A through a seeded trace: small memtable and
  // fanout so the saved state spans several runs, live tombstones, and
  // (often) an in-flight compaction job.
  Rng rng(options.seed);
  const std::size_t dim = 3;
  TieredIndexOptions build;
  build.memtable_capacity = 8;
  build.fanout = 2;
  build.auto_compact = true;
  build.compact_rows_per_step = 16;
  TieredDualLayerIndex index(dim, build);
  std::vector<TupleId> live;
  for (std::size_t step = 0; step < 120; ++step) {
    TieredTraceStep(&rng, &index, &live);
  }
  const std::vector<TopKQuery> queries = TieredProbeQueries(options.seed, dim);

  const std::string manifest_a = (dir_a / kManifestName).string();
  const std::string manifest_b = (dir_b / kManifestName).string();
  {
    const Status saved = SaveTieredIndex(index, manifest_a);
    if (!saved.ok()) {
      report.violations.push_back("generation A save failed: " +
                                  saved.ToString());
      return report;
    }
  }
  // The durable-A answers must come from a load of A's files: the live
  // index may carry an unsealed compaction job the snapshot does not.
  std::vector<std::vector<ScoredTuple>> answers_a;
  {
    StatusOr<TieredDualLayerIndex> a = LoadTieredIndex(manifest_a);
    if (!a.ok()) {
      report.violations.push_back("pristine generation A fails to load: " +
                                  a.status().ToString());
      return report;
    }
    answers_a = TieredProbeAnswers(a.value(), queries);
  }

  for (std::size_t step = 0; step < options.mutations_between; ++step) {
    TieredTraceStep(&rng, &index, &live);
  }

  TieredSaveOptions save_b;
  std::vector<std::string> write_order;
  save_b.write_order = &write_order;
  save_b.sweep_strays = false;  // the sweep runs after the crash window
  {
    const Status saved = SaveTieredIndex(index, manifest_b, save_b);
    if (!saved.ok()) {
      report.violations.push_back("generation B save failed: " +
                                  saved.ToString());
      return report;
    }
  }
  std::vector<std::vector<ScoredTuple>> answers_b;
  {
    StatusOr<TieredDualLayerIndex> b = LoadTieredIndex(manifest_b);
    if (!b.ok()) {
      report.violations.push_back("pristine generation B fails to load: " +
                                  b.status().ToString());
      return report;
    }
    answers_b = TieredProbeAnswers(b.value(), queries);
  }

  const auto reset_recovery_from = [&](const fs::path& source) {
    fs::remove_all(dir_r, ec);
    fs::create_directories(dir_r, ec);
    for (const fs::directory_entry& entry : fs::directory_iterator(source)) {
      fs::copy_file(entry.path(), dir_r / entry.path().filename(),
                    fs::copy_options::overwrite_existing, ec);
    }
  };
  const std::string manifest_r = (dir_r / kManifestName).string();

  // --- family 1: crash between any two file commits of B's save.
  // Every prefix of B's write order applied over A's files must
  // recover to a durable generation: A while B's manifest is not yet
  // committed, B once it is.
  for (std::size_t j = 0; j <= write_order.size(); ++j) {
    reset_recovery_from(dir_a);
    for (std::size_t i = 0; i < j; ++i) {
      const fs::path src(write_order[i]);
      fs::copy_file(src, dir_r / src.filename(),
                    fs::copy_options::overwrite_existing, ec);
    }
    ++report.cases;
    const bool expect_b = j == write_order.size();
    StatusOr<TieredDualLayerIndex> recovered = LoadTieredIndex(manifest_r);
    if (!recovered.ok()) {
      report.violations.push_back(
          "crash prefix " + std::to_string(j) + "/" +
          std::to_string(write_order.size()) +
          " failed to recover: " + recovered.status().ToString());
      continue;
    }
    const std::vector<std::vector<ScoredTuple>> got =
        TieredProbeAnswers(recovered.value(), queries);
    if (!TieredAnswersEqual(got, expect_b ? answers_b : answers_a)) {
      report.violations.push_back(
          "crash prefix " + std::to_string(j) + "/" +
          std::to_string(write_order.size()) + " recovered generation " +
          std::to_string(recovered.value().generation()) +
          " with diverging answers");
      continue;
    }
    if (expect_b) {
      ++report.recovered_current;
    } else {
      ++report.recovered_previous;
    }
  }

  // Corrupt-mutant probe: overwrite one file in an otherwise complete
  // copy of B and require a clean rejection.
  const auto probe_reject = [&](const std::string& target,
                                const std::vector<std::uint8_t>& mutant,
                                const std::string& what) {
    WriteFileBytes(target, mutant);
    ++report.cases;
    StatusOr<TieredDualLayerIndex> loaded = LoadTieredIndex(manifest_r);
    if (loaded.ok()) {
      report.violations.push_back(what + " loaded successfully");
      return;
    }
    const StatusCode code = loaded.status().code();
    if (code == StatusCode::kCorruption || code == StatusCode::kIoError) {
      ++report.rejected;
    } else {
      report.violations.push_back(what + " returned unexpected status: " +
                                  loaded.status().ToString());
    }
  };

  // --- family 2: manifest truncation at every byte (strided when the
  // manifest outgrows kTruncationCap).
  const std::vector<std::uint8_t> manifest_bytes = ReadFileBytes(manifest_b);
  reset_recovery_from(dir_b);
  const std::size_t stride = manifest_bytes.size() <= kTruncationCap
                                 ? 1
                                 : manifest_bytes.size() / kTruncationCap + 1;
  for (std::size_t cut = 0; cut < manifest_bytes.size(); cut += stride) {
    const std::vector<std::uint8_t> mutant(manifest_bytes.begin(),
                                           manifest_bytes.begin() +
                                               static_cast<long>(cut));
    probe_reject(manifest_r, mutant,
                 "manifest truncated to " + std::to_string(cut) + " bytes");
  }

  // --- family 3: run-file truncation at every v2 section boundary +/-1.
  StatusOr<TieredManifestInfo> info_b = InspectTieredManifest(manifest_b);
  if (!info_b.ok() || info_b.value().runs.empty()) {
    report.violations.push_back("generation B manifest has no runs to cut");
    return report;
  }
  const std::string run_name = info_b.value().runs.front().file;
  const std::string run_b = (dir_b / run_name).string();
  const std::string run_r = (dir_r / run_name).string();
  const std::vector<std::uint8_t> run_bytes = ReadFileBytes(run_b);
  const auto run_info = InspectSnapshot(run_b);
  if (!run_info.ok()) {
    report.violations.push_back("pristine run snapshot fails inspection: " +
                                run_info.status().ToString());
    return report;
  }
  reset_recovery_from(dir_b);
  std::set<std::uint64_t> cuts = {0, 4, 8, run_bytes.size() - 1};
  for (const SnapshotSectionInfo& row : run_info.value().sections) {
    for (const std::int64_t delta : {-1, 0, 1}) {
      const std::uint64_t edges[] = {row.offset, row.offset + row.length};
      for (const std::uint64_t edge : edges) {
        const std::int64_t cut = static_cast<std::int64_t>(edge) + delta;
        if (cut >= 0 && cut < static_cast<std::int64_t>(run_bytes.size())) {
          cuts.insert(static_cast<std::uint64_t>(cut));
        }
      }
    }
  }
  for (const std::uint64_t cut : cuts) {
    const std::vector<std::uint8_t> mutant(run_bytes.begin(),
                                           run_bytes.begin() +
                                               static_cast<long>(cut));
    probe_reject(run_r, mutant,
                 "run file truncated to " + std::to_string(cut) + " bytes");
  }

  // --- family 4: seeded single-byte flips, alternating between the
  // manifest and the run file; both are fully checksummed, so every
  // flip must be detected.
  reset_recovery_from(dir_b);
  for (std::size_t i = 0; i < options.num_flips; ++i) {
    const bool hit_manifest = (i % 2) == 0;
    const std::vector<std::uint8_t>& base =
        hit_manifest ? manifest_bytes : run_bytes;
    const std::size_t pos = rng.Index(base.size());
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << rng.Index(8));
    std::vector<std::uint8_t> mutant = base;
    mutant[pos] ^= mask;
    probe_reject(hit_manifest ? manifest_r : run_r, mutant,
                 std::string(hit_manifest ? "manifest" : "run") +
                     " byte flip at " + std::to_string(pos) + " mask " +
                     std::to_string(mask));
    // Restore the mutated file for the next iteration.
    WriteFileBytes(hit_manifest ? manifest_r : run_r, base);
  }

  for (const fs::path& dir : {dir_a, dir_b, dir_r}) fs::remove_all(dir, ec);
  return report;
}

std::string BudgetFaultReport::ToString() const {
  std::ostringstream out;
  out << cases << " budgeted quer(ies), " << partials << " partial, "
      << completes << " complete";
  if (!violations.empty()) {
    out << ", " << violations.size() << " violation(s):";
    for (const std::string& v : violations) out << "\n  " << v;
  }
  return out.str();
}

BudgetFaultReport RunBudgetFaultSweep(const PointSet& points,
                                      const std::vector<TopKQuery>& queries) {
  BudgetFaultReport report;
  StatusOr<DifferentialHarness> harness = DifferentialHarness::Build(points);
  if (!harness.ok()) {
    report.violations.push_back("harness build failed: " +
                                harness.status().ToString());
    return report;
  }
  for (const TopKQuery& base : queries) {
    for (const auto& [kind, cost] : harness.value().UnbudgetedCosts(base)) {
      // s = cost is the boundary case where the gate arms but never
      // fires; every smaller s cuts the traversal mid-flight.
      for (std::size_t s = 1; s <= cost; ++s) {
        CancelToken token;
        token.CancelAfterChecks(static_cast<std::int64_t>(s));
        TopKQuery by_steps = base;
        by_steps.budget.max_evals = s;
        TopKQuery by_cancel = base;
        by_cancel.budget.cancel = &token;
        for (const TopKQuery* query : {&by_steps, &by_cancel}) {
          std::size_t partial = 0;
          const std::vector<std::string> violations =
              harness.value().CheckQuery(*query, kind, &partial);
          ++report.cases;
          report.partials += partial;
          report.completes += 1 - partial;
          report.violations.insert(report.violations.end(),
                                   violations.begin(), violations.end());
        }
        if (report.violations.size() > 32) return report;  // enough signal
      }
    }
  }
  return report;
}

}  // namespace testing
}  // namespace drli
