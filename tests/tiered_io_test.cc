// Persistence and crash recovery of the tiered dynamic index: full
// roundtrip of live multi-run state (runs + memtable + tombstones),
// manifest metadata, write-order capture, stray-run sweeping, clean
// rejection of corrupt or torn files, and the seeded crash-recovery
// fault sweep.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/tiered_index.h"
#include "scenarios/constrained.h"
#include "storage/tiered_io.h"
#include "test_util.h"
#include "testing/fault_inject.h"
#include "topk/query.h"

namespace drli {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("drli_tio_" + std::to_string(getpid()) + "_" + name))
      .string();
}

void RemoveWithRuns(const std::string& manifest) {
  std::error_code ec;
  const std::filesystem::path dir =
      std::filesystem::path(manifest).parent_path();
  const std::string base = std::filesystem::path(manifest).filename();
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename();
    if (name.rfind(base, 0) == 0) std::filesystem::remove(entry.path(), ec);
  }
}

// A live index with several runs, a partial memtable and tombstones.
TieredDualLayerIndex MakeLiveIndex(std::map<TupleId, Point>* live,
                                   std::uint64_t seed = 3) {
  TieredIndexOptions options;
  options.memtable_capacity = 8;
  options.fanout = 2;
  options.auto_compact = false;
  TieredDualLayerIndex index(3, options);
  Rng rng(seed);
  std::vector<TupleId> ids;
  for (std::size_t i = 0; i < 45; ++i) {
    Point row(3);
    for (double& x : row) x = rng.Uniform();
    const TupleId id = index.Insert(PointView(row.data(), row.size()));
    if (live) (*live)[id] = row;
    ids.push_back(id);
  }
  for (std::size_t i = 0; i < ids.size(); i += 7) {
    index.Erase(ids[i]);
    if (live) live->erase(ids[i]);
  }
  return index;
}

void ExpectSameResult(const TopKResult& ra, const TopKResult& rb) {
  ASSERT_TRUE(ra.complete()) << ra.error;
  ASSERT_TRUE(rb.complete()) << rb.error;
  ASSERT_EQ(ra.items.size(), rb.items.size());
  for (std::size_t i = 0; i < ra.items.size(); ++i) {
    EXPECT_EQ(ra.items[i].id, rb.items[i].id);
    EXPECT_DOUBLE_EQ(ra.items[i].score, rb.items[i].score);
  }
  // Retire masks are re-derived from the manifest's tombstones, so a
  // reloaded index reads at the same cost, opening the same runs.
  EXPECT_EQ(ra.stats.tuples_evaluated, rb.stats.tuples_evaluated);
  EXPECT_EQ(ra.stats.runs_opened, rb.stats.runs_opened);
}

// Plain and constrained reads agree, answers and costs.
void ExpectSameAnswers(const TieredDualLayerIndex& a,
                       const TieredDualLayerIndex& b) {
  for (const TopKQuery& query :
       testing_util::RandomQueries(a.dim(), 6, 10, 59)) {
    ExpectSameResult(a.Query(query), b.Query(query));
    ConstrainedQuery constrained;
    constrained.weights = query.weights;
    constrained.k = query.k;
    constrained.box = AttributeBox::All(a.dim());
    constrained.box.lo[0] = 0.25;
    ExpectSameResult(ConstrainedTopK(a, constrained),
                     ConstrainedTopK(b, constrained));
  }
}

TEST(TieredIoTest, RoundTripPreservesLiveState) {
  std::map<TupleId, Point> live;
  const TieredDualLayerIndex index = MakeLiveIndex(&live);
  ASSERT_GE(index.num_runs(), 2u);
  ASSERT_GT(index.memtable_size(), 0u);
  ASSERT_GT(index.tombstone_count(), 0u);

  const std::string path = TempPath("roundtrip.drlt");
  ASSERT_TRUE(SaveTieredIndex(index, path).ok());
  auto loaded_or = LoadTieredIndex(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  TieredDualLayerIndex& loaded = loaded_or.value();

  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(loaded.num_runs(), index.num_runs());
  EXPECT_EQ(loaded.memtable_size(), index.memtable_size());
  EXPECT_EQ(loaded.tombstone_count(), index.tombstone_count());
  EXPECT_EQ(loaded.generation(), index.generation());
  EXPECT_EQ(loaded.next_id(), index.next_id());
  EXPECT_EQ(loaded.next_run_uid(), index.next_run_uid());
  ExpectSameAnswers(index, loaded);

  // The loaded copy is fully mutable: inserts get fresh ids, erases
  // resolve into the reloaded runs, compaction works.
  Point row = {0.1, 0.2, 0.3};
  const TupleId fresh = loaded.Insert(PointView(row.data(), row.size()));
  EXPECT_EQ(fresh, index.next_id());
  ASSERT_TRUE(loaded.Erase(fresh));
  loaded.Compact();
  EXPECT_LE(loaded.num_runs(), 1u);
  EXPECT_EQ(loaded.size(), index.size());
  RemoveWithRuns(path);
}

// LoadTieredIndex makes the loaded engine's partition set last, and a
// move carries it along: it lists the loaded runs and bounds each from
// its block bit for bit, and the moved engine reads exactly as before.
TEST(TieredIoTest, LoadedPartitionSetIsFreshAndSurvivesAMove) {
  const TieredDualLayerIndex index = MakeLiveIndex(nullptr, 5);
  testing_util::ExpectFreshTieredSet(index, "saved");
  const std::string path = TempPath("fresh_set.drlt");
  ASSERT_TRUE(SaveTieredIndex(index, path).ok());
  auto loaded = LoadTieredIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  testing_util::ExpectFreshTieredSet(loaded.value(), "loaded");

  const std::vector<TopKResult> before =
      testing_util::SampleReads(loaded.value());
  const TieredDualLayerIndex moved = std::move(loaded.value());
  testing_util::ExpectFreshTieredSet(moved, "moved");
  const std::vector<TopKResult> after = testing_util::SampleReads(moved);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    testing_util::ExpectIdenticalResult(before[i], after[i], "moved read");
  }
  RemoveWithRuns(path);
}

TEST(TieredIoTest, EmptyIndexRoundTrips) {
  TieredDualLayerIndex index(2);
  const std::string path = TempPath("empty.drlt");
  ASSERT_TRUE(SaveTieredIndex(index, path).ok());
  auto loaded = LoadTieredIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 0u);
  EXPECT_EQ(loaded.value().num_runs(), 0u);
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 4;
  EXPECT_TRUE(loaded.value().Query(query).items.empty());
  RemoveWithRuns(path);
}

TEST(TieredIoTest, ManifestMetadataMatchesIndex) {
  const TieredDualLayerIndex index = MakeLiveIndex(nullptr);
  const std::string path = TempPath("meta.drlt");
  ASSERT_TRUE(SaveTieredIndex(index, path).ok());
  EXPECT_TRUE(IsTieredManifest(path));

  auto info_or = InspectTieredManifest(path);
  ASSERT_TRUE(info_or.ok()) << info_or.status().ToString();
  const TieredManifestInfo& info = info_or.value();
  EXPECT_EQ(info.version, tiered_manifest::kVersion);
  EXPECT_EQ(info.dim, index.dim());
  EXPECT_EQ(info.generation, index.generation());
  EXPECT_EQ(info.next_id, index.next_id());
  EXPECT_EQ(info.memtable_rows, index.memtable_size());
  EXPECT_EQ(info.num_tombstones, index.tombstone_count());
  ASSERT_EQ(info.runs.size(), index.num_runs());
  for (std::size_t i = 0; i < info.runs.size(); ++i) {
    EXPECT_EQ(info.runs[i].uid, index.run(i).uid);
    EXPECT_EQ(info.runs[i].tier, index.run(i).tier);
    EXPECT_EQ(info.runs[i].num_points, index.run(i).ids.size());
    // Files are recorded relative to the manifest and must exist.
    EXPECT_EQ(info.runs[i].file.find('/'), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(path).parent_path() / info.runs[i].file));
  }
  RemoveWithRuns(path);
}

TEST(TieredIoTest, WriteOrderEndsWithManifest) {
  const TieredDualLayerIndex index = MakeLiveIndex(nullptr);
  const std::string path = TempPath("order.drlt");
  std::vector<std::string> writes;
  TieredSaveOptions save;
  save.write_order = &writes;
  ASSERT_TRUE(SaveTieredIndex(index, path, save).ok());
  ASSERT_EQ(writes.size(), index.num_runs() + 1);
  EXPECT_EQ(writes.back(), path);  // manifest commits last
  for (std::size_t i = 0; i + 1 < writes.size(); ++i) {
    EXPECT_NE(writes[i].find(".run-"), std::string::npos) << writes[i];
  }
  RemoveWithRuns(path);
}

TEST(TieredIoTest, ResaveSweepsStraysAndKeepsLiveRuns) {
  std::map<TupleId, Point> live;
  TieredDualLayerIndex index = MakeLiveIndex(&live);
  const std::string path = TempPath("sweep.drlt");
  ASSERT_TRUE(SaveTieredIndex(index, path).ok());
  const std::size_t runs_before = index.num_runs();
  index.Compact();  // retires every old run file
  ASSERT_LT(index.num_runs(), runs_before);
  ASSERT_TRUE(SaveTieredIndex(index, path).ok());
  // Only the manifest's runs survive on disk after the sweep.
  auto info = InspectTieredManifest(path);
  ASSERT_TRUE(info.ok());
  std::size_t run_files = 0;
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  const std::string prefix =
      std::string(std::filesystem::path(path).filename()) + ".run-";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename();
    if (name.rfind(prefix, 0) == 0) ++run_files;
  }
  EXPECT_EQ(run_files, info.value().runs.size());
  auto loaded = LoadTieredIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameAnswers(index, loaded.value());
  RemoveWithRuns(path);
}

TEST(TieredIoTest, CorruptManifestAndRunFilesAreRejected) {
  const TieredDualLayerIndex index = MakeLiveIndex(nullptr);
  const std::string path = TempPath("corrupt.drlt");
  ASSERT_TRUE(SaveTieredIndex(index, path).ok());

  const std::vector<std::uint8_t> pristine = testing::ReadFileBytes(path);
  ASSERT_FALSE(pristine.empty());
  // Flip one byte mid-manifest: checksummed, so the load must fail.
  std::vector<std::uint8_t> bytes = pristine;
  bytes[bytes.size() / 2] ^= 0x40;
  testing::WriteFileBytes(path, bytes);
  EXPECT_FALSE(LoadTieredIndex(path).ok());
  EXPECT_FALSE(InspectTieredManifest(path).ok());
  // Truncation at any point must fail too.
  bytes = pristine;
  bytes.resize(bytes.size() - 5);
  testing::WriteFileBytes(path, bytes);
  EXPECT_FALSE(LoadTieredIndex(path).ok());
  testing::WriteFileBytes(path, pristine);
  ASSERT_TRUE(LoadTieredIndex(path).ok());

  // A corrupt run snapshot is caught by the v2 section checksums.
  auto info = InspectTieredManifest(path);
  ASSERT_TRUE(info.ok());
  ASSERT_FALSE(info.value().runs.empty());
  const std::string run_path =
      (std::filesystem::path(path).parent_path() / info.value().runs[0].file)
          .string();
  const std::vector<std::uint8_t> run_pristine =
      testing::ReadFileBytes(run_path);
  std::vector<std::uint8_t> run_bytes = run_pristine;
  run_bytes[run_bytes.size() / 2] ^= 0x01;
  testing::WriteFileBytes(run_path, run_bytes);
  EXPECT_FALSE(LoadTieredIndex(path).ok());
  // A missing run file fails cleanly as well.
  testing::WriteFileBytes(run_path, run_pristine);
  ASSERT_TRUE(LoadTieredIndex(path).ok());
  std::filesystem::remove(run_path);
  EXPECT_FALSE(LoadTieredIndex(path).ok());
  RemoveWithRuns(path);
}

TEST(TieredIoTest, NonTieredFilesAreNotMistakenForManifests) {
  const std::string path = TempPath("not_tiered.bin");
  std::ofstream out(path, std::ios::binary);
  out << "DRLI someting else entirely";
  out.close();
  EXPECT_FALSE(IsTieredManifest(path));
  EXPECT_FALSE(LoadTieredIndex(path).ok());
  std::filesystem::remove(path);
}

// The full seeded crash-recovery sweep: every prefix of a generation's
// write order recovers the last durable generation, and every
// corruption of the manifest or a run file is rejected.
TEST(TieredIoTest, CrashRecoverySweepFindsNoViolations) {
  testing::TieredFaultOptions options;
  options.seed = 5;
  options.num_flips = 60;  // compact CI profile; the nightly raises it
  options.mutations_between = 32;
  const testing::TieredFaultReport report =
      testing::RunTieredFaultSweep(TempPath("crash_sweep_dir"), options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.recovered_previous, 0u) << report.ToString();
  EXPECT_GT(report.recovered_current, 0u) << report.ToString();
  EXPECT_GT(report.rejected, 0u) << report.ToString();
}

}  // namespace
}  // namespace drli
