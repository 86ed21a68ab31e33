#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "gtest/gtest.h"

#include "core/serialization.h"
#include "data/generator.h"
#include "testing/check_index.h"
#include "testing/fault_inject.h"
#include "test_util.h"

namespace drli {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void ExpectSameAnswersAndCost(const DualLayerIndex& a,
                              const DualLayerIndex& b, std::size_t d,
                              std::size_t k) {
  for (const TopKQuery& query : testing_util::RandomQueries(d, k, 15, 5)) {
    const TopKResult ra = a.Query(query);
    const TopKResult rb = b.Query(query);
    EXPECT_TRUE(testing_util::ResultsEquivalent(ra, rb));
    EXPECT_EQ(ra.stats.tuples_evaluated, rb.stats.tuples_evaluated);
    EXPECT_EQ(ra.stats.virtual_evaluated, rb.stats.virtual_evaluated);
  }
}

TEST(SerializationTest, RoundTripPlainDl) {
  const std::string path = TempPath("drli_index_plain.bin");
  const PointSet pts = GenerateAnticorrelated(300, 3, 1);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  auto loaded = LoadDualLayerIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().name(), "DL");
  EXPECT_EQ(loaded.value().size(), index.size());
  ExpectSameAnswersAndCost(index, loaded.value(), 3, 10);
  std::remove(path.c_str());
}

TEST(SerializationTest, RoundTripDlPlusClustered) {
  const std::string path = TempPath("drli_index_plus.bin");
  const PointSet pts = GenerateIndependent(400, 4, 2);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  auto loaded = LoadDualLayerIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().virtual_points().size(),
            index.virtual_points().size());
  ExpectSameAnswersAndCost(index, loaded.value(), 4, 10);
  std::remove(path.c_str());
}

TEST(SerializationTest, RoundTripDlPlus2DWeightTable) {
  const std::string path = TempPath("drli_index_2d.bin");
  const PointSet pts = GenerateIndependent(500, 2, 3);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  auto loaded = LoadDualLayerIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().uses_weight_table());
  ExpectSameAnswersAndCost(index, loaded.value(), 2, 5);
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileFails) {
  const auto loaded = LoadDualLayerIndex("/nonexistent/drli.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SerializationTest, CorruptMagicRejected) {
  const std::string path = TempPath("drli_index_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an index file at all";
  }
  const auto loaded = LoadDualLayerIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileRejected) {
  const std::string path = TempPath("drli_index_trunc.bin");
  const PointSet pts = GenerateIndependent(100, 3, 4);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  // Chop the file in half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  const auto loaded = LoadDualLayerIndex(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, WeightTableRoundTrips) {
  const PointSet pts = GenerateAnticorrelated(600, 2, 8);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  ASSERT_TRUE(index.uses_weight_table());
  const std::string path = TempPath("drli_index_wt.bin");
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  auto loaded = LoadDualLayerIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().uses_weight_table());
  EXPECT_EQ(loaded.value().weight_table().chain(),
            index.weight_table().chain());
  ExpectSameAnswersAndCost(index, loaded.value(), 2, 5);
  std::remove(path.c_str());
}

TEST(SerializationTest, MmapLoadIsZeroCopy) {
  const std::string path = TempPath("drli_index_mmap.bin");
  const PointSet pts = GenerateIndependent(500, 4, 9);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());

  auto mapped = LoadDualLayerIndex(path);  // prefer_mmap defaults true
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // The point and adjacency payloads are views into the mapping, not
  // copies -- the zero-copy claim of the v2 loader.
  EXPECT_FALSE(mapped.value().points().owns_data());
  EXPECT_FALSE(mapped.value().virtual_points().owns_data());
  EXPECT_FALSE(mapped.value().coarse_out().owns_data());
  EXPECT_FALSE(mapped.value().fine_out().owns_data());

  SnapshotLoadOptions no_mmap;
  no_mmap.prefer_mmap = false;
  auto copied = LoadDualLayerIndex(path, no_mmap);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_TRUE(copied.value().points().owns_data());
  EXPECT_TRUE(copied.value().coarse_out().owns_data());

  ExpectSameAnswersAndCost(index, mapped.value(), 4, 10);
  ExpectSameAnswersAndCost(mapped.value(), copied.value(), 4, 10);
  EXPECT_TRUE(CheckIndex(mapped.value()).ok());
  std::remove(path.c_str());
  // The index must stay usable after the file is gone: the views own
  // the mapping, not the path.
  ExpectSameAnswersAndCost(index, mapped.value(), 4, 10);
}

TEST(SerializationTest, EmptyIndexRoundTrips) {
  const DualLayerIndex index = DualLayerIndex::Build(PointSet(3));
  const std::string path = TempPath("drli_index_empty.bin");
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  auto loaded = LoadDualLayerIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 0u);
  EXPECT_TRUE(CheckIndex(loaded.value()).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, SaveIntoMissingDirectoryFailsCleanly) {
  const std::string path = "/nonexistent_drli_dir/index.bin";
  const DualLayerIndex index =
      DualLayerIndex::Build(GenerateIndependent(50, 3, 1));
  const Status status = SaveDualLayerIndex(index, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(SerializationTest, SaveLeavesNoTempFileBehind) {
  const std::string path = TempPath("drli_index_atomic.bin");
  const DualLayerIndex index =
      DualLayerIndex::Build(GenerateIndependent(50, 3, 2));
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Overwriting an existing snapshot goes through the same tmp+rename.
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(SerializationTest, InspectReportsSections) {
  const std::string path = TempPath("drli_index_inspect.bin");
  const PointSet pts = GenerateAnticorrelated(200, 3, 3);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  const auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, snapshot::kVersionV2);
  EXPECT_EQ(info.value().num_points, 200u);
  EXPECT_EQ(info.value().dim, 3u);
  EXPECT_EQ(info.value().sections.size(), 12u);
  for (const SnapshotSectionInfo& row : info.value().sections) {
    EXPECT_TRUE(row.crc_ok) << row.name;
  }
  std::remove(path.c_str());
}

// One deterministic byte flip in the middle of every v2 section: each
// must be caught by that section's CRC (or the padding/size rules) and
// reported as Corruption -- never a crash, never a silent success.
TEST(SerializationTest, ByteFlipInEverySectionRejected) {
  const std::string path = TempPath("drli_index_flip.bin");
  const PointSet pts = GenerateAnticorrelated(300, 2, 5);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  const std::vector<std::uint8_t> pristine = testing::ReadFileBytes(path);
  const auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok());
  for (const SnapshotSectionInfo& row : info.value().sections) {
    if (row.length == 0) continue;
    std::vector<std::uint8_t> mutant = pristine;
    mutant[row.offset + row.length / 2] ^= 0x10;
    testing::WriteFileBytes(path, mutant);
    const auto loaded = LoadDualLayerIndex(path);
    ASSERT_FALSE(loaded.ok()) << "flip in section " << row.name
                              << " loaded successfully";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << row.name;
  }
  std::remove(path.c_str());
}

// A huge section length in a table entry must fail the bounds check
// before any allocation, even with the table CRC resealed.
TEST(SerializationTest, AdversarialLengthsRejected) {
  const PointSet pts = GenerateIndependent(150, 3, 7);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  const std::string path = TempPath("drli_index_huge_v2.bin");
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  testing::SnapshotV2Editor editor(testing::ReadFileBytes(path));
  snapshot::SectionEntry entry = editor.entry(1);
  entry.length = 0xfffffffffffff000ull;
  editor.SetEntry(1, entry);
  testing::WriteFileBytes(path, editor.bytes());
  const auto loaded = LoadDualLayerIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Corrupting only coarse_of (CRC resealed, member lists untouched)
// must already fail at load: the loader cross-checks layer membership
// against coarse_of before accepting the snapshot.
TEST(SerializationTest, InconsistentCoarseOfRejectedAtLoad) {
  const std::string path = TempPath("drli_index_coarse_of.bin");
  const PointSet pts = GenerateAnticorrelated(250, 3, 11);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  testing::SnapshotV2Editor editor(testing::ReadFileBytes(path));
  const std::uint32_t flipped = index.coarse_layer_of(0) ^ 1u;
  editor.PatchSection(snapshot::SectionKind::kCoarseOf, 0, &flipped,
                      sizeof(flipped));
  testing::WriteFileBytes(path, editor.bytes());
  const auto loaded = LoadDualLayerIndex(path);
  ASSERT_FALSE(loaded.ok()) << "inconsistent coarse_of loaded";
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Out-of-range ids planted in the layer-member and weight-chain
// sections (CRCs resealed) must be range-checked at load; before the
// hardening these bytes flowed straight into LayerGroups() /
// WeightRangeTable::Build.
TEST(SerializationTest, OutOfRangeIdsRejectedAtLoad) {
  const std::string path = TempPath("drli_index_oob.bin");
  const PointSet pts = GenerateAnticorrelated(300, 2, 17);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
  const std::vector<std::uint8_t> pristine = testing::ReadFileBytes(path);

  for (const snapshot::SectionKind kind :
       {snapshot::SectionKind::kLayerMembers,
        snapshot::SectionKind::kWeightChain,
        snapshot::SectionKind::kCoarseOf,
        snapshot::SectionKind::kFineOf,
        snapshot::SectionKind::kCoarseTargets}) {
    testing::SnapshotV2Editor editor(pristine);
    ASSERT_GE(editor.FindSection(kind), 0);
    const std::uint32_t bogus = 0x7fffffffu;
    editor.PatchSection(kind, 0, &bogus, sizeof(bogus));
    testing::WriteFileBytes(path, editor.bytes());
    const auto loaded = LoadDualLayerIndex(path);
    ASSERT_FALSE(loaded.ok())
        << "out-of-range id in " << snapshot::SectionKindName(kind)
        << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

// The full sweep (truncations at every boundary, seeded byte flips,
// adversarial metadata, retired and unknown versions) for every index
// family. DRLI_FAULT_FLIPS scales the flip count (the nightly sanitizer
// job raises it; the acceptance run uses >= 1000).
TEST(SerializationFaultTest, SweepAllFamilies) {
  std::size_t flips = 300;
  if (const char* env = std::getenv("DRLI_FAULT_FLIPS")) {
    flips = std::strtoul(env, nullptr, 10);
  }
  struct Config {
    const char* label;
    std::size_t d;
    bool zero_layer;
  };
  for (const Config& config : {Config{"dl_3d", 3, false},
                               Config{"dl_plus_4d", 4, true},
                               Config{"dl_plus_2d", 2, true}}) {
    const PointSet pts =
        Generate(Distribution::kAnticorrelated, 300, config.d, 23);
    DualLayerOptions options;
    options.build_zero_layer = config.zero_layer;
    const DualLayerIndex index = DualLayerIndex::Build(pts, options);
    const std::string path =
        TempPath(std::string("drli_sweep_") + config.label + ".bin");
    ASSERT_TRUE(SaveDualLayerIndex(index, path).ok());
    testing::FaultSweepOptions sweep;
    sweep.seed = 33;
    sweep.num_flips = flips;
    const testing::FaultSweepReport report =
        testing::RunSnapshotFaultSweep(path, sweep);
    EXPECT_TRUE(report.ok()) << config.label << ": " << report.ToString();
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace drli
