// The invariant checker itself: a correct build of any shape must pass,
// a structurally corrupted index must fail, and the checker must keep
// working on indexes that went through a serialization round trip.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/dual_layer.h"
#include "core/serialization.h"
#include "data/generator.h"
#include "testing/check_index.h"
#include "testing/fault_inject.h"
#include "test_util.h"

namespace drli {
namespace {

void ExpectClean(const DualLayerIndex& index, const std::string& what) {
  const CheckReport report = CheckIndex(index);
  EXPECT_TRUE(report.ok()) << what << ":\n" << report.ToString();
  EXPECT_GT(report.invariants_checked, 0u) << what;
}

TEST(CheckIndexTest, CleanBuildsAcrossShapes) {
  for (const Distribution dist :
       {Distribution::kIndependent, Distribution::kAnticorrelated,
        Distribution::kCorrelated}) {
    for (const std::size_t d : {2u, 3u, 5u}) {
      const PointSet points = Generate(dist, 220, d, 7 * d);
      for (const bool zero_layer : {false, true}) {
        DualLayerOptions options;
        options.build_zero_layer = zero_layer;
        ExpectClean(DualLayerIndex::Build(points, options),
                    std::string(DistributionName(dist)) + " d=" +
                        std::to_string(d) +
                        (zero_layer ? " dl+" : " dl"));
      }
    }
  }
}

// The exact dominance-depth oracle sweeps in sum order, so a dominator
// whose sum ties with its tuple's must still come first there.
TEST(CheckIndexTest, SumTiedDominatorsPass) {
  Rng rng(31);
  for (const std::size_t d : {3u, 4u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const PointSet points = testing_util::SumTiedDominatorPair(
          d, trial % 2 == 0 ? 0.05 : 0.5, 60, &rng);
      DualLayerOptions options;
      options.build_zero_layer = true;
      const DualLayerIndex index = DualLayerIndex::Build(points, options);
      EXPECT_EQ(index.coarse_layer_of(0), index.coarse_layer_of(1) + 1);
      ExpectClean(index, "d=" + std::to_string(d) + " trial " +
                             std::to_string(trial));
    }
  }
}

TEST(CheckIndexTest, FineLayersDisabled) {
  // The ablation that reduces DL to a Dominant Graph still has to obey
  // every invariant that remains (one sublayer per coarse layer).
  const PointSet points = Generate(Distribution::kAnticorrelated, 300, 3, 11);
  DualLayerOptions options;
  options.enable_fine_layers = false;
  ExpectClean(DualLayerIndex::Build(points, options), "fine disabled");
}

TEST(CheckIndexTest, ToyAndDegenerateDatasets) {
  ExpectClean(DualLayerIndex::Build(testing_util::MakeToyDataset()), "toy");
  ExpectClean(DualLayerIndex::Build(PointSet(3)), "empty");
  PointSet one(4);
  one.Add({0.1, 0.2, 0.3, 0.4});
  DualLayerOptions plus;
  plus.build_zero_layer = true;
  ExpectClean(DualLayerIndex::Build(one, plus), "single tuple dl+");
  PointSet dups(2);
  for (int i = 0; i < 16; ++i) dups.Add({0.5, 0.5});
  ExpectClean(DualLayerIndex::Build(dups, plus), "all duplicates dl+");
}

TEST(CheckIndexTest, LoadedRoundTripsPass) {
  for (const std::size_t d : {2u, 3u}) {
    const PointSet points = Generate(Distribution::kAnticorrelated, 250, d, 5);
    DualLayerOptions options;
    options.build_zero_layer = true;  // 2-d: weight table; 3-d: clusters
    const DualLayerIndex built = DualLayerIndex::Build(points, options);
    const std::string path =
        ::testing::TempDir() + "check_round_trip_" + std::to_string(d) +
        ".bin";
    ASSERT_TRUE(SaveDualLayerIndex(built, path).ok());
    auto loaded = LoadDualLayerIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectClean(loaded.value(), "round trip d=" + std::to_string(d));
    std::remove(path.c_str());
  }
}

// Swapping two tuples between adjacent coarse layers -- consistently,
// in both the coarse_of section and the layer member lists, with every
// CRC resealed -- produces a snapshot the loader must accept (its
// cross-checks all pass) but the checker must reject: the
// dominance-depth recomputation pins every assignment exactly.
TEST(CheckIndexTest, CorruptedCoarseAssignmentFails) {
  const PointSet points = Generate(Distribution::kAnticorrelated, 400, 3, 13);
  const DualLayerIndex built = DualLayerIndex::Build(points);
  ASSERT_TRUE(CheckIndex(built).ok());

  const std::string path = ::testing::TempDir() + "check_corrupt.bin";
  ASSERT_TRUE(SaveDualLayerIndex(built, path).ok());

  const std::vector<std::vector<TupleId>>& layers = built.coarse_layers();
  ASSERT_GE(layers.size(), 2u);
  const TupleId u = layers[0].front();  // flat member position 0
  const TupleId v = layers[1].front();  // flat member position |layer 0|
  const std::uint64_t pos_v = layers[0].size();

  testing::SnapshotV2Editor editor(testing::ReadFileBytes(path));
  const std::uint32_t layer_of_u = 1, layer_of_v = 0;
  editor.PatchSection(snapshot::SectionKind::kCoarseOf,
                      std::uint64_t{u} * 4, &layer_of_u, 4);
  editor.PatchSection(snapshot::SectionKind::kCoarseOf,
                      std::uint64_t{v} * 4, &layer_of_v, 4);
  editor.PatchSection(snapshot::SectionKind::kLayerMembers, 0, &v, 4);
  editor.PatchSection(snapshot::SectionKind::kLayerMembers, pos_v * 4, &u, 4);
  testing::WriteFileBytes(path, editor.bytes());

  auto corrupted = LoadDualLayerIndex(path);
  ASSERT_TRUE(corrupted.ok()) << corrupted.status().ToString();
  const CheckReport report = CheckIndex(corrupted.value());
  EXPECT_FALSE(report.ok())
      << "corrupted coarse assignment passed the checker";
  std::remove(path.c_str());
}

TEST(CheckIndexTest, ReportListsWhatWasChecked) {
  const PointSet points = Generate(Distribution::kIndependent, 120, 2, 3);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const CheckReport report =
      CheckIndex(DualLayerIndex::Build(points, options));
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_NE(report.ToString().find("OK"), std::string::npos);
}

}  // namespace
}  // namespace drli
