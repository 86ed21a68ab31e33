#include <algorithm>
#include <cmath>
#include <numeric>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/zero_layer.h"
#include "data/generator.h"
#include "geometry/convex_hull_2d.h"
#include "test_util.h"

namespace drli {
namespace {

TEST(WeightRangeTableTest, ToyDatasetRanges) {
  const PointSet pts = testing_util::MakeToyDataset();
  const std::vector<TupleId> chain = {testing_util::kA, testing_util::kB,
                                      testing_util::kC};
  const WeightRangeTable table = WeightRangeTable::Build(pts, chain);
  ASSERT_EQ(table.breakpoints().size(), 2u);
  // Breakpoints strictly decreasing in (0, 1).
  EXPECT_GT(table.breakpoints()[0], table.breakpoints()[1]);
  EXPECT_LT(table.breakpoints()[0], 1.0);
  EXPECT_GT(table.breakpoints()[1], 0.0);
  // w1 -> 1 favours min-x (a); w1 -> 0 favours min-y (c).
  EXPECT_EQ(table.chain()[table.Lookup(0.999)], testing_util::kA);
  EXPECT_EQ(table.chain()[table.Lookup(0.001)], testing_util::kC);
  // w = (0.5, 0.5): top-1 is a (Example 1).
  EXPECT_EQ(table.chain()[table.Lookup(0.5)], testing_util::kA);
}

TEST(WeightRangeTableTest, LookupMatchesArgminOnChain) {
  const PointSet pts = GenerateAnticorrelated(2000, 2, 12);
  std::vector<std::int32_t> chain32 = LowerLeftChain2D(pts);
  std::vector<TupleId> chain(chain32.begin(), chain32.end());
  ASSERT_GE(chain.size(), 3u);
  const WeightRangeTable table = WeightRangeTable::Build(pts, chain);
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const Point w = rng.SimplexWeight(2);
    const TupleId via_table = table.chain()[table.Lookup(w[0])];
    // Brute-force argmin over the whole dataset.
    double best_score = Score(w, pts[0]);
    for (std::size_t i = 1; i < pts.size(); ++i) {
      best_score = std::min(best_score, Score(w, pts[i]));
    }
    EXPECT_NEAR(Score(w, pts[via_table]), best_score, 1e-9)
        << "w1=" << w[0];
  }
}

TEST(WeightRangeTableTest, SingleTupleChain) {
  PointSet pts(2);
  pts.Add({0.5, 0.5});
  const WeightRangeTable table = WeightRangeTable::Build(pts, {0});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Lookup(0.3), 0u);
  EXPECT_EQ(table.Lookup(0.9), 0u);
}

TEST(WeightRangeTableTest, BoundaryLookupAtBreakpoint) {
  PointSet pts(2);
  pts.Add({0.0, 1.0});
  pts.Add({1.0, 0.0});
  const WeightRangeTable table = WeightRangeTable::Build(pts, {0, 1});
  ASSERT_EQ(table.breakpoints().size(), 1u);
  EXPECT_DOUBLE_EQ(table.breakpoints()[0], 0.5);
  // At the exact tie either tuple is a valid top-1; Lookup must return
  // a valid position.
  const std::size_t pos = table.Lookup(0.5);
  EXPECT_LT(pos, 2u);
}

TEST(ClusteredZeroLayerTest, CornersCoverLayer) {
  const PointSet pts = GenerateAnticorrelated(1000, 4, 5);
  // Use the full set as "layer 1" for the test.
  std::vector<TupleId> layer(pts.size());
  std::iota(layer.begin(), layer.end(), 0);
  const ClusteredZeroLayer zero = BuildClusteredZeroLayer(pts, layer, 0);
  ASSERT_FALSE(zero.pseudo.empty());
  ASSERT_EQ(zero.cluster_of.size(), layer.size());
  for (std::size_t i = 0; i < layer.size(); ++i) {
    EXPECT_TRUE(
        WeaklyDominates(zero.pseudo[zero.cluster_of[i]], pts[layer[i]]));
  }
  // Default cluster count: ceil(sqrt(n)).
  EXPECT_LE(zero.pseudo.size(),
            static_cast<std::size_t>(std::ceil(std::sqrt(1000.0))));
}

TEST(ClusteredZeroLayerTest, ExplicitClusterCount) {
  const PointSet pts = GenerateIndependent(300, 3, 6);
  std::vector<TupleId> layer(pts.size());
  std::iota(layer.begin(), layer.end(), 0);
  const ClusteredZeroLayer zero = BuildClusteredZeroLayer(pts, layer, 5);
  EXPECT_LE(zero.pseudo.size(), 5u);
  EXPECT_GE(zero.pseudo.size(), 1u);
}

TEST(ClusteredZeroLayerTest, EmptyLayer) {
  const PointSet pts = GenerateIndependent(10, 2, 7);
  const ClusteredZeroLayer zero = BuildClusteredZeroLayer(pts, {}, 0);
  EXPECT_TRUE(zero.pseudo.empty());
}

}  // namespace
}  // namespace drli
