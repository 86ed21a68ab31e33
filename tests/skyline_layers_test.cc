#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "data/generator.h"
#include "skyline/skyline_layers.h"
#include "test_util.h"

namespace drli {
namespace {

using testing_util::MakeToyDataset;

void CheckPartition(const std::vector<std::vector<TupleId>>& layers,
                    const std::vector<std::size_t>& layer_of,
                    std::size_t n) {
  std::size_t total = 0;
  std::vector<bool> seen(n, false);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_FALSE(layers[i].empty()) << "layer " << i;
    for (TupleId id : layers[i]) {
      ASSERT_LT(id, n);
      EXPECT_FALSE(seen[id]) << "tuple " << id << " in two layers";
      seen[id] = true;
      EXPECT_EQ(layer_of[id], i);
      ++total;
    }
  }
  EXPECT_EQ(total, n);
}

TEST(SkylineLayersTest, ToyDatasetLayers) {
  const PointSet pts = MakeToyDataset();
  const LayerDecomposition layers = BuildSkylineLayers(pts);
  ASSERT_EQ(layers.layers.size(), 3u);
  EXPECT_EQ(layers.layers[0],
            (std::vector<TupleId>{testing_util::kA, testing_util::kB,
                                  testing_util::kC, testing_util::kF,
                                  testing_util::kG}));
  EXPECT_EQ(layers.layers[1],
            (std::vector<TupleId>{testing_util::kD, testing_util::kE,
                                  testing_util::kI, testing_util::kJ}));
  EXPECT_EQ(layers.layers[2],
            (std::vector<TupleId>{testing_util::kH, testing_util::kK}));
  CheckPartition(layers.layers, layers.layer_of, pts.size());
}

TEST(SkylineLayersTest, PartitionAndMonotonicity) {
  for (std::size_t d = 2; d <= 4; ++d) {
    const PointSet pts = GenerateIndependent(600, d, 10 + d);
    const LayerDecomposition layers = BuildSkylineLayers(pts);
    CheckPartition(layers.layers, layers.layer_of, pts.size());
    // Every tuple in layer i+1 is dominated by some tuple in layer i.
    for (std::size_t i = 0; i + 1 < layers.layers.size(); ++i) {
      for (TupleId t : layers.layers[i + 1]) {
        bool dominated = false;
        for (TupleId s : layers.layers[i]) {
          if (Dominates(pts[s], pts[t])) {
            dominated = true;
            break;
          }
        }
        EXPECT_TRUE(dominated) << "layer " << i + 1 << " tuple " << t;
      }
    }
    // Layers are skylines: members are mutually incomparable.
    for (const auto& layer : layers.layers) {
      for (std::size_t x = 0; x < layer.size(); ++x) {
        for (std::size_t y = x + 1; y < layer.size(); ++y) {
          EXPECT_FALSE(Dominates(pts[layer[x]], pts[layer[y]]));
          EXPECT_FALSE(Dominates(pts[layer[y]], pts[layer[x]]));
        }
      }
    }
  }
}

TEST(ConvexLayersTest, PartitionAndMinimizerProperty) {
  const PointSet pts = GenerateIndependent(400, 3, 5);
  const ConvexLayerDecomposition layers = BuildConvexLayers(pts);
  EXPECT_FALSE(layers.truncated);
  CheckPartition(layers.layers, layers.layer_of, pts.size());

  // For any positive weight vector, the layer minima increase strictly
  // with the layer index (prefix property of convex layers).
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const Point w = rng.SimplexWeight(3);
    double prev = -1.0;
    for (const auto& layer : layers.layers) {
      double lo = Score(w, pts[layer[0]]);
      for (TupleId id : layer) {
        lo = std::min(lo, Score(w, pts[id]));
      }
      EXPECT_GT(lo, prev);
      prev = lo;
    }
  }
}

TEST(ConvexLayersTest, ToyDatasetFirstLayer) {
  const PointSet pts = MakeToyDataset();
  const ConvexLayerDecomposition layers = BuildConvexLayers(pts);
  ASSERT_GE(layers.layers.size(), 2u);
  EXPECT_EQ(layers.layers[0],
            (std::vector<TupleId>{testing_util::kA, testing_util::kB,
                                  testing_util::kC}));
}

TEST(ConvexLayersTest, MaxLayersTruncates) {
  const PointSet pts = GenerateIndependent(500, 3, 6);
  const ConvexLayerDecomposition full = BuildConvexLayers(pts);
  ASSERT_GT(full.layers.size(), 3u);
  const ConvexLayerDecomposition capped = BuildConvexLayers(pts, 3);
  EXPECT_TRUE(capped.truncated);
  ASSERT_EQ(capped.layers.size(), 4u);  // 3 peeled + 1 tail
  // The peeled prefix agrees with the full decomposition.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(capped.layers[i], full.layers[i]);
  }
  CheckPartition(capped.layers, capped.layer_of, pts.size());
}

TEST(ConvexLayersTest, AnticorrelatedManyLayersStillPartition) {
  const PointSet pts = GenerateAnticorrelated(300, 4, 9);
  const ConvexLayerDecomposition layers = BuildConvexLayers(pts);
  CheckPartition(layers.layers, layers.layer_of, pts.size());
}

// Layers by the definition alone, never sorting by sum: peel the
// points no remaining point dominates. O(n^2) per layer.
std::vector<std::vector<TupleId>> BruteForceLayers(const PointSet& pts) {
  std::vector<std::vector<TupleId>> layers;
  std::vector<TupleId> remaining(pts.size());
  std::iota(remaining.begin(), remaining.end(), TupleId{0});
  while (!remaining.empty()) {
    std::vector<TupleId> layer;
    std::vector<TupleId> rest;
    for (const TupleId t : remaining) {
      bool dominated = false;
      for (const TupleId s : remaining) dominated |= Dominates(pts[s], pts[t]);
      (dominated ? rest : layer).push_back(t);
    }
    layers.push_back(std::move(layer));
    remaining = std::move(rest);
  }
  return layers;
}

// A 1-ulp improvement of one coordinate can leave the rounded attribute
// sum unchanged (SumTiedDominatorPair), so every sum-ordered pass must
// break sum ties. Half the pairs lie near the origin, where the pair
// holds the least sum and is swept first; the others sit among the
// random rows, in deeper layers.
TEST(SkylineLayersTest, DominatorTiedInSumComesFirst) {
  Rng rng(29);
  for (std::size_t d = 2; d <= 5; ++d) {
    for (int trial = 0; trial < 20; ++trial) {
      const double scale = trial % 2 == 0 ? 0.05 : 0.5;
      const PointSet pts =
          testing_util::SumTiedDominatorPair(d, scale, 60, &rng);
      ASSERT_TRUE(Dominates(pts[1], pts[0]));

      const std::vector<std::vector<TupleId>> expected = BruteForceLayers(pts);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const LayerDecomposition layers = BuildSkylineLayers(pts, threads);
        EXPECT_EQ(layers.layers, expected)
            << "d=" << d << " trial " << trial << " threads " << threads;
        EXPECT_EQ(layers.layer_of[0], layers.layer_of[1] + 1);
      }
      EXPECT_EQ(BuildSkylineLayersByPeeling(pts).layers, expected);
    }
  }
}

TEST(ForEachDominancePairTest, MatchesBruteForce) {
  const PointSet pts = GenerateIndependent(200, 3, 77);
  const LayerDecomposition layers = BuildSkylineLayers(pts);
  ASSERT_GE(layers.layers.size(), 2u);
  std::set<std::pair<TupleId, TupleId>> via_helper;
  ForEachDominancePair(pts, layers.layers[0], layers.layers[1],
                       [&](TupleId s, TupleId t) {
                         via_helper.insert({s, t});
                       });
  std::set<std::pair<TupleId, TupleId>> brute;
  for (TupleId s : layers.layers[0]) {
    for (TupleId t : layers.layers[1]) {
      if (Dominates(pts[s], pts[t])) brute.insert({s, t});
    }
  }
  EXPECT_EQ(via_helper, brute);
}

}  // namespace
}  // namespace drli
