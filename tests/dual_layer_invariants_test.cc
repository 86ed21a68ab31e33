// Deep structural invariants of the built dual-resolution index,
// checked against the paper's definitions on randomized instances:
// fine sublayers are convex-layer decompositions of their coarse layer,
// ∃-edges come with the Lemma-2 guarantee, and the zero layer never
// leaks into answers.

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "gtest/gtest.h"

#include "core/dual_layer.h"
#include "core/eds.h"
#include "data/generator.h"
#include "test_util.h"

namespace drli {
namespace {

struct InvCase {
  Distribution dist;
  std::size_t d;
  std::uint64_t seed;
};

class DualLayerInvariantsTest : public ::testing::TestWithParam<InvCase> {
 protected:
  void SetUp() override {
    points_ = Generate(GetParam().dist, 400, GetParam().d, GetParam().seed);
    index_ = std::make_unique<DualLayerIndex>(DualLayerIndex::Build(points_));
  }

  PointSet points_{1};
  std::unique_ptr<DualLayerIndex> index_;
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, DualLayerInvariantsTest,
    ::testing::Values(InvCase{Distribution::kIndependent, 2, 1},
                      InvCase{Distribution::kIndependent, 3, 2},
                      InvCase{Distribution::kIndependent, 4, 3},
                      InvCase{Distribution::kAnticorrelated, 2, 4},
                      InvCase{Distribution::kAnticorrelated, 3, 5},
                      InvCase{Distribution::kAnticorrelated, 4, 6},
                      InvCase{Distribution::kCorrelated, 3, 7}),
    [](const auto& info) {
      return std::string(DistributionName(info.param.dist)) + "_d" +
             std::to_string(info.param.d);
    });

TEST_P(DualLayerInvariantsTest, FirstSublayerContainsEveryMinimizer) {
  // Invariant 3 of DESIGN.md: for every strictly positive weight
  // vector the argmin over a coarse layer lies in its first sublayer
  // (score ties admitted).
  Rng rng(GetParam().seed + 100);
  const std::size_t n = points_.size();
  for (int trial = 0; trial < 40; ++trial) {
    const Point w = rng.SimplexWeight(points_.dim());
    // Coarse layer 1 only (the critical one: it feeds the top-1).
    double best = std::numeric_limits<double>::infinity();
    double best_in_l11 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const auto node = static_cast<DualLayerIndex::NodeId>(i);
      if (index_->coarse_layer_of(node) != 0) continue;
      const double s = Score(w, points_[i]);
      best = std::min(best, s);
      if (index_->fine_layer_of(node) == 0) {
        best_in_l11 = std::min(best_in_l11, s);
      }
    }
    EXPECT_NEAR(best_in_l11, best, 1e-12);
  }
}

TEST_P(DualLayerInvariantsTest, FineEdgesCarryLemma2Guarantee) {
  // For every ∃-edge target, at least one of its in-neighbours scores
  // no worse under every sampled weight vector.
  const std::size_t total = index_->num_nodes();
  const CsrGraph fine_out = index_->NodeGraph().fine_out;
  std::vector<std::vector<DualLayerIndex::NodeId>> fine_in(total);
  for (std::size_t u = 0; u < total; ++u) {
    for (const auto succ : fine_out[u]) {
      fine_in[succ].push_back(static_cast<DualLayerIndex::NodeId>(u));
    }
  }
  Rng rng(GetParam().seed + 200);
  std::vector<Point> weights;
  for (int i = 0; i < 15; ++i) {
    weights.push_back(rng.SimplexWeight(points_.dim()));
  }
  for (std::size_t t = 0; t < total; ++t) {
    if (fine_in[t].empty()) continue;
    for (const Point& w : weights) {
      const double target_score = Score(w, index_->node_point(
                                               static_cast<DualLayerIndex::NodeId>(t)));
      double best = std::numeric_limits<double>::infinity();
      for (const auto u : fine_in[t]) {
        best = std::min(best, Score(w, index_->node_point(u)));
      }
      ASSERT_LE(best, target_score + 1e-9)
          << "node " << t << " violates Lemma 2";
    }
  }
}

TEST_P(DualLayerInvariantsTest, FineInEdgesIncludeAQualifyingFacet) {
  // Each covered tuple's in-neighbour set must itself be an EDS (the
  // union of one facet is enough for the traversal guarantee).
  const std::size_t n = points_.size();
  const CsrGraph fine_out = index_->NodeGraph().fine_out;
  std::vector<std::vector<TupleId>> fine_in(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto succ : fine_out[u]) {
      if (succ < n) fine_in[succ].push_back(static_cast<TupleId>(u));
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (fine_in[t].empty()) continue;
    EXPECT_TRUE(FacetIsEds(points_, fine_in[t], points_[t]))
        << "tuple " << t;
  }
}

TEST_P(DualLayerInvariantsTest, SublayerCountsAreConsistent) {
  const std::size_t n = points_.size();
  // Within each coarse layer, fine ids are contiguous from 0.
  std::map<std::uint32_t, std::set<std::uint32_t>> fine_ids;
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<DualLayerIndex::NodeId>(i);
    fine_ids[index_->coarse_layer_of(node)].insert(
        index_->fine_layer_of(node));
  }
  std::size_t total_fine = 0;
  for (const auto& [coarse, fines] : fine_ids) {
    EXPECT_EQ(*fines.begin(), 0u);
    EXPECT_EQ(*fines.rbegin(), fines.size() - 1);
    total_fine += fines.size();
  }
  EXPECT_EQ(total_fine, index_->build_stats().num_fine_layers);
  EXPECT_EQ(fine_ids.size(), index_->build_stats().num_coarse_layers);
}

TEST(DualLayerZeroLayerInvariantsTest, VirtualNodesNeverInAnswers) {
  const PointSet pts = GenerateAnticorrelated(500, 4, 9);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  ASSERT_GT(index.build_stats().num_virtual, 0u);
  for (const TopKQuery& query : testing_util::RandomQueries(4, 30, 10, 10)) {
    const TopKResult result = index.Query(query);
    for (const ScoredTuple& item : result.items) {
      EXPECT_LT(item.id, pts.size()) << "pseudo-tuple leaked into answers";
    }
    for (TupleId id : result.accessed) {
      EXPECT_LT(id, pts.size());
    }
  }
}

TEST(DualLayerZeroLayerInvariantsTest, PseudoTuplesWeaklyDominateClusters) {
  const PointSet pts = GenerateIndependent(600, 4, 11);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  const std::size_t n = pts.size();
  const CsrGraph coarse_out = index.NodeGraph().coarse_out;
  // Every first-layer tuple has >= 1 virtual dominator, and each
  // virtual node's successors are weakly dominated.
  for (std::size_t v = n; v < index.num_nodes(); ++v) {
    const auto node = static_cast<DualLayerIndex::NodeId>(v);
    EXPECT_FALSE(coarse_out[v].empty()) << "useless pseudo-tuple " << v;
    for (const auto succ : coarse_out[v]) {
      EXPECT_TRUE(
          WeaklyDominates(index.node_point(node), index.node_point(succ)));
    }
  }
}

TEST(DualLayerDeterminismTest, RebuildIsByteIdentical) {
  // Construction is deterministic: two builds over the same input give
  // identical structures (layers, edges, stats).
  const PointSet pts = GenerateAnticorrelated(400, 3, 12);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex a = DualLayerIndex::Build(pts, options);
  const DualLayerIndex b = DualLayerIndex::Build(pts, options);
  const NodeSpaceGraph ga = a.NodeGraph();
  const NodeSpaceGraph gb = b.NodeGraph();
  EXPECT_EQ(ga.coarse_out, gb.coarse_out);
  EXPECT_EQ(ga.fine_out, gb.fine_out);
  EXPECT_EQ(ga.coarse_in_degree, gb.coarse_in_degree);
  EXPECT_EQ(ga.initial, gb.initial);
  EXPECT_EQ(a.build_stats().num_fine_edges, b.build_stats().num_fine_edges);
  EXPECT_TRUE(
      std::ranges::equal(a.virtual_points().raw(), b.virtual_points().raw()));
}

}  // namespace
}  // namespace drli
