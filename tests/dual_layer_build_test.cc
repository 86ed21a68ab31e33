#include <algorithm>
#include <set>

#include "gtest/gtest.h"

#include "core/dual_layer.h"
#include "data/generator.h"
#include "test_util.h"

namespace drli {
namespace {

using testing_util::MakeToyDataset;

// Structural invariants every built index must satisfy.
void CheckStructure(const DualLayerIndex& index) {
  const std::size_t n = index.points().size();
  const std::size_t total = index.num_nodes();
  const NodeSpaceGraph graph = index.NodeGraph();

  // Every real tuple belongs to a coarse and a fine layer.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NE(index.fine_layer_of(static_cast<DualLayerIndex::NodeId>(i)),
              DualLayerIndex::kNoFineLayer)
        << "tuple " << i << " unassigned";
  }

  // Coarse edges connect consecutive coarse layers of real tuples (or
  // virtual -> first layer) and agree with dominance.
  for (std::size_t u = 0; u < total; ++u) {
    const auto node = static_cast<DualLayerIndex::NodeId>(u);
    for (const auto succ : graph.coarse_out[u]) {
      ASSERT_LT(succ, total);
      if (index.is_virtual(node)) {
        EXPECT_FALSE(index.is_virtual(succ));
        EXPECT_EQ(index.coarse_layer_of(succ), 0u);
        EXPECT_TRUE(
            WeaklyDominates(index.node_point(node), index.node_point(succ)));
      } else {
        EXPECT_EQ(index.coarse_layer_of(succ),
                  index.coarse_layer_of(node) + 1);
        EXPECT_TRUE(
            Dominates(index.node_point(node), index.node_point(succ)));
      }
    }
    // Fine edges go one fine layer down within the same coarse layer
    // and the same node space.
    for (const auto succ : graph.fine_out[u]) {
      ASSERT_LT(succ, total);
      EXPECT_EQ(index.is_virtual(node), index.is_virtual(succ));
      EXPECT_EQ(index.coarse_layer_of(succ), index.coarse_layer_of(node));
      EXPECT_EQ(index.fine_layer_of(succ), index.fine_layer_of(node) + 1);
    }
  }

  // In-degree bookkeeping is consistent with the edge lists.
  std::vector<std::uint32_t> in_degree(total, 0);
  std::vector<std::uint8_t> has_fine(total, 0);
  for (std::size_t u = 0; u < total; ++u) {
    for (const auto succ : graph.coarse_out[u]) ++in_degree[succ];
    for (const auto succ : graph.fine_out[u]) has_fine[succ] = 1;
  }
  for (std::size_t u = 0; u < total; ++u) {
    EXPECT_EQ(in_degree[u], graph.coarse_in_degree[u]) << "node " << u;
    EXPECT_EQ(has_fine[u], graph.has_fine_in[u]) << "node " << u;
  }

  // Initial nodes are exactly the unblocked ones.
  std::set<DualLayerIndex::NodeId> initial(graph.initial.begin(),
                                           graph.initial.end());
  for (std::size_t u = 0; u < total; ++u) {
    const bool expected = in_degree[u] == 0 && !has_fine[u];
    EXPECT_EQ(initial.count(static_cast<DualLayerIndex::NodeId>(u)) > 0,
              expected)
        << "node " << u;
  }
}

TEST(DualLayerBuildTest, ToyDatasetStructure) {
  DualLayerIndex index = DualLayerIndex::Build(MakeToyDataset());
  EXPECT_EQ(index.name(), "DL");
  EXPECT_EQ(index.build_stats().num_coarse_layers, 3u);
  // Fine split (Example 3): {a,b,c},{f,g} / {d,e,j},{i} / {h,k}.
  EXPECT_EQ(index.build_stats().num_fine_layers, 5u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kA), 0u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kB), 0u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kC), 0u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kF), 1u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kG), 1u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kD), 0u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kE), 0u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kJ), 0u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kI), 1u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kH), 0u);
  EXPECT_EQ(index.fine_layer_of(testing_util::kK), 0u);
  CheckStructure(index);

  // ∃-edges (Example 3): {a,b} -> f and {b,c} -> g.
  const NodeSpaceGraph graph = index.NodeGraph();
  auto fine_sources = [&](TupleId target) {
    std::set<TupleId> sources;
    for (std::size_t u = 0; u < index.num_nodes(); ++u) {
      for (const auto succ : graph.fine_out[u]) {
        if (succ == target) sources.insert(static_cast<TupleId>(u));
      }
    }
    return sources;
  };
  EXPECT_EQ(fine_sources(testing_util::kF),
            (std::set<TupleId>{testing_util::kA, testing_util::kB}));
  EXPECT_EQ(fine_sources(testing_util::kG),
            (std::set<TupleId>{testing_util::kB, testing_util::kC}));

  // ∀-edges (Fig. 5): i's dominators are {a, f}; j's is {b};
  // h and k hang off j.
  auto coarse_sources = [&](TupleId target) {
    std::set<TupleId> sources;
    for (std::size_t u = 0; u < index.num_nodes(); ++u) {
      for (const auto succ : graph.coarse_out[u]) {
        if (succ == target) sources.insert(static_cast<TupleId>(u));
      }
    }
    return sources;
  };
  EXPECT_EQ(coarse_sources(testing_util::kI),
            (std::set<TupleId>{testing_util::kA, testing_util::kF}));
  EXPECT_EQ(coarse_sources(testing_util::kJ),
            (std::set<TupleId>{testing_util::kB, testing_util::kG}));
  EXPECT_EQ(coarse_sources(testing_util::kD),
            (std::set<TupleId>{testing_util::kA}));
  EXPECT_EQ(coarse_sources(testing_util::kE),
            (std::set<TupleId>{testing_util::kA}));
  EXPECT_EQ(coarse_sources(testing_util::kH),
            (std::set<TupleId>{testing_util::kJ}));
  EXPECT_EQ(coarse_sources(testing_util::kK),
            (std::set<TupleId>{testing_util::kJ}));
}

TEST(DualLayerBuildTest, RandomStructuresAllDims) {
  for (std::size_t d = 2; d <= 5; ++d) {
    for (Distribution dist :
         {Distribution::kIndependent, Distribution::kAnticorrelated}) {
      const PointSet pts = Generate(dist, 400, d, 20 + d);
      DualLayerIndex index = DualLayerIndex::Build(pts);
      CheckStructure(index);
      EXPECT_EQ(index.size(), 400u);
      EXPECT_GE(index.build_stats().num_fine_layers,
                index.build_stats().num_coarse_layers);
    }
  }
}

TEST(DualLayerBuildTest, ZeroLayer2DUsesWeightTable) {
  const PointSet pts = GenerateIndependent(500, 2, 3);
  DualLayerOptions options;
  options.build_zero_layer = true;
  DualLayerIndex index = DualLayerIndex::Build(pts, options);
  EXPECT_EQ(index.name(), "DL+");
  EXPECT_TRUE(index.uses_weight_table());
  EXPECT_EQ(index.build_stats().num_virtual, 0u);
  EXPECT_FALSE(index.weight_table().empty());
  CheckStructure(index);
}

TEST(DualLayerBuildTest, ZeroLayerHighDUsesClusters) {
  const PointSet pts = GenerateIndependent(500, 4, 3);
  DualLayerOptions options;
  options.build_zero_layer = true;
  DualLayerIndex index = DualLayerIndex::Build(pts, options);
  EXPECT_FALSE(index.uses_weight_table());
  EXPECT_GT(index.build_stats().num_virtual, 0u);
  CheckStructure(index);
  // First-layer tuples must all be guarded by the zero layer.
  const std::vector<std::uint32_t> in_degree =
      index.NodeGraph().coarse_in_degree;
  for (std::size_t i = 0; i < index.size(); ++i) {
    const auto node = static_cast<DualLayerIndex::NodeId>(i);
    if (index.coarse_layer_of(node) == 0) {
      EXPECT_GT(in_degree[node], 0u) << "tuple " << i;
    }
  }
}

TEST(DualLayerBuildTest, DisabledFineLayersMimicsDg) {
  const PointSet pts = GenerateIndependent(300, 3, 4);
  DualLayerOptions options;
  options.enable_fine_layers = false;
  DualLayerIndex index = DualLayerIndex::Build(pts, options);
  EXPECT_EQ(index.build_stats().num_fine_layers,
            index.build_stats().num_coarse_layers);
  EXPECT_EQ(index.build_stats().num_fine_edges, 0u);
  CheckStructure(index);
}

TEST(DualLayerBuildTest, AllFacetsPolicyAddsEdges) {
  const PointSet pts = GenerateAnticorrelated(300, 3, 5);
  DualLayerOptions single;
  DualLayerOptions all;
  all.eds_policy = EdsPolicy::kAllFacets;
  DualLayerIndex index_single = DualLayerIndex::Build(pts, single);
  DualLayerIndex index_all = DualLayerIndex::Build(pts, all);
  EXPECT_GE(index_all.build_stats().num_fine_edges,
            index_single.build_stats().num_fine_edges);
  CheckStructure(index_all);
}

TEST(DualLayerBuildTest, EmptyAndTinyInputs) {
  PointSet empty(3);
  DualLayerIndex e = DualLayerIndex::Build(empty);
  EXPECT_EQ(e.size(), 0u);
  TopKQuery query;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 5;
  EXPECT_TRUE(e.Query(query).items.empty());

  PointSet one(3);
  one.Add({0.1, 0.2, 0.3});
  DualLayerIndex o = DualLayerIndex::Build(one);
  const TopKResult r = o.Query(query);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0].id, 0u);
}

TEST(DualLayerBuildTest, EdsCoverageMostlyComplete) {
  // The facet-based EDS search should cover nearly every tuple on
  // random data; fallbacks are counted, not hidden.
  const PointSet pts = GenerateAnticorrelated(600, 3, 6);
  DualLayerIndex index = DualLayerIndex::Build(pts);
  const auto& stats = index.build_stats();
  EXPECT_LT(stats.eds_uncovered, index.size() / 10)
      << "uncovered=" << stats.eds_uncovered;
}

}  // namespace
}  // namespace drli
