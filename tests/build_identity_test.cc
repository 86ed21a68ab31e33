// Pins the DL+ build to recorded constants. A change to how the build
// runs -- its memory layout, its scratch reuse, its thread count --
// must leave every decision it makes as it was: the coarse and fine
// layer of every node, the ∀ and ∃ edge rows in their stored order,
// the pseudo-tuples' coordinates and the build's work counters. The
// constants are the values the build produced when they were
// recorded; a change that moves one of them changes the index.
//
// The convex layers (BuildConvexLayers: the layers of Onion, HL, HL+
// and PLI) are pinned the same way: every layer's ids in order, the
// layer of every tuple and the truncation flag.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/csr.h"
#include "core/dual_layer.h"
#include "data/generator.h"
#include "skyline/skyline_layers.h"

namespace drli {
namespace {

// FNV-1a over 64-bit words.
class Fnv64 {
 public:
  void Add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(double x) { Add(std::bit_cast<std::uint64_t>(x)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

void AddRows(const CsrGraph& graph, Fnv64* hash) {
  hash->Add(std::uint64_t{graph.num_nodes()});
  for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
    const auto row = graph[static_cast<CsrGraph::NodeId>(node)];
    hash->Add(std::uint64_t{row.size()});
    for (const CsrGraph::NodeId target : row) hash->Add(std::uint64_t{target});
  }
}

// Layer ids per node, both edge sets row by row, pseudo-tuple
// coordinates.
std::uint64_t GraphHash(const DualLayerIndex& index) {
  Fnv64 hash;
  hash.Add(std::uint64_t{index.num_nodes()});
  for (std::size_t node = 0; node < index.num_nodes(); ++node) {
    const auto id = static_cast<DualLayerIndex::NodeId>(node);
    hash.Add(std::uint64_t{index.coarse_layer_of(id)});
    hash.Add(std::uint64_t{index.fine_layer_of(id)});
  }
  const NodeSpaceGraph graph = index.NodeGraph();
  AddRows(graph.coarse_out, &hash);
  AddRows(graph.fine_out, &hash);
  const PointSet& pseudo = index.virtual_points();
  hash.Add(std::uint64_t{pseudo.size()});
  for (std::size_t i = 0; i < pseudo.size(); ++i) {
    for (const double x : pseudo[i]) hash.Add(x);
  }
  return hash.value();
}

struct Pinned {
  const char* name;
  Distribution dist;
  std::size_t n;
  std::size_t d;
  std::uint64_t graph_hash;
  std::size_t eds_lp_calls;
  std::size_t eds_bbox_rejects;
  std::size_t hull_facets_created;
  std::size_t num_fine_edges;
};

std::ostream& operator<<(std::ostream& os, const Pinned& p) {
  return os << p.name;
}

constexpr std::uint64_t kSeed = 20120401;

class BuildIdentityTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(BuildIdentityTest, MatchesRecordedBuild) {
  const Pinned& p = GetParam();
  const PointSet points = Generate(p.dist, p.n, p.d, kSeed);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "build_threads " << threads);
    DualLayerOptions options;
    options.build_zero_layer = true;
    options.build_threads = threads;
    const DualLayerIndex index = DualLayerIndex::Build(points, options);
    const DualLayerBuildStats& s = index.build_stats();
    EXPECT_EQ(GraphHash(index), p.graph_hash);
    EXPECT_EQ(s.eds_lp_calls, p.eds_lp_calls);
    EXPECT_EQ(s.eds_bbox_rejects, p.eds_bbox_rejects);
    EXPECT_EQ(s.hull_facets_created, p.hull_facets_created);
    EXPECT_EQ(s.num_fine_edges, p.num_fine_edges);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, BuildIdentityTest,
    ::testing::Values(
        Pinned{"ant_n20000_d3", Distribution::kAnticorrelated, 20000, 3,
               0xb53784f2f446945full, 38528, 1288761, 95872, 56775},
        Pinned{"ant_n20000_d4", Distribution::kAnticorrelated, 20000, 4,
               0xb6cab4bb83548f6cull, 136446, 9520456, 358195, 75692},
        Pinned{"ind_n20000_d4", Distribution::kIndependent, 20000, 4,
               0xed23d4ca24eab437ull, 105276, 5211631, 364623, 68324},
        Pinned{"ant_n5000_d5", Distribution::kAnticorrelated, 5000, 5,
               0x43608e401cb0a048ull, 115180, 3784209, 365491, 22090}),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(info.param.name);
    });

// Layer count, then each layer's size and ids; the layer of every
// tuple; the truncation flag.
std::uint64_t ConvexLayersHash(const ConvexLayerDecomposition& c) {
  Fnv64 hash;
  hash.Add(std::uint64_t{c.layers.size()});
  for (const std::vector<TupleId>& layer : c.layers) {
    hash.Add(std::uint64_t{layer.size()});
    for (const TupleId id : layer) hash.Add(std::uint64_t{id});
  }
  hash.Add(std::uint64_t{c.layer_of.size()});
  for (const std::size_t layer : c.layer_of) hash.Add(std::uint64_t{layer});
  hash.Add(std::uint64_t{c.truncated});
  return hash.value();
}

struct PinnedConvex {
  const char* name;
  Distribution dist;
  std::size_t n;
  std::size_t d;
  std::size_t max_layers;
  // Snap every coordinate to an eighth-grid and repeat every fifth row
  // of an earlier one: ties on single attributes and exact duplicates.
  bool grid_duplicates;
  std::size_t num_layers;
  bool truncated;
  std::uint64_t hash;
};

std::ostream& operator<<(std::ostream& os, const PinnedConvex& p) {
  return os << p.name;
}

PointSet PinnedConvexInput(const PinnedConvex& p) {
  const PointSet raw = Generate(p.dist, p.n, p.d, kSeed);
  if (!p.grid_duplicates) return raw;
  PointSet pts(p.d);
  std::vector<double> row(p.d);
  for (std::size_t i = 0; i < p.n; ++i) {
    const std::size_t from = i % 5 == 4 ? i / 2 : i;
    for (std::size_t a = 0; a < p.d; ++a) {
      row[a] = std::floor(raw.At(from, a) * 8.0) / 8.0;
    }
    pts.Add(PointView(row.data(), p.d));
  }
  return pts;
}

class ConvexLayerIdentityTest : public ::testing::TestWithParam<PinnedConvex> {
};

TEST_P(ConvexLayerIdentityTest, MatchesRecordedLayers) {
  const PinnedConvex& p = GetParam();
  const ConvexLayerDecomposition layers =
      BuildConvexLayers(PinnedConvexInput(p), p.max_layers);
  EXPECT_EQ(layers.layers.size(), p.num_layers);
  EXPECT_EQ(layers.truncated, p.truncated);
  EXPECT_EQ(ConvexLayersHash(layers), p.hash)
      << std::hex << ConvexLayersHash(layers);
}

constexpr std::size_t kUncapped = std::numeric_limits<std::size_t>::max();

INSTANTIATE_TEST_SUITE_P(
    Recorded, ConvexLayerIdentityTest,
    ::testing::Values(
        PinnedConvex{"ind_n2000_d2", Distribution::kIndependent, 2000, 2,
                     kUncapped, false, 190, false, 0x37c26c63d0a96948ull},
        PinnedConvex{"ant_n2000_d2", Distribution::kAnticorrelated, 2000, 2,
                     kUncapped, false, 146, false, 0xda9a03763167411aull},
        PinnedConvex{"cor_n2000_d2", Distribution::kCorrelated, 2000, 2,
                     kUncapped, false, 330, false, 0x9ca32f7e1512a11full},
        PinnedConvex{"ind_n2000_d3", Distribution::kIndependent, 2000, 3,
                     kUncapped, false, 61, false, 0x4625c8b40013e9eeull},
        PinnedConvex{"ant_n2000_d3", Distribution::kAnticorrelated, 2000, 3,
                     kUncapped, false, 42, false, 0x45d2b6f66e0217d0ull},
        PinnedConvex{"cor_n2000_d3", Distribution::kCorrelated, 2000, 3,
                     kUncapped, false, 150, false, 0x0a1236619d4c9e6cull},
        PinnedConvex{"ind_n2000_d4", Distribution::kIndependent, 2000, 4,
                     kUncapped, false, 31, false, 0x3a3411acce31c2bdull},
        PinnedConvex{"ant_n2000_d4", Distribution::kAnticorrelated, 2000, 4,
                     kUncapped, false, 21, false, 0x372735d64bcbdc6full},
        PinnedConvex{"cor_n2000_d4", Distribution::kCorrelated, 2000, 4,
                     kUncapped, false, 92, false, 0x387bce896de35d43ull},
        PinnedConvex{"ind_n2000_d5", Distribution::kIndependent, 2000, 5,
                     kUncapped, false, 19, false, 0x125bd3b54bfb653eull},
        PinnedConvex{"ant_n2000_d5", Distribution::kAnticorrelated, 2000, 5,
                     kUncapped, false, 14, false, 0x8e98ea7cfc7cc563ull},
        PinnedConvex{"cor_n2000_d5", Distribution::kCorrelated, 2000, 5,
                     kUncapped, false, 73, false, 0x0ab30b977b027ecfull},
        PinnedConvex{"ind_n20000_d2_cap256", Distribution::kIndependent,
                     20000, 2, 256, false, 257, true, 0xb980ee2193512fe4ull},
        PinnedConvex{"cor_n2000_d2_cap256", Distribution::kCorrelated, 2000, 2,
                     256, false, 257, true, 0x59a3b037ebf17fb5ull},
        PinnedConvex{"ind_n2000_d3_cap3", Distribution::kIndependent, 2000, 3,
                     3, false, 4, true, 0xc3fa213d0e5889aeull},
        PinnedConvex{"ind_n2000_d3_grid", Distribution::kIndependent, 2000, 3,
                     kUncapped, true, 175, false, 0x8d4521b1dab5fa67ull},
        PinnedConvex{"ant_n2000_d4_grid", Distribution::kAnticorrelated,
                     2000, 4, kUncapped, true, 54, false,
                     0x7a5a50453254f1cbull}),
    [](const ::testing::TestParamInfo<PinnedConvex>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace drli
