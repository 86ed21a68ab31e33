// Pins the DL+ build to recorded constants. A change to how the build
// runs -- its memory layout, its scratch reuse, its thread count --
// must leave every decision it makes as it was: the coarse and fine
// layer of every node, the ∀ and ∃ edge rows in their stored order,
// the pseudo-tuples' coordinates and the build's work counters. The
// constants are the values the build produced when they were
// recorded; a change that moves one of them changes the index.

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/csr.h"
#include "core/dual_layer.h"
#include "data/generator.h"

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

}  // namespace
}  // namespace drli
