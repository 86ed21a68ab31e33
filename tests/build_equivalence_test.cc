// Golden equivalence tests for the build-pipeline fast paths: the
// pruned coarse ∀-edge detection, the EDS corner prefilter (a
// dominance tree over facet corners), and the single-pass layer
// peeling must produce exactly the structure the naive reference
// procedures produce -- the optimizations are pure speedups, never
// semantic changes.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/point.h"
#include "common/random.h"
#include "core/dual_layer.h"
#include "core/eds.h"
#include "core/serialization.h"
#include "data/generator.h"
#include "geometry/convex_skyline.h"
#include "skyline/skyline_layers.h"

namespace drli {
namespace {

// DualLayerIndex builds run their parallel phases from this many
// points (kMinPointsForParallelBuild in core/dual_layer.cc).
constexpr std::size_t kParallelBuildPoints = 4096;

struct Config {
  Distribution dist;
  std::size_t n;
  std::size_t d;
  std::uint64_t seed;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  const char* dist = info.param.dist == Distribution::kIndependent ? "ind"
                     : info.param.dist == Distribution::kCorrelated
                         ? "cor"
                         : "ant";
  std::ostringstream os;
  os << dist << "_d" << info.param.d;
  // The configs large enough for the parallel build phases.
  if (info.param.n >= kParallelBuildPoints) os << "_n" << info.param.n;
  return os.str();
}

class BuildEquivalenceTest : public ::testing::TestWithParam<Config> {};

// The single-pass layering, serial and chunked, must equal the
// repeated-peel reference exactly (the decomposition is unique).
TEST_P(BuildEquivalenceTest, LayeringMatchesPeelingReference) {
  const Config& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  const LayerDecomposition naive = BuildSkylineLayersByPeeling(pts);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const LayerDecomposition fast = BuildSkylineLayers(pts, threads);
    ASSERT_EQ(fast.layers.size(), naive.layers.size()) << threads;
    for (std::size_t i = 0; i < fast.layers.size(); ++i) {
      EXPECT_EQ(fast.layers[i], naive.layers[i])
          << "layer " << i << " threads " << threads;
    }
    EXPECT_EQ(fast.layer_of, naive.layer_of) << threads;
  }
}

// Pruned ∀-edge detection between adjacent layers: same edge set, same
// per-target in-degrees, and the stats partition every candidate pair.
TEST_P(BuildEquivalenceTest, DominancePairsMatchAllPairsReference) {
  const Config& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  const LayerDecomposition layers = BuildSkylineLayers(pts);
  ASSERT_GE(layers.layers.size(), 2u);
  for (std::size_t i = 0; i + 1 < layers.layers.size(); ++i) {
    const std::vector<TupleId>& upper = layers.layers[i];
    const std::vector<TupleId>& lower = layers.layers[i + 1];

    std::set<std::pair<TupleId, TupleId>> pruned_edges;
    DominancePairStats stats;
    ForEachDominancePair(
        pts, upper, lower,
        [&](TupleId s, TupleId t) {
          EXPECT_TRUE(pruned_edges.emplace(s, t).second)
              << "duplicate edge " << s << "->" << t;
        },
        &stats);

    std::set<std::pair<TupleId, TupleId>> naive_edges;
    std::vector<std::size_t> naive_in_degree(pts.size(), 0);
    for (TupleId s : upper) {
      for (TupleId t : lower) {
        if (Dominates(pts[s], pts[t])) {
          naive_edges.emplace(s, t);
          ++naive_in_degree[t];
        }
      }
    }
    EXPECT_EQ(pruned_edges, naive_edges) << "layers " << i << "/" << i + 1;

    std::vector<std::size_t> pruned_in_degree(pts.size(), 0);
    for (const auto& [s, t] : pruned_edges) ++pruned_in_degree[t];
    EXPECT_EQ(pruned_in_degree, naive_in_degree);

    // Every candidate pair lands in exactly one stats bucket.
    EXPECT_EQ(stats.pairs_pruned + stats.pairs_tested,
              upper.size() * lower.size());
  }
}

// The EDS corner prefilter (precomputed min corner, sum shortcut) must
// agree with the from-scratch convenience overload on every decision.
TEST_P(BuildEquivalenceTest, EdsPrefilterMatchesConvenienceReference) {
  const Config& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n / 4, c.d, c.seed + 1);
  Rng rng(c.seed + 2);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t facet_size = 1 + rng.Index(c.d + 1);
    std::vector<TupleId> facet;
    for (std::size_t m = 0; m < facet_size; ++m) {
      facet.push_back(static_cast<TupleId>(rng.Index(pts.size())));
    }
    std::sort(facet.begin(), facet.end());
    facet.erase(std::unique(facet.begin(), facet.end()), facet.end());
    const auto target = static_cast<TupleId>(rng.Index(pts.size()));

    const Point corner = FacetMinCorner(pts, facet);
    // Sum shortcut soundness: when the corner-sum test fires, the
    // componentwise test must also reject (monotone rounding).
    double corner_sum = 0.0;
    double target_sum = 0.0;
    for (std::size_t j = 0; j < c.d; ++j) {
      corner_sum += corner[j];
      target_sum += pts[target][j];
    }
    if (corner_sum > target_sum) {
      EXPECT_FALSE(WeaklyDominates(PointView(corner), pts[target]));
    }

    EdsCounters counters;
    const bool with_corner =
        FacetIsEds(pts, facet, PointView(corner), pts[target], &counters);
    const bool reference = FacetIsEds(pts, facet, pts[target]);
    EXPECT_EQ(with_corner, reference)
        << "trial " << trial << " facet size " << facet.size();
    // Each call resolves through exactly one instrumented path (or the
    // uncounted single-member miss).
    EXPECT_LE(counters.bbox_rejects + counters.member_hits +
                  counters.lp_calls,
              1u);
  }
}

// The full build's coarse-edge counters partition the candidate pairs
// given by adjacent coarse layer sizes.
TEST_P(BuildEquivalenceTest, BuildStatsPartitionCandidatePairs) {
  const Config& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  const DualLayerBuildStats& stats = index.build_stats();

  const LayerDecomposition layers = BuildSkylineLayers(pts);
  std::size_t candidate_pairs = 0;
  for (std::size_t i = 0; i + 1 < layers.layers.size(); ++i) {
    candidate_pairs += layers.layers[i].size() * layers.layers[i + 1].size();
  }
  EXPECT_EQ(stats.coarse_pairs_pruned + stats.coarse_pairs_tested,
            candidate_pairs);
  // EDS pairs all resolve through an instrumented path or an LP.
  EXPECT_GT(stats.num_coarse_edges, 0u);
  if (index.build_stats().num_fine_layers > layers.layers.size()) {
    EXPECT_GT(stats.eds_bbox_rejects + stats.eds_member_hits +
                  stats.eds_lp_calls,
              0u);
  }
}

// The fine peel from scratch: every sublayer is the convex skyline of
// what its coarse layer has left, and each target's ∃-edge sources are
// the vertices of the first facet of the sublayer above, in canonical
// order, that passes the verified EDS test. The build must agree edge
// for edge however it finds that facet.
TEST_P(BuildEquivalenceTest, ExistsEdgesMatchFirstCoveringFacetReference) {
  const Config& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  const CsrGraph fine_out = index.NodeGraph().fine_out;
  std::vector<std::vector<TupleId>> parents(pts.size());
  for (std::size_t node = 0; node < pts.size(); ++node) {
    for (const auto succ : fine_out[node]) {
      parents[succ].push_back(static_cast<TupleId>(node));
    }
  }
  std::size_t checked = 0;
  for (const std::vector<TupleId>& layer : index.coarse_layers()) {
    std::vector<TupleId> remaining = layer;
    for (std::uint32_t fine = 0; !remaining.empty(); ++fine) {
      const ConvexSkylineResult csky =
          ComputeConvexSkyline(pts.Subset(remaining));
      std::vector<TupleId> members;
      for (const TupleId local : csky.members) {
        members.push_back(remaining[local]);
      }
      std::vector<TupleId> built_members;
      std::vector<TupleId> next;
      for (const TupleId id : remaining) {
        if (index.fine_layer_of(id) == fine) {
          built_members.push_back(id);
        } else {
          next.push_back(id);
        }
      }
      ASSERT_EQ(members, built_members) << "fine sublayer " << fine;
      std::vector<std::vector<TupleId>> facets;
      for (std::size_t f = 0; f < csky.num_facets(); ++f) {
        facets.emplace_back();
        for (const TupleId local : csky.facet(f)) {
          facets.back().push_back(remaining[local]);
        }
      }
      for (const TupleId target : next) {
        if (index.fine_layer_of(target) != fine + 1) continue;
        std::vector<TupleId> expected;
        for (const std::vector<TupleId>& facet : facets) {
          if (FacetIsVerifiedEds(pts, facet, FacetMinCorner(pts, facet),
                                 pts[target], EdsMargin::kRounding,
                                 nullptr)) {
            expected = facet;
            break;
          }
        }
        std::sort(expected.begin(), expected.end());
        std::vector<TupleId> got = parents[target];
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected) << "target " << target;
        ++checked;
      }
      remaining = std::move(next);
    }
  }
  EXPECT_GT(checked, 0u);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Serial and parallel builds serialize to the same bytes, and repeated
// builds are bit-identical (the bit-identical-build invariant that the
// pruning fast paths must preserve).
TEST_P(BuildEquivalenceTest, SerializedIndexIsDeterministic) {
  const Config& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string base =
      dir + "/drli_equiv_" + std::to_string(c.d) + "_" +
      std::to_string(static_cast<int>(c.dist)) + "_" + std::to_string(c.n);

  DualLayerOptions serial;
  serial.build_zero_layer = true;
  serial.build_threads = 1;
  DualLayerOptions parallel = serial;
  parallel.build_threads = 4;

  const std::string path_a = base + "_a.bin";
  const std::string path_b = base + "_b.bin";
  const std::string path_c = base + "_c.bin";
  ASSERT_TRUE(
      SaveDualLayerIndex(DualLayerIndex::Build(pts, serial), path_a).ok());
  ASSERT_TRUE(
      SaveDualLayerIndex(DualLayerIndex::Build(pts, serial), path_b).ok());
  ASSERT_TRUE(
      SaveDualLayerIndex(DualLayerIndex::Build(pts, parallel), path_c).ok());

  const std::string bytes_a = ReadFileBytes(path_a);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, ReadFileBytes(path_b)) << "rebuild not bit-identical";
  EXPECT_EQ(bytes_a, ReadFileBytes(path_c))
      << "parallel build not bit-identical to serial";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(path_c.c_str());
}

// Serial phase timers are non-negative and sum to roughly the total
// (loose bound: wall-clock noise must not flake CI).
TEST_P(BuildEquivalenceTest, PhaseTimersCoverBuild) {
  const Config& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  DualLayerOptions options;
  options.build_threads = 1;
  const DualLayerIndex index = DualLayerIndex::Build(pts, options);
  const DualLayerBuildStats& s = index.build_stats();
  EXPECT_GE(s.skyline_seconds, 0.0);
  EXPECT_GE(s.fine_peel_seconds, 0.0);
  EXPECT_GE(s.coarse_edge_seconds, 0.0);
  EXPECT_GE(s.zero_layer_seconds, 0.0);
  EXPECT_GE(s.finalize_seconds, 0.0);
  const double phase_sum = s.skyline_seconds + s.fine_peel_seconds +
                           s.coarse_edge_seconds + s.zero_layer_seconds +
                           s.finalize_seconds;
  EXPECT_LE(phase_sum, s.build_seconds + 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuildEquivalenceTest,
    ::testing::Values(
        Config{Distribution::kIndependent, 1200, 2, 11},
        Config{Distribution::kIndependent, 1200, 4, 12},
        Config{Distribution::kCorrelated, 1200, 3, 13},
        Config{Distribution::kCorrelated, 1200, 5, 14},
        Config{Distribution::kAnticorrelated, 900, 2, 15},
        Config{Distribution::kAnticorrelated, 900, 3, 16},
        Config{Distribution::kAnticorrelated, 700, 4, 17},
        Config{Distribution::kAnticorrelated, 500, 5, 18},
        // Past kParallelBuildPoints: serial and 4-thread builds take
        // different paths, chunked layering included.
        Config{Distribution::kAnticorrelated, 5000, 3, 19},
        Config{Distribution::kAnticorrelated, 5000, 4, 20},
        Config{Distribution::kIndependent, 6000, 4, 21}),
    ConfigName);

// The chunked layering (threads > 1) against the one-point sweep and
// the peeling reference, just past the parallel threshold with n on
// either side of a chunk boundary (the sweep's chunks hold 128 points).
// Every fifth row repeats an earlier one: duplicates share a layer
// and may fall into one chunk.
TEST(ChunkedLayeringTest, MatchesPeelingAcrossChunkBoundaries) {
  constexpr std::size_t kChunk = 128;
  for (const std::size_t n : {kParallelBuildPoints + kChunk - 1,
                              kParallelBuildPoints + kChunk,
                              kParallelBuildPoints + kChunk + 1}) {
    for (const std::size_t d : {std::size_t{3}, std::size_t{4}}) {
      const PointSet base = Generate(Distribution::kAnticorrelated, n, d, n);
      PointSet pts(d);
      for (std::size_t i = 0; i < n; ++i) {
        pts.Add(base[i % 5 == 4 ? i / 2 : i]);
      }
      const LayerDecomposition reference = BuildSkylineLayersByPeeling(pts);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const LayerDecomposition layers = BuildSkylineLayers(pts, threads);
        EXPECT_EQ(layers.layers, reference.layers)
            << "n=" << n << " d=" << d << " threads=" << threads;
        EXPECT_EQ(layers.layer_of, reference.layer_of)
            << "n=" << n << " d=" << d << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace drli
