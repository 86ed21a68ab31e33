// Tests of the layer-based baselines: DG/DG+ (the dual-layer index
// without fine sublayers), Onion and HL/HL+.
//
// tests/golden/dominant_graph_v1.txt pins DG and DG+ bit for bit. It
// was written by the library's former stand-alone DG implementation
// (its own layering, ∀-edges, zero layer and traversal) from the
// fixtures GoldenRows() rebuilds below, before DG became a
// configuration of DualLayerIndex. It is not regenerated: its rows are
// the behaviour the configuration must keep.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "baselines/dominant_graph.h"
#include "baselines/hybrid_layer.h"
#include "baselines/onion.h"
#include "common/random.h"
#include "core/index_registry.h"
#include "data/generator.h"
#include "test_util.h"

#ifndef DRLI_TEST_GOLDEN_DIR
#error "DRLI_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace drli {
namespace {

using testing_util::ExpectMatchesScan;
using testing_util::MakeToyDataset;

// Fixtures of the DG/DG+ golden: every (distribution, d, kind, k,
// weight) at full cost and at max_evals cuts of 1/3 and 2/3 of it.
constexpr std::size_t kGoldenN = 1500;
constexpr std::size_t kGoldenWeights = 4;

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string GoldenRow(const char* dist_name, std::size_t d, const char* kind,
                      std::size_t k, std::size_t weight,
                      std::size_t max_evals, const TopKResult& result) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const ScoredTuple& item : result.items) {
    hash = Fnv1a(hash, item.id);
    hash = Fnv1a(hash, Bits(item.score));
  }
  char row[256];
  std::snprintf(row, sizeof(row),
                "%s %zu %s %zu %zu %zu %s %zu %016llx %zu %zu %016llx",
                dist_name, d, kind, k, weight, max_evals,
                TerminationName(result.termination), result.certified_prefix,
                static_cast<unsigned long long>(Bits(result.frontier_bound)),
                result.stats.tuples_evaluated, result.stats.virtual_evaluated,
                static_cast<unsigned long long>(hash));
  return row;
}

std::vector<std::string> GoldenRows() {
  struct NamedDistribution {
    const char* name;
    Distribution dist;
  };
  constexpr NamedDistribution kDistributions[] = {
      {"ind", Distribution::kIndependent},
      {"ant", Distribution::kAnticorrelated},
      {"cor", Distribution::kCorrelated},
  };
  std::vector<std::string> rows;
  for (const NamedDistribution& dist : kDistributions) {
    for (std::size_t d = 2; d <= 4; ++d) {
      const PointSet points = Generate(dist.dist, kGoldenN, d, 2012 + d);
      for (const char* kind : {"dg", "dg+"}) {
        IndexBuildConfig config;
        config.kind = kind;
        auto built = BuildIndex(config, points);
        if (!built.ok()) return {};
        const TopKIndex& index = *built.value();
        Rng rng(40 + d);
        for (std::size_t weight = 0; weight < kGoldenWeights; ++weight) {
          const Point w = rng.SimplexWeight(d);
          for (std::size_t k : {1, 10}) {
            TopKQuery query;
            query.weights = w;
            query.k = k;
            const TopKResult full = index.Query(query);
            rows.push_back(GoldenRow(dist.name, d, kind, k, weight, 0, full));
            const std::size_t cost = full.stats.tuples_evaluated;
            for (std::size_t cut : {std::max<std::size_t>(1, cost / 3),
                                    std::max<std::size_t>(1, 2 * cost / 3)}) {
              query.budget.max_evals = cut;
              rows.push_back(GoldenRow(dist.name, d, kind, k, weight, cut,
                                       index.Query(query)));
            }
          }
        }
      }
    }
  }
  return rows;
}

TEST(DominantGraphTest, MatchesParentGolden) {
  std::ifstream in(std::string(DRLI_TEST_GOLDEN_DIR) +
                   "/dominant_graph_v1.txt");
  ASSERT_TRUE(in.good());
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }
  const std::vector<std::string> rows = GoldenRows();
  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], golden[i]) << "row " << i;
  }
}

TEST(DominantGraphTest, RegistryBuildsTheConfiguration) {
  // The registry's dg / dg+ are DominantGraphConfig builds: no ∃-edge,
  // one page group per coarse layer, and the same answers and costs as
  // the configuration built directly.
  const PointSet pts = GenerateAnticorrelated(700, 3, 17);
  for (bool zero_layer : {false, true}) {
    const DualLayerIndex direct =
        DualLayerIndex::Build(pts, DominantGraphConfig(zero_layer));
    EXPECT_EQ(direct.NodeGraph().fine_out.num_edges(), 0u) << direct.name();
    EXPECT_EQ(direct.LayerGroups(), direct.coarse_layers()) << direct.name();

    IndexBuildConfig config;
    config.kind = zero_layer ? "dg+" : "dg";
    auto built = BuildIndex(config, pts);
    ASSERT_TRUE(built.ok()) << config.kind;
    const TopKIndex& registry = *built.value();
    EXPECT_EQ(registry.name(), direct.name());
    for (const TopKQuery& query : testing_util::RandomQueries(3, 10, 8, 18)) {
      const TopKResult want = direct.Query(query);
      const TopKResult got = registry.Query(query);
      ASSERT_EQ(got.items.size(), want.items.size()) << config.kind;
      for (std::size_t i = 0; i < want.items.size(); ++i) {
        EXPECT_EQ(got.items[i].id, want.items[i].id) << "rank " << i;
        EXPECT_EQ(got.items[i].score, want.items[i].score) << "rank " << i;
      }
      EXPECT_EQ(got.stats.tuples_evaluated, want.stats.tuples_evaluated);
      EXPECT_EQ(got.stats.virtual_evaluated, want.stats.virtual_evaluated);
    }
  }
}

TEST(DominantGraphTest, ToyDatasetCorrect) {
  DualLayerIndex index =
      DualLayerIndex::Build(MakeToyDataset(), DominantGraphConfig(false));
  EXPECT_EQ(index.name(), "DG");
  EXPECT_EQ(index.build_stats().num_coarse_layers, 3u);
  const PointSet pts = MakeToyDataset();
  for (std::size_t k = 1; k <= pts.size(); ++k) {
    ExpectMatchesScan(index, pts, k, 5, 100 + k);
  }
}

TEST(DominantGraphTest, FirstLayerCompleteAccess) {
  // Without the zero layer, DG must score all of L1 on every query.
  const PointSet pts = GenerateIndependent(500, 3, 1);
  DualLayerIndex index = DualLayerIndex::Build(pts, DominantGraphConfig(false));
  const std::size_t layer1 = index.coarse_layers()[0].size();
  for (const TopKQuery& query : testing_util::RandomQueries(3, 1, 10, 2)) {
    EXPECT_GE(index.Query(query).stats.tuples_evaluated, layer1);
  }
}

TEST(DominantGraphTest, ZeroLayerReducesFirstLayerAccess) {
  const PointSet pts = GenerateAnticorrelated(800, 4, 2);
  DualLayerIndex dg = DualLayerIndex::Build(pts, DominantGraphConfig(false));
  DualLayerIndex dg_plus =
      DualLayerIndex::Build(pts, DominantGraphConfig(true));
  EXPECT_EQ(dg_plus.name(), "DG+");
  EXPECT_GT(dg_plus.build_stats().num_virtual, 0u);
  std::size_t cost = 0, cost_plus = 0;
  for (const TopKQuery& query : testing_util::RandomQueries(4, 10, 20, 3)) {
    const TopKResult r = dg.Query(query);
    const TopKResult rp = dg_plus.Query(query);
    EXPECT_TRUE(testing_util::ResultsEquivalent(r, rp));
    cost += r.stats.tuples_evaluated;
    cost_plus += rp.stats.tuples_evaluated;
  }
  EXPECT_LT(cost_plus, cost);
}

struct BaselineCase {
  Distribution dist;
  std::size_t n;
  std::size_t d;
  std::size_t k;
};

class BaselineCorrectnessTest
    : public ::testing::TestWithParam<BaselineCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineCorrectnessTest,
    ::testing::Values(BaselineCase{Distribution::kIndependent, 400, 2, 10},
                      BaselineCase{Distribution::kIndependent, 400, 3, 10},
                      BaselineCase{Distribution::kIndependent, 400, 4, 25},
                      BaselineCase{Distribution::kAnticorrelated, 300, 2, 10},
                      BaselineCase{Distribution::kAnticorrelated, 300, 3, 15},
                      BaselineCase{Distribution::kAnticorrelated, 300, 4, 10},
                      BaselineCase{Distribution::kCorrelated, 400, 3, 10}));

TEST_P(BaselineCorrectnessTest, DominantGraphMatchesScan) {
  const BaselineCase& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.d * 13 + c.k);
  DualLayerIndex index = DualLayerIndex::Build(pts, DominantGraphConfig(false));
  ExpectMatchesScan(index, pts, c.k, 10, c.k);
}

TEST_P(BaselineCorrectnessTest, DominantGraphPlusMatchesScan) {
  const BaselineCase& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.d * 13 + c.k);
  DualLayerIndex index = DualLayerIndex::Build(pts, DominantGraphConfig(true));
  ExpectMatchesScan(index, pts, c.k, 10, c.k + 1);
}

TEST_P(BaselineCorrectnessTest, OnionMatchesScan) {
  const BaselineCase& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.d * 13 + c.k);
  OnionIndex index = OnionIndex::Build(pts);
  ExpectMatchesScan(index, pts, c.k, 10, c.k + 2);
}

TEST_P(BaselineCorrectnessTest, HybridLayerMatchesScan) {
  const BaselineCase& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.d * 13 + c.k);
  HybridLayerOptions hl;
  hl.tight_threshold = false;
  HybridLayerIndex index = HybridLayerIndex::Build(pts, hl);
  EXPECT_EQ(index.name(), "HL");
  ExpectMatchesScan(index, pts, c.k, 10, c.k + 3);
}

TEST_P(BaselineCorrectnessTest, HybridLayerPlusMatchesScan) {
  const BaselineCase& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.d * 13 + c.k);
  HybridLayerIndex index = HybridLayerIndex::Build(pts);
  EXPECT_EQ(index.name(), "HL+");
  ExpectMatchesScan(index, pts, c.k, 10, c.k + 4);
}

TEST(OnionTest, CompleteAccessCostIsLayerPrefix) {
  const PointSet pts = GenerateIndependent(500, 3, 4);
  OnionOptions options;
  options.early_stop = false;
  OnionIndex index = OnionIndex::Build(pts, options);
  const auto& layers = index.layers();
  for (std::size_t k : {1u, 3u, 7u}) {
    std::size_t expected = 0;
    for (std::size_t i = 0; i < std::min(k, layers.size()); ++i) {
      expected += layers[i].size();
    }
    TopKQuery query;
    query.weights = {0.3, 0.3, 0.4};
    query.k = k;
    EXPECT_EQ(index.Query(query).stats.tuples_evaluated, expected);
  }
}

TEST(OnionTest, EarlyStopNeverCostsMore) {
  const PointSet pts = GenerateIndependent(500, 3, 5);
  OnionOptions eager, lazy;
  lazy.early_stop = false;
  OnionIndex a = OnionIndex::Build(pts, eager);
  OnionIndex b = OnionIndex::Build(pts, lazy);
  for (const TopKQuery& query : testing_util::RandomQueries(3, 10, 10, 6)) {
    const TopKResult ra = a.Query(query);
    const TopKResult rb = b.Query(query);
    EXPECT_TRUE(testing_util::ResultsEquivalent(rb, ra));
    EXPECT_LE(ra.stats.tuples_evaluated, rb.stats.tuples_evaluated);
  }
}

TEST(HybridLayerTest, TightThresholdNeverCostsMore) {
  const PointSet pts = GenerateAnticorrelated(400, 3, 7);
  HybridLayerOptions plain, tight;
  plain.tight_threshold = false;
  HybridLayerIndex hl = HybridLayerIndex::Build(pts, plain);
  HybridLayerIndex hl_plus = HybridLayerIndex::Build(pts, tight);
  for (const TopKQuery& query : testing_util::RandomQueries(3, 10, 20, 8)) {
    const TopKResult r = hl.Query(query);
    const TopKResult rp = hl_plus.Query(query);
    EXPECT_TRUE(testing_util::ResultsEquivalent(r, rp));
    EXPECT_LE(rp.stats.tuples_evaluated, r.stats.tuples_evaluated);
  }
}

TEST(HybridLayerTest, SelectiveWithinLayer) {
  // TA inside a layer should not touch every tuple of the layer on
  // random data with small k.
  const PointSet pts = GenerateIndependent(2000, 2, 9);
  HybridLayerIndex index = HybridLayerIndex::Build(pts);
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 1;
  const TopKResult r = index.Query(query);
  EXPECT_LT(r.stats.tuples_evaluated, index.layers()[0].size() + 1);
}

TEST(MaxLayersTest, CappedIndexesRejectLargeK) {
  const PointSet pts = GenerateIndependent(400, 3, 10);
  OnionOptions onion_options;
  onion_options.max_layers = 5;
  OnionIndex onion = OnionIndex::Build(pts, onion_options);
  ASSERT_TRUE(onion.build_stats().truncated);
  TopKQuery query;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 3;
  EXPECT_EQ(onion.Query(query).items.size(), 3u);  // fine below the cap
  query.k = 100;
  const TopKResult rejected = onion.Query(query);
  EXPECT_EQ(rejected.termination, Termination::kInvalidQuery);
  EXPECT_NE(rejected.error.find("layer budget"), std::string::npos);
  EXPECT_TRUE(rejected.items.empty());
}

TEST(BaselineEdgeCasesTest, TinyRelations) {
  PointSet pts(2);
  pts.Add({0.5, 0.5});
  pts.Add({0.2, 0.8});
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 2;

  DualLayerIndex dg = DualLayerIndex::Build(pts, DominantGraphConfig(false));
  EXPECT_EQ(dg.Query(query).items.size(), 2u);
  OnionIndex onion = OnionIndex::Build(pts);
  EXPECT_EQ(onion.Query(query).items.size(), 2u);
  HybridLayerIndex hl = HybridLayerIndex::Build(pts);
  EXPECT_EQ(hl.Query(query).items.size(), 2u);
}

}  // namespace
}  // namespace drli
