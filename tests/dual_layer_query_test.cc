#include <cstddef>
#include <limits>
#include <string>

#include "gtest/gtest.h"

#include "core/dual_layer.h"
#include "core/index_registry.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "test_util.h"
#include "topk/scan.h"

namespace drli {
namespace {

using testing_util::ExpectMatchesScan;
using testing_util::MakeToyDataset;

TEST(DualLayerQueryTest, PaperExample5Trace) {
  // k = 3, w = (0.5, 0.5): answers {a, b, f} in that order, and only
  // the tuples the paper's Table III accesses are evaluated:
  // {a,b,c} initially, then {d,e,f} after popping a, then {g} after
  // popping b -- 7 evaluations in total.
  DualLayerIndex index = DualLayerIndex::Build(MakeToyDataset());
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 3;
  const TopKResult result = index.Query(query);
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.items[0].id, testing_util::kA);
  EXPECT_DOUBLE_EQ(result.items[0].score, 3.5);
  EXPECT_EQ(result.items[1].id, testing_util::kB);
  EXPECT_EQ(result.items[2].id, testing_util::kF);
  EXPECT_EQ(result.stats.tuples_evaluated, 7u);
  EXPECT_EQ(result.stats.virtual_evaluated, 0u);
}

TEST(DualLayerQueryTest, MatchesScanToyAllK) {
  const PointSet pts = MakeToyDataset();
  DualLayerIndex index = DualLayerIndex::Build(pts);
  for (std::size_t k = 1; k <= pts.size(); ++k) {
    ExpectMatchesScan(index, pts, k, 10, 1000 + k);
  }
}

struct QueryCase {
  Distribution dist;
  std::size_t n;
  std::size_t d;
  std::size_t k;
  bool zero_layer;
};

class DualLayerQueryParamTest : public ::testing::TestWithParam<QueryCase> {
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, DualLayerQueryParamTest,
    ::testing::Values(
        QueryCase{Distribution::kIndependent, 500, 2, 10, false},
        QueryCase{Distribution::kIndependent, 500, 2, 10, true},
        QueryCase{Distribution::kIndependent, 500, 3, 10, false},
        QueryCase{Distribution::kIndependent, 500, 3, 10, true},
        QueryCase{Distribution::kIndependent, 500, 4, 25, false},
        QueryCase{Distribution::kIndependent, 500, 4, 25, true},
        QueryCase{Distribution::kIndependent, 500, 5, 10, true},
        QueryCase{Distribution::kAnticorrelated, 400, 2, 10, false},
        QueryCase{Distribution::kAnticorrelated, 400, 2, 10, true},
        QueryCase{Distribution::kAnticorrelated, 400, 3, 15, false},
        QueryCase{Distribution::kAnticorrelated, 400, 3, 15, true},
        QueryCase{Distribution::kAnticorrelated, 400, 4, 10, true},
        QueryCase{Distribution::kCorrelated, 500, 3, 10, false},
        QueryCase{Distribution::kCorrelated, 500, 4, 10, true}));

TEST_P(DualLayerQueryParamTest, MatchesScan) {
  const QueryCase& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, 31 * c.d + c.k);
  DualLayerOptions options;
  options.build_zero_layer = c.zero_layer;
  DualLayerIndex index = DualLayerIndex::Build(pts, options);
  ExpectMatchesScan(index, pts, c.k, 15, 7 * c.d + c.k);
}

TEST(DualLayerQueryTest, KEqualsNReturnsEverything) {
  const PointSet pts = GenerateIndependent(200, 3, 8);
  DualLayerIndex index = DualLayerIndex::Build(pts);
  TopKQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 200;
  const TopKResult result = index.Query(query);
  EXPECT_EQ(result.items.size(), 200u);
  // All tuples evaluated when everything must be returned.
  EXPECT_EQ(result.stats.tuples_evaluated, 200u);
  for (std::size_t i = 1; i < result.items.size(); ++i) {
    EXPECT_LE(result.items[i - 1].score, result.items[i].score);
  }
}

// The TopKIndex contract returns all n tuples for any k > n, so a k
// far past n must size no buffer by k (2^40 and 2^59 used to throw
// from a reservation).
TEST(DualLayerQueryTest, HugeKReturnsEverything) {
  const PointSet pts = GenerateIndependent(300, 3, 9);
  DualLayerOptions plus;
  plus.build_zero_layer = true;
  const Point weights = {0.2, 0.3, 0.5};
  const TopKResult want = Scan(pts, TopKQuery{weights, pts.size()});
  constexpr std::size_t kHugeKs[] = {std::size_t{1} << 40,
                                     std::size_t{1} << 62,
                                     std::numeric_limits<std::size_t>::max()};
  const auto expect_everything = [&](const TopKResult& got,
                                     const std::string& what) {
    ASSERT_TRUE(got.complete()) << what << ": " << got.error;
    EXPECT_EQ(got.certified_prefix, pts.size()) << what;
    ASSERT_EQ(got.items.size(), want.items.size()) << what;
    for (std::size_t i = 0; i < want.items.size(); ++i) {
      EXPECT_EQ(got.items[i].id, want.items[i].id) << what << " rank " << i;
      EXPECT_EQ(got.items[i].score, want.items[i].score) << what;
    }
  };
  for (const DualLayerOptions& options : {DualLayerOptions{}, plus}) {
    const DualLayerIndex index = DualLayerIndex::Build(pts, options);
    for (const std::size_t k : kHugeKs) {
      const TopKResult got = index.Query(TopKQuery{weights, k});
      EXPECT_EQ(got.stats.tuples_evaluated, pts.size());
      expect_everything(got, "k = " + std::to_string(k));
    }
  }
  // The TopKIndex contract holds for every kind and the constrained
  // scan: a k past n answers all n tuples and never throws.
  for (const std::string& kind : KnownIndexKinds()) {
    IndexBuildConfig config;
    config.kind = kind;
    auto built = BuildIndex(config, pts);
    ASSERT_TRUE(built.ok()) << kind;
    for (const std::size_t k : kHugeKs) {
      expect_everything(built.value()->Query(TopKQuery{weights, k}),
                        kind + " k = " + std::to_string(k));
    }
  }
  for (const std::size_t k : kHugeKs) {
    expect_everything(
        ConstrainedTopKScan(pts, ConstrainedQuery{weights, k,
                                                  AttributeBox::All(3)}),
        "constrained scan k = " + std::to_string(k));
  }
}

TEST(DualLayerQueryTest, CostNeverExceedsScan) {
  const PointSet pts = GenerateAnticorrelated(500, 3, 9);
  DualLayerIndex index = DualLayerIndex::Build(pts);
  for (std::size_t k : {1u, 5u, 20u}) {
    for (const TopKQuery& query :
         testing_util::RandomQueries(3, k, 10, 17)) {
      EXPECT_LE(index.Query(query).stats.tuples_evaluated, pts.size());
    }
  }
}

TEST(DualLayerQueryTest, ZeroLayer2DAccessesOneChainTuple) {
  const PointSet pts = GenerateIndependent(2000, 2, 10);
  DualLayerOptions with, without;
  with.build_zero_layer = true;
  DualLayerIndex plus = DualLayerIndex::Build(pts, with);
  DualLayerIndex plain = DualLayerIndex::Build(pts, without);
  ASSERT_TRUE(plus.uses_weight_table());
  for (const TopKQuery& query : testing_util::RandomQueries(2, 1, 25, 3)) {
    const TopKResult r_plus = plus.Query(query);
    const TopKResult r_plain = plain.Query(query);
    EXPECT_TRUE(testing_util::ResultsEquivalent(r_plain, r_plus));
    // Top-1 via the weight table costs exactly one evaluation.
    EXPECT_EQ(r_plus.stats.tuples_evaluated, 1u);
    EXPECT_GE(r_plain.stats.tuples_evaluated, r_plus.stats.tuples_evaluated);
  }
}

// ValidateQuery accepts weights off the simplex; only their direction
// matters. The 2-d weight table is keyed on the simplex, so a scaled
// vector must start the chain walk where its normalized twin does.
TEST(DualLayerQueryTest, ZeroLayer2DScaledWeightsMatchNormalized) {
  const PointSet pts = GenerateAnticorrelated(2000, 2, 11);
  DualLayerOptions with;
  with.build_zero_layer = true;
  const DualLayerIndex plus = DualLayerIndex::Build(pts, with);
  ASSERT_TRUE(plus.uses_weight_table());
  for (const std::size_t k : {1, 5, 20}) {
    for (const TopKQuery& query : testing_util::RandomQueries(2, k, 25, 5)) {
      const TopKResult normalized = plus.Query(query);
      for (const double scale : {0.05, 0.5, 3.0}) {
        TopKQuery scaled = query;
        for (double& w : scaled.weights) w *= scale;
        const TopKResult got = plus.Query(scaled);
        const TopKResult want = Scan(pts, scaled);
        ASSERT_EQ(got.items.size(), want.items.size());
        for (std::size_t i = 0; i < want.items.size(); ++i) {
          EXPECT_EQ(got.items[i].id, want.items[i].id) << scale << " " << i;
        }
        EXPECT_EQ(got.stats.tuples_evaluated,
                  normalized.stats.tuples_evaluated)
            << scale;
      }
    }
  }
}

TEST(DualLayerQueryTest, ZeroLayerNeverChangesAnswers) {
  for (std::size_t d = 2; d <= 5; ++d) {
    const PointSet pts = GenerateAnticorrelated(400, d, 40 + d);
    DualLayerOptions with;
    with.build_zero_layer = true;
    DualLayerIndex plus = DualLayerIndex::Build(pts, with);
    DualLayerIndex plain = DualLayerIndex::Build(pts);
    for (const TopKQuery& query :
         testing_util::RandomQueries(d, 10, 10, d)) {
      EXPECT_TRUE(testing_util::ResultsEquivalent(plain.Query(query),
                                                  plus.Query(query)));
    }
  }
}

TEST(DualLayerQueryTest, AllFacetsPolicyCorrectButNoCheaper) {
  const PointSet pts = GenerateAnticorrelated(400, 3, 11);
  DualLayerOptions all;
  all.eds_policy = EdsPolicy::kAllFacets;
  DualLayerIndex index_all = DualLayerIndex::Build(pts, all);
  DualLayerIndex index_single = DualLayerIndex::Build(pts);
  std::size_t cost_all = 0, cost_single = 0;
  for (const TopKQuery& query : testing_util::RandomQueries(3, 10, 20, 5)) {
    const TopKResult r_all = index_all.Query(query);
    const TopKResult r_single = index_single.Query(query);
    EXPECT_TRUE(testing_util::ResultsEquivalent(r_single, r_all));
    cost_all += r_all.stats.tuples_evaluated;
    cost_single += r_single.stats.tuples_evaluated;
  }
  // Extra in-edges can only unlock tuples earlier.
  EXPECT_GE(cost_all, cost_single);
}

TEST(DualLayerQueryTest, DuplicateTuplesHandled) {
  PointSet pts(3);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.Uniform(), y = rng.Uniform(), z = rng.Uniform();
    pts.Add({x, y, z});
    pts.Add({x, y, z});  // exact duplicate
  }
  DualLayerIndex index = DualLayerIndex::Build(pts);
  ExpectMatchesScan(index, pts, 10, 10, 77);
}

}  // namespace
}  // namespace drli
