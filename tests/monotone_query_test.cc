// Tests for the monotone-scoring extension of the Dominant Graph:
// ∀-dominance only needs monotonicity, so DG answers top-k for any
// monotone function, not just linear combinations. ∃-dominance does
// not, so an index with fine sublayers must refuse.

#include <algorithm>
#include <cmath>

#include "gtest/gtest.h"

#include "baselines/dominant_graph.h"
#include "common/random.h"
#include "data/generator.h"
#include "test_util.h"

namespace drli {
namespace {

// Brute-force oracle for an arbitrary scorer.
std::vector<ScoredTuple> ScanMonotone(const PointSet& points,
                                      const MonotoneScorer& scorer,
                                      std::size_t k) {
  std::vector<ScoredTuple> all;
  for (std::size_t i = 0; i < points.size(); ++i) {
    all.push_back(ScoredTuple{static_cast<TupleId>(i), scorer(points[i])});
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredTuple& a, const ScoredTuple& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.id < b.id;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

void ExpectMatchesMonotoneScan(const DualLayerIndex& index,
                               const PointSet& points,
                               const MonotoneScorer& scorer, std::size_t k) {
  const std::vector<ScoredTuple> expected = ScanMonotone(points, scorer, k);
  const TopKResult got = MonotoneTopK(index, scorer, k);
  ASSERT_EQ(got.items.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(got.items[i].score, expected[i].score, 1e-9) << "rank " << i;
  }
  EXPECT_LE(got.stats.tuples_evaluated, points.size());
}

TEST(MonotoneQueryTest, WeightedL2Norm) {
  const PointSet pts = GenerateAnticorrelated(600, 3, 1);
  const DualLayerIndex index =
      DualLayerIndex::Build(pts, DominantGraphConfig(false));
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const Point w = rng.SimplexWeight(3);
    auto scorer = [w](PointView p) {
      double s = 0.0;
      for (std::size_t j = 0; j < p.size(); ++j) s += w[j] * p[j] * p[j];
      return std::sqrt(s);
    };
    ExpectMatchesMonotoneScan(index, pts, scorer, 10);
  }
}

TEST(MonotoneQueryTest, ChebyshevMax) {
  const PointSet pts = GenerateIndependent(500, 4, 3);
  const DualLayerIndex index =
      DualLayerIndex::Build(pts, DominantGraphConfig(false));
  auto scorer = [](PointView p) {
    double m = p[0];
    for (double x : p) m = std::max(m, x);
    return m;
  };
  ExpectMatchesMonotoneScan(index, pts, scorer, 25);
}

TEST(MonotoneQueryTest, LogProductScore) {
  const PointSet pts = GenerateIndependent(400, 3, 4);
  const DualLayerIndex index =
      DualLayerIndex::Build(pts, DominantGraphConfig(false));
  auto scorer = [](PointView p) {
    double s = 0.0;
    for (double x : p) s += std::log1p(x);
    return s;
  };
  ExpectMatchesMonotoneScan(index, pts, scorer, 15);
}

TEST(MonotoneQueryTest, WorksWithZeroLayer) {
  // Pseudo-tuples weakly dominate their members, which is exactly the
  // monotone guarantee, so DG+ supports monotone scoring too.
  const PointSet pts = GenerateAnticorrelated(600, 4, 5);
  const DualLayerIndex index =
      DualLayerIndex::Build(pts, DominantGraphConfig(true));
  auto scorer = [](PointView p) {
    double s = 0.0;
    for (double x : p) s += x * x * x;
    return s;
  };
  ExpectMatchesMonotoneScan(index, pts, scorer, 10);
}

TEST(MonotoneQueryTest, LinearQueryConsistentWithMonotonePath) {
  const PointSet pts = GenerateIndependent(300, 3, 6);
  const DualLayerIndex index =
      DualLayerIndex::Build(pts, DominantGraphConfig(false));
  for (const TopKQuery& query : testing_util::RandomQueries(3, 10, 10, 7)) {
    const Point w = query.weights;
    const TopKResult linear = index.Query(query);
    const TopKResult monotone = MonotoneTopK(
        index, [w](PointView p) { return Score(w, p); }, query.k);
    ASSERT_EQ(linear.items.size(), monotone.items.size());
    for (std::size_t i = 0; i < linear.items.size(); ++i) {
      EXPECT_EQ(linear.items[i].id, monotone.items[i].id);
    }
    EXPECT_EQ(linear.stats.tuples_evaluated,
              monotone.stats.tuples_evaluated);
  }
}

TEST(MonotoneQueryTest, SelectiveAccess) {
  // Even for nonlinear scorers the graph prunes most of the relation.
  const PointSet pts = GenerateIndependent(5000, 3, 8);
  const DualLayerIndex index =
      DualLayerIndex::Build(pts, DominantGraphConfig(false));
  auto scorer = [](PointView p) {
    return std::pow(p[0], 1.5) + 0.5 * p[1] + p[2] * p[2];
  };
  const TopKResult result = MonotoneTopK(index, scorer, 10);
  EXPECT_LT(result.stats.tuples_evaluated, pts.size() / 4);
}

TEST(MonotoneQueryTest, StepBudgetCutsAreCertifiedPrefixes) {
  // Every max_evals cut of a DG / DG+ monotone query stops with a
  // certified prefix of the exact answer and a frontier no higher than
  // the score of any tuple it did not return.
  const PointSet pts = GenerateAnticorrelated(300, 3, 10);
  auto scorer = [](PointView p) {
    double s = 0.0;
    for (double x : p) s += x * x;
    return s;
  };
  constexpr std::size_t k = 8;
  const std::vector<ScoredTuple> expected = ScanMonotone(pts, scorer, k);
  for (bool zero_layer : {false, true}) {
    const DualLayerIndex index =
        DualLayerIndex::Build(pts, DominantGraphConfig(zero_layer));
    const std::size_t cost = MonotoneTopK(index, scorer, k).stats
                                 .tuples_evaluated;
    std::size_t partials = 0;
    for (std::size_t cut = 1; cut <= cost; ++cut) {
      ExecBudget budget;
      budget.max_evals = cut;
      const TopKResult got = MonotoneTopK(index, scorer, k, budget);
      if (got.complete()) {
        ASSERT_EQ(got.items.size(), expected.size()) << "cut " << cut;
      } else {
        EXPECT_EQ(got.termination, Termination::kStepBudget);
        ++partials;
      }
      ASSERT_LE(got.certified_prefix, got.items.size()) << "cut " << cut;
      for (std::size_t i = 0; i < got.certified_prefix; ++i) {
        EXPECT_EQ(got.items[i].id, expected[i].id)
            << index.name() << " cut " << cut << " rank " << i;
        EXPECT_EQ(got.items[i].score, expected[i].score);
      }
      if (got.complete()) continue;
      std::vector<bool> returned(pts.size(), false);
      for (const ScoredTuple& item : got.items) returned[item.id] = true;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!returned[i]) {
          ASSERT_LE(got.frontier_bound, scorer(pts[i]))
              << index.name() << " cut " << cut << " tuple " << i;
        }
      }
    }
    EXPECT_GT(partials, 0u) << index.name();
  }
}

TEST(MonotoneQueryTest, RejectsAnIndexWithExistsEdges) {
  // ∃-dominance is a convexity argument and the 2-d weight table a
  // linear one: neither is sound for a non-linear scorer, so DL and DL+
  // refuse instead of answering wrongly -- at d = 2 (the weight table)
  // and d = 3 (∃-edges and a fine-split zero layer).
  auto scorer = [](PointView p) {
    double s = 0.0;
    for (double x : p) s += x * x;
    return s;
  };
  for (std::size_t d : {2u, 3u}) {
    const PointSet pts = GenerateAnticorrelated(400, d, 9);
    for (bool zero_layer : {false, true}) {
      DualLayerOptions options;
      options.build_zero_layer = zero_layer;
      const DualLayerIndex index = DualLayerIndex::Build(pts, options);
      ASSERT_GT(index.fine_out().num_edges(), 0u) << index.name();
      const TopKResult result = MonotoneTopK(index, scorer, 10);
      EXPECT_EQ(result.termination, Termination::kInvalidQuery)
          << index.name() << " d=" << d;
      EXPECT_TRUE(result.items.empty());
      EXPECT_TRUE(result.accessed.empty());
    }
  }
}

}  // namespace
}  // namespace drli
