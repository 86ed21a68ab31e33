// Randomized stress batteries for the geometry substrate: many seeds,
// dims and distributions, with oracle cross-checks on every draw.

#include <algorithm>
#include <numeric>
#include <set>

#include "gtest/gtest.h"

#include "common/random.h"
#include "data/generator.h"
#include "geometry/convex_hull.h"
#include "geometry/convex_hull_2d.h"
#include "geometry/convex_skyline.h"
#include "core/eds.h"
#include "geometry/simplex_lp.h"
#include "test_util.h"

namespace drli {
namespace {

struct StressCase {
  Distribution dist;
  std::size_t n;
  std::size_t d;
  std::uint64_t seed;
};

class HullStressTest : public ::testing::TestWithParam<StressCase> {};

std::vector<StressCase> MakeHullCases() {
  std::vector<StressCase> cases;
  std::uint64_t seed = 1000;
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAnticorrelated,
        Distribution::kCorrelated}) {
    for (std::size_t d = 2; d <= 5; ++d) {
      for (std::size_t n : {20u, 120u, 600u}) {
        cases.push_back(StressCase{dist, n, d, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, HullStressTest,
                         ::testing::ValuesIn(MakeHullCases()),
                         [](const auto& info) {
                           return std::string(
                                      DistributionName(info.param.dist)) +
                                  "_d" + std::to_string(info.param.d) +
                                  "_n" + std::to_string(info.param.n);
                         });

TEST_P(HullStressTest, NoPointAboveAnyFacet) {
  const StressCase& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed);
  ConvexHull hull;
  if (ComputeConvexHull(pts, {}, &hull) != HullStatus::kOk) {
    GTEST_SKIP() << "degenerate draw";
  }
  for (std::size_t fi = 0; fi < hull.num_facets(); ++fi) {
    const HullFacet f = hull.facet(fi);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      ASSERT_LT(f.SignedDistance(pts[i]), 1e-6)
          << "point " << i << " above a facet";
    }
  }
  // Facet vertices are reported hull vertices.
  const std::set<std::int32_t> vertex_set(hull.vertices.begin(),
                                          hull.vertices.end());
  for (const std::int32_t v : hull.facet_vertices) {
    EXPECT_TRUE(vertex_set.count(v));
  }
}

TEST_P(HullStressTest, SentinelKeepsEveryPositiveMinimizer) {
  const StressCase& c = GetParam();
  const PointSet pts = Generate(c.dist, c.n, c.d, c.seed + 7);
  const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
  const std::set<TupleId> members(csky.members.begin(), csky.members.end());
  Rng rng(c.seed);
  for (int trial = 0; trial < 30; ++trial) {
    const Point w = rng.SimplexWeight(c.d);
    TupleId best = 0;
    double best_score = Score(w, pts[0]);
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const double s = Score(w, pts[i]);
      if (s < best_score) {
        best_score = s;
        best = static_cast<TupleId>(i);
      }
    }
    // A score-equal member may stand in for the argmin on exact ties.
    bool covered = members.count(best) > 0;
    if (!covered) {
      for (TupleId m : csky.members) {
        if (Score(w, pts[m]) <= best_score + 1e-12) {
          covered = true;
          break;
        }
      }
    }
    EXPECT_TRUE(covered) << "trial " << trial;
  }
}

TEST(Hull2DStressTest, MatchesDDimHullAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const PointSet pts = Generate(
        seed % 2 == 0 ? Distribution::kIndependent
                      : Distribution::kAnticorrelated,
        200 + 50 * seed, 2, 3000 + seed);
    ConvexHull hull;
    ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk);
    std::vector<std::int32_t> chain_hull = ConvexHull2D(pts);
    std::sort(chain_hull.begin(), chain_hull.end());
    std::vector<std::int32_t> dd = hull.vertices;
    std::sort(dd.begin(), dd.end());
    EXPECT_EQ(dd, chain_hull) << "seed " << seed;
  }
}

TEST(SimplexLpStressTest, RandomBoundedLpsHaveConsistentDuals) {
  // min c.x with x in [0,1]^d (box via constraints): the optimum is
  // attainable by the greedy corner; the LP must match it.
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t d = 1 + rng.Index(5);
    LinearProgram lp(d);
    std::vector<double> row(d, 0.0);
    for (std::size_t j = 0; j < d; ++j) {
      std::fill(row.begin(), row.end(), 0.0);
      row[j] = 1.0;
      lp.AddConstraint(row, LpRelation::kLessEq, 1.0);
    }
    std::vector<double> c(d);
    for (double& v : c) v = rng.Uniform(-1.0, 1.0);
    lp.SetMinimize(c);
    const LpResult result = lp.Solve();
    ASSERT_EQ(result.status, LpStatus::kOptimal);
    double greedy = 0.0;
    for (double v : c) greedy += std::min(v, 0.0);  // x_j = 1 iff c_j < 0
    EXPECT_NEAR(result.objective, greedy, 1e-9) << "trial " << trial;
  }
}

TEST(SimplexLpStressTest, KnapsackDualityWithEds) {
  // FacetIsEds(facet, t') must agree with the direct LP formulation
  // solved through a fresh program on random draws.
  Rng rng(10);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t d = 2 + rng.Index(3);
    const PointSet pts = GenerateAnticorrelated(30, d, 5000 + trial);
    std::vector<TupleId> facet;
    while (facet.size() < d) {
      const auto id = static_cast<TupleId>(rng.Index(pts.size()));
      if (std::find(facet.begin(), facet.end(), id) == facet.end()) {
        facet.push_back(id);
      }
    }
    const auto target = static_cast<TupleId>(rng.Index(pts.size()));
    // Direct formulation.
    LinearProgram lp(d);
    std::vector<double> row(d, 1.0);
    lp.AddConstraint(row, LpRelation::kEqual, 1.0);
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t m = 0; m < d; ++m) row[m] = pts[facet[m]][j];
      lp.AddConstraint(row, LpRelation::kLessEq, pts.At(target, j));
    }
    EXPECT_EQ(lp.IsFeasible(),
              FacetIsEds(pts, facet, pts[target]))
        << "trial " << trial;
  }
}

TEST(ConvexSkylineStressTest, PeelingTerminatesAndPartitions) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const std::size_t d = 2 + seed % 4;
    const PointSet pts = GenerateAnticorrelated(300, d, 7000 + seed);
    std::vector<bool> assigned(pts.size(), false);
    std::vector<TupleId> remaining(pts.size());
    std::iota(remaining.begin(), remaining.end(), 0);
    std::size_t guard = 0;
    while (!remaining.empty()) {
      ASSERT_LT(guard++, pts.size() + 1) << "peel did not terminate";
      const PointSet subset = pts.Subset(remaining);
      const ConvexSkylineResult csky = ComputeConvexSkyline(subset);
      ASSERT_FALSE(csky.members.empty());
      std::vector<bool> is_member(remaining.size(), false);
      for (TupleId local : csky.members) {
        ASSERT_LT(local, remaining.size());
        ASSERT_FALSE(is_member[local]);
        is_member[local] = true;
        ASSERT_FALSE(assigned[remaining[local]]);
        assigned[remaining[local]] = true;
      }
      std::vector<TupleId> next;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        if (!is_member[i]) next.push_back(remaining[i]);
      }
      remaining = std::move(next);
    }
    EXPECT_TRUE(std::all_of(assigned.begin(), assigned.end(),
                            [](bool b) { return b; }));
  }
}

}  // namespace
}  // namespace drli
