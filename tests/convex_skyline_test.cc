#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/eds.h"
#include "data/generator.h"
#include "geometry/convex_skyline.h"
#include "geometry/simplex_lp.h"
#include "test_util.h"

namespace drli {
namespace {

// Exact oracle for Definition 4: t is a convex-skyline tuple iff some
// strictly positive weight vector makes it a global minimizer. Scale
// freedom lets us demand w_i >= 1 instead of sum w = 1.
bool IsConvexSkylineByLp(const PointSet& points, std::size_t t) {
  const std::size_t d = points.dim();
  LinearProgram lp(d);
  std::vector<double> row(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    std::fill(row.begin(), row.end(), 0.0);
    row[j] = 1.0;
    lp.AddConstraint(row, LpRelation::kGreaterEq, 1.0);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == t) continue;
    for (std::size_t j = 0; j < d; ++j) {
      row[j] = points[i][j] - points[t][j];
    }
    lp.AddConstraint(row, LpRelation::kGreaterEq, 0.0);
  }
  return lp.IsFeasible();
}

// Asserts the canonical facet order of ConvexSkylineResult: corner sums
// non-increasing, ties strictly ascending by sorted vertex ids.
void ExpectCanonicalFacetOrder(const PointSet& pts,
                               const ConvexSkylineResult& csky,
                               const std::string& label) {
  std::vector<std::pair<double, std::vector<TupleId>>> keys;
  for (std::size_t f = 0; f < csky.num_facets(); ++f) {
    const std::span<const TupleId> facet = csky.facet(f);
    const Point corner = FacetMinCorner(pts, facet);
    double sum = 0.0;
    for (const double c : corner) sum += c;
    std::vector<TupleId> sorted(facet.begin(), facet.end());
    std::sort(sorted.begin(), sorted.end());
    keys.emplace_back(sum, std::move(sorted));
  }
  for (std::size_t f = 1; f < keys.size(); ++f) {
    const auto& [prev_sum, prev_ids] = keys[f - 1];
    const auto& [sum, ids] = keys[f];
    EXPECT_TRUE(prev_sum > sum || (prev_sum == sum && prev_ids < ids))
        << label << " facet " << f;
  }
}

TEST(ConvexSkylineTest, FacetsComeInCanonicalOrder) {
  for (std::size_t d = 2; d <= 5; ++d) {
    for (const Distribution dist :
         {Distribution::kIndependent, Distribution::kAnticorrelated}) {
      const PointSet pts = Generate(dist, 400, d, 90 + d);
      const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
      ASSERT_TRUE(csky.exact) << d;
      ASSERT_GT(csky.num_facets(), 1u) << d;
      ExpectCanonicalFacetOrder(pts, csky, "d=" + std::to_string(d));
      if (d == 2) continue;  // d == 2 keeps chain order within a facet
      for (std::size_t f = 0; f < csky.num_facets(); ++f) {
        const std::span<const TupleId> facet = csky.facet(f);
        EXPECT_TRUE(std::is_sorted(facet.begin(), facet.end())) << d;
      }
    }
  }
  // The fallback's one pseudo-facet holds every member, ascending.
  PointSet flat(3);
  for (int i = 0; i < 30; ++i) flat.Add({i * 0.03, 0.9 - i * 0.03, 0.5});
  const ConvexSkylineResult fallback = ComputeConvexSkyline(flat);
  ASSERT_FALSE(fallback.exact);
  ASSERT_EQ(fallback.num_facets(), 1u);
  EXPECT_EQ(fallback.facet_ids, fallback.members);
  ExpectCanonicalFacetOrder(flat, fallback, "fallback");
}

// The members and the facet set depend on the point set, not on the
// order of its rows (and so not on the order the hull inserts them).
TEST(ConvexSkylineTest, RowOrderLeavesMembersAndFacetsUnchanged) {
  for (std::size_t d = 3; d <= 5; ++d) {
    const PointSet pts = GenerateIndependent(500, d, 110 + d);
    const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
    ASSERT_TRUE(csky.exact) << d;
    std::set<std::vector<TupleId>> facets;
    for (std::size_t f = 0; f < csky.num_facets(); ++f) {
      facets.emplace(csky.facet(f).begin(), csky.facet(f).end());
    }
    ASSERT_EQ(facets.size(), csky.num_facets()) << d;
    Rng rng(120 + d);
    for (int trial = 0; trial < 3; ++trial) {
      // shuffled row r is original row perm[r].
      std::vector<TupleId> perm(pts.size());
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng.engine());
      PointSet shuffled(d);
      for (const TupleId id : perm) shuffled.Add(pts[id]);
      const ConvexSkylineResult got = ComputeConvexSkyline(shuffled);
      ASSERT_TRUE(got.exact) << d;
      std::vector<TupleId> members;
      for (const TupleId r : got.members) members.push_back(perm[r]);
      std::sort(members.begin(), members.end());
      EXPECT_EQ(members, csky.members) << "d=" << d << " trial " << trial;
      std::set<std::vector<TupleId>> got_facets;
      for (std::size_t f = 0; f < got.num_facets(); ++f) {
        std::vector<TupleId> mapped;
        for (const TupleId r : got.facet(f)) mapped.push_back(perm[r]);
        std::sort(mapped.begin(), mapped.end());
        got_facets.insert(std::move(mapped));
      }
      EXPECT_EQ(got_facets, facets) << "d=" << d << " trial " << trial;
    }
  }
}

TEST(ConvexSkylineTest, ToyDatasetFirstLayer) {
  const PointSet pts = testing_util::MakeToyDataset();
  const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
  EXPECT_TRUE(csky.exact);
  EXPECT_EQ(csky.members,
            (std::vector<TupleId>{testing_util::kA, testing_util::kB,
                                  testing_util::kC}));
  // Facets {a,b} and {b,c} (Example 2).
  ASSERT_EQ(csky.num_facets(), 2u);
  EXPECT_EQ(csky.facet_ids,
            (std::vector<TupleId>{testing_util::kA, testing_util::kB,
                                  testing_util::kB, testing_util::kC}));
}

TEST(ConvexSkylineTest, MembersContainEveryPositiveMinimizer2D) {
  const PointSet pts = GenerateAnticorrelated(500, 2, 3);
  const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
  const std::set<TupleId> members(csky.members.begin(), csky.members.end());
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const Point w = rng.SimplexWeight(2);
    TupleId best = 0;
    double best_score = Score(w, pts[0]);
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const double s = Score(w, pts[i]);
      if (s < best_score) {
        best_score = s;
        best = static_cast<TupleId>(i);
      }
    }
    EXPECT_TRUE(members.count(best));
  }
}

TEST(ConvexSkylineTest, MembersContainEveryPositiveMinimizerHighD) {
  for (std::size_t d = 3; d <= 5; ++d) {
    const PointSet pts = GenerateIndependent(400, d, 40 + d);
    const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
    ASSERT_TRUE(csky.exact) << d;
    const std::set<TupleId> members(csky.members.begin(),
                                    csky.members.end());
    Rng rng(d);
    for (int trial = 0; trial < 100; ++trial) {
      const Point w = rng.SimplexWeight(d);
      TupleId best = 0;
      double best_score = Score(w, pts[0]);
      for (std::size_t i = 1; i < pts.size(); ++i) {
        const double s = Score(w, pts[i]);
        if (s < best_score) {
          best_score = s;
          best = static_cast<TupleId>(i);
        }
      }
      EXPECT_TRUE(members.count(best))
          << "d=" << d << " trial=" << trial << " argmin " << best;
    }
  }
}

TEST(ConvexSkylineTest, MembersSupersetOfLpOracle3D) {
  const PointSet pts = GenerateIndependent(60, 3, 77);
  const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
  ASSERT_TRUE(csky.exact);
  const std::set<TupleId> members(csky.members.begin(), csky.members.end());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (IsConvexSkylineByLp(pts, i)) {
      EXPECT_TRUE(members.count(static_cast<TupleId>(i))) << "tuple " << i;
    }
  }
}

TEST(ConvexSkylineTest, FacetMembersAreLayerMembers) {
  for (std::size_t d = 2; d <= 5; ++d) {
    const PointSet pts = GenerateAnticorrelated(300, d, 60 + d);
    const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
    const std::set<TupleId> members(csky.members.begin(),
                                    csky.members.end());
    for (const TupleId id : csky.facet_ids) {
      EXPECT_TRUE(members.count(id)) << "d=" << d;
    }
  }
}

TEST(ConvexSkylineTest, SmallInputsFallBackToAllMembers) {
  PointSet pts(3);
  pts.Add({0.1, 0.2, 0.3});
  pts.Add({0.3, 0.2, 0.1});
  const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
  EXPECT_FALSE(csky.exact);
  EXPECT_EQ(csky.members.size(), 2u);
  ASSERT_EQ(csky.num_facets(), 1u);
  EXPECT_EQ(csky.facet(0).size(), 2u);
}

TEST(ConvexSkylineTest, DegenerateFlatInputFallsBack) {
  PointSet pts(3);
  for (int i = 0; i < 30; ++i) {
    pts.Add({i * 0.03, 0.9 - i * 0.03, 0.5});  // all on a plane
  }
  const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
  EXPECT_FALSE(csky.exact);
  EXPECT_EQ(csky.members.size(), 30u);
}

TEST(ConvexSkylineTest, EmptyInput) {
  PointSet pts(4);
  const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
  EXPECT_TRUE(csky.members.empty());
  EXPECT_EQ(csky.num_facets(), 0u);
}

TEST(ConvexSkylineTest, MembersAreSubsetOfSkylineOnSkylineInput) {
  // When the input is already a skyline (mutually incomparable), the
  // convex skyline must be a strict subset in general; at minimum every
  // member must be a real input index.
  const PointSet pts = GenerateAnticorrelated(800, 3, 8);
  const ConvexSkylineResult csky = ComputeConvexSkyline(pts);
  for (TupleId id : csky.members) {
    EXPECT_LT(id, pts.size());
  }
  EXPECT_FALSE(csky.members.empty());
  EXPECT_LE(csky.members.size(), pts.size());
}

}  // namespace
}  // namespace drli
