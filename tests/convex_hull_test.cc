#include <algorithm>
#include <set>

#include "gtest/gtest.h"

#include "common/random.h"
#include "data/generator.h"
#include "geometry/convex_hull.h"
#include "geometry/convex_hull_2d.h"
#include "geometry/linalg.h"
#include "geometry/simplex_lp.h"

namespace drli {
namespace {

// Oracle: v is a vertex of conv(points) iff it cannot be written as a
// convex combination of the other points (LP feasibility).
bool IsVertexByLp(const PointSet& points, std::size_t v) {
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  LinearProgram lp(n - 1);
  std::vector<double> row(n - 1, 1.0);
  lp.AddConstraint(row, LpRelation::kEqual, 1.0);
  for (std::size_t j = 0; j < d; ++j) {
    std::size_t col = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == v) continue;
      row[col++] = points[i][j];
    }
    lp.AddConstraint(row, LpRelation::kEqual, points[v][j]);
  }
  return !lp.IsFeasible();
}

void CheckHullInvariants(const PointSet& points, const ConvexHull& hull,
                         bool sentinel_used) {
  const std::size_t d = points.dim();
  // Every facet has d vertices, a unit normal, and no point of the set
  // lies meaningfully above it.
  for (std::size_t fi = 0; fi < hull.num_facets(); ++fi) {
    const HullFacet f = hull.facet(fi);
    ASSERT_EQ(f.vertices.size(), d);
    EXPECT_NEAR(Norm(f.normal), 1.0, 1e-9);
    for (std::int32_t v : f.vertices) {
      EXPECT_NEAR(f.SignedDistance(points[v]), 0.0, 1e-7);
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_LT(f.SignedDistance(points[i]), 1e-6)
          << "point " << i << " above facet";
    }
    if (!sentinel_used) {
      // Neighbour links are symmetric and share a ridge.
      for (std::size_t s = 0; s < d; ++s) {
        const std::int32_t nb = f.neighbors[s];
        ASSERT_GE(nb, 0);
        ASSERT_LT(nb, static_cast<std::int32_t>(hull.num_facets()));
      }
    }
  }
}

TEST(ConvexHullTest, Simplex3D) {
  PointSet pts(3);
  pts.Add({0, 0, 0});
  pts.Add({1, 0, 0});
  pts.Add({0, 1, 0});
  pts.Add({0, 0, 1});
  pts.Add({0.2, 0.2, 0.2});  // interior
  ConvexHull hull;
  ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk);
  EXPECT_EQ(hull.num_facets(), 4u);
  EXPECT_EQ(std::set<std::int32_t>(hull.vertices.begin(), hull.vertices.end()),
            (std::set<std::int32_t>{0, 1, 2, 3}));
  CheckHullInvariants(pts, hull, false);
}

TEST(ConvexHullTest, Cube3D) {
  PointSet pts(3);
  for (int x = 0; x <= 1; ++x) {
    for (int y = 0; y <= 1; ++y) {
      for (int z = 0; z <= 1; ++z) {
        pts.Add({static_cast<double>(x), static_cast<double>(y),
                 static_cast<double>(z)});
      }
    }
  }
  pts.Add({0.5, 0.5, 0.5});
  ConvexHull hull;
  ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk);
  EXPECT_EQ(hull.vertices.size(), 8u);
  // A triangulated cube has 12 facets.
  EXPECT_EQ(hull.num_facets(), 12u);
  CheckHullInvariants(pts, hull, false);
}

TEST(ConvexHullTest, DegenerateInputsReported) {
  // Too few points.
  PointSet few(3);
  few.Add({0, 0, 0});
  few.Add({1, 0, 0});
  ConvexHull hull;
  EXPECT_EQ(ComputeConvexHull(few, {}, &hull), HullStatus::kDegenerate);

  // Coplanar 3-d points.
  PointSet flat(3);
  for (int i = 0; i < 20; ++i) {
    flat.Add({i * 0.05, 1.0 - i * 0.05, 0.5});
  }
  EXPECT_EQ(ComputeConvexHull(flat, {}, &hull), HullStatus::kDegenerate);
}

TEST(ConvexHullTest, MatchesMonotoneChainIn2D) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const PointSet pts = GenerateIndependent(300, 2, seed);
    ConvexHull hull;
    ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk);
    std::vector<std::int32_t> expected = ConvexHull2D(pts);
    std::sort(expected.begin(), expected.end());
    std::vector<std::int32_t> got = hull.vertices;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

TEST(ConvexHullTest, VerticesMatchLpOracleSmall3D) {
  for (std::uint64_t seed : {10u, 11u}) {
    const PointSet pts = GenerateIndependent(40, 3, seed);
    ConvexHull hull;
    ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk);
    const std::set<std::int32_t> hull_set(hull.vertices.begin(),
                                          hull.vertices.end());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(hull_set.count(static_cast<std::int32_t>(i)) > 0,
                IsVertexByLp(pts, i))
          << "point " << i << " seed " << seed;
    }
  }
}

TEST(ConvexHullTest, VerticesMatchLpOracleSmall4D) {
  const PointSet pts = GenerateIndependent(30, 4, 21);
  ConvexHull hull;
  ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk);
  const std::set<std::int32_t> hull_set(hull.vertices.begin(),
                                        hull.vertices.end());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(hull_set.count(static_cast<std::int32_t>(i)) > 0,
              IsVertexByLp(pts, i))
        << "point " << i;
  }
}

TEST(ConvexHullTest, AllPointsInsideHullFacets) {
  for (std::size_t d = 3; d <= 5; ++d) {
    const PointSet pts =
        GenerateAnticorrelated(400, d, 100 + d);
    ConvexHull hull;
    ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk) << d;
    CheckHullInvariants(pts, hull, false);
  }
}

TEST(ConvexHullTest, SentinelPreservesLowerFacets) {
  const PointSet pts = GenerateIndependent(200, 3, 7);
  ConvexHull plain, with_sentinel;
  ASSERT_EQ(ComputeConvexHull(pts, {}, &plain), HullStatus::kOk);
  ConvexHullOptions options;
  options.add_top_sentinel = true;
  ASSERT_EQ(ComputeConvexHull(pts, options, &with_sentinel), HullStatus::kOk);

  auto lower_facets = [](const ConvexHull& hull) {
    std::set<std::set<std::int32_t>> out;
    for (std::size_t fi = 0; fi < hull.num_facets(); ++fi) {
      const HullFacet f = hull.facet(fi);
      bool lower = true;
      for (double n : f.normal) {
        if (n > 1e-9) lower = false;
      }
      if (lower) {
        out.insert(
            std::set<std::int32_t>(f.vertices.begin(), f.vertices.end()));
      }
    }
    return out;
  };
  EXPECT_EQ(lower_facets(plain), lower_facets(with_sentinel));
}

TEST(ConvexHullTest, VertexAdjacencySymmetric) {
  const PointSet pts = GenerateIndependent(100, 3, 13);
  ConvexHull hull;
  ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk);
  const auto adj =
      BuildVertexAdjacency(hull, std::vector<bool>(pts.size(), true));
  for (std::size_t v = 0; v < adj.size(); ++v) {
    for (const CsrGraph::NodeId u : adj[v]) {
      const auto back = adj[u];
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(),
                                     static_cast<CsrGraph::NodeId>(v)));
    }
  }
  // Non-vertices have no adjacency.
  const std::set<std::int32_t> hull_set(hull.vertices.begin(),
                                        hull.vertices.end());
  for (std::size_t v = 0; v < adj.size(); ++v) {
    if (!hull_set.count(static_cast<std::int32_t>(v))) {
      EXPECT_TRUE(adj[v].empty());
    }
  }
}

TEST(ConvexHullTest, LargerRandomHulls) {
  for (std::size_t d = 2; d <= 5; ++d) {
    const PointSet pts = GenerateIndependent(2000, d, 55 + d);
    ConvexHull hull;
    ASSERT_EQ(ComputeConvexHull(pts, {}, &hull), HullStatus::kOk) << d;
    ASSERT_GT(hull.num_facets(), 0u);
    // Spot-check containment on a sample of points.
    Rng rng(3);
    for (int s = 0; s < 50; ++s) {
      const std::size_t i = rng.Index(pts.size());
      for (std::size_t fi = 0; fi < hull.num_facets(); ++fi) {
        EXPECT_LT(hull.facet(fi).SignedDistance(pts[i]), 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace drli
