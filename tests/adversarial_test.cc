// Adversarial inputs: ties, duplicates, degenerate geometry. Floating
// point general position is the easy case; these datasets are the ones
// that break tolerance-based hulls and dominance bookkeeping.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "gtest/gtest.h"

#include "core/index_registry.h"
#include "data/generator.h"
#include "test_util.h"

namespace drli {
namespace {

void CheckAllIndexes(const PointSet& pts, std::size_t k,
                     std::uint64_t seed) {
  for (const std::string& kind : KnownIndexKinds()) {
    IndexBuildConfig config;
    config.kind = kind;
    auto index = BuildIndex(config, pts);
    ASSERT_TRUE(index.ok()) << kind;
    testing_util::ExpectMatchesScan(*index.value(), pts, k, 6, seed);
  }
}

// Integer grid: massive numbers of score ties and coordinate ties.
TEST(AdversarialTest, IntegerGrid2D) {
  PointSet pts(2);
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      pts.Add({x / 12.0, y / 12.0});
    }
  }
  CheckAllIndexes(pts, 10, 1);
}

TEST(AdversarialTest, IntegerGrid3D) {
  PointSet pts(3);
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 6; ++y) {
      for (int z = 0; z < 6; ++z) {
        pts.Add({x / 6.0, y / 6.0, z / 6.0});
      }
    }
  }
  CheckAllIndexes(pts, 15, 2);
}

// Every tuple lies on one anti-diagonal plane: the hull is degenerate
// in d >= 3 and the convex-skyline fallback must engage.
TEST(AdversarialTest, CoplanarAntidiagonal3D) {
  PointSet pts(3);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(0.0, 1.0);
    const double b = rng.Uniform(0.0, 1.0 - a);
    pts.Add({a, b, 1.0 - a - b});  // exact plane x + y + z = 1
  }
  CheckAllIndexes(pts, 10, 3);
}

TEST(AdversarialTest, CollinearPoints2D) {
  PointSet pts(2);
  for (int i = 0; i < 50; ++i) {
    pts.Add({0.01 * i, 0.5 - 0.01 * i});  // one descending line
  }
  CheckAllIndexes(pts, 7, 4);
}

TEST(AdversarialTest, ManyExactDuplicates) {
  PointSet pts(3);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const Point p = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    for (int copies = 0; copies < 5; ++copies) pts.Add(p);
  }
  CheckAllIndexes(pts, 12, 5);
}

TEST(AdversarialTest, NearDuplicateClusters) {
  PointSet pts(3);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.Uniform(), y = rng.Uniform(), z = rng.Uniform();
    for (int copies = 0; copies < 4; ++copies) {
      pts.Add({x + copies * 1e-12, y - copies * 1e-12, z});
    }
  }
  CheckAllIndexes(pts, 10, 6);
}

TEST(AdversarialTest, AllIdenticalTuples) {
  PointSet pts(4);
  for (int i = 0; i < 64; ++i) pts.Add({0.3, 0.4, 0.5, 0.6});
  CheckAllIndexes(pts, 10, 7);
}

TEST(AdversarialTest, SingleAttributeSpread) {
  // Only one attribute varies: total order, layers of size one.
  PointSet pts(3);
  for (int i = 0; i < 80; ++i) {
    pts.Add({i / 80.0, 0.5, 0.5});
  }
  CheckAllIndexes(pts, 9, 8);
}

TEST(AdversarialTest, AxisAlignedExtremes) {
  // Points on the coordinate axes plus the center: stresses boundary
  // weight handling (minimizers at w -> e_i).
  PointSet pts(3);
  for (int i = 1; i <= 20; ++i) {
    pts.Add({i / 20.0, 1e-6, 1e-6});
    pts.Add({1e-6, i / 20.0, 1e-6});
    pts.Add({1e-6, 1e-6, i / 20.0});
  }
  pts.Add({0.33, 0.33, 0.33});
  CheckAllIndexes(pts, 8, 9);
}

TEST(AdversarialTest, TwoClustersFarApart) {
  PointSet pts(4);
  Rng rng(10);
  for (int i = 0; i < 60; ++i) {
    pts.Add({rng.Uniform(0.0, 0.05), rng.Uniform(0.0, 0.05),
             rng.Uniform(0.0, 0.05), rng.Uniform(0.0, 0.05)});
    pts.Add({rng.Uniform(0.95, 1.0), rng.Uniform(0.95, 1.0),
             rng.Uniform(0.95, 1.0), rng.Uniform(0.95, 1.0)});
  }
  CheckAllIndexes(pts, 10, 10);
}

// Degenerate-input audit: every registered family must survive the
// empty relation, a single tuple, k = 0, k = n, and k > n, returning
// exactly min(k, n) tuples in canonical order and agreeing with the
// scan oracle throughout.
TEST(DegenerateInputTest, EveryFamilyHandlesDegenerateShapes) {
  Rng rng(99);
  for (const std::size_t d : {2u, 3u}) {
    for (const std::size_t n : {0u, 1u, 2u, 5u}) {
      PointSet pts(d);
      for (std::size_t i = 0; i < n; ++i) {
        Point p;
        for (std::size_t a = 0; a < d; ++a) p.push_back(rng.Uniform());
        pts.Add(PointView(p));
      }
      for (const std::string& kind : KnownIndexKinds()) {
        IndexBuildConfig config;
        config.kind = kind;
        auto index = BuildIndex(config, pts);
        ASSERT_TRUE(index.ok()) << kind << " n=" << n << " d=" << d;
        for (const std::size_t k :
             {std::size_t{0}, std::size_t{1}, n, n + 1, n + 7}) {
          TopKQuery query;
          query.weights = rng.SimplexWeight(d);
          query.k = k;
          const TopKResult result = index.value()->Query(query);
          const std::string what = kind + " n=" + std::to_string(n) +
                                   " d=" + std::to_string(d) +
                                   " k=" + std::to_string(k);
          ASSERT_EQ(result.items.size(), std::min(k, n)) << what;
          for (std::size_t r = 0; r < result.items.size(); ++r) {
            EXPECT_LT(result.items[r].id, n) << what;
            if (r > 0) {
              EXPECT_FALSE(
                  ResultOrderLess(result.items[r], result.items[r - 1]))
                  << what << " rank " << r;
            }
          }
          EXPECT_TRUE(testing_util::ResultsEquivalent(Scan(pts, query),
                                                      result))
              << what;
        }
      }
    }
  }
}

// The TopKResult contract on the empty relation: a complete run with
// nothing to return certifies everything, so frontier_bound is +inf.
TEST(DegenerateInputTest, EmptyRelationIsACompleteEmptyAnswer) {
  for (const std::size_t d : {2u, 3u}) {
    const PointSet pts(d);
    for (const std::string& kind : KnownIndexKinds()) {
      IndexBuildConfig config;
      config.kind = kind;
      auto index = BuildIndex(config, pts);
      ASSERT_TRUE(index.ok()) << kind << " d=" << d;
      for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
        TopKQuery query;
        query.weights.assign(d, 1.0 / static_cast<double>(d));
        query.k = k;
        const TopKResult result = index.value()->Query(query);
        const std::string what =
            kind + " d=" + std::to_string(d) + " k=" + std::to_string(k);
        EXPECT_TRUE(result.complete()) << what;
        EXPECT_TRUE(result.items.empty()) << what;
        EXPECT_EQ(result.certified_prefix, 0u) << what;
        EXPECT_EQ(result.frontier_bound,
                  std::numeric_limits<double>::infinity())
            << what;
        EXPECT_EQ(result.stats.tuples_evaluated, 0u) << what;
      }
    }
  }
}

TEST(AdversarialTest, PowersOfTwoMagnitudes) {
  // Mixed magnitudes probe the fixed epsilons in the hull machinery.
  PointSet pts(3);
  Rng rng(11);
  for (int i = 0; i < 150; ++i) {
    const int e1 = static_cast<int>(rng.Index(10));
    const int e2 = static_cast<int>(rng.Index(10));
    const int e3 = static_cast<int>(rng.Index(10));
    pts.Add({std::ldexp(rng.Uniform(0.5, 1.0), -e1),
             std::ldexp(rng.Uniform(0.5, 1.0), -e2),
             std::ldexp(rng.Uniform(0.5, 1.0), -e3)});
  }
  CheckAllIndexes(pts, 10, 11);
}

}  // namespace
}  // namespace drli
