// Property-based tests: invariants that must hold for every index on
// randomized inputs, beyond pointwise agreement with the scan oracle.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/kernels_batch.h"
#include "common/simd.h"
#include "common/soa_points.h"
#include "core/dual_layer.h"
#include "core/index_registry.h"
#include "core/partition_merge.h"
#include "data/generator.h"
#include "scenarios/diversified.h"
#include "test_util.h"

namespace drli {
namespace {

struct PropertyCase {
  std::string kind;
  Distribution dist;
  std::size_t d;
};

class IndexPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  void SetUp() override {
    points_ = Generate(GetParam().dist, 500, GetParam().d, 90);
    IndexBuildConfig config;
    config.kind = GetParam().kind;
    auto built = BuildIndex(config, points_);
    ASSERT_TRUE(built.ok());
    index_ = std::move(built).value();
  }

  PointSet points_{1};
  std::unique_ptr<TopKIndex> index_;
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexPropertyTest,
    ::testing::Values(
        PropertyCase{"dl", Distribution::kIndependent, 3},
        PropertyCase{"dl", Distribution::kAnticorrelated, 4},
        PropertyCase{"dl+", Distribution::kIndependent, 2},
        PropertyCase{"dl+", Distribution::kAnticorrelated, 4},
        PropertyCase{"dg", Distribution::kAnticorrelated, 3},
        PropertyCase{"dg+", Distribution::kIndependent, 4},
        PropertyCase{"hl+", Distribution::kAnticorrelated, 3},
        PropertyCase{"onion", Distribution::kIndependent, 3},
        PropertyCase{"ta", Distribution::kAnticorrelated, 3},
        PropertyCase{"nra", Distribution::kIndependent, 3}),
    [](const auto& info) {
      std::string name = info.param.kind + "_" +
                         DistributionName(info.param.dist) + "_d" +
                         std::to_string(info.param.d);
      for (char& c : name) {
        if (c == '+') c = 'p';
      }
      return name;
    });

TEST_P(IndexPropertyTest, ResultsSortedAscending) {
  for (const TopKQuery& query :
       testing_util::RandomQueries(points_.dim(), 20, 10, 1)) {
    const TopKResult result = index_->Query(query);
    for (std::size_t i = 1; i < result.items.size(); ++i) {
      EXPECT_LE(result.items[i - 1].score, result.items[i].score);
    }
  }
}

TEST_P(IndexPropertyTest, ScoresMatchWeights) {
  // Reported scores must equal the scoring function applied to the
  // reported tuple.
  for (const TopKQuery& query :
       testing_util::RandomQueries(points_.dim(), 10, 10, 2)) {
    const TopKResult result = index_->Query(query);
    for (const ScoredTuple& item : result.items) {
      EXPECT_NEAR(item.score, Score(query.weights, points_[item.id]),
                  1e-12);
    }
  }
}

TEST_P(IndexPropertyTest, LargerKExtendsPrefix) {
  for (const TopKQuery& base :
       testing_util::RandomQueries(points_.dim(), 10, 6, 3)) {
    TopKQuery larger = base;
    larger.k = base.k + 15;
    const TopKResult small = index_->Query(base);
    const TopKResult big = index_->Query(larger);
    ASSERT_GE(big.items.size(), small.items.size());
    for (std::size_t i = 0; i < small.items.size(); ++i) {
      EXPECT_NEAR(small.items[i].score, big.items[i].score, 1e-12)
          << "rank " << i;
    }
  }
}

TEST_P(IndexPropertyTest, CostMonotoneInK) {
  for (const TopKQuery& base :
       testing_util::RandomQueries(points_.dim(), 5, 6, 4)) {
    TopKQuery larger = base;
    larger.k = 40;
    EXPECT_LE(index_->Query(base).stats.tuples_evaluated,
              index_->Query(larger).stats.tuples_evaluated);
  }
}

TEST_P(IndexPropertyTest, QueriesAreDeterministic) {
  for (const TopKQuery& query :
       testing_util::RandomQueries(points_.dim(), 10, 5, 5)) {
    const TopKResult a = index_->Query(query);
    const TopKResult b = index_->Query(query);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (std::size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].id, b.items[i].id);
      EXPECT_EQ(a.items[i].score, b.items[i].score);
    }
    EXPECT_EQ(a.stats.tuples_evaluated, b.stats.tuples_evaluated);
  }
}

TEST_P(IndexPropertyTest, NoDuplicateIdsInResult) {
  for (const TopKQuery& query :
       testing_util::RandomQueries(points_.dim(), 30, 6, 6)) {
    const TopKResult result = index_->Query(query);
    std::vector<TupleId> ids;
    for (const ScoredTuple& item : result.items) ids.push_back(item.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  }
}

// Structural transformations preserve answers.
// Pairs engineered to hit every comparison branch: random general
// position, exact equality, single-attribute perturbations, and
// partial ties from grid snapping.
std::vector<std::pair<Point, Point>> KernelPairs(std::size_t d,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Point, Point>> pairs;
  auto random_point = [&] {
    Point p;
    for (std::size_t a = 0; a < d; ++a) p.push_back(rng.Uniform());
    return p;
  };
  for (int i = 0; i < 200; ++i) {
    pairs.emplace_back(random_point(), random_point());
  }
  for (int i = 0; i < 100; ++i) {
    const Point p = random_point();
    pairs.emplace_back(p, p);  // exact equality
    Point q = p;
    q[rng.Index(d)] += rng.Uniform(-0.5, 0.5);  // differ in one attribute
    pairs.emplace_back(p, q);
    Point snapped_a = p, snapped_b = random_point();
    for (std::size_t a = 0; a < d; ++a) {
      snapped_a[a] = std::round(snapped_a[a] * 4.0) / 4.0;
      snapped_b[a] = std::round(snapped_b[a] * 4.0) / 4.0;
    }
    pairs.emplace_back(snapped_a, snapped_b);  // partial ties
  }
  return pairs;
}

// The d = 2/3/4 unrolled kernels advertise bit-identical results to
// the generic loop; cross-check all four kernels on both paths.
TEST(KernelCrossCheckTest, UnrolledMatchesGenericBitwise) {
  for (const std::size_t d : {2u, 3u, 4u}) {
    Rng rng(1000 + d);
    for (const auto& [a, b] : KernelPairs(d, 500 + d)) {
      const PointView va(a), vb(b);
      EXPECT_EQ(Dominates(va, vb), point_internal::DominatesGeneric(va, vb));
      EXPECT_EQ(WeaklyDominates(va, vb),
                point_internal::WeaklyDominatesGeneric(va, vb));
      EXPECT_EQ(Compare(va, vb), point_internal::CompareGeneric(va, vb));
      const Point w = rng.SimplexWeight(d);
      // Bitwise equality, not EXPECT_NEAR: the unrolled Score must
      // round identically to the generic left-to-right sum.
      EXPECT_EQ(Score(w, va), point_internal::ScoreGeneric(w, va));
      EXPECT_EQ(Score(w, vb), point_internal::ScoreGeneric(w, vb));
    }
  }
}

// d = 5 exercises only the generic path, so pin its semantics through
// the predicate algebra instead of a second implementation.
TEST(KernelCrossCheckTest, GenericD5SelfConsistent) {
  const std::size_t d = 5;
  Rng rng(77);
  for (const auto& [a, b] : KernelPairs(d, 42)) {
    const PointView va(a), vb(b);
    const bool dom = Dominates(va, vb);
    const bool weak = Dominates(va, vb) || a == b;
    EXPECT_EQ(WeaklyDominates(va, vb), weak);
    if (dom) {
      EXPECT_FALSE(Dominates(vb, va));  // antisymmetry
      const Point w = rng.SimplexWeight(d);
      EXPECT_LE(Score(w, va), Score(w, vb));  // monotone consequence
    }
    switch (Compare(va, vb)) {
      case DomRel::kEqual:
        EXPECT_EQ(a, b);
        break;
      case DomRel::kDominates:
        EXPECT_TRUE(dom);
        break;
      case DomRel::kDominatedBy:
        EXPECT_TRUE(Dominates(vb, va));
        break;
      case DomRel::kIncomparable:
        EXPECT_FALSE(dom);
        EXPECT_FALSE(Dominates(vb, va));
        EXPECT_NE(a, b);
        break;
    }
  }
}

// Point material for the batched-kernel cross-checks: random rows plus
// NaN-free degenerate rows (all-zero, all-one, exact duplicates, grid
// ties, constant attributes) that stress the exact predicates.
PointSet BatchKernelPoints(std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  PointSet pts(d);
  pts.Add(Point(d, 0.0));
  pts.Add(Point(d, 1.0));
  pts.Add(Point(d, 0.5));
  for (int i = 0; i < 40; ++i) {
    Point p;
    for (std::size_t a = 0; a < d; ++a) p.push_back(rng.Uniform());
    pts.Add(p);
    Point snapped = p;
    for (std::size_t a = 0; a < d; ++a) {
      snapped[a] = std::round(snapped[a] * 4.0) / 4.0;  // partial ties
    }
    pts.Add(snapped);
    pts.Add(p);  // exact duplicate
  }
  for (int i = 0; i < 10; ++i) {
    Point p(d, rng.Uniform());  // constant across attributes
    pts.Add(p);
  }
  return pts;
}

// The batched kernels advertise bit-identical scores and identical
// predicate outcomes versus the scalar references, on the active
// dispatch target and on the forced-scalar path, for every batch size
// 1..17 (covering sub-width batches and unaligned vector tails).
TEST(KernelCrossCheckTest, BatchedMatchesScalarBitwise) {
  namespace ki = kernel_internal;
  for (const bool force_scalar : {false, true}) {
    ForceScalarKernels(force_scalar);
    if (force_scalar) {
      ASSERT_EQ(ActiveSimdTarget(), SimdTarget::kScalar);
    }
    for (const std::size_t d : {2u, 3u, 4u, 5u}) {
      const PointSet pts = BatchKernelPoints(d, 900 + d);
      const SoaPointSet soa = SoaPointSet::FromPointSet(pts);
      ASSERT_EQ(soa.size(), pts.size());
      ASSERT_EQ(soa.dim(), d);
      Rng rng(7000 + d);
      const ScoreBatchFn resolved = ResolveScoreBatch();
      for (std::size_t count = 1; count <= 17; ++count) {
        std::vector<std::uint32_t> ids(count);
        for (std::uint32_t& id : ids) {
          id = static_cast<std::uint32_t>(rng.Index(pts.size()));
        }
        const Point w = rng.SimplexWeight(d);
        std::vector<double> batched(count), reference(count);
        ScoreBatch(w, soa, ids.data(), count, batched.data());
        ki::ScoreBatchScalar(w, soa, ids.data(), count, reference.data());
        std::vector<double> via_resolved(count);
        resolved(w, soa, ids.data(), count, via_resolved.data());
        const std::uint32_t first =
            static_cast<std::uint32_t>(rng.Index(pts.size() - count + 1));
        std::vector<double> ranged(count), range_ref(count);
        ScoreRange(w, soa, first, count, ranged.data());
        ki::ScoreRangeScalar(w, soa, first, count, range_ref.data());
        for (std::size_t i = 0; i < count; ++i) {
          // Bitwise equality, not EXPECT_NEAR: same FP ops, same order.
          EXPECT_EQ(batched[i], reference[i]);
          EXPECT_EQ(via_resolved[i], batched[i]);
          EXPECT_EQ(reference[i], Score(w, pts[ids[i]]));
          EXPECT_EQ(ranged[i], range_ref[i]);
          EXPECT_EQ(range_ref[i], Score(w, pts[first + i]));
        }
        const PointView q = pts[rng.Index(pts.size())];
        EXPECT_EQ(DominatesAnyBatch(soa, ids.data(), count, q),
                  ki::DominatesAnyBatchScalar(soa, ids.data(), count, q));
        bool any_scalar = false;
        for (std::size_t i = 0; i < count && !any_scalar; ++i) {
          any_scalar = Dominates(pts[ids[i]], q);
        }
        EXPECT_EQ(DominatesAnyBatch(soa, ids.data(), count, q), any_scalar);
        std::vector<DomRel> rels(count), rels_ref(count);
        CompareBatch(soa, ids.data(), count, q, rels.data());
        ki::CompareBatchScalar(soa, ids.data(), count, q, rels_ref.data());
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(rels[i], rels_ref[i]);
          EXPECT_EQ(rels[i], Compare(pts[ids[i]], q));
        }
      }
    }
  }
  ForceScalarKernels(false);
}

// The merge's fused bound pass: ScoreMinRange, dispatched and scalar,
// equals CornerLowerBound over the same rows bit for bit, for d = 2..6,
// every range length 0..9 at random offsets, and zero minima of either
// sign (the one case the lane fold order could change); an empty range
// is +inf.
TEST(KernelCrossCheckTest, ScoreMinRangeMatchesCornerLowerBoundBitwise) {
  namespace ki = kernel_internal;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const bool force_scalar : {false, true}) {
    ForceScalarKernels(force_scalar);
    for (std::size_t d = 2; d <= 6; ++d) {
      PointSet pts = BatchKernelPoints(d, 1500 + d);
      Rng rng(8100 + d);
      for (int i = 0; i < 40; ++i) {
        // Signed zeros: 0.5 * -0.0 sums to -0.0 on the unrolled d <= 4
        // path and to +0.0 on the generic one.
        pts.Add(Point(d, rng.Index(2) == 0 ? -0.0 : 0.0));
      }
      const SoaPointSet soa = SoaPointSet::FromPointSet(pts);
      for (std::size_t count = 0; count <= 9; ++count) {
        for (int trial = 0; trial < 40; ++trial) {
          const std::size_t first = rng.Index(pts.size() - count + 1);
          const Point w = trial == 0 ? Point(d, 1.0 / static_cast<double>(d))
                                     : rng.SimplexWeight(d);
          const std::vector<double> corners(
              pts.raw().begin() + static_cast<std::ptrdiff_t>(first * d),
              pts.raw().begin() +
                  static_cast<std::ptrdiff_t>((first + count) * d));
          const double want = CornerLowerBound(corners, w);
          EXPECT_EQ(bits(ScoreMinRange(w, soa, first, count)), bits(want))
              << "d=" << d << " first=" << first << " count=" << count;
          EXPECT_EQ(bits(ki::ScoreMinRangeScalar(w, soa, first, count)),
                    bits(want));
        }
      }
      EXPECT_EQ(ScoreMinRange(Point(d, 0.2), soa, 3, 0),
                std::numeric_limits<double>::infinity());
    }
  }
  ForceScalarKernels(false);
}

// The greedy's similarity kernel: scalar and dispatched results equal
// std::max(penalty, Similarity(row, s)) bitwise, for every count 1..17
// (sub-width and unaligned tails) at d = 2..8, with a query point that
// duplicates a row (Sim = 1) and starting penalties above and below the
// similarities.
TEST(KernelCrossCheckTest, SimilarityMaxRangeMatchesScalarBitwise) {
  namespace ki = kernel_internal;
  for (const bool force_scalar : {false, true}) {
    ForceScalarKernels(force_scalar);
    for (std::size_t d = 2; d <= 8; ++d) {
      const PointSet pts = BatchKernelPoints(d, 1200 + d);
      Rng rng(7100 + d);
      for (std::size_t count = 1; count <= 17; ++count) {
        std::vector<std::uint32_t> ids(count);
        for (std::uint32_t& id : ids) {
          id = static_cast<std::uint32_t>(rng.Index(pts.size()));
        }
        const SoaPointSet soa = SoaPointSet::FromSubset(pts, ids);
        const PointView s = pts[ids[rng.Index(count)]];
        std::vector<double> start(count);
        for (double& p : start) p = rng.Uniform() * 0.6;
        std::vector<double> dispatched = start, reference = start;
        SimilarityMaxRange(soa, count, s, dispatched.data());
        ki::SimilarityMaxRangeScalar(soa, 0, count, s, reference.data());
        bool saw_one = false;
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(dispatched[i], reference[i]) << "d=" << d << " i=" << i;
          EXPECT_EQ(reference[i],
                    std::max(start[i], Similarity(pts[ids[i]], s)))
              << "d=" << d << " i=" << i;
          saw_one = saw_one || dispatched[i] == 1.0;
        }
        EXPECT_TRUE(saw_one) << "d=" << d << " count=" << count;
      }
    }
  }
  ForceScalarKernels(false);
}

// SoaPointSet factories reproduce their sources bitwise, and the
// padding tail every vector load may touch is zero-filled.
TEST(KernelCrossCheckTest, SoaViewsMatchSources) {
  const std::size_t d = 3;
  const PointSet pts = BatchKernelPoints(d, 31);
  const SoaPointSet full = SoaPointSet::FromPointSet(pts);
  ASSERT_EQ(full.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t a = 0; a < d; ++a) {
      EXPECT_EQ(full.at(i, a), pts.At(i, a));
    }
  }
  Rng rng(32);
  std::vector<std::uint32_t> subset;
  for (int i = 0; i < 13; ++i) {  // 13: forces an unaligned tail
    subset.push_back(static_cast<std::uint32_t>(rng.Index(pts.size())));
  }
  const SoaPointSet sub = SoaPointSet::FromSubset(pts, subset);
  ASSERT_EQ(sub.size(), subset.size());
  EXPECT_EQ(sub.stride() % SoaPointSet::kColumnPad, 0u);
  EXPECT_GE(sub.stride(), sub.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    for (std::size_t a = 0; a < d; ++a) {
      EXPECT_EQ(sub.at(i, a), pts.At(subset[i], a));
    }
  }
  for (std::size_t a = 0; a < d; ++a) {
    const double* col = sub.column(a);
    for (std::size_t i = sub.size(); i < sub.stride(); ++i) {
      EXPECT_EQ(col[i], 0.0);
    }
  }
}

TEST(TransformationPropertyTest, AttributePermutationSymmetry) {
  const PointSet pts = GenerateAnticorrelated(400, 3, 91);
  // Rotate attributes: (a0, a1, a2) -> (a2, a0, a1).
  PointSet rotated(3);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    rotated.Add({pts.At(i, 2), pts.At(i, 0), pts.At(i, 1)});
  }
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  const DualLayerIndex index_rot = DualLayerIndex::Build(rotated);
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    TopKQuery query;
    query.weights = rng.SimplexWeight(3);
    query.k = 10;
    TopKQuery query_rot;
    query_rot.weights = {query.weights[2], query.weights[0],
                         query.weights[1]};
    query_rot.k = 10;
    const TopKResult a = index.Query(query);
    const TopKResult b = index_rot.Query(query_rot);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (std::size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_NEAR(a.items[i].score, b.items[i].score, 1e-12);
    }
  }
}

TEST(TransformationPropertyTest, UniformScalingInvariance) {
  // Scaling every attribute by c > 0 scales all scores by c and must
  // not change the answer ids (modulo exact ties).
  const PointSet pts = GenerateIndependent(300, 3, 92);
  PointSet scaled(3);
  const double c = 0.125;  // power of two: exact float scaling
  for (std::size_t i = 0; i < pts.size(); ++i) {
    scaled.Add({pts.At(i, 0) * c, pts.At(i, 1) * c, pts.At(i, 2) * c});
  }
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  const DualLayerIndex index_scaled = DualLayerIndex::Build(scaled);
  for (const TopKQuery& query : testing_util::RandomQueries(3, 10, 10, 8)) {
    const TopKResult a = index.Query(query);
    const TopKResult b = index_scaled.Query(query);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (std::size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_NEAR(a.items[i].score * c, b.items[i].score, 1e-12);
    }
  }
}

TEST(DualLayerPopOrderTest, AccessTraceRespectsDominance) {
  // If t ∀-dominates t', t must appear in the access trace before t'
  // whenever both were accessed (t' cannot unlock before t pops).
  const PointSet pts = GenerateIndependent(300, 3, 93);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  const NodeSpaceGraph graph = index.NodeGraph();
  for (const TopKQuery& query : testing_util::RandomQueries(3, 40, 5, 9)) {
    const TopKResult result = index.Query(query);
    std::vector<std::size_t> order(pts.size(), SIZE_MAX);
    for (std::size_t i = 0; i < result.accessed.size(); ++i) {
      order[result.accessed[i]] = i;
    }
    for (std::size_t u = 0; u < pts.size(); ++u) {
      for (const auto succ : graph.coarse_out[u]) {
        if (order[u] != SIZE_MAX && order[succ] != SIZE_MAX) {
          EXPECT_LT(order[u], order[succ])
              << "dominated tuple " << succ << " accessed before " << u;
        }
      }
    }
  }
}

}  // namespace
}  // namespace drli
