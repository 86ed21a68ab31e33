#include <algorithm>
#include <limits>
#include <numeric>

#include "gtest/gtest.h"

#include "common/random.h"
#include "common/soa_points.h"
#include "data/generator.h"
#include "test_util.h"
#include "topk/query.h"
#include "topk/scan.h"
#include "topk/sorted_lists.h"
#include "topk/threshold_algorithm.h"

namespace drli {
namespace {

TEST(ScanTest, ToyDatasetTop5) {
  const PointSet pts = testing_util::MakeToyDataset();
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 5;
  const TopKResult result = Scan(pts, query);
  ASSERT_EQ(result.items.size(), 5u);
  // Example 1: top-5 = {a, b, f, d, e}; F(a) = 3.5.
  EXPECT_EQ(result.items[0].id, testing_util::kA);
  EXPECT_DOUBLE_EQ(result.items[0].score, 3.5);
  EXPECT_EQ(result.items[1].id, testing_util::kB);
  EXPECT_EQ(result.items[2].id, testing_util::kF);
  EXPECT_EQ(result.items[3].id, testing_util::kD);
  EXPECT_EQ(result.items[4].id, testing_util::kE);
  EXPECT_EQ(result.stats.tuples_evaluated, pts.size());
}

TEST(ScanTest, ScoresAscending) {
  const PointSet pts = GenerateIndependent(200, 3, 3);
  TopKQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 50;
  const TopKResult result = Scan(pts, query);
  ASSERT_EQ(result.items.size(), 50u);
  for (std::size_t i = 1; i < result.items.size(); ++i) {
    EXPECT_LE(result.items[i - 1].score, result.items[i].score);
  }
}

TEST(ScanTest, KLargerThanRelation) {
  const PointSet pts = GenerateIndependent(10, 2, 4);
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 50;
  const TopKResult result = Scan(pts, query);
  EXPECT_EQ(result.items.size(), 10u);
}

TEST(FullScanIndexTest, InterfaceWorks) {
  const PointSet pts = GenerateIndependent(100, 2, 5);
  const FullScanIndex index(pts);
  EXPECT_EQ(index.name(), "SCAN");
  EXPECT_EQ(index.size(), 100u);
  TopKQuery query;
  query.weights = {0.4, 0.6};
  query.k = 7;
  EXPECT_EQ(index.Query(query).items.size(), 7u);
}

TEST(TopKHeapTest, KeepsKSmallest) {
  TopKHeap heap(3);
  EXPECT_EQ(heap.KthScore(), std::numeric_limits<double>::infinity());
  for (double s : {5.0, 1.0, 4.0, 2.0, 3.0}) {
    heap.Push(ScoredTuple{static_cast<TupleId>(s), s});
  }
  EXPECT_DOUBLE_EQ(heap.KthScore(), 3.0);
  const auto sorted = heap.SortedAscending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].score, 1.0);
  EXPECT_DOUBLE_EQ(sorted[1].score, 2.0);
  EXPECT_DOUBLE_EQ(sorted[2].score, 3.0);
}

TEST(TopKHeapTest, TieBreaksById) {
  TopKHeap heap(2);
  heap.Push({7, 1.0});
  heap.Push({3, 1.0});
  heap.Push({5, 1.0});
  const auto sorted = heap.SortedAscending();
  EXPECT_EQ(sorted[0].id, 3u);
  EXPECT_EQ(sorted[1].id, 5u);
}

TEST(SortedListsTest, ListsAreSorted) {
  const PointSet pts = GenerateIndependent(100, 3, 6);
  std::vector<TupleId> members;
  for (TupleId i = 0; i < 50; ++i) members.push_back(i * 2);
  const SortedLists lists(pts, members);
  EXPECT_EQ(lists.dim(), 3u);
  EXPECT_EQ(lists.size(), 50u);
  for (std::size_t attr = 0; attr < 3; ++attr) {
    for (std::size_t pos = 1; pos < lists.size(); ++pos) {
      EXPECT_LE(lists.At(attr, pos - 1).value, lists.At(attr, pos).value);
    }
  }
}

TEST(ThresholdAlgorithmTest, FindsExactTopK) {
  const PointSet pts = GenerateIndependent(500, 4, 7);
  std::vector<TupleId> members(pts.size());
  std::iota(members.begin(), members.end(), 0);
  const SortedLists lists(pts, members);
  const SoaPointSet soa = SoaPointSet::FromPointSet(pts);
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const Point w = rng.SimplexWeight(4);
    TopKHeap heap(10);
    std::size_t evaluated = 0;
    TaScanLayer(soa, lists, w, &heap, &evaluated);
    TopKQuery query;
    query.weights = w;
    query.k = 10;
    const TopKResult expected = Scan(pts, query);
    const auto got = heap.SortedAscending();
    ASSERT_EQ(got.size(), 10u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_NEAR(got[i].score, expected.items[i].score, 1e-12);
    }
    // TA with early termination must not scan everything on random
    // data.
    EXPECT_LT(evaluated, pts.size());
  }
}

TEST(ThresholdAlgorithmTest, LayerLowerBound) {
  const PointSet pts = GenerateIndependent(200, 3, 9);
  std::vector<TupleId> members(pts.size());
  std::iota(members.begin(), members.end(), 0);
  const SortedLists lists(pts, members);
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    const Point w = rng.SimplexWeight(3);
    const double bound = LayerScoreLowerBound(lists, w);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_GE(Score(w, pts[i]) + 1e-12, bound);
    }
  }
}

TEST(ValidateQueryTest, AcceptsValidQuery) {
  TopKQuery query;
  query.weights = {0.25, 0.75};
  query.k = 3;
  EXPECT_TRUE(ValidateQuery(query, 2).ok());
}

TEST(ValidateQueryTest, RejectsBadQueriesRecoverably) {
  TopKQuery bad_dim;
  bad_dim.weights = {1.0};
  bad_dim.k = 1;
  const Status dim_status = ValidateQuery(bad_dim, 2);
  EXPECT_FALSE(dim_status.ok());
  EXPECT_NE(dim_status.message().find("dimensionality"), std::string::npos);

  // Zero weights are legal (boundary of the simplex) as long as one
  // entry stays positive; the all-zero vector is not.
  TopKQuery zero_weight;
  zero_weight.weights = {0.0, 1.0};
  zero_weight.k = 1;
  EXPECT_TRUE(ValidateQuery(zero_weight, 2).ok());

  TopKQuery all_zero;
  all_zero.weights = {0.0, 0.0};
  all_zero.k = 1;
  const Status all_zero_status = ValidateQuery(all_zero, 2);
  EXPECT_FALSE(all_zero_status.ok());
  EXPECT_NE(all_zero_status.message().find("positive"), std::string::npos);

  TopKQuery negative_weight;
  negative_weight.weights = {-0.5, 1.5};
  negative_weight.k = 1;
  const Status weight_status = ValidateQuery(negative_weight, 2);
  EXPECT_FALSE(weight_status.ok());
  EXPECT_NE(weight_status.message().find("non-negative"), std::string::npos);

  TopKQuery nan_weight;
  nan_weight.weights = {std::numeric_limits<double>::quiet_NaN(), 1.0};
  nan_weight.k = 1;
  EXPECT_FALSE(ValidateQuery(nan_weight, 2).ok());
}

}  // namespace
}  // namespace drli
