// The bounded-partition merge driven directly: hand-built sorted lists
// and bounds pin its heap order, budget composition, partial policy
// and error propagation; random data pins the corner bound's
// soundness and exactness.

#include "core/partition_merge.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "data/generator.h"

namespace drli {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A hand-built partition: the result its open callback returns.
TopKResult Part(std::vector<ScoredTuple> items,
                std::size_t tuples_evaluated = 0) {
  TopKResult result;
  result.items = std::move(items);
  result.stats.tuples_evaluated = tuples_evaluated;
  ++result.stats.shards_touched;
  FinalizeComplete(result);
  return result;
}

// Runs MergePartitions over `parts` (partition index -> result) and
// records the order in which partitions were opened.
struct Harness {
  std::map<std::size_t, TopKResult> parts;
  std::vector<std::size_t> opened;
  std::vector<ExecBudget> budgets;

  TopKResult Merge(std::size_t k, const std::vector<PartitionBound>& bounds,
                   TopKResult pre = {}, const ExecBudget& budget = {}) {
    Stopwatch timer;
    return MergePartitions(
        k, budget, timer, std::move(pre), bounds,
        [&](std::size_t p, const ExecBudget& sub) {
          opened.push_back(p);
          budgets.push_back(sub);
          return parts.at(p);
        },
        [](std::size_t p) { return "part " + std::to_string(p); });
  }
};

std::vector<TupleId> Ids(const TopKResult& result) {
  std::vector<TupleId> ids;
  for (const ScoredTuple& item : result.items) ids.push_back(item.id);
  return ids;
}

TEST(PartitionMergeTest, BoundEqualToOpenItemScoreOpensFirst) {
  Harness h;
  h.parts[4] = Part({{7, 2.0}});
  h.parts[2] = Part({{8, 3.0}});
  TopKResult pre;
  pre.items = {{1, 1.0}};
  // Both bounds equal the pre-opened item's score: both open before it
  // is emitted, the lower partition index first.
  const TopKResult got = h.Merge(1, {{1.0, 4}, {1.0, 2}}, pre);
  EXPECT_EQ(h.opened, (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(Ids(got), (std::vector<TupleId>{1}));
  EXPECT_TRUE(got.complete());
  EXPECT_EQ(got.stats.shards_touched, 2u);
}

TEST(PartitionMergeTest, EqualScoreSmallerIdInUnopenedPartitionWins) {
  Harness h;
  h.parts[0] = Part({{9, 1.0}, {10, 2.0}});
  h.parts[1] = Part({{3, 1.0}});
  h.parts[2] = Part({{4, 1.5}});
  // Partition 1's bound equals partition 0's best score; its tuple 3
  // ties that score with a smaller id, so it must come first.
  const TopKResult got = h.Merge(2, {{0.0, 0}, {1.0, 1}, {5.0, 2}});
  EXPECT_EQ(Ids(got), (std::vector<TupleId>{3, 9}));
  EXPECT_EQ(h.opened, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(got.complete());
  EXPECT_EQ(got.certified_prefix, 2u);
}

TEST(PartitionMergeTest, BudgetExhaustedAtOpenCertifiesEmittedPrefix) {
  Harness h;
  h.parts[0] = Part({{0, 1.0}, {1, 3.0}}, /*tuples_evaluated=*/2);
  h.parts[1] = Part({{2, 2.5}});
  ExecBudget budget;
  budget.max_evals = 2;
  const TopKResult got =
      h.Merge(3, {{0.0, 0}, {2.0, 1}, {5.0, 2}}, {}, budget);
  // Partition 0 got the whole allowance; it is spent when partition
  // 1's bound surfaces, so partition 1 is never opened.
  EXPECT_EQ(h.opened, (std::vector<std::size_t>{0}));
  EXPECT_EQ(h.budgets.at(0).max_evals, 2u);
  EXPECT_EQ(got.termination, Termination::kStepBudget);
  EXPECT_EQ(Ids(got), (std::vector<TupleId>{0}));
  EXPECT_EQ(got.certified_prefix, got.items.size());
  // min(unaffordable bound 2.0, cursor 3.0, unopened bound 5.0).
  EXPECT_EQ(got.frontier_bound, 2.0);
}

TEST(PartitionMergeTest, MidTraversalTripDiscardsItemsAndBoundsPartition) {
  for (const double frontier : {3.5, 2.5}) {
    Harness h;
    h.parts[0] = Part({{0, 1.0}, {1, 4.0}});
    TopKResult tripped;
    tripped.items = {{5, 3.0}, {6, 3.2}};
    FinalizePartial(tripped, Termination::kDeadline, frontier);
    h.parts[1] = tripped;
    const TopKResult got = h.Merge(3, {{0.0, 0}, {2.0, 1}, {6.0, 2}});
    EXPECT_EQ(got.termination, Termination::kDeadline);
    EXPECT_EQ(Ids(got), (std::vector<TupleId>{0})) << "frontier " << frontier;
    // The tripped partition's floor is min(frontier, first score); the
    // surviving keys are 4.0 and 6.0.
    EXPECT_EQ(got.frontier_bound, std::min(frontier, 3.0));
    EXPECT_EQ(got.certified_prefix, 1u);
  }
}

TEST(PartitionMergeTest, ErrorPartitionKeepsLabelAndCertifiesNothing) {
  for (const Termination failure :
       {Termination::kError, Termination::kInvalidQuery}) {
    Harness h;
    h.parts[0] = Part({{0, 1.0}, {1, 4.0}});
    TopKResult failed;
    failed.termination = failure;
    if (failure == Termination::kError) failed.error = "boom";
    h.parts[7] = failed;
    const TopKResult got = h.Merge(3, {{0.0, 0}, {2.0, 7}});
    EXPECT_EQ(got.termination, Termination::kError);
    EXPECT_EQ(got.error, failure == Termination::kError
                             ? "part 7: boom"
                             : "part 7: invalid-query");
    EXPECT_TRUE(got.items.empty());
    EXPECT_EQ(got.certified_prefix, 0u);
    EXPECT_EQ(got.frontier_bound, -kInf);
  }
}

TEST(PartitionMergeTest, PreOpenedListAlone) {
  Harness h;
  TopKResult pre;
  pre.items = {{2, 0.5}, {0, 1.0}, {1, 1.0}};
  pre.accessed = {0, 1, 2};
  pre.stats.tuples_evaluated = 3;
  const TopKResult got = h.Merge(2, {}, pre);
  EXPECT_TRUE(h.opened.empty());
  EXPECT_EQ(Ids(got), (std::vector<TupleId>{2, 0}));
  EXPECT_TRUE(got.complete());
  EXPECT_EQ(got.stats.tuples_evaluated, 3u);
  EXPECT_EQ(got.accessed, (std::vector<TupleId>{0, 1, 2}));

  const TopKResult all = h.Merge(5, {}, pre);
  EXPECT_EQ(Ids(all), (std::vector<TupleId>{2, 0, 1}));
  EXPECT_EQ(all.certified_prefix, 3u);
}

TEST(PartitionMergeTest, MapToGlobalDropsDeadMembers) {
  TopKResult local;
  local.items = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  local.accessed = {2, 0, 1};
  const std::vector<TupleId> ids = {10, 20, 30};
  const std::unordered_set<TupleId> dead = {20};
  MapToGlobal(ids, &dead, &local);
  EXPECT_EQ(Ids(local), (std::vector<TupleId>{10, 30}));
  EXPECT_EQ(local.accessed, (std::vector<TupleId>{30, 10, 20}));
}

// The corner bound never exceeds a member's score, and is the exact
// minimum whenever the skyline fits under the corner cap.
void CheckCornerBound(const PointSet& points, std::uint64_t seed) {
  DualLayerOptions options;
  options.build_zero_layer = false;
  const DualLayerIndex index = DualLayerIndex::Build(points, options);
  const std::vector<double> corners = SkylineCorners(index);
  const std::size_t d = points.dim();
  ASSERT_EQ(corners.size() % d, 0u);
  const std::size_t skyline = index.coarse_layers().front().size();
  EXPECT_EQ(corners.size() / d, std::min(skyline, kMaxBoundCorners));

  Rng rng(seed);
  for (int q = 0; q < 50; ++q) {
    const Point w = rng.SimplexWeight(d);
    const double bound = CornerLowerBound(corners, w);
    double exact = kInf;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double score = Score(w, points[i]);
      ASSERT_LE(bound, score) << "tuple " << i << " query " << q;
      exact = std::min(exact, score);
    }
    if (skyline <= kMaxBoundCorners) {
      EXPECT_EQ(bound, exact) << "query " << q;
    }
  }
}

TEST(PartitionMergeTest, CornerBoundIsSoundAndExactOnSmallSkylines) {
  const PointSet small = GenerateIndependent(400, 3, 5);
  const PointSet large = GenerateAnticorrelated(3000, 4, 6);
  CheckCornerBound(small, 11);
  CheckCornerBound(large, 12);
  DualLayerOptions options;
  options.build_zero_layer = false;
  EXPECT_LE(DualLayerIndex::Build(small, options).coarse_layers()[0].size(),
            kMaxBoundCorners);
  EXPECT_GT(DualLayerIndex::Build(large, options).coarse_layers()[0].size(),
            kMaxBoundCorners);
}

TEST(PartitionMergeTest, CornerBoundOfEmptyIndexIsInfinite) {
  const DualLayerIndex index = DualLayerIndex::Build(PointSet(2));
  EXPECT_TRUE(SkylineCorners(index).empty());
  EXPECT_EQ(CornerLowerBound({}, Point{0.5, 0.5}), kInf);
}

}  // namespace
}  // namespace drli
