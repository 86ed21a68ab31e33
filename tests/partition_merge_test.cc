// The bounded-partition merge driven directly: hand-built sorted lists
// and bounds pin its heap order, budget composition, partial policy
// and error propagation; random data pins the corner bound to the exact
// top-1 score and the shard and run merges, plain and constrained, to
// opening only the partitions they must.

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
#include "core/tiered_index.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "shard/sharded_index.h"
#include "testing/fuzz.h"

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

// The brute-force top-1 score over every row of `index`, dead rows of
// a tiered run included.
double TopOneScore(const DualLayerIndex& index, PointView weights) {
  const PointSet& points = index.points();
  double best = kInf;
  for (std::size_t i = 0; i < points.size(); ++i) {
    best = std::min(best, Score(weights, points[i]));
  }
  return best;
}

// Random simplex weights, every axis e_i, and weights with two equal
// non-zero coordinates (alone, and inside a random simplex point).
std::vector<Point> ContractWeights(std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> weights;
  for (int q = 0; q < 150; ++q) weights.push_back(rng.SimplexWeight(d));
  for (std::size_t i = 0; i < d; ++i) {
    Point axis(d, 0.0);
    axis[i] = 1.0;
    weights.push_back(axis);
    for (std::size_t j = i + 1; j < d; ++j) {
      Point pair(d, 0.0);
      pair[i] = pair[j] = 0.5;
      weights.push_back(pair);
      Point tied = rng.SimplexWeight(d);
      tied[j] = tied[i];
      weights.push_back(tied);
    }
  }
  return weights;
}

// Points on the plane sum(x) = 1, one in three pushed 1e-12..1e-10
// below it: inside the hull's tolerances (and, at d = 2, the collinear
// test's), so such a point can sit below L^{11} while scoring lower
// than every L^{11} member.
PointSet NearCoplanar(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(d);
  for (std::size_t i = 0; i < n; ++i) {
    Point p = rng.SimplexWeight(d, 0.0);
    if (i % 3 == 0) {
      const double scale = 1.0 - rng.Uniform(1e-12, 1e-10);
      for (double& x : p) x *= scale;
    }
    points.Add(p);
  }
  return points;
}

// An integer grid with exact duplicates: bitwise score ties.
PointSet GridWithDuplicates(std::size_t n, std::size_t d,
                            std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(d);
  for (std::size_t i = 0; i < n; ++i) {
    Point p(d);
    for (double& x : p) x = static_cast<double>(rng.Index(5)) / 4.0;
    points.Add(p);
  }
  for (std::size_t i = 0; i < n / 8; ++i) {
    points.Add(points.Materialize(i * 7));
  }
  return points;
}

// The corner bound is the index's exact top-1 score, bit for bit: its
// points are L^{11}, which holds the linear top-1 for every w >= 0,
// plus the skyline members no ∃-edge gates. Checked with the zero
// layer off and on and with fine layers off; returns the largest
// skyline over the three builds.
std::size_t CheckExactTopOne(const PointSet& points, std::uint64_t seed,
                             const std::string& label) {
  const DualLayerOptions zero_off;
  DualLayerOptions zero_on;
  zero_on.build_zero_layer = true;
  DualLayerOptions fine_off;
  fine_off.enable_fine_layers = false;
  const std::size_t d = points.dim();
  const std::vector<Point> weights = ContractWeights(d, seed);
  std::size_t largest_skyline = 0;
  for (const DualLayerOptions& options : {zero_off, zero_on, fine_off}) {
    const DualLayerIndex index = DualLayerIndex::Build(points, options);
    largest_skyline =
        std::max(largest_skyline, index.coarse_layers()[0].size());
    const std::vector<double> corners = SkylineCorners(index);
    EXPECT_EQ(corners.size() % d, 0u);
    for (std::size_t q = 0; q < weights.size(); ++q) {
      EXPECT_EQ(CornerLowerBound(corners, weights[q]),
                TopOneScore(index, weights[q]))
          << label << " d=" << d << " zero=" << options.build_zero_layer
          << " fine=" << options.enable_fine_layers << " weight " << q;
    }
  }
  return largest_skyline;
}

TEST(PartitionMergeTest, CornerBoundIsExactTopOneScore) {
  const std::size_t sizes[] = {0, 0, 2000, 1500, 1000, 500, 400};
  std::size_t largest_skyline = 0;
  for (std::size_t d = 2; d <= 6; ++d) {
    for (const Distribution dist :
         {Distribution::kIndependent, Distribution::kCorrelated,
          Distribution::kAnticorrelated}) {
      const PointSet points = Generate(dist, sizes[d], d, 40 + d);
      largest_skyline = std::max(largest_skyline,
                                 CheckExactTopOne(points, 50 + d, "generated"));
    }
    CheckExactTopOne(NearCoplanar(300, d, 60 + d), 70 + d, "near-coplanar");
    CheckExactTopOne(GridWithDuplicates(300, d, 80 + d), 90 + d, "grid");
  }
  EXPECT_GT(largest_skyline, 64u);
}

// Windows of fuzz datasets whose rows sit on the plane sum(x) = c up
// to rounding of the last coordinate: under uniform weights their
// scores tie mathematically and differ by ulps in floating point. An
// ∃-edge certified only up to the EDS tolerance let a gated row score
// an ulp below every one of its fine parents, so the corner bound came
// out above the window's top-1 and DL+ stopped before an equal-scoring
// smaller id (seed 2320, window [2, 66): ids 23 and 29 at the k-th
// score, id 8 missing). Each window is a sub-relation, as a shard or a
// tiered run holds one; the build's sound ∃-test must keep both the
// bound and the traversal exact in all of them.
TEST(PartitionMergeTest, CoplanarWindowsKeepBoundAndTiesExact) {
  for (const std::uint64_t seed : {2320u, 3740u, 5553u, 6818u, 15475u}) {
    const PointSet rows = MakeFuzzDataset(seed, FuzzOptions{}, nullptr);
    const std::size_t d = rows.dim();
    const Point uniform(d, 1.0 / static_cast<double>(d));
    for (const std::size_t begin : {0u, 2u}) {
      for (std::size_t end = begin + 2; end <= rows.size(); ++end) {
        PointSet window(d);
        for (std::size_t i = begin; i < end; ++i) window.Add(rows[i]);
        std::vector<ScoredTuple> want;
        for (std::size_t i = 0; i < window.size(); ++i) {
          want.push_back(
              ScoredTuple{static_cast<TupleId>(i), Score(uniform, window[i])});
        }
        std::sort(want.begin(), want.end(), ResultOrderLess);
        for (const bool zero_layer : {false, true}) {
          DualLayerOptions options;
          options.build_zero_layer = zero_layer;
          options.build_threads = 1;
          const DualLayerIndex index = DualLayerIndex::Build(window, options);
          const std::string where =
              "seed " + std::to_string(seed) + " window [" +
              std::to_string(begin) + ", " + std::to_string(end) +
              ") zero=" + std::to_string(zero_layer);
          ASSERT_EQ(CornerLowerBound(SkylineCorners(index), uniform),
                    want.front().score)
              << where;
          for (const std::size_t k : {1u, 3u, 10u}) {
            const TopKResult got = index.Query(TopKQuery{uniform, k, {}});
            ASSERT_EQ(got.items.size(), std::min(k, want.size())) << where;
            for (std::size_t r = 0; r < got.items.size(); ++r) {
              ASSERT_EQ(got.items[r].id, want[r].id)
                  << where << " k=" << k << " rank " << r;
            }
          }
        }
      }
    }
  }
}

// The constrained merge under a box holding every tuple opens the same
// partitions as the plain one and returns the same answer: both run
// the one open rule, and no partition's sublayer boxes miss the box.
template <typename Engine>
void ExpectConstrainedOpensTheSame(const Engine& index, const Point& w,
                                   std::size_t k, const TopKResult& plain,
                                   std::size_t QueryStats::*opened,
                                   const std::string& where) {
  ConstrainedQuery query;
  query.weights = w;
  query.k = k;
  query.box = AttributeBox::All(w.size());
  const TopKResult got = ConstrainedTopK(index, query);
  ASSERT_TRUE(got.complete()) << where;
  ASSERT_EQ(got.items.size(), plain.items.size()) << where;
  for (std::size_t r = 0; r < got.items.size(); ++r) {
    EXPECT_EQ(got.items[r].id, plain.items[r].id) << where << " rank " << r;
    EXPECT_EQ(got.items[r].score, plain.items[r].score)
        << where << " rank " << r;
  }
  EXPECT_EQ(got.stats.*opened, plain.stats.*opened) << where;
  EXPECT_EQ(got.stats.boxes_pruned, 0u) << where;
}

// The k-th returned score, or +inf when fewer than k items came back
// (every partition was then exhausted).
double KthScore(const TopKResult& result, std::size_t k) {
  return result.items.size() < k ? kInf : result.items.back().score;
}

// With exact bounds the merge opens exactly the partitions whose top-1
// score is <= the k-th returned score: a bound pops before an item of
// equal score, and nothing pops after the k-th item.
std::size_t MustOpen(const std::vector<double>& top_one, double kth) {
  return static_cast<std::size_t>(
      std::count_if(top_one.begin(), top_one.end(),
                    [kth](double bound) { return bound <= kth; }));
}

// Every shard bound equals the shard's brute-force top-1, the k = 1
// answer is the global top-1, and the merge opens exactly the shards
// it must. Returns how many queries' top-1 lies in a shard whose L^{11}
// alone would have popped after another shard's top-1, pruning it.
std::size_t CheckShardMerge(const ShardedDualLayerIndex& index,
                            const std::vector<Point>& weights) {
  std::size_t first_sublayer_would_prune = 0;
  for (std::size_t q = 0; q < weights.size(); ++q) {
    const Point& w = weights[q];
    std::vector<double> top_one;
    std::vector<double> first_sublayer;
    for (std::size_t s = 0; s < index.num_shards(); ++s) {
      if (index.shard_members(s).empty()) continue;
      const DualLayerIndex& shard = index.shard(s);
      top_one.push_back(TopOneScore(shard, w));
      EXPECT_EQ(index.ShardLowerBound(s, w), top_one.back())
          << "shard " << s << " query " << q;
      first_sublayer.push_back(kInf);
      const std::vector<std::vector<TupleId>> groups = shard.LayerGroups();
      for (TupleId id : groups.front()) {
        first_sublayer.back() =
            std::min(first_sublayer.back(), Score(w, shard.points()[id]));
      }
    }
    for (const std::size_t k : {1, 10, 100}) {
      const TopKResult result = index.Query(TopKQuery{w, k, {}});
      EXPECT_TRUE(result.complete());
      EXPECT_EQ(result.items.front().score,
                *std::min_element(top_one.begin(), top_one.end()))
          << "query " << q;
      EXPECT_EQ(result.stats.shards_touched,
                MustOpen(top_one, KthScore(result, k)))
          << "query " << q << " k=" << k;
      ExpectConstrainedOpensTheSame(
          index, w, k, result, &QueryStats::shards_touched,
          "query " + std::to_string(q) + " k=" + std::to_string(k));
    }
    const std::size_t holder = static_cast<std::size_t>(
        std::min_element(top_one.begin(), top_one.end()) - top_one.begin());
    for (std::size_t s = 0; s < top_one.size(); ++s) {
      if (s != holder && first_sublayer[holder] > top_one[s]) {
        ++first_sublayer_would_prune;
        break;
      }
    }
  }
  return first_sublayer_would_prune;
}

TEST(PartitionMergeTest, ShardMergeOpensOnlyTheShardsItMust) {
  ShardedBuildOptions options;
  options.num_shards = 8;
  options.partitioner = ShardPartitioner::kHyperplane;
  CheckShardMerge(ShardedDualLayerIndex::Build(
                      GenerateAnticorrelated(4000, 4, 21), options),
                  ContractWeights(4, 22));
}

// A shard whose top-1 lies outside its L^{11} but is gated by no
// ∃-edge is still opened, including where a bound over L^{11} alone
// would have pruned it. Which near-coplanar inputs give such a shard
// depends on the hull's tolerance decisions and facet order, so the
// count is summed over several inputs rather than pinned to one.
TEST(PartitionMergeTest, ShardHoldingATopOneOutsideItsFirstSublayerOpens) {
  ShardedBuildOptions options;
  options.num_shards = 3;
  options.partitioner = ShardPartitioner::kRandom;
  std::size_t would_prune = 0;
  for (std::uint64_t seed = 43; seed <= 50; ++seed) {
    would_prune += CheckShardMerge(
        ShardedDualLayerIndex::Build(NearCoplanar(1200, 5, seed), options),
        ContractWeights(5, 42));
  }
  EXPECT_GT(would_prune, 0u);
}

TEST(PartitionMergeTest, RunMergeOpensOnlyTheRunsItMust) {
  TieredIndexOptions options;
  options.memtable_capacity = 200;
  options.auto_compact = false;
  TieredDualLayerIndex index(GenerateAnticorrelated(2000, 4, 31), options);
  const PointSet more = GenerateAnticorrelated(1100, 4, 32);
  for (std::size_t i = 0; i < more.size(); ++i) index.Insert(more[i]);
  // Tombstones inside the bulk run, and one run erased whole.
  for (TupleId id = 0; id < 2000; id += 9) ASSERT_TRUE(index.Erase(id));
  const std::vector<TupleId> whole_run = index.run(1).ids;
  for (TupleId id : whole_run) ASSERT_TRUE(index.Erase(id));
  ASSERT_GE(index.num_runs(), 5u);
  ASSERT_GT(index.memtable_size(), 0u);

  Rng rng(33);
  for (int q = 0; q < 60; ++q) {
    const Point w = rng.SimplexWeight(4);
    std::vector<double> top_one;
    for (std::size_t r = 0; r < index.num_runs(); ++r) {
      const TieredRun& run = index.run(r);
      if (run.ids.size() <= run.dead) continue;  // never enqueued
      top_one.push_back(TopOneScore(run.index, w));
      EXPECT_EQ(CornerLowerBound(run.bound_values, w), top_one.back())
          << "run " << r << " query " << q;
    }
    for (const std::size_t k : {1, 10, 100}) {
      const TopKResult result = index.Query(TopKQuery{w, k, {}});
      ASSERT_TRUE(result.complete());
      EXPECT_EQ(result.stats.runs_opened,
                MustOpen(top_one, KthScore(result, k)))
          << "query " << q << " k=" << k;
      ExpectConstrainedOpensTheSame(
          index, w, k, result, &QueryStats::runs_opened,
          "query " + std::to_string(q) + " k=" + std::to_string(k));
    }
  }
}

TEST(PartitionMergeTest, CornerBoundOfEmptyIndexIsInfinite) {
  const DualLayerIndex index = DualLayerIndex::Build(PointSet(2));
  EXPECT_TRUE(SkylineCorners(index).empty());
  EXPECT_EQ(CornerLowerBound({}, Point{0.5, 0.5}), kInf);
}

}  // namespace
}  // namespace drli
