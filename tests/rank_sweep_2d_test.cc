#include <algorithm>
#include <set>

#include "gtest/gtest.h"

#include "core/rank_sweep_2d.h"
#include "data/generator.h"
#include "test_util.h"
#include "testing/scenario_oracle.h"
#include "topk/scan.h"

namespace drli {
namespace {

// Oracle: top-k set at a specific weight via full scan.
std::vector<TupleId> TopKSetAt(const PointSet& pts, double w1,
                               std::size_t k) {
  TopKQuery query;
  query.weights = {w1, 1.0 - w1};
  query.k = k;
  const TopKResult result = Scan(pts, query);
  std::vector<TupleId> ids;
  for (const ScoredTuple& item : result.items) ids.push_back(item.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Whether the oracle set's scores match the sweep set's scores (sets
// may differ on exact ties; score multisets must agree).
bool SetsScoreEquivalent(const PointSet& pts, double w1,
                         const std::vector<TupleId>& a,
                         const std::vector<TupleId>& b) {
  if (a.size() != b.size()) return false;
  const Point w = {w1, 1.0 - w1};
  std::vector<double> sa, sb;
  for (TupleId id : a) sa.push_back(Score(w, pts[id]));
  for (TupleId id : b) sb.push_back(Score(w, pts[id]));
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (std::fabs(sa[i] - sb[i]) > 1e-9) return false;
  }
  return true;
}

TEST(RankSweepTest, ToyDatasetTop1MatchesWeightRanges) {
  // The k = 1 sweep over L^11 must reproduce the Section V-A ranges:
  // breakpoints where a, b, c exchange the top spot.
  const PointSet pts = testing_util::MakeToyDataset();
  const RankSweepResult sweep = SweepTopKSets2D(pts, 1);
  // Top-1 near w1 = 0 is c (min distance axis y? -- min y value is c),
  // near w1 = 1 is a (min x).
  EXPECT_EQ(sweep.topk_sets.front(),
            (std::vector<TupleId>{testing_util::kC}));
  EXPECT_EQ(sweep.topk_sets.back(),
            (std::vector<TupleId>{testing_util::kA}));
  // Only convex-skyline members can ever appear.
  for (const auto& set : sweep.topk_sets) {
    ASSERT_EQ(set.size(), 1u);
    EXPECT_TRUE(set[0] == testing_util::kA || set[0] == testing_util::kB ||
                set[0] == testing_util::kC);
  }
}

TEST(RankSweepTest, MatchesScanOnDenseGrid) {
  const PointSet pts = GenerateAnticorrelated(300, 2, 7);
  for (std::size_t k : {1u, 5u, 10u}) {
    const RankSweepResult sweep = SweepTopKSets2D(pts, k);
    for (double w1 = 0.005; w1 < 1.0; w1 += 0.005) {
      const auto expected = TopKSetAt(pts, w1, k);
      const auto& got = sweep.SetAt(w1);
      EXPECT_TRUE(SetsScoreEquivalent(pts, w1, expected, got))
          << "k=" << k << " w1=" << w1;
    }
  }
}

TEST(RankSweepTest, BreakpointsStrictlyIncreasingInUnitInterval) {
  const PointSet pts = GenerateIndependent(500, 2, 8);
  const RankSweepResult sweep = SweepTopKSets2D(pts, 10);
  double prev = 0.0;
  for (double b : sweep.breakpoints) {
    EXPECT_GT(b, prev);
    EXPECT_LT(b, 1.0);
    prev = b;
  }
  EXPECT_EQ(sweep.topk_sets.size(), sweep.breakpoints.size() + 1);
  // Adjacent sets differ (no-op intervals are compacted).
  for (std::size_t i = 0; i + 1 < sweep.topk_sets.size(); ++i) {
    EXPECT_NE(sweep.topk_sets[i], sweep.topk_sets[i + 1]);
  }
}

TEST(RankSweepTest, KEqualsNIsOneInterval) {
  const PointSet pts = GenerateIndependent(50, 2, 9);
  const RankSweepResult sweep = SweepTopKSets2D(pts, 50);
  EXPECT_TRUE(sweep.breakpoints.empty());
  ASSERT_EQ(sweep.topk_sets.size(), 1u);
  EXPECT_EQ(sweep.topk_sets[0].size(), 50u);
}

TEST(RankSweepTest, SingleTupleAndEmpty) {
  PointSet one(2);
  one.Add({0.3, 0.7});
  const RankSweepResult sweep = SweepTopKSets2D(one, 3);
  EXPECT_TRUE(sweep.breakpoints.empty());
  EXPECT_EQ(sweep.topk_sets[0], (std::vector<TupleId>{0}));

  PointSet none(2);
  const RankSweepResult empty = SweepTopKSets2D(none, 1);
  EXPECT_TRUE(empty.topk_sets[0].empty());
}

TEST(RankSweepTest, ConcurrentLinesCascade) {
  // Three lines through one point: (0.2,0.8), (0.5,0.5), (0.8,0.2) all
  // score 0.5 at w1 = 0.5 -- a full-reversal cascade at one weight.
  PointSet pts(2);
  pts.Add({0.2, 0.8});
  pts.Add({0.5, 0.5});
  pts.Add({0.8, 0.2});
  const RankSweepResult sweep = SweepTopKSets2D(pts, 1);
  ASSERT_GE(sweep.topk_sets.size(), 2u);
  EXPECT_EQ(sweep.topk_sets.front(), (std::vector<TupleId>{2}));
  EXPECT_EQ(sweep.topk_sets.back(), (std::vector<TupleId>{0}));
  for (double b : sweep.breakpoints) {
    EXPECT_NEAR(b, 0.5, 1e-9);
  }
}

TEST(ReverseTopKTest, IntervalsMatchMembership) {
  const PointSet pts = GenerateAnticorrelated(200, 2, 10);
  const std::size_t k = 5;
  const RankSweepResult sweep = SweepTopKSets2D(pts, k);
  for (TupleId target = 0; target < 20; ++target) {
    const auto intervals = ReverseTopKIntervals2D(sweep, target);
    // Sample: membership in the swept sets must agree with intervals.
    for (double w1 = 0.01; w1 < 1.0; w1 += 0.01) {
      const bool in_set =
          std::binary_search(sweep.SetAt(w1).begin(),
                             sweep.SetAt(w1).end(), target);
      bool in_interval = false;
      for (const auto& [lo, hi] : intervals) {
        if (w1 >= lo && w1 <= hi) {
          in_interval = true;
          break;
        }
      }
      EXPECT_EQ(in_set, in_interval) << "target " << target << " w1 " << w1;
    }
  }
}

TEST(ReverseTopKTest, SkylineMembersHaveIntervalsDominatedDoNot) {
  PointSet pts(2);
  pts.Add({0.1, 0.9});   // 0: on the chain
  pts.Add({0.9, 0.1});   // 1: on the chain
  pts.Add({0.95, 0.95});  // 2: dominated by everything
  const RankSweepResult sweep = SweepTopKSets2D(pts, 1);
  EXPECT_FALSE(ReverseTopKIntervals2D(sweep, 0).empty());
  EXPECT_FALSE(ReverseTopKIntervals2D(sweep, 1).empty());
  EXPECT_TRUE(ReverseTopKIntervals2D(sweep, 2).empty());
}

TEST(ReverseTopKTest, AdjacentIntervalsMerged) {
  const PointSet pts = GenerateIndependent(100, 2, 11);
  const RankSweepResult sweep = SweepTopKSets2D(pts, 10);
  for (TupleId target = 0; target < 10; ++target) {
    const auto intervals = ReverseTopKIntervals2D(sweep, target);
    for (std::size_t i = 0; i + 1 < intervals.size(); ++i) {
      EXPECT_LT(intervals[i].hi, intervals[i + 1].lo);
    }
  }
}

}  // namespace
}  // namespace drli
