#include <algorithm>
#include <set>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "geometry/box_tree.h"
#include "testing/check_index.h"

namespace drli {
namespace {

// 3-d rows on a 5-value grid: ties and duplicate rows are common, which
// is where strict and weak dominance part ways.
PointSet GridPoints(std::size_t n, std::uint64_t seed) {
  PointSet pts(3);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    pts.Add({rng.Index(5) * 0.25, rng.Index(5) * 0.25, rng.Index(5) * 0.25});
  }
  return pts;
}

TEST(BoxTreeTest, StrictAndWeakDominatorsMatchBruteForceOnTies) {
  const PointSet pts = GridPoints(300, 91);
  // The tree holds the first 200 rows; all 300 are targets.
  std::vector<TupleId> members;
  for (TupleId id = 0; id < 200; ++id) members.push_back(id);
  const PointSet member_points = pts.Subset(members);
  const BoxTree tree = BoxTree::Build(member_points);
  for (std::size_t t = 0; t < pts.size(); ++t) {
    std::set<TupleId> strict;
    std::set<TupleId> weak;
    tree.ForEachDominator<Dominance::kStrict>(
        member_points, pts[t], [&](TupleId id) {
          EXPECT_TRUE(strict.insert(members[id]).second)
              << "reported twice: " << id;
        });
    tree.ForEachDominator<Dominance::kWeak>(
        member_points, pts[t], [&](TupleId id) {
          EXPECT_TRUE(weak.insert(members[id]).second)
              << "reported twice: " << id;
        });
    std::set<TupleId> brute_strict;
    std::set<TupleId> brute_weak;
    for (const TupleId id : members) {
      if (Dominates(pts[id], pts[t])) brute_strict.insert(id);
      if (WeaklyDominates(pts[id], pts[t])) brute_weak.insert(id);
    }
    EXPECT_EQ(strict, brute_strict) << "target " << t;
    EXPECT_EQ(weak, brute_weak) << "target " << t;
  }
}

// Every member is either pruned with its node or tested, whole or one
// by one, under both kinds of dominance and for targets inside and
// outside the members' box.
TEST(BoxTreeTest, PrunedAndTestedCoverEveryMember) {
  const PointSet pts = GridPoints(500, 17);
  const BoxTree tree = BoxTree::Build(pts);
  PointSet targets = GridPoints(100, 18);
  targets.Add({-1.0, -1.0, -1.0});
  targets.Add({2.0, 2.0, 2.0});
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const auto ignore = [](TupleId) {};
    const DominatorWalkCounts strict =
        tree.ForEachDominator<Dominance::kStrict>(pts, targets[t], ignore);
    const DominatorWalkCounts weak =
        tree.ForEachDominator<Dominance::kWeak>(pts, targets[t], ignore);
    EXPECT_EQ(strict.pruned + strict.tested, pts.size()) << "target " << t;
    EXPECT_EQ(weak.pruned + weak.tested, pts.size()) << "target " << t;
  }
}

TEST(BoxTreeTest, EmptyTreeVisitsNothing) {
  const PointSet pts(3);
  const BoxTree tree = BoxTree::Build(pts);
  EXPECT_TRUE(tree.empty());
  const Point target = {0.5, 0.5, 0.5};
  std::size_t visits = 0;
  const auto count = [&](TupleId) { ++visits; };
  const DominatorWalkCounts strict =
      tree.ForEachDominator<Dominance::kStrict>(pts, target, count);
  const DominatorWalkCounts weak =
      tree.ForEachDominator<Dominance::kWeak>(pts, target, count);
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(strict.pruned + strict.tested + weak.pruned + weak.tested, 0u);
}

// A tree over a standalone point set, like the fine peel's facet
// corners: componentwise minima of grid pairs, many of them equal.
TEST(BoxTreeTest, CornerSetWithDuplicateRowsPassesCheckBoxTree) {
  const PointSet grid = GridPoints(200, 23);
  PointSet corners(3);
  for (std::size_t i = 0; i + 1 < grid.size(); i += 2) {
    Point corner(3);
    for (std::size_t a = 0; a < 3; ++a) {
      corner[a] = std::min(grid.At(i, a), grid.At(i + 1, a));
    }
    corners.Add(corner);
  }
  std::set<Point> distinct;
  for (std::size_t i = 0; i < corners.size(); ++i) {
    distinct.insert(corners.Materialize(i));
  }
  ASSERT_LT(distinct.size(), corners.size()) << "no duplicate rows";
  const BoxTree tree = BoxTree::Build(corners);
  const CheckReport report = CheckBoxTree(tree, corners);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace drli
