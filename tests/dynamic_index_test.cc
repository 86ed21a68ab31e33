#include <algorithm>
#include <map>

#include "gtest/gtest.h"

#include "core/tiered_index.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "test_util.h"
#include "topk/scan.h"

namespace drli {
namespace {

// Plain DL runs (no zero layer) under the default tier policy: a
// 128-row memtable, fanout 4 and auto-compaction.
TieredIndexOptions DlRuns() {
  TieredIndexOptions options;
  options.run.build_zero_layer = false;
  return options;
}

// Reference model: a map from stable id to tuple, scanned per query.
class ReferenceRelation {
 public:
  explicit ReferenceRelation(std::size_t dim) : dim_(dim) {}

  void Insert(TupleId id, PointView p) {
    tuples_[id] = Point(p.begin(), p.end());
  }
  void Erase(TupleId id) { tuples_.erase(id); }
  std::size_t size() const { return tuples_.size(); }

  std::vector<ScoredTuple> TopK(const TopKQuery& query) const {
    std::vector<ScoredTuple> all;
    for (const auto& [id, p] : tuples_) {
      all.push_back(ScoredTuple{id, Score(query.weights, p)});
    }
    std::sort(all.begin(), all.end(),
              [](const ScoredTuple& a, const ScoredTuple& b) {
                if (a.score != b.score) return a.score < b.score;
                return a.id < b.id;
              });
    if (all.size() > query.k) all.resize(query.k);
    return all;
  }

 private:
  std::size_t dim_;
  std::map<TupleId, Point> tuples_;
};

void ExpectAgrees(const TieredDualLayerIndex& index,
                  const ReferenceRelation& model, std::size_t d,
                  std::uint64_t seed) {
  ASSERT_EQ(index.size(), model.size());
  for (const TopKQuery& query : testing_util::RandomQueries(d, 10, 6, seed)) {
    const auto expected = model.TopK(query);
    const TopKResult got = index.Query(query);
    ASSERT_EQ(got.items.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(got.items[i].score, expected[i].score, 1e-12)
          << "rank " << i;
    }
  }
}

TEST(DynamicIndexTest, InsertOnlyWorkload) {
  TieredDualLayerIndex index(3, DlRuns());
  ReferenceRelation model(3);
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const Point p = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    const TupleId id = index.Insert(p);
    model.Insert(id, p);
  }
  ExpectAgrees(index, model, 3, 2);
}

TEST(DynamicIndexTest, MixedWorkloadMatchesModel) {
  const PointSet initial = GenerateAnticorrelated(400, 3, 3);
  TieredDualLayerIndex index(initial, DlRuns());
  ReferenceRelation model(3);
  std::vector<TupleId> live;
  for (TupleId id = 0; id < initial.size(); ++id) {
    model.Insert(id, initial[id]);
    live.push_back(id);
  }
  Rng rng(4);
  for (int step = 0; step < 400; ++step) {
    if (rng.Uniform() < 0.6 || live.empty()) {
      const Point p = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      const TupleId id = index.Insert(p);
      model.Insert(id, p);
      live.push_back(id);
    } else {
      const std::size_t pick = rng.Index(live.size());
      const TupleId id = live[pick];
      EXPECT_TRUE(index.Erase(id));
      model.Erase(id);
      live[pick] = live.back();
      live.pop_back();
    }
    if (step % 80 == 79) ExpectAgrees(index, model, 3, 100 + step);
  }
  ExpectAgrees(index, model, 3, 5);
  EXPECT_GT(index.seal_count() + index.compaction_count(), 0u);
}

TEST(DynamicIndexTest, EraseSemantics) {
  TieredDualLayerIndex index(2, DlRuns());
  const TupleId a = index.Insert(Point{0.1, 0.9});
  const TupleId b = index.Insert(Point{0.9, 0.1});
  EXPECT_TRUE(index.Contains(a));
  EXPECT_TRUE(index.Erase(a));
  EXPECT_FALSE(index.Contains(a));
  EXPECT_FALSE(index.Erase(a));  // double delete
  EXPECT_FALSE(index.Erase(9999));  // unknown id
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.Contains(b));

  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 5;
  const TopKResult result = index.Query(query);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].id, b);
}

TEST(DynamicIndexTest, DeletedBaseTuplesNeverReturned) {
  const PointSet initial = GenerateIndependent(200, 2, 6);
  TieredDualLayerIndex index(initial, DlRuns());
  // Delete the global top-1 for the uniform weight repeatedly; the
  // answer must always move to the next live tuple.
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 1;
  ConstrainedQuery constrained;
  constrained.weights = query.weights;
  constrained.k = query.k;
  constrained.box = AttributeBox::All(2);
  std::vector<double> seen_scores;
  for (int round = 0; round < 20; ++round) {
    const TopKResult result = index.Query(query);
    ASSERT_EQ(result.items.size(), 1u);
    // The constrained forest walk skips the same retired members.
    const TopKResult boxed = ConstrainedTopK(index, constrained);
    ASSERT_EQ(boxed.items.size(), 1u);
    EXPECT_EQ(boxed.items[0].id, result.items[0].id) << "round " << round;
    if (!seen_scores.empty()) {
      EXPECT_GE(result.items[0].score, seen_scores.back() - 1e-12);
    }
    seen_scores.push_back(result.items[0].score);
    ASSERT_TRUE(index.Erase(result.items[0].id));
  }
  EXPECT_EQ(index.size(), 180u);
}

TEST(DynamicIndexTest, CompactPreservesAnswersAndResetsDelta) {
  TieredDualLayerIndex index(3, DlRuns());
  ReferenceRelation model(3);
  Rng rng(7);
  for (int i = 0; i < 150; ++i) {
    const Point p = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    const TupleId id = index.Insert(p);
    model.Insert(id, p);
  }
  index.Compact();
  EXPECT_EQ(index.memtable_size(), 0u);
  EXPECT_EQ(index.tombstone_count(), 0u);
  ExpectAgrees(index, model, 3, 8);
}

TEST(DynamicIndexTest, StableIdsSurviveRebuilds) {
  TieredDualLayerIndex index(2, DlRuns());
  const TupleId keeper = index.Insert(Point{0.01, 0.01});
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    index.Insert(Point{rng.Uniform(0.2, 1.0), rng.Uniform(0.2, 1.0)});
  }
  EXPECT_GT(index.seal_count() + index.compaction_count(), 0u);
  EXPECT_TRUE(index.Contains(keeper));
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 1;
  EXPECT_EQ(index.Query(query).items[0].id, keeper);
}

TEST(DynamicIndexTest, CostStaysSelectiveBetweenRebuilds) {
  const PointSet initial = GenerateIndependent(5000, 3, 10);
  TieredDualLayerIndex index(initial, DlRuns());
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {  // below the memtable capacity
    index.Insert(Point{rng.Uniform(), rng.Uniform(), rng.Uniform()});
  }
  TopKQuery query;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 10;
  const TopKResult result = index.Query(query);
  // Base selectivity plus the delta scan, far below a full scan.
  EXPECT_LT(result.stats.tuples_evaluated, 1000u);
}

}  // namespace
}  // namespace drli
