// DualLayerIndex::Retire, the in-place delete mask: on DL and DL+ over
// independent, anticorrelated and duplicate-heavy grid relations at
// d = 2..5, with 1%, 10%, 50% and 100% of the tuples retired, answers
// equal the scan over the live rows bit for bit, cost never exceeds
// the unmasked index asked for k + |retired|, untouched retirements
// change nothing, budgeted partials certify live prefixes, and the
// constrained box-tree traversal never scores a retired member. The
// scenarios that read points() wholesale refuse a masked index.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/dual_layer.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "scenarios/reverse_topk.h"
#include "test_util.h"

namespace drli {
namespace {

enum class Relation { kIndependent, kAnticorrelated, kGrid };

struct RetireCase {
  std::size_t d;
  Relation relation;
  bool zero_layer;  // DL+ when true, DL otherwise
};

std::string CaseName(const ::testing::TestParamInfo<RetireCase>& info) {
  const char* relation[] = {"ind", "ant", "grid"};
  return std::string(info.param.zero_layer ? "dlplus_" : "dl_") +
         relation[static_cast<int>(info.param.relation)] + "_d" +
         std::to_string(info.param.d);
}

PointSet MakeRelation(const RetireCase& c) {
  const std::uint64_t seed = 500 + c.d;
  switch (c.relation) {
    case Relation::kIndependent:
      return Generate(Distribution::kIndependent, 800, c.d, seed);
    case Relation::kAnticorrelated:
      return Generate(Distribution::kAnticorrelated, 800, c.d, seed);
    case Relation::kGrid:
      break;
  }
  // The grid-with-duplicates relation of the scenario suite's cells.
  Rng rng(seed);
  return testing_util::GridWithDuplicateRows(c.d, 800, &rng);
}

DualLayerIndex BuildIndex(const PointSet& points, bool zero_layer) {
  DualLayerOptions options;
  options.build_zero_layer = zero_layer;
  options.build_threads = 1;
  return DualLayerIndex::Build(points, options);
}

// The canonical top-k of the rows not marked in `dead`.
std::vector<ScoredTuple> LiveTopK(const PointSet& points,
                                  const std::vector<char>& dead,
                                  const Point& weights, std::size_t k) {
  std::vector<ScoredTuple> all;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (dead[i] != 0) continue;
    all.push_back({static_cast<TupleId>(i), Score(weights, points[i])});
  }
  std::sort(all.begin(), all.end(), ResultOrderLess);
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameItems(const std::vector<ScoredTuple>& got,
                     const std::vector<ScoredTuple>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].id, want[r].id) << where << " rank " << r;
    EXPECT_EQ(got[r].score, want[r].score) << where << " rank " << r;
  }
}

std::vector<Point> Weights(std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> weights;
  for (int q = 0; q < 5; ++q) weights.push_back(rng.SimplexWeight(d));
  Point axis(d, 0.0);
  axis[0] = 1.0;
  weights.push_back(axis);
  return weights;
}

// Retires tuples of `index` in `order` until `count` are retired,
// marking them in `dead`.
void RetireUpTo(DualLayerIndex* index, const std::vector<TupleId>& order,
                std::size_t count, std::vector<char>* dead) {
  while (index->num_retired() < count) {
    const TupleId id = order[index->num_retired()];
    ASSERT_TRUE(index->Retire(id));
    (*dead)[id] = 1;
  }
}

std::vector<TupleId> Shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<TupleId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<TupleId>(i);
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Index(i)]);
  }
  return order;
}

// 1%, 10%, 50% and 100% of n, at least one tuple each.
std::vector<std::size_t> RetiredCounts(std::size_t n) {
  std::vector<std::size_t> counts;
  for (const std::size_t percent : {1, 10, 50, 100}) {
    counts.push_back(std::max<std::size_t>(1, n * percent / 100));
  }
  return counts;
}

class RetireTest : public ::testing::TestWithParam<RetireCase> {};

// Answers equal the live scan for k in {1, 10, 100, live, live + 5},
// and each costs no more than the unmasked index asked for
// min(n, k + |retired|). A fully retired index answers empty at zero
// cost.
TEST_P(RetireTest, AnswersEqualLiveScanAndCostNoMoreThanOverFetch) {
  const RetireCase c = GetParam();
  const PointSet points = MakeRelation(c);
  const std::size_t n = points.size();
  const DualLayerIndex plain = BuildIndex(points, c.zero_layer);
  DualLayerIndex masked = BuildIndex(points, c.zero_layer);
  const std::vector<TupleId> order = Shuffled(n, 600 + c.d);
  const std::vector<Point> weights = Weights(c.d, 700 + c.d);
  std::vector<char> dead(n, 0);
  for (const std::size_t retired : RetiredCounts(n)) {
    RetireUpTo(&masked, order, retired, &dead);
    ASSERT_EQ(masked.num_retired(), retired);
    const std::size_t live = n - retired;
    for (std::size_t q = 0; q < weights.size(); ++q) {
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{10}, std::size_t{100}, live,
            live + 5}) {
        if (k == 0) continue;
        const std::string where = "retired " + std::to_string(retired) +
                                  " query " + std::to_string(q) +
                                  " k=" + std::to_string(k);
        const TopKResult got = masked.Query(TopKQuery{weights[q], k, {}});
        ASSERT_TRUE(got.complete()) << where << ": " << got.error;
        ExpectSameItems(got.items, LiveTopK(points, dead, weights[q], k),
                        where);
        EXPECT_EQ(got.accessed.size(), got.stats.tuples_evaluated) << where;
        if (live == 0) {
          EXPECT_EQ(got.stats.tuples_evaluated, 0u) << where;
          EXPECT_EQ(got.stats.virtual_evaluated, 0u) << where;
          continue;
        }
        const TopKResult over =
            plain.Query(TopKQuery{weights[q], std::min(n, k + retired), {}});
        EXPECT_LE(got.stats.tuples_evaluated, over.stats.tuples_evaluated)
            << where;
      }
    }
  }
}

// Retiring tuples an unmasked query never scored leaves that query's
// answer, cost and access sequence exactly as they were.
TEST_P(RetireTest, UntouchedRetirementsChangeNothing) {
  const RetireCase c = GetParam();
  const PointSet points = MakeRelation(c);
  const DualLayerIndex plain = BuildIndex(points, c.zero_layer);
  DualLayerIndex masked = BuildIndex(points, c.zero_layer);
  const std::vector<Point> weights = Weights(c.d, 710 + c.d);
  std::vector<TopKResult> before;
  std::vector<char> touched(points.size(), 0);
  for (const Point& w : weights) {
    before.push_back(plain.Query(TopKQuery{w, 10, {}}));
    for (const TupleId id : before.back().accessed) touched[id] = 1;
  }
  for (std::size_t i = 0; i < points.size(); i += 2) {
    if (touched[i] == 0) masked.Retire(static_cast<TupleId>(i));
  }
  ASSERT_GT(masked.num_retired(), 0u);
  for (std::size_t q = 0; q < weights.size(); ++q) {
    const TopKResult after = masked.Query(TopKQuery{weights[q], 10, {}});
    const std::string where = "query " + std::to_string(q);
    ExpectSameItems(after.items, before[q].items, where);
    EXPECT_EQ(after.stats.tuples_evaluated, before[q].stats.tuples_evaluated)
        << where;
    EXPECT_EQ(after.accessed, before[q].accessed) << where;
  }
}

// Every max_evals budget yields a certified prefix of the live answer
// whose frontier bounds every unreturned live score.
TEST_P(RetireTest, BudgetSweepCertifiesLivePrefixes) {
  const RetireCase c = GetParam();
  const PointSet points = MakeRelation(c);
  const std::size_t n = points.size();
  DualLayerIndex masked = BuildIndex(points, c.zero_layer);
  const std::vector<TupleId> order = Shuffled(n, 620 + c.d);
  const std::vector<Point> weights = Weights(c.d, 720 + c.d);
  std::vector<char> dead(n, 0);
  for (const std::size_t retired : {n / 10, n / 2}) {
    RetireUpTo(&masked, order, retired, &dead);
    for (std::size_t q = 0; q < 3; ++q) {
      const Point& w = weights[q];
      const std::vector<ScoredTuple> want = LiveTopK(points, dead, w, 10);
      const TopKResult full = masked.Query(TopKQuery{w, 10, {}});
      ExpectSameItems(full.items, want, "unbudgeted");
      for (std::size_t evals = 1; evals <= full.stats.tuples_evaluated;
           evals += 1 + evals / 4) {
        ExecBudget budget;
        budget.max_evals = evals;
        const TopKResult got = masked.Query(TopKQuery{w, 10, budget});
        const std::string where = "retired " + std::to_string(retired) +
                                  " query " + std::to_string(q) +
                                  " max_evals " + std::to_string(evals);
        ASSERT_LE(got.certified_prefix, got.items.size()) << where;
        for (std::size_t r = 0; r < got.certified_prefix; ++r) {
          ASSERT_LT(r, want.size()) << where;
          EXPECT_EQ(got.items[r].id, want[r].id) << where << " rank " << r;
          EXPECT_EQ(got.items[r].score, want[r].score)
              << where << " rank " << r;
        }
        if (got.complete()) {
          ExpectSameItems(got.items, want, where);
          continue;
        }
        std::vector<char> returned(n, 0);
        for (const ScoredTuple& item : got.items) {
          EXPECT_EQ(dead[item.id], 0) << where << " returned " << item.id;
          returned[item.id] = 1;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (dead[i] != 0 || returned[i] != 0) continue;
          EXPECT_LE(got.frontier_bound, Score(w, points[i]))
              << where << " unreturned live tuple " << i;
        }
      }
    }
  }
}

// The box-tree traversal equals the scan over the live rows and never
// scores a retired member.
TEST_P(RetireTest, ConstrainedSkipsRetiredMembers) {
  const RetireCase c = GetParam();
  const PointSet points = MakeRelation(c);
  const std::size_t n = points.size();
  DualLayerIndex masked = BuildIndex(points, c.zero_layer);
  const std::vector<TupleId> order = Shuffled(n, 640 + c.d);
  const std::vector<Point> weights = Weights(c.d, 740 + c.d);
  Rng rng(760 + c.d);
  std::vector<char> dead(n, 0);
  for (const std::size_t retired : RetiredCounts(n)) {
    RetireUpTo(&masked, order, retired, &dead);
    PointSet live_rows(c.d);
    std::vector<TupleId> live_ids;
    for (std::size_t i = 0; i < n; ++i) {
      if (dead[i] != 0) continue;
      live_rows.Add(points[i]);
      live_ids.push_back(static_cast<TupleId>(i));
    }
    for (std::size_t q = 0; q < 3; ++q) {
      // The whole space, then the box spanning two random tuples.
      AttributeBox spanning = AttributeBox::All(c.d);
      const PointView a = points[rng.Index(n)];
      const PointView b = points[rng.Index(n)];
      for (std::size_t j = 0; j < c.d; ++j) {
        spanning.lo[j] = std::min(a[j], b[j]);
        spanning.hi[j] = std::max(a[j], b[j]);
      }
      for (const AttributeBox& box : {AttributeBox::All(c.d), spanning}) {
        for (const std::size_t k : {std::size_t{1}, std::size_t{10},
                                    n - retired + 5}) {
          ConstrainedQuery query;
          query.weights = weights[q];
          query.k = k;
          query.box = box;
          const std::string where = "retired " + std::to_string(retired) +
                                    " query " + std::to_string(q) +
                                    " k=" + std::to_string(k);
          const TopKResult got = ConstrainedTopK(masked, query);
          ASSERT_TRUE(got.complete()) << where << ": " << got.error;
          ExpectSameItems(got.items,
                          ConstrainedScanRows(live_rows, live_ids, query).items,
                          where);
          EXPECT_EQ(got.accessed.size(), got.stats.tuples_evaluated)
              << where;
          for (const TupleId id : got.accessed) {
            EXPECT_EQ(dead[id], 0) << where << " scored retired " << id;
          }
        }
      }
    }
  }
}

std::vector<RetireCase> AllCases() {
  std::vector<RetireCase> cases;
  for (std::size_t d = 2; d <= 5; ++d) {
    for (const Relation relation :
         {Relation::kIndependent, Relation::kAnticorrelated, Relation::kGrid}) {
      for (const bool zero_layer : {false, true}) {
        cases.push_back({d, relation, zero_layer});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cells, RetireTest, ::testing::ValuesIn(AllCases()),
                         CaseName);

TEST(RetireMaskTest, RetireIsIdempotentAndQueryable) {
  DualLayerIndex index = BuildIndex(
      Generate(Distribution::kIndependent, 200, 3, 11), /*zero_layer=*/true);
  EXPECT_EQ(index.num_retired(), 0u);
  EXPECT_FALSE(index.retired(7));
  EXPECT_TRUE(index.Retire(7));
  EXPECT_FALSE(index.Retire(7));
  EXPECT_TRUE(index.retired(7));
  EXPECT_FALSE(index.retired(8));
  EXPECT_EQ(index.num_retired(), 1u);
  EXPECT_EQ(index.size(), 200u);  // the tuple stays in the graph
}

// Diversified top-k reads every row of points(): a retired tuple
// outside every pool would keep the pool bound finite forever, so a
// masked index is refused up front.
TEST(RetireMaskTest, DiversifiedRefusesRetiredIndex) {
  DualLayerIndex index = BuildIndex(
      Generate(Distribution::kAnticorrelated, 300, 3, 12), true);
  DiversifiedQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 5;
  ASSERT_TRUE(DiversifiedTopK(index, index.points(), query).complete());
  index.Retire(4);
  const DiversifiedResult got = DiversifiedTopK(index, index.points(), query);
  EXPECT_EQ(got.termination, Termination::kInvalidQuery);
  EXPECT_NE(got.error.find("retired"), std::string::npos) << got.error;
  EXPECT_TRUE(got.picks.empty());
}

TEST(RetireMaskTest, ReverseTopKRefusesRetiredIndex) {
  DualLayerIndex index = BuildIndex(
      Generate(Distribution::kAnticorrelated, 300, 2, 13), true);
  ReverseTopKQuery query;
  query.target = 9;
  query.k = 10;
  ASSERT_TRUE(ReverseTopK2D(index, query).complete());
  index.Retire(120);
  const ReverseTopKResult got = ReverseTopK2D(index, query);
  EXPECT_EQ(got.termination, Termination::kInvalidQuery);
  EXPECT_NE(got.error.find("retired"), std::string::npos) << got.error;
  EXPECT_TRUE(got.intervals.empty());
}

}  // namespace
}  // namespace drli
