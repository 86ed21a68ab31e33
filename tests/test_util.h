// Shared helpers for the DRLI test suite: oracles, result comparison and
// random query generation.

#ifndef DRLI_TESTS_TEST_UTIL_H_
#define DRLI_TESTS_TEST_UTIL_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/point.h"
#include "common/random.h"
#include "core/partition_merge.h"
#include "core/tiered_index.h"
#include "topk/query.h"
#include "topk/scan.h"

namespace drli {
namespace testing_util {

// Tuple ids of the paper's Fig. 1 toy dataset in MakeToyDataset().
enum ToyId : TupleId {
  kA = 0,
  kB,
  kC,
  kD,
  kE,
  kF,
  kG,
  kH,
  kI,
  kJ,
  kK,
};

// Coordinates engineered to reproduce every structural fact the paper
// states about its toy dataset (Figs. 1-5, Examples 1-5):
//  * skyline layers {a,b,c,f,g} / {d,e,i,j} / {h,k};
//  * fine sublayers {a,b,c},{f,g} / {d,e,j},{i} / {h,k};
//  * EDS relations: {a,b} is the EDS of f; {b,c} is the EDS of g;
//  * ∀-dominators: d,e <- {a}; i <- {a,f}; j <- {b,g}; h,k <- {j};
//  * for w = (0.5, 0.5): F(a) = 3.5 is top-1, top-3 = {a,b,f},
//    top-5 = {a,b,f,d,e}.
inline PointSet MakeToyDataset() {
  PointSet pts(2);
  pts.Add({1.0, 6.0});   // a
  pts.Add({2.5, 4.7});   // b
  pts.Add({7.0, 1.5});   // c
  pts.Add({1.6, 6.3});   // d
  pts.Add({1.2, 6.8});   // e
  pts.Add({2.0, 5.4});   // f
  pts.Add({4.5, 3.6});   // g
  pts.Add({6.5, 5.3});   // h
  pts.Add({2.3, 6.1});   // i
  pts.Add({4.7, 5.0});   // j
  pts.Add({7.6, 5.2});   // k
  return pts;
}

// Two top-k results agree when their score sequences match within
// tolerance. Tuple identity may legitimately differ on exact score ties,
// so ids are only compared where the adjacent scores are distinct.
inline ::testing::AssertionResult ResultsEquivalent(
    const TopKResult& expected, const TopKResult& actual,
    double tol = 1e-9) {
  if (expected.items.size() != actual.items.size()) {
    return ::testing::AssertionFailure()
           << "result size " << actual.items.size() << " != expected "
           << expected.items.size();
  }
  for (std::size_t i = 0; i < expected.items.size(); ++i) {
    const double want = expected.items[i].score;
    const double got = actual.items[i].score;
    if (std::fabs(want - got) > tol) {
      return ::testing::AssertionFailure()
             << "rank " << i << ": score " << got << " != expected " << want
             << " (ids " << actual.items[i].id << " vs "
             << expected.items[i].id << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// Checks `index` against the full-scan oracle for `num_queries` random
// weight vectors.
inline void ExpectMatchesScan(const TopKIndex& index, const PointSet& points,
                              std::size_t k, std::size_t num_queries,
                              std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t q = 0; q < num_queries; ++q) {
    TopKQuery query;
    query.weights = rng.SimplexWeight(points.dim());
    query.k = k;
    const TopKResult expected = Scan(points, query);
    const TopKResult actual = index.Query(query);
    EXPECT_TRUE(ResultsEquivalent(expected, actual))
        << index.name() << " query " << q << " k=" << k
        << " d=" << points.dim() << " n=" << points.size();
  }
}

// A deterministic batch of random queries.
inline std::vector<TopKQuery> RandomQueries(std::size_t dim, std::size_t k,
                                            std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TopKQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(TopKQuery{rng.SimplexWeight(dim), k});
  }
  return queries;
}

// A tuple (id 0) and its dominator (id 1) whose attribute sums tie: the
// dominator is 1 ulp lower in one coordinate, which rounds away in the
// sum. A (sum, id) order would sweep the dominated tuple first. The
// pair's coordinates lie in [0.2, 1] * scale; `rows` random rows in
// [0, 1]^d follow.
inline PointSet SumTiedDominatorPair(std::size_t d, double scale,
                                     std::size_t rows, Rng* rng) {
  Point dominated(d);
  Point dominator;
  // Retry until the bump rounds away in the sum.
  do {
    for (double& v : dominated) v = scale * rng->Uniform(0.2, 1.0);
    dominator = dominated;
    const std::size_t axis = rng->Index(d);
    dominator[axis] = std::nextafter(dominator[axis], 0.0);
  } while (AttributeSum(PointView(dominated)) !=
           AttributeSum(PointView(dominator)));
  PointSet pts(d);
  pts.Add(PointView(dominated));
  pts.Add(PointView(dominator));
  for (std::size_t row = 0; row < rows; ++row) {
    Point p(d);
    for (double& v : p) v = rng->Uniform();
    pts.Add(PointView(p));
  }
  return pts;
}

// An integer grid in [0, 5]^d with exact duplicates: `rows` draws,
// every fifth one added twice in a row, so bitwise score ties abound.
inline PointSet GridWithDuplicateRows(std::size_t d, std::size_t rows,
                                      Rng* rng) {
  PointSet grid(d);
  for (std::size_t i = 0; i < rows; ++i) {
    Point p(d);
    for (double& x : p) x = static_cast<double>(rng->Index(6));
    grid.Add(p);
    if (i % 5 == 0) grid.Add(p);
  }
  return grid;
}

// An engine's partition set is fresh: on 100 weight vectors every
// partition's bound from the set's block equals `reference(p, w)` --
// CornerLowerBound over that partition's own bound_values -- bit for
// bit. The caller checks that set.parts names the engine's partitions.
template <typename Reference>
void ExpectFreshBounds(const PartitionSet& set, std::size_t dim,
                       const Reference& reference, const std::string& where) {
  Rng rng(4242 + set.parts.size());
  for (std::size_t q = 0; q < 100; ++q) {
    const Point w = rng.SimplexWeight(dim);
    for (std::size_t p = 0; p < set.parts.size(); ++p) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(set.Bound(p, w)),
                std::bit_cast<std::uint64_t>(reference(p, PointView(w))))
          << where << ": partition " << p << " of " << set.parts.size();
    }
  }
}

// The tiered engine's set lists its runs in order, under their uids,
// and bounds each one fresh (ExpectFreshBounds).
inline void ExpectFreshTieredSet(const TieredDualLayerIndex& index,
                                 const std::string& where) {
  const PartitionSet& set = index.partitions();
  ASSERT_EQ(set.parts.size(), index.num_runs()) << where;
  for (std::size_t r = 0; r < index.num_runs(); ++r) {
    ASSERT_EQ(set.parts[r], &index.run(r)) << where << ": run " << r;
    EXPECT_EQ(set.Label(r), "run " + std::to_string(index.run(r).uid))
        << where;
  }
  ExpectFreshBounds(
      set, index.dim(),
      [&index](std::size_t r, PointView w) {
        return CornerLowerBound(index.run(r).bound_values, w);
      },
      where);
}

// Two results of one query agree exactly: items (ids and score bits),
// termination, certified prefix, frontier bits and every counter.
inline void ExpectIdenticalResult(const TopKResult& want,
                                  const TopKResult& got,
                                  const std::string& where) {
  ASSERT_EQ(got.items.size(), want.items.size()) << where;
  for (std::size_t i = 0; i < want.items.size(); ++i) {
    EXPECT_EQ(got.items[i].id, want.items[i].id) << where << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.items[i].score),
              std::bit_cast<std::uint64_t>(want.items[i].score))
        << where << " rank " << i;
  }
  EXPECT_EQ(got.termination, want.termination) << where;
  EXPECT_EQ(got.certified_prefix, want.certified_prefix) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.frontier_bound),
            std::bit_cast<std::uint64_t>(want.frontier_bound))
      << where;
  EXPECT_EQ(got.stats.tuples_evaluated, want.stats.tuples_evaluated)
      << where;
  EXPECT_EQ(got.stats.shards_touched, want.stats.shards_touched) << where;
  EXPECT_EQ(got.stats.runs_opened, want.stats.runs_opened) << where;
  EXPECT_EQ(got.accessed, want.accessed) << where;
}

// Plain reads at k = 10 and budgeted reads under a few step caps: what
// a moved engine must answer exactly as before the move.
inline std::vector<TopKResult> SampleReads(const TopKIndex& index) {
  std::vector<TopKResult> reads;
  for (TopKQuery query : RandomQueries(index.dim(), 10, 12, 77)) {
    reads.push_back(index.Query(query));
    for (const std::size_t cap : {1ul, 7ul, 40ul}) {
      query.budget.max_evals = cap;
      reads.push_back(index.Query(query));
    }
  }
  return reads;
}

}  // namespace testing_util
}  // namespace drli

#endif  // DRLI_TESTS_TEST_UTIL_H_
