// Shared helpers for the DRLI test suite: oracles, result comparison and
// random query generation.

#ifndef DRLI_TESTS_TEST_UTIL_H_
#define DRLI_TESTS_TEST_UTIL_H_

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

#include "common/point.h"
#include "common/random.h"
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

}  // namespace testing_util
}  // namespace drli

#endif  // DRLI_TESTS_TEST_UTIL_H_
