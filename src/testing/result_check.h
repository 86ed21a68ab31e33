// The one result check behind every oracle in src/testing. A top-k
// answer is checked against a brute-force canonical top-k over an
// explicit universe -- the (id, row) pairs the query ranks: the whole
// relation, a dynamic engine's live rows, or the rows a constraint box
// admits. One contract holds for complete and partial results alike:
//
//  * rejection: a valid query is never answered kInvalidQuery, kError
//    or kShed, and a query without a budget always completes;
//  * structure: every item cites a universe id, no id twice, its score
//    within kScoreEps of the tuple's own score, items in canonical
//    (score, id) order;
//  * certification: the certified prefix fits in the items and in the
//    exact answer; a complete result certifies every item and returns
//    the full answer;
//  * prefix equality: the certified items equal the exact answer's
//    prefix under the oracle's match rule;
//  * frontier soundness: a partial result's frontier bound is at most
//    kScoreEps above the score of every universe tuple it did not
//    return.
//
// Diversified answers are greedy selections, not a top-k, so they get
// one small check of (id, score, utility) against the reference greedy.

#ifndef DRLI_TESTING_RESULT_CHECK_H_
#define DRLI_TESTING_RESULT_CHECK_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/point.h"
#include "scenarios/diversified.h"
#include "scenarios/scenario_box.h"
#include "topk/query.h"

namespace drli {

// Scores closer than this are one tie class for MatchRule::kTieClass,
// and bound the FP slack of the honesty and frontier checks; distinct
// scores on the supported datasets are separated by far more, ulp-level
// splits by far less.
inline constexpr double kScoreEps = 1e-9;

// How a certified item must match the exact answer at its rank.
enum class MatchRule {
  // The same id and the same score bits.
  kExact,
  // The same score bits; either member of an exact tie may appear (FA).
  kScoreOnly,
  // The returned score and the cited tuple's own score both within
  // kScoreEps of the reference score: the fallback on queries whose
  // scores split by an ulp, which geometric families cannot honor.
  kTieClass,
};

// The tuples a query ranks: row i of `rows` carries the id ids[i], and
// the ids ascend.
struct CheckUniverse {
  std::vector<TupleId> ids;
  PointSet rows;

  // Ids 0..n-1 over `points`.
  static CheckUniverse Of(const PointSet& points);
  // The live rows of a dynamic engine, keyed by their stable ids.
  static CheckUniverse Of(const std::map<TupleId, Point>& live,
                          std::size_t dim);
  // The rows `box` contains: the universe of a constrained query.
  CheckUniverse InBox(const AttributeBox& box) const;
};

// The brute-force canonical top-k of a universe under one weight
// vector, and the check of a result against it.
class TopKReference {
 public:
  TopKReference(const CheckUniverse& universe, const Point& weights,
                std::size_t k);

  // The exact answer: the k best (score, id) pairs in canonical order.
  const std::vector<ScoredTuple>& answer() const { return answer_; }
  // Every universe row's score, by row.
  const std::vector<double>& scores() const { return scores_; }
  // Whether every two scores are bitwise equal or more than kScoreEps
  // apart; oracles fall back to kTieClass when they are not.
  bool robust() const { return robust_; }

  // The first violation of the contract above by `got`, a result of a
  // query run under `budget`; empty when there is none.
  std::string Check(const TopKResult& got, MatchRule rule,
                    const ExecBudget& budget) const;

 private:
  std::vector<TupleId> ids_;
  std::vector<double> scores_;
  std::vector<ScoredTuple> answer_;
  bool robust_ = true;
};

// Whether the first `n` items of `a` and `b` have the same ids and
// score bits; false when either holds fewer than `n`.
bool SameExactPrefix(const std::vector<ScoredTuple>& a,
                     const std::vector<ScoredTuple>& b, std::size_t n);

// The first violation by the diversified result `got`, run under
// `budget`, against the reference greedy `want` (ids in got's id
// space): rejection and certification as above, and each certified
// pick equal to want's in id, score and utility bits. Empty when none.
std::string CheckPicks(const DiversifiedResult& got,
                       const DiversifiedResult& want,
                       const ExecBudget& budget);

}  // namespace drli

#endif  // DRLI_TESTING_RESULT_CHECK_H_
