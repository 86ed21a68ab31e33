// Diversified top-k (DESIGN.md "Query scenarios"): greedy re-ranking
// that trades score for spread. The answer is the sequence produced by
// the canonical greedy over the WHOLE relation:
//
//   repeat k times: pick the unselected tuple minimizing
//       g(t) = Score(w, t) + lambda * max_{s in selected} Sim(t, s)
//   with Sim(a, b) = 1 / (1 + ||a - b||_2), ties on g broken by
//   ascending id; the first pick (empty selection) is the canonical
//   top-1. Lower g is better (lower scores are better everywhere in
//   this library) and the similarity penalty pushes picks away from
//   tuples already chosen.
//
// Index acceleration runs the greedy over a certified candidate pool
// instead of the relation: a plain top-m query with m = max(k,
// pool_factor * k), doubled (capped at n) until every pick is
// certified. Every tuple outside a certified top-m pool scores >= the
// pool bound (the m-th item's score for a complete pool, the frontier
// bound for a budgeted partial). Two certificates, in order:
//
//   score:  g_j < pool_bound. The penalty is non-negative, so
//           g(t) >= Score(w, t) >= pool_bound for any outside t.
//   tree:   walk the relation's box tree (geometry/box_tree.h) top
//           down. A node b whose bound
//             fl(max(pool_bound, Score(w, lo_b)) + fl(lambda * pen_b))
//           exceeds g_j is certified whole; pen_b is the max over
//           picks 0..j-1 of SimilarityFloor(lo_b, hi_b, s). Every
//           member t of b has Score(w, t) >= Score(w, lo_b) and
//           Sim(t, s) >= that floor, so the bound is <= g(t) -- bit for
//           bit, because each step (subtract, square, sum, sqrt,
//           reciprocal, scale, add) is monotone in IEEE arithmetic and
//           the bound calls the same Score and Similarity accumulation
//           as the greedy. A leaf whose bound does not exceed g_j has
//           its members tested exactly: pool members are skipped (by
//           id), and every other member t must have (g(t), id) after
//           (g_j, id_j), with g(t) = Score(w, t) + lambda * (max over
//           picks 0..j-1 of Similarity(t, s)) computed in the greedy's
//           own order, so it is the very double the whole-relation
//           greedy would compare (DESIGN.md "Diversified top-k").
//
// Either way a certified pick precedes every out-of-pool tuple in
// (g, id) order. Picks are certified in
// selection order until the first uncertified one (later penalties
// depend on earlier picks); with an unlimited budget the pool doubles
// until every pick is certified (worst case: pool = relation, bound =
// +inf), so the accelerated greedy equals the brute-force greedy
// exactly. The tree certificate is tight: a pick fails it only when
// some outside tuple beats it, so with an unlimited budget the
// doubling stops at the first pool of its schedule whose greedy equals
// the whole relation's. It only runs when the score certificate leaves
// a pick uncertified; it never changes the pool schedule, the pool
// bound, or the counted evaluations -- only the round the doubling
// stops at.

#ifndef DRLI_SCENARIOS_DIVERSIFIED_H_
#define DRLI_SCENARIOS_DIVERSIFIED_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/point.h"
#include "topk/query.h"

namespace drli {

struct DiversifiedQuery {
  Point weights;
  std::size_t k = 1;
  // Penalty strength; 0 reduces the greedy to the canonical top-k in
  // selection order. Must be finite and >= 0.
  double lambda = 0.5;
  // Initial pool size multiplier c: the first pool query asks for
  // max(k, c * k) items. Must be >= 1.
  std::size_t pool_factor = 4;
  ExecBudget budget{};
};

// One greedy selection, in selection order.
struct DiversifiedPick {
  TupleId id = kInvalidTupleId;
  double score = 0.0;    // plain linear score
  double utility = 0.0;  // g at selection time (== score for the first)
};

struct DiversifiedResult {
  std::vector<DiversifiedPick> picks;  // selection order, not score order
  QueryStats stats;
  Termination termination = Termination::kComplete;
  // picks[0 .. certified_prefix) provably equal the brute-force greedy
  // prefix. Equals picks.size() whenever termination == kComplete.
  std::size_t certified_prefix = 0;
  // Pool the final greedy ran over, and the score lower bound that
  // held for every tuple outside it.
  std::size_t pool_size = 0;
  double pool_bound = 0.0;
  std::string error;

  bool complete() const { return termination == Termination::kComplete; }
};

// Sim(a, b) = 1 / (1 + ||a - b||_2), the greedy's similarity.
double Similarity(PointView a, PointView b);

// Sim(far(s), s), where far(s) is the corner of the box [lo, hi]
// farthest from s per coordinate: no t in the box has Sim(t, s) below
// it, as computed doubles.
double SimilarityFloor(PointView lo, PointView hi, PointView s);

// Pool-and-grow greedy over any index family. `points` must be the
// relation `index` was built over (ids index into it); the index
// answers the pool queries, the similarity penalty reads `points`.
// stats accumulates every pool query's cost and nothing else: the
// tree certificate's exact leaf tests score out-of-pool tuples from
// `points` without counting them, so tuples_evaluated stays what a
// replay of the pool queries counts. The tree certificate walks the box
// tree of `points`: the index's own (DualLayerIndex::box_tree) when
// `index` is a DualLayerIndex and `points` is the very object its
// points() returns, else one built on demand, only when the score
// certificate fails. Either tree gives the same answer.
DiversifiedResult DiversifiedTopK(const TopKIndex& index,
                                  const PointSet& points,
                                  const DiversifiedQuery& query);

// Brute-force reference: the same greedy with pool = whole relation
// (bound +inf, everything certified). The differential oracle compares
// engines against this.
DiversifiedResult DiversifiedTopKScan(const PointSet& points,
                                      const DiversifiedQuery& query);

}  // namespace drli

#endif  // DRLI_SCENARIOS_DIVERSIFIED_H_
