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
//   cell:   g_j < min_c fl(max(pool_bound, Score(w, lo_c))
//                          + fl(lambda * pen_c)),
//           over the non-empty cells c of a RelationCells catalog,
//           where pen_c = max over picks 0..j-1 of Sim(far_c(s), s)
//           and far_c(s) is the corner of c's member box farthest
//           from s per coordinate. Every member t of c has
//           Score(w, t) >= Score(w, lo_c) and Sim(t, s) >=
//           Sim(far_c(s), s), so the cell bound is <= g(t) -- bit
//           for bit, because each step (subtract, square, sum, sqrt,
//           reciprocal, scale, add) is monotone in IEEE arithmetic and
//           the bound calls the same Score and Similarity as the
//           greedy (DESIGN.md "Diversified top-k").
//
// Either way a certified pick's g is strictly below that of every
// out-of-pool tuple, id tie-break included. Picks are certified in
// selection order until the first uncertified one (later penalties
// depend on earlier picks); with an unlimited budget the pool doubles
// until every pick is certified (worst case: pool = relation, bound =
// +inf), so the accelerated greedy equals the brute-force greedy
// exactly. The cell certificate only runs when the score certificate
// leaves a pick uncertified; it never changes the pool schedule, the
// pool bound, or the counted evaluations.

#ifndef DRLI_SCENARIOS_DIVERSIFIED_H_
#define DRLI_SCENARIOS_DIVERSIFIED_H_

#include <cstddef>
#include <cstdint>
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

// The relation cell catalog behind the cell certificate: a uniform
// grid of G cells per dimension over the relation's bounding box,
// G = max(1, floor((n / 40)^(1/d))), keeping each non-empty cell's
// member box: at most n / 40 grid slots, at any d. A pure function of the point set, built in one O(n * d)
// pass; serving engines build one per generation.
struct RelationCells {
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  std::size_t dim = 0;
  std::size_t grid = 0;        // G; 0 for an empty relation
  std::vector<double> origin;  // bounding-box minimum, per dimension
  std::vector<double> scale;   // G / extent, 0 for a constant dimension
  // Grid slot (row-major over the G^d cells) -> cell index, or kEmpty.
  std::vector<std::uint32_t> cell_of_slot;
  // Member boxes, cell-major: lo[c * dim + i] and hi[c * dim + i].
  std::vector<double> lo;
  std::vector<double> hi;

  static RelationCells Build(const PointSet& points);

  std::size_t num_cells() const { return dim == 0 ? 0 : lo.size() / dim; }
  PointView cell_lo(std::size_t c) const {
    return PointView(lo.data() + c * dim, dim);
  }
  // The cell holding `point`, which must be a member of the relation
  // the catalog was built over.
  std::size_t CellOf(PointView point) const;
  // The grid slot of `point` (clamped into the grid).
  std::size_t SlotOf(PointView point) const;
  // Sim(far_c(s), s): no member t of cell c has Sim(t, s) below it.
  double SimilarityFloor(std::size_t c, PointView s) const;
};

// Sim(a, b) = 1 / (1 + ||a - b||_2), the greedy's similarity.
double Similarity(PointView a, PointView b);

// Pool-and-grow greedy over any index family. `points` must be the
// relation `index` was built over (ids index into it); the index
// answers the pool queries, the similarity penalty reads `points`.
// stats accumulates every pool query's cost; the greedy and the
// certificates score no new tuples. Builds the cell catalog of
// `points` on demand, only when the score certificate fails.
DiversifiedResult DiversifiedTopK(const TopKIndex& index,
                                  const PointSet& points,
                                  const DiversifiedQuery& query);

// The same with a prebuilt catalog, which must be
// RelationCells::Build(points); returns exactly what the overload
// above returns.
DiversifiedResult DiversifiedTopK(const TopKIndex& index,
                                  const PointSet& points,
                                  const DiversifiedQuery& query,
                                  const RelationCells& cells);

// Brute-force reference: the same greedy with pool = whole relation
// (bound +inf, everything certified). The differential oracle compares
// engines against this.
DiversifiedResult DiversifiedTopKScan(const PointSet& points,
                                      const DiversifiedQuery& query);

}  // namespace drli

#endif  // DRLI_SCENARIOS_DIVERSIFIED_H_
