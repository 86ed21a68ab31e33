#include "scenarios/diversified.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/kernels_batch.h"
#include "common/soa_points.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"
#include "geometry/box_tree.h"

namespace drli {
namespace {

// 1 / (1 + sqrt(sum_i diff(i)^2)), the one accumulation behind both
// Similarity and SimilarityFloor, so the two round identically.
template <typename Diff>
double SimilarityOf(std::size_t dim, Diff diff) {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double delta = diff(i);
    sum += delta * delta;
  }
  return 1.0 / (1.0 + std::sqrt(sum));
}

Status ValidateDiversified(const DiversifiedQuery& query, std::size_t dim) {
  TopKQuery base;
  base.weights = query.weights;
  base.k = query.k;
  if (Status status = ValidateQuery(base, dim); !status.ok()) return status;
  if (!std::isfinite(query.lambda) || query.lambda < 0.0) {
    return Status::InvalidArgument("lambda must be finite and non-negative");
  }
  if (query.pool_factor < 1) {
    return Status::InvalidArgument("pool_factor must be >= 1");
  }
  return Status::Ok();
}

// The greedy over a pool given in canonical (score, id) order. Both
// the accelerated path and the brute-force reference run exactly this
// code on their pools, so certified prefixes agree bit-for-bit. The
// pool is copied once into a dimension-major view, and each pick costs
// one SimilarityMaxRange call (the running max of Similarity, in
// selection order, bit for bit) plus one argmin pass over
// g = score + lambda * penalty with the (g, id) tie-break. A taken
// candidate's score becomes NaN: its g compares neither below nor
// equal to anything, so it can never be picked again, while an
// untaken g of +inf still wins against the +inf start on its id.
std::vector<DiversifiedPick> GreedySelect(const PointSet& points,
                                          const std::vector<ScoredTuple>& pool,
                                          double lambda, std::size_t k) {
  const std::size_t m = pool.size();
  const std::size_t want = std::min(k, m);
  std::vector<DiversifiedPick> picks;
  picks.reserve(want);
  if (want == 0) return picks;
  std::vector<std::uint32_t> ids(m);
  std::vector<double> score(m);
  for (std::size_t i = 0; i < m; ++i) {
    ids[i] = pool[i].id;
    score[i] = pool[i].score;
  }
  const SoaPointSet soa = SoaPointSet::FromSubset(points, ids);
  // max over already-picked similarities, per pool candidate.
  std::vector<double> penalty(m, 0.0);
  for (;;) {
    std::size_t best = m;
    double best_g = std::numeric_limits<double>::infinity();
    std::uint32_t best_id = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < m; ++i) {
      const double g = score[i] + lambda * penalty[i];
      if (g < best_g || (g == best_g && ids[i] < best_id)) {
        best = i;
        best_g = g;
        best_id = ids[i];
      }
    }
    if (best == m) return picks;  // only NaN g left: rows holding NaN
    picks.push_back(DiversifiedPick{best_id, score[best], best_g});
    if (picks.size() == want) return picks;
    score[best] = std::numeric_limits<double>::quiet_NaN();
    SimilarityMaxRange(soa, m, points[best_id], penalty.data());
  }
}

// Leading run of picks whose utility is strictly below the pool bound
// -- certification is prefix-only: once one pick could have been
// beaten by an out-of-pool tuple, every later penalty is suspect.
std::size_t CertifiedPicks(const std::vector<DiversifiedPick>& picks,
                           double pool_bound) {
  std::size_t certified = 0;
  while (certified < picks.size() &&
         picks[certified].utility < pool_bound) {
    ++certified;
  }
  return certified;
}

// The box-tree certificate (header comment) over the rounds of one
// query. For pick j the tree is walked top-down: a node whose bound
// exceeds g_j is certified as a whole, a leaf whose bound does not has
// its out-of-pool members tested exactly. A node's penalty floor folds
// the picks lazily, only when the walk first needs it at some later
// pick.
//
// The floors live for the whole query. They only ever fold certified
// picks, and certified picks are the whole relation's greedy prefix:
// each round's pool holds the last one, so its greedy begins with them
// and they stay certified. A round therefore resumes after the picks
// certified so far, on the floors already folded.
class TreeCertificate {
 public:
  TreeCertificate(const PointSet& points, const BoxTree& tree)
      : points_(points),
        tree_(tree),
        penalty_(tree.num_nodes(), 0.0),
        upto_(tree.num_nodes(), 0),
        in_pool_(points.size(), 0) {}

  // The certified prefix of `picks`, the greedy over `pool` (the
  // certified pool, whose outside scores >= pool_bound), given that
  // picks[0 .. certified) are certified.
  std::size_t Certify(const std::vector<DiversifiedPick>& picks,
                      std::size_t certified,
                      const std::vector<ScoredTuple>& pool,
                      double pool_bound, const DiversifiedQuery& query) {
    std::size_t same = 0;
    while (same < certified_.size() && same < picks.size() &&
           picks[same].id == certified_[same]) {
      ++same;
    }
    if (same < certified_.size()) {
      // Only a budget-cut pool, smaller than the last one, can miss a
      // certified pick: fold the floors again from the first pick.
      std::fill(penalty_.begin(), penalty_.end(), 0.0);
      std::fill(upto_.begin(), upto_.end(), 0);
      certified_.clear();
    }
    certified = std::max(certified, certified_.size());
    for (const ScoredTuple& item : pool) in_pool_[item.id] = 1;
    while (certified < picks.size() &&
           PickBeatsOutside(picks, certified, pool_bound, query)) {
      ++certified;
    }
    for (std::size_t j = certified_.size(); j < certified; ++j) {
      certified_.push_back(picks[j].id);
    }
    for (const ScoredTuple& item : pool) in_pool_[item.id] = 0;
    return certified;
  }

 private:
  // True iff every out-of-pool tuple t has (g(t), id_t) after
  // (g_j, id_j), the utility and id of picks[j].
  bool PickBeatsOutside(const std::vector<DiversifiedPick>& picks,
                        std::size_t j, double pool_bound,
                        const DiversifiedQuery& query) {
    const double g = picks[j].utility;
    const TupleId id = picks[j].id;
    stack_.assign(1, 0);
    while (!stack_.empty()) {
      const std::size_t node = stack_.back();
      stack_.pop_back();
      const PointView lo = tree_.lo(node);
      const double base = std::max(pool_bound, Score(query.weights, lo));
      if (base > g) continue;
      for (; upto_[node] < j; ++upto_[node]) {
        const PointView pick = points_[picks[upto_[node]].id];
        penalty_[node] = std::max(penalty_[node],
                                  SimilarityFloor(lo, tree_.hi(node), pick));
      }
      if (base + query.lambda * penalty_[node] > g) continue;
      if (!tree_.is_leaf(node)) {
        stack_.push_back(tree_.left(node));
        stack_.push_back(tree_.left(node) + 1);
        continue;
      }
      for (const TupleId t : tree_.members(node)) {
        if (in_pool_[t]) continue;
        const PointView row = points_[t];
        const double score = Score(query.weights, row);
        if (score > g) continue;  // the penalty term only adds
        // The greedy's own g(t): the same running max over the picks
        // in selection order, then the same score + lambda * penalty.
        double pen = 0.0;
        for (std::size_t s = 0; s < j; ++s) {
          pen = std::max(pen, Similarity(row, points_[picks[s].id]));
        }
        const double gt = score + query.lambda * pen;
        if (gt < g || (gt == g && t < id)) return false;
      }
    }
    return true;
  }

  const PointSet& points_;
  const BoxTree& tree_;
  std::vector<double> penalty_;       // per node, over picks [0, upto_)
  std::vector<std::uint32_t> upto_;   // per node
  std::vector<std::size_t> stack_;
  std::vector<char> in_pool_;         // per tuple, this round's pool
  std::vector<TupleId> certified_;    // the picks certified so far
};

// Pool-and-grow body. `tree` is the index's own box tree of `points`,
// or null to build one on first need.
DiversifiedResult RunDiversified(const TopKIndex& index,
                                 const PointSet& points,
                                 const DiversifiedQuery& query,
                                 const BoxTree* tree) {
  Stopwatch timer;
  DiversifiedResult result;
  if (Status status = ValidateDiversified(query, points.dim());
      !status.ok()) {
    result.termination = Termination::kInvalidQuery;
    result.error = status.ToString();
    return result;
  }
  const std::size_t n = index.size();
  if (query.k == 0 || n == 0) {
    result.termination = Termination::kComplete;
    result.pool_bound = std::numeric_limits<double>::infinity();
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  // The on-demand tree and the tree certificate, both made at the first
  // round the score certificate falls short; the certificate then
  // carries its floors and certified picks to the later rounds.
  std::optional<BoxTree> built;
  std::optional<TreeCertificate> certificate;
  // pool_factor * k (>= k, pool_factor >= 1) capped at n. pool_factor
  // comes from the client, so a product past n is never formed.
  std::size_t m = query.pool_factor > n / query.k
                      ? n
                      : query.pool_factor * query.k;
  for (;;) {
    TopKQuery pool_query;
    pool_query.weights = query.weights;
    pool_query.k = m;
    const Termination remaining =
        RemainingBudget(query.budget, result.stats.tuples_evaluated, timer,
                        &pool_query.budget);
    if (remaining != Termination::kComplete) {
      // Budget gone before the (re)grown pool could run: keep whatever
      // the previous round certified.
      result.termination = remaining;
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }

    const TopKResult pool_result = index.Query(pool_query);
    result.stats.Merge(pool_result.stats);
    if (pool_result.termination == Termination::kInvalidQuery ||
        pool_result.termination == Termination::kError) {
      result.termination = pool_result.termination;
      result.error = pool_result.error;
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }

    // The certified pool and the score bound no out-of-pool tuple can
    // beat: +inf when the pool is the whole relation, the m-th score
    // for a complete smaller pool (a non-pool tuple canonically
    // follows the m-th item), the frontier bound for a partial.
    std::vector<ScoredTuple> pool(
        pool_result.items.begin(),
        pool_result.items.begin() +
            (pool_result.complete() ? pool_result.items.size()
                                    : pool_result.certified_prefix));
    double pool_bound;
    if (!pool_result.complete()) {
      pool_bound = pool_result.frontier_bound;
    } else if (pool.size() >= n) {
      pool_bound = std::numeric_limits<double>::infinity();
    } else {
      pool_bound = pool.empty()
                       ? -std::numeric_limits<double>::infinity()
                       : pool.back().score;
    }

    result.picks = GreedySelect(points, pool, query.lambda, query.k);
    result.pool_size = pool.size();
    result.pool_bound = pool_bound;
    result.certified_prefix = CertifiedPicks(result.picks, pool_bound);
    if (result.certified_prefix < result.picks.size()) {
      if (!certificate) {
        if (tree == nullptr) tree = &built.emplace(BoxTree::Build(points));
        certificate.emplace(points, *tree);
      }
      result.certified_prefix = certificate->Certify(
          result.picks, result.certified_prefix, pool, pool_bound, query);
    }
    const std::size_t want = std::min<std::size_t>(query.k, n);
    if (result.certified_prefix == result.picks.size() &&
        result.picks.size() == want) {
      result.termination = Termination::kComplete;
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }
    if (!pool_result.complete()) {
      // Partial pool: report the budget trip with the prefix the
      // certificate still covers.
      result.termination = pool_result.termination;
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }
    // Complete pool but an uncertified pick: grow and retry (the pool
    // is strictly below the relation size here, otherwise the bound
    // was +inf and everything certified).
    m = std::min(n, m * 2);
  }
}

}  // namespace

double SimilarityFloor(PointView lo, PointView hi, PointView s) {
  // The farthest box corner from s, per coordinate: the box end whose
  // rounded difference from s has the larger magnitude. fl(x - s_i) is
  // monotone in x, so every member's |fl(t_i - s_i)| is at most that
  // one.
  return SimilarityOf(s.size(), [&](std::size_t i) {
    const double to_lo = lo[i] - s[i];
    const double to_hi = hi[i] - s[i];
    return std::fabs(to_lo) >= std::fabs(to_hi) ? to_lo : to_hi;
  });
}

double Similarity(PointView a, PointView b) {
  return SimilarityOf(a.size(), [&](std::size_t i) { return a[i] - b[i]; });
}

DiversifiedResult DiversifiedTopK(const TopKIndex& index,
                                  const PointSet& points,
                                  const DiversifiedQuery& query) {
  const auto* dl = dynamic_cast<const DualLayerIndex*>(&index);
  if (dl != nullptr && dl->num_retired() != 0) {
    // The penalty and the tree certificate read every row of points(),
    // retired ones included: a retired tuple outside every pool would
    // keep the pool bound finite, and the doubling would never stop.
    DiversifiedResult result;
    result.termination = Termination::kInvalidQuery;
    result.error = Status::InvalidArgument(
                       "diversified top-k needs an index without retired "
                       "tuples (" + std::to_string(dl->num_retired()) +
                       " retired)")
                       .ToString();
    return result;
  }
  return RunDiversified(
      index, points, query,
      dl != nullptr && &dl->points() == &points ? &dl->box_tree() : nullptr);
}

DiversifiedResult DiversifiedTopKScan(const PointSet& points,
                                      const DiversifiedQuery& query) {
  Stopwatch timer;
  DiversifiedResult result;
  if (Status status = ValidateDiversified(query, points.dim());
      !status.ok()) {
    result.termination = Termination::kInvalidQuery;
    result.error = status.ToString();
    return result;
  }
  std::vector<ScoredTuple> pool;
  pool.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    pool.push_back(ScoredTuple{static_cast<TupleId>(i),
                               Score(query.weights, points[i])});
  }
  std::sort(pool.begin(), pool.end(), ResultOrderLess);
  result.stats.tuples_evaluated = points.size();
  result.picks = GreedySelect(points, pool, query.lambda, query.k);
  result.pool_size = pool.size();
  result.pool_bound = std::numeric_limits<double>::infinity();
  result.certified_prefix = result.picks.size();
  result.termination = Termination::kComplete;
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace drli
