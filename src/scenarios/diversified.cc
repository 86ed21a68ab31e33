#include "scenarios/diversified.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "common/stopwatch.h"

namespace drli {
namespace {

// 1 / (1 + sqrt(sum_i diff(i)^2)), the one accumulation behind both
// Similarity and the cell floor, so the two round identically.
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
// code on their pools, so certified prefixes agree bit-for-bit: same
// Similarity arithmetic, same running-max accumulation (in selection
// order), same (g, id) tie-break.
std::vector<DiversifiedPick> GreedySelect(const PointSet& points,
                                          const std::vector<ScoredTuple>& pool,
                                          double lambda, std::size_t k) {
  std::vector<DiversifiedPick> picks;
  // max over already-picked similarities, per pool candidate.
  std::vector<double> penalty(pool.size(), 0.0);
  std::vector<char> taken(pool.size(), 0);
  while (picks.size() < k) {
    std::size_t best = pool.size();
    double best_g = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      const double g = pool[i].score + lambda * penalty[i];
      if (best == pool.size() || g < best_g ||
          (g == best_g && pool[i].id < pool[best].id)) {
        best = i;
        best_g = g;
      }
    }
    if (best == pool.size()) break;  // pool exhausted
    taken[best] = 1;
    picks.push_back(DiversifiedPick{pool[best].id, pool[best].score, best_g});
    const PointView chosen = points[pool[best].id];
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      penalty[i] =
          std::max(penalty[i], Similarity(points[pool[i].id], chosen));
    }
  }
  return picks;
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

// The cell certificate (header comment), continuing from the first
// pick the score certificate left uncertified. `order` lists the
// cells by ascending Score(w, lo_c) (`lo_score`), so the scan for
// pick j stops at the first cell whose base exceeds g_j: no later
// cell can reach it. A cell's penalty catches up lazily, only when
// its base first falls at or below some g_j.
std::size_t CellCertifiedPicks(const PointSet& points,
                               const std::vector<DiversifiedPick>& picks,
                               std::size_t certified, double pool_bound,
                               double lambda, const RelationCells& cells,
                               const std::vector<double>& lo_score,
                               const std::vector<std::uint32_t>& order) {
  std::vector<double> penalty(cells.num_cells(), 0.0);
  std::vector<std::uint32_t> upto(cells.num_cells(), 0);
  for (; certified < picks.size(); ++certified) {
    const double g = picks[certified].utility;
    for (const std::uint32_t c : order) {
      const double base = std::max(pool_bound, lo_score[c]);
      if (base > g) break;
      for (; upto[c] < certified; ++upto[c]) {
        penalty[c] = std::max(
            penalty[c],
            cells.SimilarityFloor(c, points[picks[upto[c]].id]));
      }
      if (base + lambda * penalty[c] <= g) return certified;
    }
  }
  return certified;
}

// Pool-and-grow body shared by both overloads. `cells` is the
// caller's catalog, or null to build one on first need.
DiversifiedResult RunDiversified(const TopKIndex& index,
                                 const PointSet& points,
                                 const DiversifiedQuery& query,
                                 const RelationCells* cells) {
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

  // The on-demand catalog and the per-query cell score floors, made at
  // the first round the score certificate falls short.
  std::optional<RelationCells> built;
  std::vector<double> lo_score;
  std::vector<std::uint32_t> order;
  std::size_t m = std::min(n, std::max(query.k,
                                       query.pool_factor * query.k));
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
      if (cells == nullptr) {
        cells = &built.emplace(RelationCells::Build(points));
      }
      if (order.empty()) {
        // Once per query: the cells' score floors, ascending.
        lo_score.resize(cells->num_cells());
        for (std::size_t c = 0; c < lo_score.size(); ++c) {
          lo_score[c] = Score(query.weights, cells->cell_lo(c));
        }
        order.resize(lo_score.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return lo_score[a] < lo_score[b];
                  });
      }
      result.certified_prefix = CellCertifiedPicks(
          points, result.picks, result.certified_prefix, pool_bound,
          query.lambda, *cells, lo_score, order);
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

RelationCells RelationCells::Build(const PointSet& points) {
  RelationCells cells;
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  cells.dim = d;
  if (n == 0) return cells;
  // The largest G with G^d * 40 <= n (at least 1), so the slot table
  // never holds more than n / 40 entries, whatever d is.
  const auto fits = [&](std::size_t g) {
    std::size_t slots = 1;
    for (std::size_t i = 0; i < d; ++i) {
      if (slots > n / (40 * g)) return false;
      slots *= g;
    }
    return true;
  };
  cells.grid = 1;
  while (fits(cells.grid + 1)) ++cells.grid;
  const PointView first = points[0];
  cells.origin.assign(first.begin(), first.end());
  std::vector<double> top(first.begin(), first.end());
  for (std::size_t t = 1; t < n; ++t) {
    const PointView p = points[t];
    for (std::size_t i = 0; i < d; ++i) {
      cells.origin[i] = std::min(cells.origin[i], p[i]);
      top[i] = std::max(top[i], p[i]);
    }
  }
  cells.scale.assign(d, 0.0);
  std::size_t slots = 1;
  for (std::size_t i = 0; i < d; ++i) {
    const double extent = top[i] - cells.origin[i];
    if (extent > 0.0) cells.scale[i] = static_cast<double>(cells.grid) / extent;
    slots *= cells.grid;
  }
  cells.cell_of_slot.assign(slots, kEmpty);
  for (std::size_t t = 0; t < n; ++t) {
    const PointView p = points[t];
    std::uint32_t& cell = cells.cell_of_slot[cells.SlotOf(p)];
    if (cell == kEmpty) {
      cell = static_cast<std::uint32_t>(cells.num_cells());
      cells.lo.insert(cells.lo.end(), p.begin(), p.end());
      cells.hi.insert(cells.hi.end(), p.begin(), p.end());
      continue;
    }
    double* lo = cells.lo.data() + cell * d;
    double* hi = cells.hi.data() + cell * d;
    for (std::size_t i = 0; i < d; ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  }
  return cells;
}

std::size_t RelationCells::CellOf(PointView point) const {
  return cell_of_slot[SlotOf(point)];
}

std::size_t RelationCells::SlotOf(PointView point) const {
  std::size_t slot = 0;
  const auto last = static_cast<double>(grid - 1);
  for (std::size_t i = 0; i < dim; ++i) {
    // Clamped as a double, so a non-finite coordinate cannot reach the
    // integer conversion.
    const double at = (point[i] - origin[i]) * scale[i];
    slot = slot * grid + (!(at >= 1.0)  ? 0
                          : at >= last ? grid - 1
                                       : static_cast<std::size_t>(at));
  }
  return slot;
}

double RelationCells::SimilarityFloor(std::size_t c, PointView s) const {
  // far_c(s) per coordinate: the box end whose rounded difference from
  // s has the larger magnitude. fl(x - s_i) is monotone in x, so every
  // member's |fl(t_i - s_i)| is at most that one.
  const double* l = lo.data() + c * dim;
  const double* h = hi.data() + c * dim;
  return SimilarityOf(dim, [&](std::size_t i) {
    const double to_lo = l[i] - s[i];
    const double to_hi = h[i] - s[i];
    return std::fabs(to_lo) >= std::fabs(to_hi) ? to_lo : to_hi;
  });
}

double Similarity(PointView a, PointView b) {
  return SimilarityOf(a.size(), [&](std::size_t i) { return a[i] - b[i]; });
}

DiversifiedResult DiversifiedTopK(const TopKIndex& index,
                                  const PointSet& points,
                                  const DiversifiedQuery& query) {
  return RunDiversified(index, points, query, nullptr);
}

DiversifiedResult DiversifiedTopK(const TopKIndex& index,
                                  const PointSet& points,
                                  const DiversifiedQuery& query,
                                  const RelationCells& cells) {
  return RunDiversified(index, points, query, &cells);
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
