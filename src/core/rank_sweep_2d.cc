#include "core/rank_sweep_2d.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/check.h"

namespace drli {

namespace {

constexpr double kWeightTol = 1e-13;

struct SwapEvent {
  double w;            // crossing weight
  TupleId upper;       // currently ranked just above (better)
  TupleId lower;       // currently ranked just below
};

struct EventLater {
  bool operator()(const SwapEvent& a, const SwapEvent& b) const {
    if (a.w != b.w) return a.w > b.w;
    if (a.upper != b.upper) return a.upper > b.upper;
    return a.lower > b.lower;
  }
};

// Score line of tuple t: f_t(w) = intercept + w * slope, with
// intercept t_2 and slope t_1 - t_2.
double Intercept(const PointSet& points, TupleId t) { return points.At(t, 1); }
double Slope(const PointSet& points, TupleId t) {
  return points.At(t, 0) - points.At(t, 1);
}

// Whether `a` ranks above `b` just right of w = 0: by intercept,
// slope-tiebreak, then id.
bool AboveAtZero(const PointSet& points, TupleId a, TupleId b) {
  const double ia = Intercept(points, a), ib = Intercept(points, b);
  if (ia != ib) return ia < ib;
  const double sa = Slope(points, a), sb = Slope(points, b);
  if (sa != sb) return sa < sb;
  return a < b;
}

// The weight in (0, 1) at which `upper`, ranked above `lower`, falls
// below it; 2.0 when the pair never swaps inside (0, 1).
double CrossingWeight(const PointSet& points, TupleId upper, TupleId lower) {
  // Equal first attributes tie the scores exactly at w = 1 and nowhere
  // else: there is no interior crossing. This test must be exact --
  // the generic formula below rounds such crossings to 1 - ulp, which
  // would fabricate an interior breakpoint whose sliver segment
  // carries a fully inverted (and wrong) order.
  if (points.At(upper, 0) == points.At(lower, 0)) return 2.0;
  const double slope_diff = Slope(points, upper) - Slope(points, lower);
  if (slope_diff <= 0.0) return 2.0;  // upper stays at or below
  const double w =
      (Intercept(points, lower) - Intercept(points, upper)) / slope_diff;
  return w < 1.0 ? w : 2.0;
}

}  // namespace

const std::vector<TupleId>& RankSweepResult::SetAt(double w1) const {
  DRLI_CHECK(!topk_sets.empty());
  const auto it =
      std::upper_bound(breakpoints.begin(), breakpoints.end(), w1);
  return topk_sets[static_cast<std::size_t>(it - breakpoints.begin())];
}

RankSweepResult SweepTopKSets2D(const PointSet& points, std::size_t k) {
  DRLI_CHECK_EQ(points.dim(), 2u);
  DRLI_CHECK_GE(k, 1u);
  const std::size_t n = points.size();
  RankSweepResult result;
  if (n == 0) {
    result.topk_sets.push_back({});
    return result;
  }
  k = std::min(k, n);

  std::vector<TupleId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](TupleId a, TupleId b) {
    return AboveAtZero(points, a, b);
  });
  std::vector<std::size_t> position(n);
  for (std::size_t i = 0; i < n; ++i) position[order[i]] = i;

  // Crossing weight of an adjacent pair, or a sentinel > 1 when the
  // pair never swaps at or after `after` inside (0, 1). `after` is
  // passed slightly below the sweep position so that cascades of
  // crossings at one weight (concurrent lines) are not lost.
  auto crossing = [&](TupleId upper, TupleId lower, double after) {
    const double w = CrossingWeight(points, upper, lower);
    return w < after ? 2.0 : w;
  };

  std::priority_queue<SwapEvent, std::vector<SwapEvent>, EventLater> events;
  auto schedule = [&](std::size_t pos, double after) {
    if (pos + 1 >= n) return;
    const TupleId upper = order[pos];
    const TupleId lower = order[pos + 1];
    const double w = crossing(upper, lower, after);
    if (w <= 1.0) events.push(SwapEvent{w, upper, lower});
  };
  for (std::size_t pos = 0; pos + 1 < n; ++pos) schedule(pos, kWeightTol);

  auto snapshot = [&]() {
    std::vector<TupleId> set(order.begin(), order.begin() + k);
    std::sort(set.begin(), set.end());
    return set;
  };
  result.topk_sets.push_back(snapshot());

  double current_w = 0.0;
  while (!events.empty()) {
    const SwapEvent event = events.top();
    events.pop();
    // Stale events: the pair is no longer adjacent in this order. A
    // pair crosses at most once, so adjacency in the original
    // orientation plus a positive slope difference means the swap is
    // genuine.
    const std::size_t pos = position[event.upper];
    if (pos + 1 >= n || order[pos + 1] != event.lower) continue;
    if (crossing(event.upper, event.lower, current_w - kWeightTol) > 1.0) {
      continue;
    }

    current_w = std::max(current_w, event.w);
    std::swap(order[pos], order[pos + 1]);
    position[event.upper] = pos + 1;
    position[event.lower] = pos;

    // New adjacencies around the swapped pair; allow crossings at the
    // current weight so same-weight cascades are scheduled.
    if (pos > 0) schedule(pos - 1, current_w - kWeightTol);
    schedule(pos, current_w - kWeightTol);
    schedule(pos + 1, current_w - kWeightTol);

    // Only a swap across the k-boundary changes the top-k set.
    if (pos + 1 == k) {
      if (!result.breakpoints.empty() &&
          event.w <= result.breakpoints.back() + kWeightTol) {
        // Cascade at (numerically) the same weight: update in place.
        result.topk_sets.back() = snapshot();
      } else {
        result.breakpoints.push_back(event.w);
        result.topk_sets.push_back(snapshot());
      }
    }
  }

  // Drop no-op intervals (a tuple can leave and re-enter within one
  // cascade).
  std::vector<double> bps;
  std::vector<std::vector<TupleId>> sets;
  sets.push_back(std::move(result.topk_sets.front()));
  for (std::size_t i = 0; i < result.breakpoints.size(); ++i) {
    if (result.topk_sets[i + 1] == sets.back()) continue;
    bps.push_back(result.breakpoints[i]);
    sets.push_back(std::move(result.topk_sets[i + 1]));
  }
  result.breakpoints = std::move(bps);
  result.topk_sets = std::move(sets);

  return result;
}

std::vector<WeightInterval> ReverseIntervals2D(
    const PointSet& points, std::span<const TupleId> candidates,
    TupleId target, std::size_t k) {
  DRLI_CHECK_EQ(points.dim(), 2u);
  // Each crossing with the target moves the count of candidates that
  // beat it by one: a candidate above it stops beating it, one below
  // starts.
  struct Crossing {
    double w;
    bool starts_beating;
    bool operator<(const Crossing& other) const { return w < other.w; }
  };
  std::vector<Crossing> crossings;
  std::size_t beating = 0;
  for (const TupleId u : candidates) {
    if (u == target) continue;
    const bool above = AboveAtZero(points, u, target);
    beating += above;
    const double w = above ? CrossingWeight(points, u, target)
                           : CrossingWeight(points, target, u);
    if (w < 1.0) crossings.push_back({w, !above});
  }
  std::sort(crossings.begin(), crossings.end());

  std::vector<WeightInterval> intervals;
  bool member = beating < k;
  if (member) intervals.push_back({0.0, 1.0});
  for (std::size_t i = 0; i < crossings.size();) {
    const double w = crossings[i].w;
    for (; i < crossings.size() && crossings[i].w <= w + kWeightTol; ++i) {
      beating = crossings[i].starts_beating ? beating + 1 : beating - 1;
    }
    if ((beating < k) == member) continue;
    member = !member;
    if (member) {
      intervals.push_back({w, 1.0});
    } else {
      intervals.back().hi = w;
    }
  }
  return intervals;
}

}  // namespace drli
