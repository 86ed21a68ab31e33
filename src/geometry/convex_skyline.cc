#include "geometry/convex_skyline.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "geometry/convex_hull.h"
#include "geometry/convex_hull_2d.h"
#include "geometry/simplex_lp.h"

namespace drli {

namespace {

// A hull facet counts as "lower" iff every outward-normal component is
// at most this.
constexpr double kLowerNormalTolerance = 1e-9;

// Sorts the facets into the canonical order (header). A facet's corner
// is the componentwise minimum over its rows. The sort permutes facet
// indices, and each facet's ids then move once, to their final place.
void SortFacetsCanonically(const PointSet& points,
                           ConvexSkylineResult* result) {
  const std::size_t d = points.dim();
  const std::size_t size = result->facet_size;
  const std::size_t count = result->num_facets();
  // Per facet: the corner sum, and its ids ascending for the tie-break.
  std::vector<double> corner_sums(count);
  std::vector<TupleId> sorted(result->facet_ids);
  Point corner(d);
  for (std::size_t f = 0; f < count; ++f) {
    const std::span<const TupleId> facet = result->facet(f);
    const PointView first = points[facet[0]];
    std::copy(first.begin(), first.end(), corner.begin());
    for (std::size_t v = 1; v < size; ++v) {
      const PointView p = points[facet[v]];
      for (std::size_t j = 0; j < d; ++j) corner[j] = std::min(corner[j], p[j]);
    }
    double corner_sum = 0.0;
    for (std::size_t j = 0; j < d; ++j) corner_sum += corner[j];
    corner_sums[f] = corner_sum;
    std::sort(sorted.begin() + f * size, sorted.begin() + (f + 1) * size);
  }
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (corner_sums[a] != corner_sums[b]) {
      return corner_sums[a] > corner_sums[b];
    }
    return std::lexicographical_compare(
        sorted.begin() + a * size, sorted.begin() + (a + 1) * size,
        sorted.begin() + b * size, sorted.begin() + (b + 1) * size);
  });
  std::vector<TupleId> ordered;
  ordered.reserve(result->facet_ids.size());
  for (const std::size_t f : order) {
    const std::span<const TupleId> facet = result->facet(f);
    ordered.insert(ordered.end(), facet.begin(), facet.end());
  }
  result->facet_ids = std::move(ordered);
}

ConvexSkylineResult Fallback(const PointSet& points) {
  ConvexSkylineResult result;
  result.exact = false;
  result.members.resize(points.size());
  std::iota(result.members.begin(), result.members.end(), 0);
  if (!result.members.empty()) {
    // One pseudo-facet spanning all members: still a sound EDS
    // candidate (the intersection LP is what certifies a facet).
    result.facet_ids = result.members;
    result.facet_size = result.members.size();
  }
  return result;
}

ConvexSkylineResult ConvexSkyline2D(const PointSet& points) {
  ConvexSkylineResult result;
  const std::vector<std::int32_t> chain = LowerLeftChain2D(points);
  result.members.assign(chain.begin(), chain.end());
  result.facet_size = 2;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    result.facet_ids.push_back(static_cast<TupleId>(chain[i]));
    result.facet_ids.push_back(static_cast<TupleId>(chain[i + 1]));
  }
  std::sort(result.members.begin(), result.members.end());
  SortFacetsCanonically(points, &result);
  return result;
}

// True iff some strictly positive weight vector makes `v` locally (and
// hence globally) optimal: exists w with w_i >= 1 and
// w . (u - v) >= 0 for every hull neighbour u.
bool IsPositiveMinimizer(const PointSet& points, std::int32_t v,
                         std::span<const CsrGraph::NodeId> neighbors) {
  const std::size_t d = points.dim();
  // One program and row per thread, refilled per call.
  thread_local LinearProgram lp(1);
  thread_local std::vector<double> row;
  lp.Reset(d);
  row.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    std::fill(row.begin(), row.end(), 0.0);
    row[j] = 1.0;
    lp.AddConstraint(row, LpRelation::kGreaterEq, 1.0);
  }
  const PointView pv = points[v];
  for (const CsrGraph::NodeId u : neighbors) {
    const PointView pu = points[u];
    for (std::size_t j = 0; j < d; ++j) row[j] = pu[j] - pv[j];
    lp.AddConstraint(row, LpRelation::kGreaterEq, 0.0);
  }
  return lp.IsFeasible();
}

}  // namespace

ConvexSkylineResult ComputeConvexSkyline(const PointSet& points) {
  const std::size_t d = points.dim();
  if (points.empty()) return ConvexSkylineResult{};
  if (d == 2) return ConvexSkyline2D(points);
  if (points.size() <= d + 1) return Fallback(points);

  ConvexHullOptions hull_options;
  hull_options.add_top_sentinel = true;
  ConvexHull hull;
  if (ComputeConvexHull(points, hull_options, &hull) != HullStatus::kOk) {
    ConvexSkylineResult fallback = Fallback(points);
    fallback.hull_facets_created = hull.facets_created;
    return fallback;
  }

  ConvexSkylineResult result;
  result.hull_facets_created = hull.facets_created;
  result.facet_size = d;
  std::vector<bool> member(points.size(), false);
  for (std::size_t fi = 0; fi < hull.num_facets(); ++fi) {
    const HullFacet f = hull.facet(fi);
    bool lower = true;
    for (double n : f.normal) {
      if (n > kLowerNormalTolerance) {
        lower = false;
        break;
      }
    }
    if (!lower) continue;
    const std::size_t at = result.facet_ids.size();
    for (std::int32_t v : f.vertices) {
      result.facet_ids.push_back(static_cast<TupleId>(v));
      member[v] = true;
    }
    std::sort(result.facet_ids.begin() + at, result.facet_ids.end());
  }

  // Only the hull vertices no lower facet holds need the LP, and with
  // it their neighbours.
  std::vector<bool> undecided(points.size(), false);
  for (std::int32_t v : hull.vertices) undecided[v] = !member[v];
  const auto adjacency = BuildVertexAdjacency(hull, undecided);
  for (std::int32_t v : hull.vertices) {
    if (!undecided[v]) continue;
    if (IsPositiveMinimizer(points, v, adjacency[v])) member[v] = true;
  }

  for (std::size_t i = 0; i < points.size(); ++i) {
    if (member[i]) result.members.push_back(static_cast<TupleId>(i));
  }
  if (result.members.empty()) {
    ConvexSkylineResult fallback = Fallback(points);
    fallback.hull_facets_created = hull.facets_created;
    return fallback;
  }
  SortFacetsCanonically(points, &result);
  return result;
}

}  // namespace drli
