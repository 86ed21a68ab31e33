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

// Sorts `facets` into the canonical order (header). A facet's corner
// is the componentwise minimum over its rows.
void SortFacetsCanonically(const PointSet& points,
                           std::vector<std::vector<TupleId>>* facets) {
  struct Key {
    double corner_sum;
    std::vector<TupleId> sorted;
    std::size_t at;
  };
  const std::size_t d = points.dim();
  std::vector<Key> keys;
  keys.reserve(facets->size());
  Point corner(d);
  for (std::size_t f = 0; f < facets->size(); ++f) {
    const std::vector<TupleId>& facet = (*facets)[f];
    const PointView first = points[facet[0]];
    std::copy(first.begin(), first.end(), corner.begin());
    for (std::size_t v = 1; v < facet.size(); ++v) {
      const PointView p = points[facet[v]];
      for (std::size_t j = 0; j < d; ++j) corner[j] = std::min(corner[j], p[j]);
    }
    double corner_sum = 0.0;
    for (std::size_t j = 0; j < d; ++j) corner_sum += corner[j];
    std::vector<TupleId> sorted = facet;
    std::sort(sorted.begin(), sorted.end());
    keys.push_back(Key{corner_sum, std::move(sorted), f});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.corner_sum != b.corner_sum) return a.corner_sum > b.corner_sum;
    return a.sorted < b.sorted;
  });
  std::vector<std::vector<TupleId>> ordered;
  ordered.reserve(facets->size());
  for (Key& key : keys) ordered.push_back(std::move((*facets)[key.at]));
  *facets = std::move(ordered);
}

ConvexSkylineResult Fallback(const PointSet& points) {
  ConvexSkylineResult result;
  result.exact = false;
  result.members.resize(points.size());
  std::iota(result.members.begin(), result.members.end(), 0);
  if (!result.members.empty()) {
    // One pseudo-facet spanning all members: still a sound EDS
    // candidate (the intersection LP is what certifies a facet).
    result.facets.push_back(result.members);
  }
  return result;
}

ConvexSkylineResult ConvexSkyline2D(const PointSet& points) {
  ConvexSkylineResult result;
  const std::vector<std::int32_t> chain = LowerLeftChain2D(points);
  result.members.assign(chain.begin(), chain.end());
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    result.facets.push_back({static_cast<TupleId>(chain[i]),
                             static_cast<TupleId>(chain[i + 1])});
  }
  std::sort(result.members.begin(), result.members.end());
  SortFacetsCanonically(points, &result.facets);
  return result;
}

// True iff some strictly positive weight vector makes `v` locally (and
// hence globally) optimal: exists w with w_i >= 1 and
// w . (u - v) >= 0 for every hull neighbour u.
bool IsPositiveMinimizer(const PointSet& points, std::int32_t v,
                         const std::vector<std::int32_t>& neighbors) {
  const std::size_t d = points.dim();
  LinearProgram lp(d);
  std::vector<double> row(d);
  for (std::size_t j = 0; j < d; ++j) {
    std::fill(row.begin(), row.end(), 0.0);
    row[j] = 1.0;
    lp.AddConstraint(row, LpRelation::kGreaterEq, 1.0);
  }
  const PointView pv = points[v];
  for (std::int32_t u : neighbors) {
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
  std::vector<bool> member(points.size(), false);
  for (const HullFacet& f : hull.facets) {
    bool lower = true;
    for (double n : f.plane.normal) {
      if (n > kLowerNormalTolerance) {
        lower = false;
        break;
      }
    }
    if (!lower) continue;
    std::vector<TupleId> facet;
    facet.reserve(f.vertices.size());
    for (std::int32_t v : f.vertices) {
      facet.push_back(static_cast<TupleId>(v));
      member[v] = true;
    }
    std::sort(facet.begin(), facet.end());
    result.facets.push_back(std::move(facet));
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
  SortFacetsCanonically(points, &result.facets);
  return result;
}

}  // namespace drli
