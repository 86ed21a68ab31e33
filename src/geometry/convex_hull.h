// d-dimensional convex hull (quickhull / beneath-beyond with outside
// sets), the substrate the paper obtains from QHull. Supports d in
// [2, ~6] which covers the paper's experiments (d = 2..5).
//
// The hull is maintained with simplicial facets, outward unit normals
// (oriented away from an interior reference point) and facet adjacency,
// which downstream code uses to
//   * extract convex skylines (lower facets + vertex membership LPs),
//   * enumerate facet simplices for the ∃-dominance-set test.
//
// Robustness model: tolerance-based orientation (points within a fixed
// 1e-9 of a facet plane are treated as on/behind it), matching
// qhull's practical behaviour on the paper's [0,1]^d inputs. Degenerate
// inputs (affinely dependent, too few points) are reported via
// HullStatus so callers can fall back to conservative layering.

#ifndef DRLI_GEOMETRY_CONVEX_HULL_H_
#define DRLI_GEOMETRY_CONVEX_HULL_H_

#include <cstdint>
#include <vector>

#include "common/point.h"
#include "geometry/linalg.h"

namespace drli {

struct HullFacet {
  // Exactly d point indices (into the input PointSet) spanning the
  // facet. Order is arbitrary; orientation lives in `plane`.
  std::vector<std::int32_t> vertices;
  // neighbors[i] is the facet index sharing the ridge opposite
  // vertices[i]; -1 when the neighbour was dropped (sentinel facets).
  std::vector<std::int32_t> neighbors;
  // Outward-oriented supporting hyperplane (unit normal).
  Hyperplane plane;
};

enum class HullStatus {
  kOk,
  // Fewer than d+1 points, affinely dependent input, or a numerical
  // inconsistency was detected mid-build. Callers fall back.
  kDegenerate,
};

struct ConvexHull {
  std::size_t dim = 0;
  // Indices of input points that are hull vertices (sorted, unique).
  std::vector<std::int32_t> vertices;
  std::vector<HullFacet> facets;
};

struct ConvexHullOptions {
  // When true, a sentinel point far in the dominated direction
  // (max-corner * 2 + 1) is added before building. The sentinel prunes
  // the combinatorially heavy "upper" side of near-degenerate clouds
  // (e.g. anti-correlated data) while leaving every lower facet
  // untouched; facets incident to the sentinel are removed from the
  // output. Used by the convex-skyline code, which only consumes lower
  // facets.
  bool add_top_sentinel = false;
};

// Computes the convex hull of `points`. On kDegenerate, *hull is left in
// an unspecified but valid state and must not be used.
HullStatus ComputeConvexHull(const PointSet& points,
                             const ConvexHullOptions& options,
                             ConvexHull* hull);

// Per-vertex adjacency over the hull's 1-skeleton: result[v] lists the
// input-point indices adjacent to v (sorted, unique); empty for
// non-vertices. `num_points` is the size of the original point set.
std::vector<std::vector<std::int32_t>> BuildVertexAdjacency(
    const ConvexHull& hull, std::size_t num_points);

}  // namespace drli

#endif  // DRLI_GEOMETRY_CONVEX_HULL_H_
