// d-dimensional convex hull (quickhull / beneath-beyond with outside
// sets), the substrate the paper obtains from QHull. Supports d in
// [2, ~6] which covers the paper's experiments (d = 2..5). Like qhull,
// it adds the furthest outside point over all live facets next, so far
// fewer points that end up interior are added as apexes and torn down
// again than under a last-in-first-out order.
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
#include <span>
#include <vector>

#include "common/csr.h"
#include "common/point.h"

namespace drli {

// One facet of a ConvexHull: a view into the hull's flat arrays, valid
// while the hull is neither modified nor destroyed.
struct HullFacet {
  // Exactly d point indices (into the input PointSet) spanning the
  // facet. Order is arbitrary; orientation lives in the plane.
  std::span<const std::int32_t> vertices;
  // neighbors[i] is the facet index sharing the ridge opposite
  // vertices[i]; -1 when the neighbour was dropped (sentinel facets).
  std::span<const std::int32_t> neighbors;
  // Outward-oriented supporting hyperplane normal . x == offset, with a
  // unit normal.
  std::span<const double> normal;
  double offset = 0.0;

  // normal . p - offset, accumulated like Hyperplane::SignedDistance.
  double SignedDistance(PointView p) const {
    double s = -offset;
    for (std::size_t i = 0; i < p.size(); ++i) s += normal[i] * p[i];
    return s;
  }
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
  // Facet f is a stride-dim slice of each array: its vertices are
  // facet_vertices[f * dim, (f + 1) * dim), its neighbours and normal
  // likewise, and its plane offset is facet_offsets[f] (see HullFacet).
  std::vector<std::int32_t> facet_vertices;
  std::vector<std::int32_t> facet_neighbors;
  std::vector<double> facet_normals;
  std::vector<double> facet_offsets;
  // Facets built, counting the initial simplex's and those a later
  // apex deleted: the hull's work, set on kDegenerate as well.
  std::size_t facets_created = 0;

  std::size_t num_facets() const { return facet_offsets.size(); }
  HullFacet facet(std::size_t f) const {
    return HullFacet{
        std::span<const std::int32_t>(facet_vertices).subspan(f * dim, dim),
        std::span<const std::int32_t>(facet_neighbors).subspan(f * dim, dim),
        std::span<const double>(facet_normals).subspan(f * dim, dim),
        facet_offsets[f]};
  }
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
// an unspecified but valid state and must not be used. The builder's
// working storage is kept per thread between calls.
HullStatus ComputeConvexHull(const PointSet& points,
                             const ConvexHullOptions& options,
                             ConvexHull* hull);

// Per-vertex adjacency over the hull's 1-skeleton, for the vertices v
// with wanted[v]: row v lists the input-point indices adjacent to v
// (sorted, unique). Every other row is empty, non-vertices' too.
// `wanted` has one entry per point of the original point set.
CsrGraph BuildVertexAdjacency(const ConvexHull& hull,
                              const std::vector<bool>& wanted);

}  // namespace drli

#endif  // DRLI_GEOMETRY_CONVEX_HULL_H_
