// Convex skyline (Definition 4): the tuples that minimize some linear
// scoring function with strictly positive weights, plus the *lower
// facets* of their hull, which Section III-B uses as the minimal
// ∃-dominance sets.
//
// Extraction strategy per dimensionality:
//   d == 2  -- exact lower-left monotone chain; facets are consecutive
//              chain pairs.
//   d >= 3  -- hull via geometry/convex_hull (with the top sentinel);
//              members are (a) vertices of facets whose outward normal
//              is componentwise non-positive ("lower facets", the
//              sources of ∃-dominance edges) plus (b) hull vertices
//              whose local-optimality LP over strictly positive weights
//              is feasible. Set (b) ⊇ the exact convex skyline; the
//              union is therefore a superset of CSKY, which preserves
//              Lemma 2 (the minimizer of any strictly positive scoring
//              function lies in the first sublayer).
//
// Degenerate inputs (|S| <= d, affinely dependent, hull failure) fall
// back to members = all points with a single all-member pseudo-facet,
// flagged exact = false. The fallback is conservative: layering remains
// a valid partition and query answers stay correct; only pruning
// quality degrades.

#ifndef DRLI_GEOMETRY_CONVEX_SKYLINE_H_
#define DRLI_GEOMETRY_CONVEX_SKYLINE_H_

#include <span>
#include <vector>

#include "common/point.h"

namespace drli {

struct ConvexSkylineResult {
  // Convex-skyline member ids (into the input PointSet), ascending.
  std::vector<TupleId> members;
  // Lower-facet simplices: each facet_size member ids spanning one
  // lower facet of the hull, stored flat -- facet f is
  // facet_ids[f * facet_size, (f + 1) * facet_size). These are the EDS
  // candidates of Section III-B. facet_size is d on the hull path, 2 on
  // the d == 2 chain, and every member in fallback mode (one
  // pseudo-facet). Canonical order on every path: descending sum of the
  // facet's componentwise-min corner, ties by the sorted vertex ids, so
  // the order depends only on the facet set and not on how the hull was
  // built. Vertex ids are ascending within a facet, except d == 2 keeps
  // chain order (left to right).
  std::vector<TupleId> facet_ids;
  std::size_t facet_size = 0;
  // False when the conservative fallback (members = all points) fired.
  bool exact = true;
  // ConvexHull::facets_created of the hull built (0 on the d == 2 chain
  // and when no hull was attempted).
  std::size_t hull_facets_created = 0;

  std::size_t num_facets() const {
    return facet_size == 0 ? 0 : facet_ids.size() / facet_size;
  }
  std::span<const TupleId> facet(std::size_t f) const {
    return std::span<const TupleId>(facet_ids).subspan(f * facet_size,
                                                       facet_size);
  }
};

ConvexSkylineResult ComputeConvexSkyline(const PointSet& points);

}  // namespace drli

#endif  // DRLI_GEOMETRY_CONVEX_SKYLINE_H_
