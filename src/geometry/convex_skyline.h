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

#include <vector>

#include "common/point.h"

namespace drli {

struct ConvexSkylineResult {
  // Convex-skyline member ids (into the input PointSet), ascending.
  std::vector<TupleId> members;
  // Lower-facet simplices: each a set of <= d member ids spanning one
  // lower facet of the hull. These are the EDS candidates of Section
  // III-B. May be empty in fallback mode.
  std::vector<std::vector<TupleId>> facets;
  // False when the conservative fallback (members = all points) fired.
  bool exact = true;
};

ConvexSkylineResult ComputeConvexSkyline(const PointSet& points);

}  // namespace drli

#endif  // DRLI_GEOMETRY_CONVEX_SKYLINE_H_
