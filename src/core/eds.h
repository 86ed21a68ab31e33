// ∃-dominance sets (Definitions 5 and 6). A facet F = {t^1..t^d} of the
// convex hull of fine sublayer L^{ij} is an EDS of a tuple t' iff some
// virtual tuple on the facet's hyperplane segment dominates t' -- i.e.
// iff the simplex conv(F) intersects the dominance box {x : x <= t'}.
// When it does, every member of F ∃-dominates t', and at least one
// member scores below t' under every strictly positive linear scoring
// function (Lemma 2).
//
// The test is resolved by three stages of increasing cost:
//   1. bbox reject: the componentwise-min corner of the facet fails to
//      weakly dominate t' -> no convex combination can (O(d));
//   2. member hit: a single facet member weakly dominates t' (the
//      virtual tuple is the member itself);
//   3. simplex LP over the barycentric weights (exact, expensive).
// The corner of stage 1 depends only on the facet, so build loops that
// test one facet against many targets precompute it once with
// FacetMinCorner and call the prefiltered overload.

#ifndef DRLI_CORE_EDS_H_
#define DRLI_CORE_EDS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/point.h"

namespace drli {

// How many facet/target pairs each stage resolved (see above).
struct EdsCounters {
  std::size_t bbox_rejects = 0;
  std::size_t member_hits = 0;
  std::size_t lp_calls = 0;
};

// Componentwise minimum of the facet members: the corner of the
// smallest axis-aligned box containing the facet's simplex. The second
// form writes it into *corner, reusing its storage.
Point FacetMinCorner(const PointSet& points, std::span<const TupleId> facet);
void FacetMinCorner(const PointSet& points, std::span<const TupleId> facet,
                    Point* corner);

// True iff conv{points[id] : id in facet} intersects {x : x <= target}
// componentwise. Exact up to LP tolerance; facets of any size >= 1 are
// accepted (degenerate fallback facets included). `min_corner` must be
// FacetMinCorner(points, facet); `counters` may be null.
bool FacetIsEds(const PointSet& points, std::span<const TupleId> facet,
                PointView min_corner, PointView target,
                EdsCounters* counters);

// Convenience overload computing the corner on the fly (tests, single
// facet/target probes).
bool FacetIsEds(const PointSet& points, const std::vector<TupleId>& facet,
                PointView target);

// FacetIsEds with the LP stage's barycentric weights x re-checked in
// floating point (DESIGN.md §7). With s = sum_m x_m and, per coordinate
// j, v_j = fl(sum_m x_m p^m_j) and the allowance
//   err_j = EdsRoundingUlps(|facet|, d) * epsilon
//           * (sum_m x_m |p^m_j| + s * (|t_j| + max_m |p^m_j|)),
// which covers the rounding of the check itself:
//   kRounding  v_j <= s * t_j + err_j. The virtual tuple may sit on the
//              facet or past the target by rounding, never by the
//              LP's 1e-7 feasibility tolerance. A member can then
//              score above the target by at most the traversal's
//              per-step rounding slack (QueryLayout::stop_slack).
//   kStrict    v_j + err_j <= s * t_j, solving the LP against the
//              target pulled in by 2^-36 of each coordinate's largest
//              magnitude. Some member's computed Score is then <= the
//              target's for every w >= 0, bit for bit.
// A member hit (weak dominance) passes both as is: Score is monotone
// per coordinate in floating point.
enum class EdsMargin { kRounding, kStrict };
bool FacetIsVerifiedEds(const PointSet& points,
                        std::span<const TupleId> facet,
                        PointView min_corner, PointView target,
                        EdsMargin margin, EdsCounters* counters);

// The ulp multiplier in err_j above.
double EdsRoundingUlps(std::size_t facet_size, std::size_t dim);

}  // namespace drli

#endif  // DRLI_CORE_EDS_H_
