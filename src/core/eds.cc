#include "core/eds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "geometry/simplex_lp.h"

namespace drli {

Point FacetMinCorner(const PointSet& points, std::span<const TupleId> facet) {
  Point corner;
  FacetMinCorner(points, facet, &corner);
  return corner;
}

void FacetMinCorner(const PointSet& points, std::span<const TupleId> facet,
                    Point* corner) {
  DRLI_CHECK(!facet.empty());
  const std::size_t d = points.dim();
  const PointView first = points[facet[0]];
  corner->assign(first.begin(), first.end());
  for (std::size_t m = 1; m < facet.size(); ++m) {
    const PointView p = points[facet[m]];
    for (std::size_t j = 0; j < d; ++j) {
      (*corner)[j] = std::min((*corner)[j], p[j]);
    }
  }
}

namespace {

// How far the strict test pulls the target in, relative to the largest
// magnitude among the target's and the members' coordinate: far above
// the allowance the re-check grants (tens to hundreds of ulps), far
// below any gap between distinct data rows.
constexpr double kStrictMargin = 0x1p-36;

// The LP stage's workspace, one per thread: the build's fine-peel
// workers each solve hundreds of thousands of these LPs, and refilling
// one program, row and solution keeps them from allocating after a
// thread's first call. Nothing in it outlives a FacetTest call.
struct LpWorkspace {
  LinearProgram lp{1};
  std::vector<double> row;
  LpResult solved;
};

// The LP-stage certificate x re-checked per coordinate (header); x is
// clamped at zero in place.
bool CertificateHolds(const PointSet& points, std::span<const TupleId> facet,
                      std::vector<double>& x, PointView target,
                      EdsMargin margin) {
  const std::size_t d = points.dim();
  const double ulps = EdsRoundingUlps(facet.size(), d) *
                      std::numeric_limits<double>::epsilon();
  double s = 0.0;
  for (double& weight : x) {
    weight = std::max(weight, 0.0);
    s += weight;
  }
  if (!(s > 0.0)) return false;
  for (std::size_t j = 0; j < d; ++j) {
    double v = 0.0;
    double magnitude = 0.0;
    double largest = 0.0;
    for (std::size_t m = 0; m < facet.size(); ++m) {
      if (x[m] == 0.0) continue;
      const double p = points[facet[m]][j];
      v += x[m] * p;
      magnitude += x[m] * std::fabs(p);
      largest = std::max(largest, std::fabs(p));
    }
    const double err =
        ulps * (magnitude + s * (std::fabs(target[j]) + largest));
    const bool holds = margin == EdsMargin::kStrict
                           ? v + err <= s * target[j]
                           : v <= s * target[j] + err;
    if (!holds) return false;
  }
  return true;
}

// The three stages (header comment). Without a margin the LP stage is
// the plain feasibility test; with one, its solution is re-checked.
bool FacetTest(const PointSet& points, std::span<const TupleId> facet,
               PointView min_corner, PointView target,
               const EdsMargin* margin, EdsCounters* counters) {
  const std::size_t d = points.dim();
  DRLI_CHECK_EQ(target.size(), d);
  DRLI_DCHECK(facet.size() >= 1);
  DRLI_DCHECK(min_corner.size() == d);

  // Necessary condition: the componentwise minimum of the facet must
  // weakly dominate the target, otherwise no convex combination can.
  if (!WeaklyDominates(min_corner, target)) {
    if (counters != nullptr) ++counters->bbox_rejects;
    return false;
  }

  // Fast path: a single member weakly dominating the target already
  // certifies the facet (the virtual tuple is the member itself).
  for (TupleId id : facet) {
    if (WeaklyDominates(points[id], target)) {
      if (counters != nullptr) ++counters->member_hits;
      return true;
    }
  }
  if (facet.size() == 1) return false;  // single point already checked

  // LP feasibility over the barycentric weights lambda >= 0:
  //   sum_m lambda_m = 1,  sum_m lambda_m * t^m_j <= target_j  (all j).
  if (counters != nullptr) ++counters->lp_calls;
  const bool strict = margin != nullptr && *margin == EdsMargin::kStrict;
  thread_local LpWorkspace ws;
  LinearProgram& lp = ws.lp;
  std::vector<double>& row = ws.row;
  lp.Reset(facet.size());
  lp.ReserveConstraints(d + 1);
  row.assign(facet.size(), 1.0);
  lp.AddConstraint(row, LpRelation::kEqual, 1.0);
  for (std::size_t j = 0; j < d; ++j) {
    double rhs = target[j];
    for (std::size_t m = 0; m < facet.size(); ++m) {
      row[m] = points[facet[m]][j];
    }
    if (strict) {
      double magnitude = std::fabs(target[j]);
      for (const double p : row) magnitude = std::max(magnitude, std::fabs(p));
      rhs -= kStrictMargin * magnitude;
    }
    lp.AddConstraint(row, LpRelation::kLessEq, rhs);
  }
  if (margin == nullptr) return lp.IsFeasible();
  lp.Solve(&ws.solved);
  return ws.solved.status == LpStatus::kOptimal &&
         CertificateHolds(points, facet, ws.solved.x, target, *margin);
}

}  // namespace

double EdsRoundingUlps(std::size_t facet_size, std::size_t dim) {
  return 4.0 * static_cast<double>(facet_size + dim + 4);
}

bool FacetIsEds(const PointSet& points, std::span<const TupleId> facet,
                PointView min_corner, PointView target,
                EdsCounters* counters) {
  return FacetTest(points, facet, min_corner, target, nullptr, counters);
}

bool FacetIsVerifiedEds(const PointSet& points,
                        std::span<const TupleId> facet,
                        PointView min_corner, PointView target,
                        EdsMargin margin, EdsCounters* counters) {
  return FacetTest(points, facet, min_corner, target, &margin, counters);
}

bool FacetIsEds(const PointSet& points, const std::vector<TupleId>& facet,
                PointView target) {
  const Point corner = FacetMinCorner(points, facet);
  return FacetIsEds(points, facet, corner, target, nullptr);
}

}  // namespace drli
