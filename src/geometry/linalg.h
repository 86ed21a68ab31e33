// Small dense linear algebra helpers for the convex-hull and
// convex-skyline machinery. Dimensionalities here are tiny (d <= ~8), so
// everything is straightforward Gaussian elimination on row-major
// buffers -- no external BLAS.

#ifndef DRLI_GEOMETRY_LINALG_H_
#define DRLI_GEOMETRY_LINALG_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/point.h"

namespace drli {

// Euclidean norm of v.
double Norm(PointView v);

// In-place scales v to unit length; returns false when ||v|| is
// numerically zero (vector left untouched).
bool Normalize(std::vector<double>* v);

// Determinant of the n x n row-major matrix `m` (destroyed), via Gaussian
// elimination with partial pivoting.
double Determinant(std::vector<double> m, std::size_t n);

// Same elimination, destroying the caller's buffer in place (no copy);
// the hot path for the hull's per-facet normals.
double DeterminantInPlace(double* m, std::size_t n);

// Solves A x = b for the n x n row-major matrix A (copied internally).
// Returns false when A is singular within tolerance.
bool SolveLinearSystem(std::span<const double> a, std::span<const double> b,
                       std::size_t n, std::vector<double>* x);

// A hyperplane {x : normal . x = offset} in d dimensions.
struct Hyperplane {
  std::vector<double> normal;  // unit length
  double offset = 0.0;

  // Signed distance of p from the plane: normal . p - offset. Inline:
  // this is the innermost test of the hull's point classification.
  double SignedDistance(PointView p) const {
    DRLI_DCHECK(p.size() == normal.size());
    double s = -offset;
    for (std::size_t i = 0; i < p.size(); ++i) s += normal[i] * p[i];
    return s;
  }
};

// Computes the hyperplane through the d points `pts[i]` (each of
// dimension d). Returns false when the points are affinely dependent
// within tolerance. The normal's orientation is arbitrary; callers
// orient it against a reference interior point.
bool HyperplaneThroughPoints(const std::vector<PointView>& pts,
                             Hyperplane* plane);

// Incrementally built orthonormal basis of an affine subspace, used to
// pick the initial simplex of the hull: feed points, query the distance
// of a candidate to the current affine span.
class AffineBasis {
 public:
  explicit AffineBasis(std::size_t dim) : dim_(dim), residual_(dim) {}

  std::size_t dim() const { return dim_; }
  // Number of points accepted so far (affine rank is count()-1).
  std::size_t count() const {
    return origin_set_ ? basis_.size() / dim_ + 1 : 0;
  }

  // Distance from p to the affine span of the accepted points.
  // Infinity-like large value when no point was accepted yet.
  double DistanceToSpan(PointView p) const;

  // Accepts p, extending the span. Returns false (and rejects p) when p
  // is within `tol` of the current span.
  bool Add(PointView p, double tol);

 private:
  // Sets residual_ to p after projecting out origin + basis.
  void Residual(PointView p) const;

  std::size_t dim_;
  bool origin_set_ = false;
  std::vector<double> origin_;
  std::vector<double> basis_;  // orthonormal directions, stride dim_
  // Residual scratch: the hull's initial simplex asks DistanceToSpan of
  // every input point, so one buffer serves every call. A basis is
  // therefore not safe to query from two threads at once.
  mutable std::vector<double> residual_;
};

}  // namespace drli

#endif  // DRLI_GEOMETRY_LINALG_H_
