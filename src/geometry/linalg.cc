#include "geometry/linalg.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace drli {

namespace {
constexpr double kSingularTol = 1e-12;
}  // namespace

double Norm(PointView v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

bool Normalize(std::vector<double>* v) {
  const double n = Norm(*v);
  if (n < kSingularTol) return false;
  for (double& x : *v) x /= n;
  return true;
}

double Determinant(std::vector<double> m, std::size_t n) {
  DRLI_CHECK_EQ(m.size(), n * n);
  return DeterminantInPlace(m.data(), n);
}

namespace {

// Same elimination as the generic loop below, with the dimension a
// compile-time constant so the compiler fully unrolls it. The operation
// sequence is identical, so the result is bit-identical to the generic
// path -- required by the deterministic-build invariant.
template <std::size_t N>
double DeterminantFixed(double* m) {
  double det = 1.0;
  for (std::size_t col = 0; col < N; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < N; ++row) {
      if (std::fabs(m[row * N + col]) > std::fabs(m[pivot * N + col])) {
        pivot = row;
      }
    }
    const double pivot_value = m[pivot * N + col];
    if (std::fabs(pivot_value) < kSingularTol) return 0.0;
    if (pivot != col) {
      for (std::size_t j = 0; j < N; ++j) {
        std::swap(m[col * N + j], m[pivot * N + j]);
      }
      det = -det;
    }
    det *= pivot_value;
    for (std::size_t row = col + 1; row < N; ++row) {
      const double factor = m[row * N + col] / pivot_value;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < N; ++j) {
        m[row * N + j] -= factor * m[col * N + j];
      }
    }
  }
  return det;
}

}  // namespace

double DeterminantInPlace(double* m, std::size_t n) {
  switch (n) {
    case 1: return DeterminantFixed<1>(m);
    case 2: return DeterminantFixed<2>(m);
    case 3: return DeterminantFixed<3>(m);
    case 4: return DeterminantFixed<4>(m);
    default: break;
  }
  double det = 1.0;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: largest magnitude entry in this column.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::fabs(m[row * n + col]) > std::fabs(m[pivot * n + col])) {
        pivot = row;
      }
    }
    const double pivot_value = m[pivot * n + col];
    if (std::fabs(pivot_value) < kSingularTol) return 0.0;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(m[col * n + j], m[pivot * n + j]);
      }
      det = -det;
    }
    det *= pivot_value;
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = m[row * n + col] / pivot_value;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) {
        m[row * n + j] -= factor * m[col * n + j];
      }
    }
  }
  return det;
}

bool SolveLinearSystem(std::span<const double> a, std::span<const double> b,
                       std::size_t n, std::vector<double>* x) {
  DRLI_CHECK_EQ(a.size(), n * n);
  DRLI_CHECK_EQ(b.size(), n);
  std::vector<double> m(a.begin(), a.end());
  std::vector<double> rhs(b.begin(), b.end());
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::fabs(m[row * n + col]) > std::fabs(m[pivot * n + col])) {
        pivot = row;
      }
    }
    if (std::fabs(m[pivot * n + col]) < kSingularTol) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(m[col * n + j], m[pivot * n + j]);
      }
      std::swap(rhs[col], rhs[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = m[row * n + col] / m[col * n + col];
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) {
        m[row * n + j] -= factor * m[col * n + j];
      }
      rhs[row] -= factor * rhs[col];
    }
  }
  x->assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = rhs[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      sum -= m[i * n + j] * (*x)[j];
    }
    (*x)[i] = sum / m[i * n + i];
  }
  return true;
}

namespace {

// Shared body of HyperplaneThroughPoints over caller-provided scratch
// (stack for small d, heap otherwise) so the hot path allocates only
// for the stored normal itself.
bool HyperplaneImpl(const std::vector<PointView>& pts, std::size_t d,
                    double* diffs, double* minor, double* normal,
                    Hyperplane* plane) {
  // The normal satisfies n . (p_i - p_0) = 0 for i = 1..d-1. Compute it
  // as the generalized cross product: n_j = (-1)^j det(M without col j),
  // where M is the (d-1) x d matrix of difference vectors.
  for (std::size_t i = 1; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      diffs[(i - 1) * d + j] = pts[i][j] - pts[0][j];
    }
  }
  for (std::size_t skip = 0; skip < d; ++skip) {
    for (std::size_t r = 0; r < d - 1; ++r) {
      std::size_t out = 0;
      for (std::size_t c = 0; c < d; ++c) {
        if (c == skip) continue;
        minor[r * (d - 1) + out++] = diffs[r * d + c];
      }
    }
    const double det = DeterminantInPlace(minor, d - 1);
    normal[skip] = (skip % 2 == 0) ? det : -det;
  }
  const double norm = Norm(PointView(normal, d));
  if (norm < kSingularTol) return false;
  for (std::size_t j = 0; j < d; ++j) normal[j] /= norm;
  plane->normal.assign(normal, normal + d);
  plane->offset = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    plane->offset += plane->normal[j] * pts[0][j];
  }
  return true;
}

}  // namespace

bool HyperplaneThroughPoints(const std::vector<PointView>& pts,
                             Hyperplane* plane) {
  const std::size_t d = pts.empty() ? 0 : pts[0].size();
  DRLI_CHECK_EQ(pts.size(), d);
  DRLI_CHECK(d >= 2);
  constexpr std::size_t kStackDim = 8;
  if (d <= kStackDim) {
    double diffs[(kStackDim - 1) * kStackDim];
    double minor[(kStackDim - 1) * (kStackDim - 1)];
    double normal[kStackDim];
    return HyperplaneImpl(pts, d, diffs, minor, normal, plane);
  }
  std::vector<double> diffs((d - 1) * d);
  std::vector<double> minor((d - 1) * (d - 1));
  std::vector<double> normal(d);
  return HyperplaneImpl(pts, d, diffs.data(), minor.data(), normal.data(),
                        plane);
}

double AffineBasis::DistanceToSpan(PointView p) const {
  if (!origin_set_) return std::numeric_limits<double>::infinity();
  Residual(p);
  return Norm(PointView(residual_));
}

void AffineBasis::Residual(PointView p) const {
  DRLI_DCHECK(p.size() == dim_);
  double* r = residual_.data();
  for (std::size_t j = 0; j < dim_; ++j) r[j] = p[j] - origin_[j];
  for (std::size_t at = 0; at < basis_.size(); at += dim_) {
    const double* b = basis_.data() + at;
    double proj = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) proj += r[j] * b[j];
    for (std::size_t j = 0; j < dim_; ++j) r[j] -= proj * b[j];
  }
}

bool AffineBasis::Add(PointView p, double tol) {
  if (!origin_set_) {
    origin_.assign(p.begin(), p.end());
    origin_set_ = true;
    return true;
  }
  Residual(p);
  const double dist = Norm(PointView(residual_));
  if (dist <= tol) return false;
  for (const double x : residual_) basis_.push_back(x / dist);
  return true;
}

}  // namespace drli
