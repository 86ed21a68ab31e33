// Core data model: tuples as d-dimensional points in [0,1]^d and the
// dominance predicates of Section II of the paper.
//
// Storage is a flat row-major buffer (PointSet); code passes around
// PointView (a std::span) and TupleId indexes. Row-major is the
// canonical, persisted form; indexes additionally derive a
// dimension-major companion (common/soa_points.h) at construction time
// so the batched kernels of common/kernels_batch.h can sweep many
// tuples per iteration. The scalar kernels below remain the semantic
// reference: every batched kernel is bit-identical to them.

#ifndef DRLI_COMMON_POINT_H_
#define DRLI_COMMON_POINT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace drli {

// Index of a tuple within its PointSet / relation.
using TupleId = std::uint32_t;
inline constexpr TupleId kInvalidTupleId =
    std::numeric_limits<TupleId>::max();

// Read-only view of one tuple's attribute values.
using PointView = std::span<const double>;

// Owned point, used where a materialized value is required
// (pseudo-tuples of the zero layer, generators, tests).
using Point = std::vector<double>;

// Outcome of a pairwise dominance comparison (Definition 2).
enum class DomRel {
  kDominates,     // a ≺ b
  kDominatedBy,   // b ≺ a
  kEqual,         // identical in every attribute
  kIncomparable,  // neither dominates
};

// The dominance/score kernels below sit on every build and query hot
// path (skyline peeling, ∀-edge detection, EDS tests, top-k scoring),
// so the common dimensionalities d = 2/3/4 are fully unrolled inline
// and everything else takes the generic loop. All specializations are
// exact transcriptions of the generic code -- same comparisons, same
// short-circuit order -- so results (and float semantics) are
// bit-identical across paths.

namespace point_internal {

bool DominatesGeneric(PointView a, PointView b);
bool WeaklyDominatesGeneric(PointView a, PointView b);
DomRel CompareGeneric(PointView a, PointView b);
double ScoreGeneric(PointView weights, PointView point);

}  // namespace point_internal

// Returns true iff a ≺ b: a_i <= b_i for all i and a_j < b_j for some j
// (Definition 2; lower values are better throughout the library).
inline bool Dominates(PointView a, PointView b) {
  DRLI_DCHECK(a.size() == b.size());
  const double* x = a.data();
  const double* y = b.data();
  switch (a.size()) {
    case 2:
      return x[0] <= y[0] && x[1] <= y[1] && (x[0] < y[0] || x[1] < y[1]);
    case 3:
      return x[0] <= y[0] && x[1] <= y[1] && x[2] <= y[2] &&
             (x[0] < y[0] || x[1] < y[1] || x[2] < y[2]);
    case 4:
      return x[0] <= y[0] && x[1] <= y[1] && x[2] <= y[2] && x[3] <= y[3] &&
             (x[0] < y[0] || x[1] < y[1] || x[2] < y[2] || x[3] < y[3]);
    default:
      return point_internal::DominatesGeneric(a, b);
  }
}

// Returns true iff a_i <= b_i for all i (a ≺ b or a == b). Used for the
// zero layer, where a pseudo-tuple built from cluster minima may
// coincide with a real tuple.
inline bool WeaklyDominates(PointView a, PointView b) {
  DRLI_DCHECK(a.size() == b.size());
  const double* x = a.data();
  const double* y = b.data();
  switch (a.size()) {
    case 2:
      return x[0] <= y[0] && x[1] <= y[1];
    case 3:
      return x[0] <= y[0] && x[1] <= y[1] && x[2] <= y[2];
    case 4:
      return x[0] <= y[0] && x[1] <= y[1] && x[2] <= y[2] && x[3] <= y[3];
    default:
      return point_internal::WeaklyDominatesGeneric(a, b);
  }
}

// Full three-way-style comparison; one pass over the attributes.
inline DomRel Compare(PointView a, PointView b) {
  DRLI_DCHECK(a.size() == b.size());
  if (a.size() > 4) return point_internal::CompareGeneric(a, b);
  const double* x = a.data();
  const double* y = b.data();
  bool a_better = false;
  bool b_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a_better |= x[i] < y[i];
    b_better |= x[i] > y[i];
  }
  if (a_better && b_better) return DomRel::kIncomparable;
  if (a_better) return DomRel::kDominates;
  if (b_better) return DomRel::kDominatedBy;
  return DomRel::kEqual;
}

// Linear score F(t) = sum_i w_i * t_i (Section II).
inline double Score(PointView weights, PointView point) {
  DRLI_DCHECK(weights.size() == point.size());
  const double* w = weights.data();
  const double* p = point.data();
  switch (weights.size()) {
    // Left-to-right association, exactly like the generic loop, so the
    // specialized path rounds identically.
    case 2:
      return w[0] * p[0] + w[1] * p[1];
    case 3:
      return (w[0] * p[0] + w[1] * p[1]) + w[2] * p[2];
    case 4:
      return ((w[0] * p[0] + w[1] * p[1]) + w[2] * p[2]) + w[3] * p[3];
    default:
      return point_internal::ScoreGeneric(weights, point);
  }
}

// Attribute sum, accumulated left to right. Rounding is monotone, so
// a ≺ b implies AttributeSum(a) <= AttributeSum(b) -- but not <: a
// 1-ulp improvement in one coordinate can round away.
double AttributeSum(PointView p);

// The order of both sum-ordered passes (the single-pass layering and
// the dominance-depth oracle): ascending attribute sum,
// ties broken lexicographically by coordinates. A strict dominator
// always precedes the point it dominates -- its sum is <=, and on a
// tie it is lexicographically smaller. Duplicates are equivalent.
inline bool PrecedesInSumOrder(double sum_a, PointView a, double sum_b,
                               PointView b) {
  if (sum_a != sum_b) return sum_a < sum_b;
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                      b.end());
}

// Flat row-major container of n points of fixed dimensionality.
//
// Two storage modes: owning (a std::vector filled via Add, the normal
// build path) and view-backed (a borrowed span over external memory,
// e.g. an mmap-ed snapshot section, guarded by a shared keepalive).
// Readers are oblivious to the mode; mutators require owns_data().
class PointSet {
 public:
  // An empty set of `dim`-dimensional points; dim >= 1.
  explicit PointSet(std::size_t dim);

  // Owning set adopting a pre-filled flat buffer (num_values % dim == 0).
  static PointSet FromVector(std::size_t dim, std::vector<double> values);

  // View-backed set over `num_values` doubles at `values`, which must
  // stay valid for as long as `keepalive` is held (typically the mmap
  // of a snapshot file). Copies share the view and the keepalive.
  static PointSet FromView(std::size_t dim, const double* values,
                           std::size_t num_values,
                           std::shared_ptr<const void> keepalive);

  // Copyable and movable: a PointSet is a plain value.
  PointSet(const PointSet&) = default;
  PointSet& operator=(const PointSet&) = default;
  PointSet(PointSet&&) = default;
  PointSet& operator=(PointSet&&) = default;

  std::size_t dim() const { return dim_; }
  std::size_t size() const { return num_values() / dim_; }
  bool empty() const { return num_values() == 0; }
  bool owns_data() const { return view_ == nullptr; }

  // Appends a point; returns its TupleId (= insertion index).
  TupleId Add(PointView p);
  TupleId Add(std::initializer_list<double> p);

  PointView operator[](std::size_t i) const {
    return PointView(base() + i * dim_, dim_);
  }
  double At(std::size_t i, std::size_t attr) const {
    return base()[i * dim_ + attr];
  }
  void Set(std::size_t i, std::size_t attr, double value) {
    DRLI_DCHECK(owns_data());
    data_[i * dim_ + attr] = value;
  }

  // Materializes point i as an owned vector.
  Point Materialize(std::size_t i) const;

  // Underlying flat buffer, for serialization.
  std::span<const double> raw() const {
    return std::span<const double>(base(), num_values());
  }

  void Reserve(std::size_t n);
  void Clear();

  // Returns the subset selected by `ids`, in order.
  PointSet Subset(const std::vector<TupleId>& ids) const;

 private:
  const double* base() const { return view_ != nullptr ? view_ : data_.data(); }
  std::size_t num_values() const {
    return view_ != nullptr ? view_values_ : data_.size();
  }

  std::size_t dim_;
  std::vector<double> data_;
  // View mode; null in owning mode.
  const double* view_ = nullptr;
  std::size_t view_values_ = 0;
  std::shared_ptr<const void> keepalive_;
};

// Debug formatting, e.g. "(0.25, 0.75)".
std::string ToString(PointView p);

}  // namespace drli

#endif  // DRLI_COMMON_POINT_H_
