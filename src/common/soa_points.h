// Dimension-major (structure-of-arrays) companion to the row-major
// PointSet: attribute a of all points lives in one contiguous column,
// so batched kernels (common/kernels_batch.h) can process 4-8 tuples
// per instruction with contiguous loads (ranges) or per-column gathers
// (id lists).
//
// An SoaPointSet is a derived, query-time view: indexes build one copy
// at construction time (and again after a snapshot load) and never
// persist it. Columns are padded to a multiple of kColumnPad entries so
// vector loads on a column never straddle into the next one.

#ifndef DRLI_COMMON_SOA_POINTS_H_
#define DRLI_COMMON_SOA_POINTS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/point.h"

namespace drli {

class SoaPointSet {
 public:
  // Vector-width-friendly column padding (entries, not bytes).
  static constexpr std::size_t kColumnPad = 8;

  SoaPointSet() = default;

  // Columns over all of `points`, in id order.
  static SoaPointSet FromPointSet(const PointSet& points);

  // Permuted concatenation: row i of the result is row order[i] of the
  // concatenated node space. Used for the traversal-ordered query
  // layout of the dual-layer index.
  static SoaPointSet FromPermutation(const PointSet& a, const PointSet& b,
                                     std::span<const std::uint32_t> order);

  // Compact subset view: row i of the result is points[ids[i]]. Used by
  // sweeps over a small working set (e.g. one skyline candidate set) so
  // batched kernels gather from dense rows instead of the full relation.
  static SoaPointSet FromSubset(const PointSet& points,
                                std::span<const std::uint32_t> ids);

  std::size_t size() const { return size_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return size_ == 0; }
  // Entries per column (>= size(), multiple of kColumnPad).
  std::size_t stride() const { return stride_; }

  // The column of attribute `attr`; entries [0, size()) are valid and
  // the padding tail is zero-filled.
  const double* column(std::size_t attr) const {
    DRLI_DCHECK(attr < dim_);
    return values_.data() + attr * stride_;
  }

  double at(std::size_t i, std::size_t attr) const {
    DRLI_DCHECK(i < size_);
    return column(attr)[i];
  }

 private:
  SoaPointSet(std::size_t dim, std::size_t size);

  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> values_;  // dim_ columns of stride_ entries
};

}  // namespace drli

#endif  // DRLI_COMMON_SOA_POINTS_H_
