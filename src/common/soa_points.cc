#include "common/soa_points.h"

#include "common/check.h"

namespace drli {

SoaPointSet::SoaPointSet(std::size_t dim, std::size_t size)
    : dim_(dim),
      size_(size),
      stride_((size + kColumnPad - 1) / kColumnPad * kColumnPad),
      values_(dim * stride_, 0.0) {}

SoaPointSet SoaPointSet::FromPointSet(const PointSet& points) {
  SoaPointSet soa(points.dim(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointView p = points[i];
    for (std::size_t a = 0; a < soa.dim_; ++a) {
      soa.values_[a * soa.stride_ + i] = p[a];
    }
  }
  return soa;
}

SoaPointSet SoaPointSet::FromPermutation(const PointSet& a, const PointSet& b,
                                         std::span<const std::uint32_t> order) {
  DRLI_CHECK_EQ(a.dim(), b.dim());
  DRLI_CHECK_EQ(order.size(), a.size() + b.size());
  SoaPointSet soa(a.dim(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t src = order[i];
    const PointView p =
        src < a.size() ? a[src] : b[src - a.size()];
    for (std::size_t attr = 0; attr < soa.dim_; ++attr) {
      soa.values_[attr * soa.stride_ + i] = p[attr];
    }
  }
  return soa;
}

SoaPointSet SoaPointSet::FromSubset(const PointSet& points,
                                    std::span<const std::uint32_t> ids) {
  SoaPointSet soa(points.dim(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const PointView p = points[ids[i]];
    for (std::size_t attr = 0; attr < soa.dim_; ++attr) {
      soa.values_[attr * soa.stride_ + i] = p[attr];
    }
  }
  return soa;
}

}  // namespace drli
