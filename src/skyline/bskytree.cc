#include "skyline/bskytree.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace drli {

namespace {

// Below this size a quadratic local pass beats partitioning overhead.
constexpr std::size_t kLeafSize = 24;

class SkyTreeImpl {
 public:
  explicit SkyTreeImpl(const PointSet& points)
      : points_(points), dim_(points.dim()) {
    DRLI_CHECK(dim_ <= 20) << "SkyTree region masks support d <= 20";
  }

  void Run(std::vector<TupleId> candidates, std::vector<TupleId>* out) {
    Recurse(std::move(candidates), out);
  }

 private:
  void Leaf(const std::vector<TupleId>& candidates,
            std::vector<TupleId>* out) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        if (i == j) continue;
        if (Dominates(points_[candidates[j]], points_[candidates[i]])) {
          dominated = true;
          break;
        }
      }
      if (!dominated) out->push_back(candidates[i]);
    }
  }

  // Region mask of t relative to the pivot.
  std::uint32_t MaskOf(PointView t, PointView pivot) const {
    std::uint32_t mask = 0;
    for (std::size_t j = 0; j < dim_; ++j) {
      if (t[j] >= pivot[j]) mask |= (1u << j);
    }
    return mask;
  }

  void Recurse(std::vector<TupleId> candidates, std::vector<TupleId>* out) {
    if (candidates.size() <= kLeafSize) {
      Leaf(candidates, out);
      return;
    }

    // Pivot: the first candidate in sum order (common/point.h). Nothing
    // can dominate it -- a dominator would precede it -- so it is a
    // skyline point of this subproblem. The sum alone is not enough: a
    // dominator can round to the same sum.
    std::size_t pivot_pos = 0;
    double best_sum = 0.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const PointView p = points_[candidates[i]];
      const double s = AttributeSum(p);
      if (i == 0 ||
          PrecedesInSumOrder(s, p, best_sum, points_[candidates[pivot_pos]])) {
        best_sum = s;
        pivot_pos = i;
      }
    }
    const TupleId pivot_id = candidates[pivot_pos];
    const PointView pivot = points_[pivot_id];
    out->push_back(pivot_id);

    const std::uint32_t full = (1u << dim_) - 1u;
    std::vector<std::uint32_t> masks_used;
    // Group candidates by region mask.
    std::vector<std::vector<TupleId>> groups(full + 1);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (i == pivot_pos) continue;
      const TupleId id = candidates[i];
      const PointView t = points_[id];
      const std::uint32_t mask = MaskOf(t, pivot);
      if (mask == full) {
        // t >= pivot in every attribute: dominated unless an exact
        // duplicate of the pivot (duplicates do not dominate each
        // other, Definition 2).
        bool equal = true;
        for (std::size_t j = 0; j < dim_; ++j) {
          if (t[j] != pivot[j]) {
            equal = false;
            break;
          }
        }
        if (equal) out->push_back(id);
        continue;
      }
      if (groups[mask].empty()) masks_used.push_back(mask);
      groups[mask].push_back(id);
    }
    candidates.clear();
    candidates.shrink_to_fit();

    std::sort(masks_used.begin(), masks_used.end(),
              [](std::uint32_t a, std::uint32_t b) {
                const int pa = __builtin_popcount(a);
                const int pb = __builtin_popcount(b);
                if (pa != pb) return pa < pb;
                return a < b;
              });

    // Skyline of each region, in lattice order; regions only filter
    // regions whose mask is a strict superset.
    std::vector<std::vector<TupleId>> region_skyline(full + 1);
    for (std::uint32_t mask : masks_used) {
      std::vector<TupleId>& group = groups[mask];
      // Filter against skylines of strict sub-masks.
      std::vector<TupleId> survivors;
      survivors.reserve(group.size());
      for (TupleId id : group) {
        const PointView t = points_[id];
        bool dominated = false;
        // Enumerate strict non-empty sub-masks of `mask`, plus mask 0.
        for (std::uint32_t sub = (mask - 1) & mask;; sub = (sub - 1) & mask) {
          for (TupleId s : region_skyline[sub]) {
            if (Dominates(points_[s], t)) {
              dominated = true;
              break;
            }
          }
          if (dominated || sub == 0) break;
        }
        if (!dominated) survivors.push_back(id);
      }
      group.clear();
      group.shrink_to_fit();

      std::vector<TupleId> sky;
      Recurse(std::move(survivors), &sky);
      for (TupleId id : sky) out->push_back(id);
      region_skyline[mask] = std::move(sky);
    }
  }

  const PointSet& points_;
  std::size_t dim_;
};

}  // namespace

std::vector<TupleId> SkyTreeSkyline(const PointSet& points,
                                    const std::vector<TupleId>& candidates) {
  std::vector<TupleId> out;
  if (candidates.empty()) return out;
  SkyTreeImpl impl(points);
  impl.Run(candidates, &out);
  return out;
}

}  // namespace drli
