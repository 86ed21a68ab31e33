#include "skyline/skyline.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/kernels_batch.h"
#include "common/soa_points.h"
#include "skyline/bskytree.h"

namespace drli {

namespace {

// Candidate sets at or above this size pay for a compact dimension-major
// copy (SoaPointSet::FromSubset) so the dominance sweep runs through
// DominatesAnyBatch; below it the scalar short-circuit loop wins.
constexpr std::size_t kBatchSweepThreshold = 32;

}  // namespace

std::vector<TupleId> ComputeSkylineOfSubset(
    const PointSet& points, const std::vector<TupleId>& candidates) {
  std::vector<TupleId> result = SkyTreeSkyline(points, candidates);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<TupleId> ComputeSkyline(const PointSet& points) {
  std::vector<TupleId> all(points.size());
  std::iota(all.begin(), all.end(), 0);
  return ComputeSkylineOfSubset(points, all);
}

std::vector<TupleId> NaiveSkyline(const PointSet& points,
                                  const std::vector<TupleId>& candidates) {
  std::vector<TupleId> out;
  if (candidates.size() >= kBatchSweepThreshold) {
    // Strict dominance is irreflexive, so probing the whole set --
    // including `a` itself -- gives the same verdict as the skip-self
    // scalar loop.
    const SoaPointSet soa = SoaPointSet::FromSubset(points, candidates);
    std::vector<std::uint32_t> rows(candidates.size());
    std::iota(rows.begin(), rows.end(), 0u);
    for (TupleId a : candidates) {
      if (!DominatesAnyBatch(soa, rows.data(), rows.size(), points[a])) {
        out.push_back(a);
      }
    }
  } else {
    for (TupleId a : candidates) {
      bool dominated = false;
      for (TupleId b : candidates) {
        if (a == b) continue;
        if (Dominates(points[b], points[a])) {
          dominated = true;
          break;
        }
      }
      if (!dominated) out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace drli
