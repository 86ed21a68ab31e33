// The Onion index (Chang et al., SIGMOD'00): convex-skyline layers with
// complete access. Included as the classic convex-layer baseline
// (Table II: complete access to the first layers).
//
// Query processing scans layers in order, scoring every tuple in each
// layer. Because the minimum score per layer strictly increases, the
// scan can stop once k answers at or below the current layer's minimum
// are held (early_stop, on by default); the worst case is the classic
// k-layer guarantee.

#ifndef DRLI_BASELINES_ONION_H_
#define DRLI_BASELINES_ONION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/point.h"
#include "topk/query.h"

namespace drli {

struct OnionOptions {
  // Cap on peeled layers; the remainder becomes one complete-access
  // tail layer (queries with k <= max_layers never reach it).
  std::size_t max_layers = static_cast<std::size_t>(-1);
  bool early_stop = true;
  std::string name = "ONION";
};

struct OnionBuildStats {
  std::size_t num_layers = 0;
  bool truncated = false;
  double build_seconds = 0.0;
};

class OnionIndex final : public TopKIndex {
 public:
  static OnionIndex Build(PointSet points, const OnionOptions& options = {});

  OnionIndex(OnionIndex&&) = default;
  OnionIndex& operator=(OnionIndex&&) = default;

  std::string name() const override { return name_; }
  std::size_t size() const override { return points_.size(); }
  std::size_t dim() const override { return points_.dim(); }
  TopKResult Query(const TopKQuery& query) const override;

  const PointSet& points() const { return points_; }
  const std::vector<std::vector<TupleId>>& layers() const { return layers_; }
  const OnionBuildStats& build_stats() const { return stats_; }

 private:
  OnionIndex() : points_(1) {}

  std::string name_;
  bool early_stop_ = true;
  OnionBuildStats stats_;
  PointSet points_;
  std::vector<std::vector<TupleId>> layers_;
};

}  // namespace drli

#endif  // DRLI_BASELINES_ONION_H_
