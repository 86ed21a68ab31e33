// The Partitioned-Layer Index (Heo, Whang et al., Inf. Sci. 2009 --
// reference [29] of the paper): the relation is split into p
// partitions, each materialized as its own convex-skyline layer list
// (small, cheap-to-build hulls); queries merge the partitions
// layer-by-layer with per-partition chain bounds.
//
// Included as the remaining member of the paper's layer-based family.
// Its trade-off: construction is much cheaper than one global convex
// layering (hulls over n/p points), while query access cost sits
// between Onion and HL.

#ifndef DRLI_BASELINES_PARTITIONED_LAYER_H_
#define DRLI_BASELINES_PARTITIONED_LAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/point.h"
#include "topk/query.h"

namespace drli {

struct PartitionedLayerOptions {
  // Number of partitions; 0 = ceil(n / 4096) clamped to [1, 64].
  std::size_t num_partitions = 0;
  // Layer cap per partition, as in OnionOptions (top-k with k below
  // the cap stays exact; the remainder forms a complete-access tail).
  std::size_t max_layers_per_partition = 256;
  std::uint64_t seed = 23;  // partition assignment shuffle
  std::string name = "PLI";
};

struct PartitionedLayerBuildStats {
  std::size_t num_partitions = 0;
  std::size_t total_layers = 0;
  double build_seconds = 0.0;
};

class PartitionedLayerIndex final : public TopKIndex {
 public:
  static PartitionedLayerIndex Build(
      PointSet points, const PartitionedLayerOptions& options = {});

  PartitionedLayerIndex(PartitionedLayerIndex&&) = default;
  PartitionedLayerIndex& operator=(PartitionedLayerIndex&&) = default;

  std::string name() const override { return name_; }
  std::size_t size() const override { return points_.size(); }
  std::size_t dim() const override { return points_.dim(); }
  TopKResult Query(const TopKQuery& query) const override;

  const PartitionedLayerBuildStats& build_stats() const { return stats_; }
  // layers()[p][l] = ids of layer l of partition p.
  const std::vector<std::vector<std::vector<TupleId>>>& layers() const {
    return layers_;
  }

 private:
  PartitionedLayerIndex() : points_(1) {}

  std::string name_;
  PartitionedLayerBuildStats stats_;
  PointSet points_;
  std::vector<std::vector<std::vector<TupleId>>> layers_;
};

}  // namespace drli

#endif  // DRLI_BASELINES_PARTITIONED_LAYER_H_
