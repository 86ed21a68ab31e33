#include "core/index_registry.h"

#include <algorithm>

#include "baselines/dominant_graph.h"
#include "baselines/hybrid_layer.h"
#include "baselines/list_index.h"
#include "baselines/onion.h"
#include "baselines/partitioned_layer.h"
#include "baselines/view_index.h"
#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "shard/sharded_index.h"
#include "topk/scan.h"

namespace drli {

namespace {

// Convex-layer cap of onion, pli, hl and hl+.
constexpr std::size_t kConvexMaxLayers = 256;
// Memtable capacity of a "tdl+" build without an inline spec.
constexpr std::size_t kTieredMemtableCapacity = 32;

std::string Lowered(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

std::vector<std::string> KnownIndexKinds() {
  return {"scan", "fa",  "ta",  "nra", "prefer", "lpta", "onion", "pli",
          "dg",   "dg+", "hl",  "hl+", "dl",     "dl+",  "sdl+",  "tdl+"};
}

StatusOr<std::unique_ptr<TopKIndex>> BuildIndex(const IndexBuildConfig& config,
                                                PointSet points) {
  const std::string kind = Lowered(config.kind);
  if (kind == "scan") {
    return std::unique_ptr<TopKIndex>(
        std::make_unique<FullScanIndex>(std::move(points)));
  }
  if (kind == "fa" || kind == "ta" || kind == "nra") {
    const ListAlgorithm algorithm = kind == "fa"   ? ListAlgorithm::kFa
                                    : kind == "ta" ? ListAlgorithm::kTa
                                                   : ListAlgorithm::kNra;
    return std::unique_ptr<TopKIndex>(std::make_unique<ListIndex>(
        ListIndex::Build(std::move(points), algorithm)));
  }
  if (kind == "prefer" || kind == "lpta") {
    ViewIndexOptions options;
    options.algorithm =
        kind == "prefer" ? ViewAlgorithm::kPrefer : ViewAlgorithm::kLpta;
    return std::unique_ptr<TopKIndex>(std::make_unique<ViewIndex>(
        ViewIndex::Build(std::move(points), options)));
  }
  if (kind == "onion") {
    OnionOptions options;
    options.max_layers = kConvexMaxLayers;
    return std::unique_ptr<TopKIndex>(std::make_unique<OnionIndex>(
        OnionIndex::Build(std::move(points), options)));
  }
  if (kind == "pli") {
    PartitionedLayerOptions options;
    options.max_layers_per_partition = kConvexMaxLayers;
    return std::unique_ptr<TopKIndex>(
        std::make_unique<PartitionedLayerIndex>(
            PartitionedLayerIndex::Build(std::move(points), options)));
  }
  if (kind == "dg" || kind == "dg+") {
    DualLayerOptions options = DominantGraphConfig(kind == "dg+");
    options.zero_layer_clusters = config.zero_layer_clusters;
    return std::unique_ptr<TopKIndex>(std::make_unique<DualLayerIndex>(
        DualLayerIndex::Build(std::move(points), options)));
  }
  if (kind == "hl" || kind == "hl+") {
    HybridLayerOptions options;
    options.max_layers = kConvexMaxLayers;
    options.tight_threshold = (kind == "hl+");
    return std::unique_ptr<TopKIndex>(std::make_unique<HybridLayerIndex>(
        HybridLayerIndex::Build(std::move(points), options)));
  }
  if (kind == "dl" || kind == "dl+") {
    DualLayerOptions options;
    options.build_zero_layer = (kind == "dl+");
    options.zero_layer_clusters = config.zero_layer_clusters;
    return std::unique_ptr<TopKIndex>(std::make_unique<DualLayerIndex>(
        DualLayerIndex::Build(std::move(points), options)));
  }
  if (kind.rfind("sdl+", 0) == 0) {
    ShardedBuildOptions options;
    // Optional inline spec: "sdl+<S>[r|h]".
    std::string spec = kind.substr(4);
    if (!spec.empty()) {
      if (spec.back() == 'r' || spec.back() == 'h') {
        options.partitioner = spec.back() == 'r'
                                  ? ShardPartitioner::kRandom
                                  : ShardPartitioner::kHyperplane;
        spec.pop_back();
      }
      if (spec.empty() ||
          spec.find_first_not_of("0123456789") != std::string::npos) {
        return Status::InvalidArgument("bad sharded kind spec: " +
                                       config.kind);
      }
      const unsigned long parsed = std::stoul(spec);
      if (parsed == 0 || parsed > 4096) {
        return Status::InvalidArgument("shard count out of range in: " +
                                       config.kind);
      }
      options.num_shards = parsed;
    }
    options.shard_options.build_zero_layer = true;
    options.shard_options.zero_layer_clusters = config.zero_layer_clusters;
    return std::unique_ptr<TopKIndex>(std::make_unique<ShardedDualLayerIndex>(
        ShardedDualLayerIndex::Build(std::move(points), options)));
  }
  if (kind.rfind("tdl+", 0) == 0) {
    TieredIndexOptions options;
    options.run.build_zero_layer = true;
    options.run.zero_layer_clusters = config.zero_layer_clusters;
    options.memtable_capacity = kTieredMemtableCapacity;
    // Optional inline spec: "tdl+<M>" = memtable capacity M.
    const std::string spec = kind.substr(4);
    if (!spec.empty()) {
      if (spec.find_first_not_of("0123456789") != std::string::npos) {
        return Status::InvalidArgument("bad tiered kind spec: " + config.kind);
      }
      const unsigned long parsed = std::stoul(spec);
      if (parsed == 0 || parsed > 1u << 20) {
        return Status::InvalidArgument("memtable capacity out of range in: " +
                                       config.kind);
      }
      options.memtable_capacity = parsed;
    }
    // Feed the relation through the mutation path (instead of the bulk
    // constructor) so the built index genuinely spans multiple runs
    // with live compaction state -- the configuration the differential
    // oracle exists to cross-check against the static families.
    auto index = std::make_unique<TieredDualLayerIndex>(points.dim(), options);
    for (std::size_t i = 0; i < points.size(); ++i) index->Insert(points[i]);
    return std::unique_ptr<TopKIndex>(std::move(index));
  }
  return Status::InvalidArgument("unknown index kind: " + config.kind);
}

}  // namespace drli
