// Builds any of the library's indexes by name -- the glue used by the
// examples and the benchmark harness.

#ifndef DRLI_CORE_INDEX_REGISTRY_H_
#define DRLI_CORE_INDEX_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "topk/query.h"

namespace drli {

struct IndexBuildConfig {
  // One of: scan, fa, ta, nra, prefer, lpta, onion, pli, dg, dg+,
  // hl, hl+, dl, dl+, sdl+, tdl+ (case-insensitive). Onion, pli, hl
  // and hl+ cap their convex layers at 256 (k must stay below it).
  // The sharded kind builds 4 hyperplane shards (partition seed 42)
  // and also accepts an inline spec "sdl+<S>[r|h]" -- shard count plus
  // an optional partitioner letter (random / hyperplane) -- e.g.
  // "sdl+4h". The tiered dynamic kind feeds the relation through
  // Insert with a 32-row memtable, so n / 32 seals (minus compactions)
  // shape the run table; "tdl+<M>" sets the memtable capacity instead,
  // e.g. "tdl+7" seals a run every 7 inserts.
  std::string kind = "dl+";
  // Zero-layer cluster count for dg+/dl+ (0 = ceil(sqrt(|L1|))).
  std::size_t zero_layer_clusters = 0;
};

// All kinds accepted by BuildIndex.
std::vector<std::string> KnownIndexKinds();

// Builds the index over `points`. Unknown kind => InvalidArgument.
StatusOr<std::unique_ptr<TopKIndex>> BuildIndex(const IndexBuildConfig& config,
                                                PointSet points);

}  // namespace drli

#endif  // DRLI_CORE_INDEX_REGISTRY_H_
