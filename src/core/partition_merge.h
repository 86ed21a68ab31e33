// The bounded-partition merge (DESIGN.md §7): the one coordinator loop
// behind the sharded engine, the tiered run merge, and the constrained
// scenario over both. Whole partitions (shards, runs) wait in a
// min-heap at a lower bound on their scores and are opened through a
// caller callback only when the merge frontier reaches that bound;
// opened partitions' sorted lists compete in the same heap.
//
// Heap order: by score; at equal score a bound precedes an item (a
// partition must open before a tuple at its bound is emitted, or an
// equal-scoring smaller id hiding in it would break the canonical tie
// order); bounds then break ties by partition index, items by global
// id. Partitions therefore open in ascending (bound, index) order.
//
// Budgets compose by remainder (RemainingBudget). One partial policy: a
// partition whose traversal trips contributes no items and is bounded
// by the smaller of its frontier and its best returned score; the
// emitted prefix is certified against the minimum of that floor and
// every surviving heap key.
//
// Shards and tiered runs are one type, DualLayerPartition, and the four
// merges over them (plain and constrained, sharded and tiered) share
// one open rule, MergeDualLayerPartitions.
//
// A query pays only for what it opens. Each engine builds its
// PartitionSet once -- at build and load, and again on every tiered
// install (seal or compaction) -- with every partition's bound points
// in one dimension-major block, and each query scores that block in one
// fused pass (ScoreMinRange per partition row range). The tiered
// memtable opens as its k best rows only: every row is still scored and
// counted, and since no list enters the merge with more than k items
// the cut-list certificate below covers the rows it drops.

#ifndef DRLI_CORE_PARTITION_MERGE_H_
#define DRLI_CORE_PARTITION_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/point.h"
#include "common/soa_points.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"
#include "topk/query.h"

namespace drli {

// The skyline points no other skyline point provably undercuts,
// row-major, dim() doubles per point; empty for an empty index: DL+'s
// start set among real tuples -- the first convex sublayer L^{11},
// which holds the linear top-1 for every non-negative weight vector
// (DESIGN.md §7), plus the skyline members no ∃-edge gates -- and the
// gated members whose fine parents pass only the rounding-level EDS
// certificate, not the strict one (coplanar rows). CornerLowerBound
// over them is the index's exact minimum computed score, bit for bit.
// Costs one LP per LP-gated skyline member; MakeDualLayerPartition
// computes it once per partition.
std::vector<double> SkylineCorners(const DualLayerIndex& index);

// The minimum Score over `corners`; +inf when there are none.
double CornerLowerBound(const std::vector<double>& corners,
                        PointView weights);

// One candidate partition of a merge.
struct PartitionBound {
  double bound = 0.0;         // no member scores below it
  std::size_t partition = 0;  // passed to the callbacks; breaks bound ties
};

// Queries partition `partition` under `budget`, the remainder of the
// merge's budget. Returns its items in canonical order with global ids
// and no retired members, `accessed` in global ids too, and stats carrying
// whatever counters the caller keeps (shards_touched, runs_opened,
// boxes_pruned); the merge folds them in with QueryStats::Merge. A
// kError or kInvalidQuery result aborts the merge with kError.
using OpenPartition =
    std::function<TopKResult(std::size_t partition, const ExecBudget& budget)>;

// Names a partition in error text, e.g. "shard 3" or "run 7".
using PartitionLabel = std::function<std::string(std::size_t partition)>;

// Merges `partitions` into the canonical top-k. `opened` is an
// already-open partition: its items (canonical order) enter the heap
// up front and its stats and accessed ids seed the result's -- the
// tiered memtable scan; pass {} when there is none. `timer` is the
// caller's Query clock: deadlines and elapsed_seconds are measured on
// it.
TopKResult MergePartitions(std::size_t k, const ExecBudget& budget,
                           const Stopwatch& timer, TopKResult opened,
                           const std::vector<PartitionBound>& partitions,
                           const OpenPartition& open,
                           const PartitionLabel& label);

// Rewrites a partition result's items and `accessed` from local to
// global ids: `ids[local]` is the global id of local tuple `local`.
void MapToGlobal(const std::vector<TupleId>& ids, TopKResult* result);

// A shard or a tiered run: a complete DL+ index over a subset of the
// relation. `ids[local]` is the global id of local tuple `local`,
// strictly ascending, so the local (score, id) order is the global
// one. A tiered run's tombstoned members are retired inside `index`
// (DualLayerIndex::Retire; a shard retires nothing), so its traversal
// returns live members only. `bound_values` = SkylineCorners(index),
// the points of the partition's corner bound; sound under retirement
// too, since masking members only raises the live minimum.
struct DualLayerPartition {
  DualLayerIndex index;
  std::vector<TupleId> ids;
  std::vector<double> bound_values;
};

// The one way to make a partition: computes its bound points (one LP
// per LP-gated skyline member, so callers run it on worker threads).
DualLayerPartition MakeDualLayerPartition(DualLayerIndex index,
                                          std::vector<TupleId> ids);

// One engine's partitions as its merges see them, made by
// MakePartitionSet when the partitions change (build, load, tiered
// install) and read by every query in between. It holds no pointer to
// its engine, only to the partitions, which sit in a vector the
// engine's moves carry along; an install that reallocates that vector
// makes a new set.
struct PartitionSet {
  std::vector<const DualLayerPartition*> parts;
  std::size_t QueryStats::*opened = nullptr;  // shards_touched, runs_opened
  // Error text names partition p "<noun> <numbers[p]>": "shard 3",
  // "run 7" (a run's uid).
  const char* noun = "";
  std::vector<std::uint32_t> numbers;
  // Every partition's bound_values as one dimension-major block:
  // partition p's points are rows [first_row[p], first_row[p + 1]).
  SoaPointSet bounds;
  std::vector<std::uint32_t> first_row;

  std::string Label(std::size_t p) const;
  // CornerLowerBound(parts[p]->bound_values, weights), bit for bit,
  // from the block (ScoreMinRange).
  double Bound(std::size_t p, PointView weights) const;
};

// Copies the partitions' bound points into one block. `dim` is the
// engine's; `numbers` names each partition in error text.
PartitionSet MakePartitionSet(std::size_t dim,
                              std::vector<const DualLayerPartition*> parts,
                              std::size_t QueryStats::*opened,
                              const char* noun,
                              std::vector<std::uint32_t> numbers);

// Scores every row `admit` accepts -- the tiered memtable, unindexed --
// as an already-open list for MergeDualLayerPartitions: each admitted
// row is counted in tuples_evaluated and listed in accessed, and items
// keeps the k best of them in canonical (score, id) order. The merge
// emits at most k items, so the rows past the cut can never be
// emitted, and a partial merge certifies them through the list's
// surviving cursor like any other cut list.
template <typename Admit>
TopKResult OpenRows(const PointSet& rows, const std::vector<TupleId>& ids,
                    PointView weights, std::size_t k, const Admit& admit) {
  TopKResult open;
  open.accessed.reserve(ids.size());
  // The k best so far, ascending; a row that beats the worst of them
  // is insertion-sorted in from the back. Cheaper than a heap or a
  // sort at memtable sizes.
  std::vector<ScoredTuple>& best = open.items;
  best.reserve(std::min(k, ids.size()));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const PointView row = rows[i];
    if (!admit(row)) continue;
    open.accessed.push_back(ids[i]);
    const ScoredTuple item{ids[i], Score(weights, row)};
    if (best.size() == k) {
      if (best.empty() || !ResultOrderLess(item, best.back())) continue;
      best.pop_back();
    }
    best.push_back(item);
    std::size_t at = best.size() - 1;
    for (; at > 0 && ResultOrderLess(item, best[at - 1]); --at) {
      best[at] = best[at - 1];
    }
    best[at] = item;
  }
  open.stats.tuples_evaluated = open.accessed.size();
  return open;
}

// One merge's per-partition traversal: the top `k` items of `index`
// under `budget`, in local ids; nullopt declines the partition unopened
// (one box pruned: its box tree's root box misses a constraint box).
using PartitionTraversal = std::function<std::optional<TopKResult>(
    const DualLayerIndex& index, std::size_t k, const ExecBudget& budget)>;

// The open rule of every merge over DL+ partitions. An empty partition
// is never enqueued; the rest wait at their corner bound under
// `weights` (PartitionSet::Bound). An opened partition is asked for
// min(|ids|, k) items -- its traversal skips retired members, so that
// is min(live, k) live ones; a fully retired partition answers empty
// at zero cost -- mapped to global ids, and bumps `set.opened`; errors
// carry `set.Label`.
// `opened` (the already-open list) and `timer` are as in
// MergePartitions.
TopKResult MergeDualLayerPartitions(const PartitionSet& set,
                                    PointView weights, std::size_t k,
                                    const ExecBudget& budget,
                                    const Stopwatch& timer, TopKResult opened,
                                    const PartitionTraversal& traverse);

}  // namespace drli

#endif  // DRLI_CORE_PARTITION_MERGE_H_
