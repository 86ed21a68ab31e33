// The bounded-partition merge (DESIGN.md §7): the one coordinator
// behind the sharded engine and the tiered run merge, built on the
// best-first loop (core/best_first.h) it shares with the constrained
// forest walk. Whole partitions (shards, runs) wait in the loop's
// min-heap at a lower bound on their scores and are opened through a
// caller callable only when the merge frontier reaches that bound;
// opened partitions' sorted lists compete in the same heap.
//
// Heap order: by score; at equal score a bound precedes an item (a
// partition must open before a tuple at its bound is emitted, or an
// equal-scoring smaller id hiding in it would break the canonical tie
// order); bounds then break ties by partition index, items by global
// id. Partitions therefore open in ascending (bound, index) order.
//
// Budgets compose by remainder (RemainingBudget, called as a bound
// pops). One partial policy: a partition whose traversal trips
// contributes no items and is bounded by the smaller of its frontier
// and its best returned score; the emitted prefix is certified against
// the minimum of that floor and every surviving heap key -- the loop's
// stop frontier.
//
// Shards and tiered runs are one type, DualLayerPartition, and the two
// plain merges over them (sharded and tiered) share one open rule,
// MergeDualLayerPartitions.
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
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/point.h"
#include "common/soa_points.h"
#include "common/stopwatch.h"
#include "core/best_first.h"
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

namespace partition_merge_internal {

// One unit of the merge's walk: a bound stands in for a whole unopened
// partition; an item is the cursor over one opened list. The tie's
// high word puts a bound before an item at equal score.
struct MergeUnit {
  static constexpr std::uint64_t kItem = std::uint64_t{1} << 32;
  double key;
  std::uint64_t tie;   // bound: partition; item: kItem | global tuple id
  std::uint32_t list;  // item: index into the opened lists
  std::uint32_t pos;   // item: position in that list
};

}  // namespace partition_merge_internal

// Merges `partitions` into the canonical top-k on the best-first loop
// (core/best_first.h). `open(partition, budget)` queries one partition
// under `budget`, the remainder of the merge's: it returns the
// partition's items in canonical order with global ids and no retired
// members, `accessed` in global ids too, and stats carrying whatever
// counters the caller keeps (shards_touched, runs_opened,
// boxes_pruned), folded in with QueryStats::Merge; a kError or
// kInvalidQuery result aborts the merge with kError, its text prefixed
// by `label(partition)` ("shard 3", "run 7"). `opened` is an
// already-open partition: its items (canonical order) enter the heap
// up front and its stats and accessed ids seed the result's -- the
// tiered memtable scan; pass {} when there is none. `timer` is the
// caller's Query clock: deadlines and elapsed_seconds are measured on
// it.
template <typename Open, typename Label>
TopKResult MergePartitions(std::size_t k, const ExecBudget& budget,
                           const Stopwatch& timer, TopKResult opened,
                           const std::vector<PartitionBound>& partitions,
                           const Open& open, const Label& label) {
  using partition_merge_internal::MergeUnit;
  TopKResult result;
  result.stats = opened.stats;
  result.accessed = std::move(opened.accessed);

  // Opened partitions' item lists; an item unit's `list` indexes here.
  std::vector<std::vector<ScoredTuple>> lists;
  lists.reserve(partitions.size() + 1);
  BestFirst<MergeUnit> walk;
  walk.Reserve(partitions.size() + 2);
  const auto push_item = [&](std::uint32_t list, std::uint32_t pos) {
    if (pos >= lists[list].size()) return;
    const ScoredTuple& item = lists[list][pos];
    walk.Push({item.score, MergeUnit::kItem | item.id, list, pos});
  };
  const auto add_list = [&](std::vector<ScoredTuple> items) {
    lists.push_back(std::move(items));
    push_item(static_cast<std::uint32_t>(lists.size() - 1), 0);
  };
  add_list(std::move(opened.items));
  for (const PartitionBound& p : partitions) {
    walk.Push({p.bound, p.partition, 0, 0});
  }

  // A partial walk's frontier covers every unreturned tuple: (a) in the
  // partition that stopped or was unaffordable -- bounded by the stop's
  // floor, (b) in a partition still represented by a bound unit, (c)
  // after the cursor of an opened list, or (d) past the cut of an
  // opened list. A callback cuts a list only after k live items, so
  // such a tuple scores >= the list's live cursor unit (a fully emitted
  // cut list would have ended the merge). (b)-(d) are all covered by
  // the surviving heap keys.
  const BestFirstEnd end = walk.Run([&](const MergeUnit& unit) {
    if (result.items.size() >= k) return BestFirstStep::End();
    if (unit.tie >= MergeUnit::kItem) {
      result.items.push_back(lists[unit.list][unit.pos]);
      push_item(unit.list, unit.pos + 1);
      return BestFirstStep::Continue();
    }
    // The merge frontier reached this partition's bound: open it,
    // or stop at the bound of the partition we cannot afford.
    ExecBudget sub;
    if (const Termination reason = RemainingBudget(
            budget, result.stats.tuples_evaluated, timer, &sub);
        reason != Termination::kComplete) {
      return BestFirstStep::Stop(reason, unit.key);
    }
    const std::size_t p = static_cast<std::size_t>(unit.tie);
    TopKResult part = open(p, sub);
    result.stats.Merge(part.stats);
    result.accessed.insert(result.accessed.end(), part.accessed.begin(),
                           part.accessed.end());
    if (part.termination == Termination::kError ||
        part.termination == Termination::kInvalidQuery) {
      result.items.clear();
      result.error = label(p) + ": " +
                     (part.error.empty()
                          ? std::string(TerminationName(part.termination))
                          : part.error);
      return BestFirstStep::Stop(Termination::kError,
                                 -std::numeric_limits<double>::infinity());
    }
    if (!part.complete()) {
      // The partition tripped mid-traversal. None of its items are
      // merged; the whole partition is bounded by the smaller of
      // its frontier and its best returned score.
      double floor = part.frontier_bound;
      if (!part.items.empty()) {
        floor = std::min(floor, part.items.front().score);
      }
      return BestFirstStep::Stop(part.termination, floor);
    }
    add_list(std::move(part.items));
    return BestFirstStep::Continue();
  });
  end.Finalize(result);
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

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

// One engine's partitions as its queries see them, made by
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

// Scores every row -- the tiered memtable, unindexed -- as an
// already-open list for MergeDualLayerPartitions: each row is counted in
// tuples_evaluated and listed in accessed, and items keeps the k best in
// canonical (score, id) order. The merge emits at most k items, so the
// rows past the cut can never be emitted, and a partial merge certifies
// them through the list's surviving cursor like any other cut list.
TopKResult OpenRows(const PointSet& rows, const std::vector<TupleId>& ids,
                    PointView weights, std::size_t k);

// The open rule of both plain merges over DL+ partitions. An empty
// partition is never enqueued; the rest wait at their corner bound
// under `weights` (PartitionSet::Bound). An opened partition's index is
// queried for min(|ids|, k) items -- its traversal skips retired
// members, so that is min(live, k) live ones; a fully retired partition
// answers empty at zero cost -- mapped to global ids, and bumps
// `set.opened`; errors carry `set.Label`. `opened` (the already-open
// list) and `timer` are as in MergePartitions.
TopKResult MergeDualLayerPartitions(const PartitionSet& set,
                                    PointView weights, std::size_t k,
                                    const ExecBudget& budget,
                                    const Stopwatch& timer, TopKResult opened);

}  // namespace drli

#endif  // DRLI_CORE_PARTITION_MERGE_H_
