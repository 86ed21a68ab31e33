#include "core/partition_merge.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/kernels_batch.h"
#include "core/eds.h"

namespace drli {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One heap entry: a bound (kind 0) stands in for a whole unopened
// partition; an item (kind 1) is the cursor over one opened list.
struct MergeEntry {
  double score;
  std::uint32_t kind;  // 0 = partition bound, 1 = item cursor
  std::uint32_t tie;   // bound: partition; item: global tuple id
  std::uint32_t list;  // item: index into the opened lists
  std::uint32_t pos;   // item: position in that list
};

// "a orders after b", for a min-heap via std::push_heap/pop_heap.
struct MergeEntryAfter {
  bool operator()(const MergeEntry& a, const MergeEntry& b) const {
    if (a.score != b.score) return a.score > b.score;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.tie > b.tie;
  }
};

}  // namespace

std::vector<double> SkylineCorners(const DualLayerIndex& index) {
  std::vector<double> corners;
  const PointSet& pts = index.points();
  if (pts.size() == 0) return corners;
  // DL+'s start set among real tuples: the skyline members that no
  // ∃-edge gates, i.e. L^{11} plus the members the EDS test left
  // uncovered (the hull's tolerances can push a true minimiser into a
  // deeper sublayer without giving it a covering facet). Then the gated
  // members whose fine parents certify them only up to rounding: on a
  // facet, such a member can score an ulp below every parent.
  const std::vector<TupleId>& skyline = index.coarse_layers().front();
  const std::vector<std::uint8_t>& has_fine_in = index.has_fine_in();
  // Fine edges stay inside a coarse layer: a skyline member's fine
  // parents are skyline members.
  std::vector<std::vector<TupleId>> parents(skyline.size());
  std::vector<std::size_t> position(pts.size(), skyline.size());
  for (std::size_t i = 0; i < skyline.size(); ++i) position[skyline[i]] = i;
  for (const TupleId id : skyline) {
    for (const auto succ : index.fine_out()[id]) {
      DRLI_DCHECK(position[succ] < skyline.size());
      parents[position[succ]].push_back(id);
    }
  }
  for (std::size_t i = 0; i < skyline.size(); ++i) {
    const TupleId id = skyline[i];
    const PointView p = pts[id];
    if (index.fine_layer_of(id) != 0 && has_fine_in[id] &&
        FacetIsVerifiedEds(pts, parents[i], FacetMinCorner(pts, parents[i]),
                           p, EdsMargin::kStrict, nullptr)) {
      continue;
    }
    corners.insert(corners.end(), p.begin(), p.end());
  }
  return corners;
}

double CornerLowerBound(const std::vector<double>& corners,
                        PointView weights) {
  const std::size_t dim = weights.size();
  double bound = kInf;
  for (std::size_t at = 0; at < corners.size(); at += dim) {
    bound = std::min(bound, Score(weights, PointView(&corners[at], dim)));
  }
  return bound;
}

TopKResult MergePartitions(std::size_t k, const ExecBudget& budget,
                           const Stopwatch& timer, TopKResult opened,
                           const std::vector<PartitionBound>& partitions,
                           const OpenPartition& open,
                           const PartitionLabel& label) {
  TopKResult result;
  result.stats = opened.stats;
  result.accessed = std::move(opened.accessed);

  // Opened partitions' item lists; an item entry's `list` indexes here.
  std::vector<std::vector<ScoredTuple>> lists;
  lists.reserve(partitions.size() + 1);
  std::vector<MergeEntry> heap;
  heap.reserve(partitions.size() + 2);
  const auto push_item = [&](std::uint32_t list, std::uint32_t pos) {
    if (pos >= lists[list].size()) return;
    const ScoredTuple& item = lists[list][pos];
    heap.push_back(MergeEntry{item.score, 1, item.id, list, pos});
    std::push_heap(heap.begin(), heap.end(), MergeEntryAfter{});
  };
  const auto add_list = [&](std::vector<ScoredTuple> items) {
    lists.push_back(std::move(items));
    push_item(static_cast<std::uint32_t>(lists.size() - 1), 0);
  };
  add_list(std::move(opened.items));
  for (const PartitionBound& p : partitions) {
    heap.push_back(
        MergeEntry{p.bound, 0, static_cast<std::uint32_t>(p.partition), 0, 0});
  }
  std::make_heap(heap.begin(), heap.end(), MergeEntryAfter{});

  Termination reason = Termination::kComplete;
  double stop_floor = kInf;
  while (result.items.size() < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), MergeEntryAfter{});
    const MergeEntry entry = heap.back();
    heap.pop_back();

    if (entry.kind == 1) {
      result.items.push_back(lists[entry.list][entry.pos]);
      push_item(entry.list, entry.pos + 1);
      continue;
    }

    // The merge frontier reached this partition's bound: open it.
    ExecBudget sub;
    reason = RemainingBudget(budget, result.stats.tuples_evaluated, timer,
                             &sub);
    if (reason != Termination::kComplete) {
      stop_floor = entry.score;  // the partition we could not afford
      break;
    }
    TopKResult part = open(entry.tie, sub);
    result.stats.Merge(part.stats);
    result.accessed.insert(result.accessed.end(), part.accessed.begin(),
                           part.accessed.end());
    if (part.termination == Termination::kError ||
        part.termination == Termination::kInvalidQuery) {
      result.items.clear();
      result.error = label(entry.tie) + ": " +
                     (part.error.empty()
                          ? std::string(TerminationName(part.termination))
                          : part.error);
      FinalizePartial(result, Termination::kError, -kInf);
      result.stats.elapsed_seconds = timer.ElapsedSeconds();
      return result;
    }
    if (!part.complete()) {
      // The partition tripped mid-traversal. None of its items are
      // merged; the whole partition is bounded by the smaller of its
      // frontier and its best returned score, and the merge stops.
      reason = part.termination;
      stop_floor = part.frontier_bound;
      if (!part.items.empty()) {
        stop_floor = std::min(stop_floor, part.items.front().score);
      }
      break;
    }
    add_list(std::move(part.items));
  }

  if (reason == Termination::kComplete) {
    FinalizeComplete(result);
  } else {
    // Every unreturned tuple is (a) in the partition that stopped or
    // was unaffordable -- bounded by stop_floor, (b) in a partition
    // still represented by a bound entry, (c) after the cursor of an
    // opened list, or (d) past the cut of an opened list. A callback
    // cuts a list only after k live items, so such a tuple scores >=
    // the list's live cursor entry (a fully emitted cut list would have
    // ended the merge). (b)-(d) are all covered by the surviving heap
    // keys.
    double bound = stop_floor;
    for (const MergeEntry& e : heap) bound = std::min(bound, e.score);
    FinalizePartial(result, reason, bound);
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

void MapToGlobal(const std::vector<TupleId>& ids, TopKResult* result) {
  for (TupleId& id : result->accessed) id = ids[id];
  for (ScoredTuple& item : result->items) item.id = ids[item.id];
}

DualLayerPartition MakeDualLayerPartition(DualLayerIndex index,
                                          std::vector<TupleId> ids) {
  std::vector<double> bound_values = SkylineCorners(index);
  return DualLayerPartition{std::move(index), std::move(ids),
                            std::move(bound_values)};
}

std::string PartitionSet::Label(std::size_t p) const {
  return std::string(noun) + " " + std::to_string(numbers[p]);
}

double PartitionSet::Bound(std::size_t p, PointView weights) const {
  return ScoreMinRange(weights, bounds, first_row[p],
                       first_row[p + 1] - first_row[p]);
}

PartitionSet MakePartitionSet(std::size_t dim,
                              std::vector<const DualLayerPartition*> parts,
                              std::size_t QueryStats::*opened,
                              const char* noun,
                              std::vector<std::uint32_t> numbers) {
  DRLI_CHECK_EQ(numbers.size(), parts.size());
  PartitionSet set;
  std::vector<double> values;
  set.first_row.reserve(parts.size() + 1);
  set.first_row.push_back(0);
  for (const DualLayerPartition* part : parts) {
    values.insert(values.end(), part->bound_values.begin(),
                  part->bound_values.end());
    set.first_row.push_back(static_cast<std::uint32_t>(values.size() / dim));
  }
  set.bounds =
      SoaPointSet::FromPointSet(PointSet::FromVector(dim, std::move(values)));
  set.parts = std::move(parts);
  set.opened = opened;
  set.noun = noun;
  set.numbers = std::move(numbers);
  return set;
}

TopKResult MergeDualLayerPartitions(const PartitionSet& set,
                                    PointView weights, std::size_t k,
                                    const ExecBudget& budget,
                                    const Stopwatch& timer, TopKResult opened,
                                    const PartitionTraversal& traverse) {
  std::vector<PartitionBound> bounds;
  bounds.reserve(set.parts.size());
  for (std::size_t p = 0; p < set.parts.size(); ++p) {
    if (set.parts[p]->ids.empty()) continue;
    bounds.push_back({set.Bound(p, weights), p});
  }
  return MergePartitions(
      k, budget, timer, std::move(opened), bounds,
      [&](std::size_t p, const ExecBudget& sub) {
        const DualLayerPartition& part = *set.parts[p];
        std::optional<TopKResult> result =
            traverse(part.index, std::min(k, part.ids.size()), sub);
        if (!result.has_value()) {
          TopKResult declined;
          declined.stats.boxes_pruned = 1;
          FinalizeComplete(declined);
          return declined;
        }
        ++(result->stats.*set.opened);
        MapToGlobal(part.ids, &*result);
        return std::move(*result);
      },
      [&set](std::size_t p) { return set.Label(p); });
}

}  // namespace drli
