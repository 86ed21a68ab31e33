#include "core/partition_merge.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/kernels_batch.h"
#include "core/eds.h"

namespace drli {

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
  // The ∃ rows and flags come from the slot layout; the skyline is
  // ascending, so each member collects its fine parents ascending.
  const std::vector<TupleId>& skyline = index.coarse_layers().front();
  const QueryLayout& layout = index.query_layout();
  // Fine edges stay inside a coarse layer: a skyline member's fine
  // parents are skyline members.
  std::vector<std::vector<TupleId>> parents(skyline.size());
  std::vector<std::size_t> position(pts.size(), skyline.size());
  for (std::size_t i = 0; i < skyline.size(); ++i) position[skyline[i]] = i;
  for (const TupleId id : skyline) {
    const std::uint32_t slot = layout.slot_of[id];
    for (std::uint32_t e = layout.fine_offsets[slot];
         e < layout.fine_offsets[slot + 1]; ++e) {
      const std::uint32_t succ = layout.node_of[layout.fine_targets[e]];
      DRLI_DCHECK(position[succ] < skyline.size());
      parents[position[succ]].push_back(id);
    }
  }
  for (std::size_t i = 0; i < skyline.size(); ++i) {
    const TupleId id = skyline[i];
    const PointView p = pts[id];
    const bool has_fine_in = (layout.init_packed[layout.slot_of[id]] &
                              QueryLayout::kFineFreeBit) == 0;
    if (index.fine_layer_of(id) != 0 && has_fine_in &&
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
  double bound = std::numeric_limits<double>::infinity();
  for (std::size_t at = 0; at < corners.size(); at += dim) {
    bound = std::min(bound, Score(weights, PointView(&corners[at], dim)));
  }
  return bound;
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

}  // namespace drli
