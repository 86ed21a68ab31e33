// Attribute-range constraint boxes for the constrained top-k scenario
// (scenarios/constrained.h). A box is an axis-aligned, inclusive
// rectangle over the relation's attribute space; the constrained
// traversal prunes whole box-tree nodes / runs / shards whose bounding
// box does not intersect it.

#ifndef DRLI_SCENARIOS_SCENARIO_BOX_H_
#define DRLI_SCENARIOS_SCENARIO_BOX_H_

#include <cstddef>

#include "common/point.h"
#include "common/status.h"

namespace drli {

// [lo[a], hi[a]] per attribute, both ends inclusive -- a tuple sitting
// exactly on a box edge qualifies (the FP boundary-tie convention every
// engine and the brute-force reference share). lo[a] > hi[a] makes the
// box empty; +-infinity endpoints express half-open / unconstrained
// sides. NaN endpoints are rejected by ValidateBox.
struct AttributeBox {
  Point lo;
  Point hi;

  std::size_t dim() const { return lo.size(); }

  // The all-space box: every attribute unconstrained.
  static AttributeBox All(std::size_t d);

  // Inclusive containment of a tuple.
  bool Contains(PointView p) const;

  // Does this box intersect the (inclusive) box [other_lo, other_hi]?
  // Used against box-tree node / run / shard bounding boxes; a miss proves
  // no member can satisfy the constraint.
  bool Intersects(PointView other_lo, PointView other_hi) const;
};

// |lo| == |hi| == dim, no NaN endpoints. Inverted (empty) boxes are
// legal -- they simply match nothing.
Status ValidateBox(const AttributeBox& box, std::size_t dim);

}  // namespace drli

#endif  // DRLI_SCENARIOS_SCENARIO_BOX_H_
