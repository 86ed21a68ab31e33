// SkyTree/BSkyTree-style skyline computation (Lee & Hwang, EDBT'10):
// recursive pivot-based space partitioning with lattice-level
// incomparability pruning. This is the algorithm family the paper uses
// to build coarse layers ("we employed the state-of-the-art skyline
// algorithm BSkyTree").
//
// Sketch: the first point in sum order (minimum attribute sum, ties
// broken lexicographically; common/point.h) is chosen as the pivot (it
// is always a skyline point). Every other point maps to a d-bit region mask
// (bit i set iff t_i >= pivot_i). Points with the all-ones mask are
// dominated by the pivot and dropped. A point in region B can only be
// dominated by points in regions A with A ⊆ B (bitwise), so regions are
// processed in ascending mask order, each filtered against the skylines
// of its sub-regions and then reduced recursively.

#ifndef DRLI_SKYLINE_BSKYTREE_H_
#define DRLI_SKYLINE_BSKYTREE_H_

#include <vector>

#include "common/point.h"

namespace drli {

// Returns the skyline of `candidates` (ids into `points`), unsorted.
std::vector<TupleId> SkyTreeSkyline(const PointSet& points,
                                    const std::vector<TupleId>& candidates);

}  // namespace drli

#endif  // DRLI_SKYLINE_BSKYTREE_H_
