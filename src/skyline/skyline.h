// The reference skyline (Definition 3): the O(n^2) pairwise sweep the
// tests and the skyline micro-bench compare the library's skylines
// against. The library computes skylines on the box tree instead
// (skyline/skyline_layers.h): SKY(R) is the first layer of
// BuildSkylineLayers, and BuildConvexLayers keeps the skyline of its
// remainder across peels. The skyline is unique, so all agree.

#ifndef DRLI_SKYLINE_SKYLINE_H_
#define DRLI_SKYLINE_SKYLINE_H_

#include <vector>

#include "common/point.h"

namespace drli {

// The skyline of `candidates` (ids into `points`), ascending.
// Duplicates do not dominate each other (Definition 2), so every exact
// duplicate of a skyline point is returned.
std::vector<TupleId> NaiveSkyline(const PointSet& points,
                                  const std::vector<TupleId>& candidates);

}  // namespace drli

#endif  // DRLI_SKYLINE_SKYLINE_H_
