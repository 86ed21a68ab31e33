// Skyline computation (Definition 3).
//
//  * ComputeSkyline / ComputeSkylineOfSubset -- pivot-based space
//    partitioning with region-level incomparability pruning, our
//    implementation of the BSkyTree family the paper uses for layer
//    construction (Lee & Hwang, EDBT'10; skyline/bskytree.h).
//  * NaiveSkyline -- the O(n^2) pairwise sweep, kept as the reference
//    the tests and the skyline ablation compare against.
//
// Both return the identical set (the skyline is unique). Returned ids
// are indices into the input PointSet, in ascending order.

#ifndef DRLI_SKYLINE_SKYLINE_H_
#define DRLI_SKYLINE_SKYLINE_H_

#include <vector>

#include "common/point.h"

namespace drli {

// Computes SKY(points). Duplicated points: duplicates do not dominate
// each other per Definition 2, so all exact duplicates of a skyline
// point are skyline points and all are returned.
std::vector<TupleId> ComputeSkyline(const PointSet& points);

// Computes the skyline of the subset `candidates` (ids into `points`),
// returning surviving ids in ascending order.
std::vector<TupleId> ComputeSkylineOfSubset(
    const PointSet& points, const std::vector<TupleId>& candidates);

// Reference: the skyline of `candidates` by the pairwise sweep, same
// output as ComputeSkylineOfSubset.
std::vector<TupleId> NaiveSkyline(const PointSet& points,
                                  const std::vector<TupleId>& candidates);

}  // namespace drli

#endif  // DRLI_SKYLINE_SKYLINE_H_
