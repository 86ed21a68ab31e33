// Lloyd's k-means with k-means++ seeding. Used to build the zero layer
// L0 (Section V-B): first-layer tuples are clustered and each cluster
// contributes a pseudo-tuple at its attribute-wise minimum corner.

#ifndef DRLI_CLUSTER_KMEANS_H_
#define DRLI_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/point.h"

namespace drli {

struct KMeansOptions {
  std::size_t num_clusters = 8;
  std::uint64_t seed = 42;
};

struct KMeansResult {
  // assignment[i] = cluster of input point i, in [0, num_clusters).
  std::vector<std::size_t> assignment;
  // Cluster centroids; empty clusters are dropped, so the effective
  // cluster count is centroids.size() <= options.num_clusters.
  std::vector<Point> centroids;
};

// Clusters `points`. num_clusters is clamped to the number of points.
KMeansResult KMeans(const PointSet& points, const KMeansOptions& options);

// Attribute-wise minimum corner of each cluster: the pseudo-tuple that
// weakly dominates every member of the cluster.
std::vector<Point> ClusterMinCorners(const PointSet& points,
                                     const KMeansResult& result);

}  // namespace drli

#endif  // DRLI_CLUSTER_KMEANS_H_
