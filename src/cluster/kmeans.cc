#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/random.h"

namespace drli {

namespace {

// Cap on Lloyd rounds; the loop also stops once no point changes
// cluster.
constexpr std::size_t kMaxIterations = 25;

double SquaredDistance(PointView a, PointView b) {
  double s = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double diff = a[j] - b[j];
    s += diff * diff;
  }
  return s;
}

}  // namespace

KMeansResult KMeans(const PointSet& points, const KMeansOptions& options) {
  KMeansResult result;
  const std::size_t n = points.size();
  const std::size_t d = points.dim();
  if (n == 0) return result;
  const std::size_t k = std::max<std::size_t>(
      1, std::min(options.num_clusters, n));

  Rng rng(options.seed);

  // k-means++ seeding.
  std::vector<Point> centroids;
  centroids.reserve(k);
  centroids.push_back(points.Materialize(rng.Index(n)));
  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dist2[i] = std::min(dist2[i],
                          SquaredDistance(points[i], centroids.back()));
      total += dist2[i];
    }
    if (total <= 0.0) break;  // all remaining points coincide with seeds
    double target = rng.Uniform(0.0, total);
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= dist2[i];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points.Materialize(chosen));
  }

  // Lloyd iterations.
  std::vector<std::size_t> assignment(n, 0);
  std::vector<Point> sums(centroids.size(), Point(d, 0.0));
  std::vector<std::size_t> counts(centroids.size(), 0);
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < centroids.size(); ++c) {
        const double dd = SquaredDistance(points[i], PointView(centroids[c]));
        if (dd < best_d) {
          best_d = dd;
          best = c;
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    for (auto& s : sums) std::fill(s.begin(), s.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const PointView p = points[i];
      Point& s = sums[assignment[i]];
      for (std::size_t j = 0; j < d; ++j) s[j] += p[j];
      ++counts[assignment[i]];
    }
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      for (std::size_t j = 0; j < d; ++j) {
        centroids[c][j] = sums[c][j] / static_cast<double>(counts[c]);
      }
    }
  }

  // Drop empty clusters and remap assignments.
  std::fill(counts.begin(), counts.end(), 0);
  for (std::size_t a : assignment) ++counts[a];
  std::vector<std::size_t> remap(centroids.size(), 0);
  std::size_t next = 0;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    if (counts[c] == 0) continue;
    remap[c] = next;
    result.centroids.push_back(std::move(centroids[c]));
    ++next;
  }
  result.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.assignment[i] = remap[assignment[i]];
  }
  return result;
}

std::vector<Point> ClusterMinCorners(const PointSet& points,
                                     const KMeansResult& result) {
  const std::size_t d = points.dim();
  std::vector<Point> corners(result.centroids.size(),
                             Point(d, std::numeric_limits<double>::infinity()));
  for (std::size_t i = 0; i < points.size(); ++i) {
    Point& corner = corners[result.assignment[i]];
    const PointView p = points[i];
    for (std::size_t j = 0; j < d; ++j) {
      corner[j] = std::min(corner[j], p[j]);
    }
  }
  return corners;
}

}  // namespace drli
