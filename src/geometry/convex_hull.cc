#include "geometry/convex_hull.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/check.h"

namespace drli {

namespace {

// Facet vertex/neighbour lists are stored inline (simplicial facets
// have exactly d entries); dimensions beyond this cap report
// kDegenerate, which callers already translate into their exact
// fallbacks. Hull-based indexing is hopeless that deep anyway.
constexpr std::size_t kMaxHullDim = 12;

// Orientation tolerance: a point is "above" a facet iff its signed
// distance exceeds kEps.
constexpr double kEps = 1e-9;

// Hard cap on live facets; exceeding it aborts with kDegenerate so a
// pathological input degrades to the conservative fallback instead of
// exhausting memory.
constexpr std::size_t kMaxFacets = 4'000'000;

// Working representation of one facet during construction. The plane
// is stored inline (fixed-size normal plus offset) so facet creation
// does not heap-allocate per facet.
struct FacetRec {
  std::array<std::int32_t, kMaxHullDim> verts;  // d point indices
  std::array<std::int32_t, kMaxHullDim> neigh;  // d facet ids, per vertex
  std::array<double, kMaxHullDim> normal;       // outward unit normal
  double offset = 0.0;                          // normal . x == offset
  std::vector<std::int32_t> outside;  // points strictly above this facet
  double furthest_dist = 0.0;
  std::int32_t furthest = -1;
  bool alive = true;
};

// Same accumulation order as Hyperplane::SignedDistance.
inline double FacetDistance(const FacetRec& f, PointView p,
                            std::size_t dim) {
  double s = -f.offset;
  for (std::size_t j = 0; j < dim; ++j) s += f.normal[j] * p[j];
  return s;
}

// Hash key for a (d-1)-vertex ridge: sorted vertex ids.
struct RidgeKey {
  std::array<std::int32_t, kMaxHullDim> verts;
  std::uint32_t size = 0;
  bool operator==(const RidgeKey& o) const {
    if (size != o.size) return false;
    for (std::uint32_t i = 0; i < size; ++i) {
      if (verts[i] != o.verts[i]) return false;
    }
    return true;
  }
};

std::size_t RidgeKeyHash(const RidgeKey& k) {
  std::size_t h = 1469598103934665603ull;
  for (std::uint32_t i = 0; i < k.size; ++i) {
    h ^= static_cast<std::size_t>(k.verts[i]) + 0x9e3779b97f4a7c15ull;
    h *= 1099511628211ull;
  }
  return h;
}

// Slot of the flat linear-probing table used to pair apex ridges. The
// table is hoisted across apexes and invalidated by bumping `stamp`
// instead of clearing, so the pairing allocates nothing in steady
// state. Each ridge occurs exactly twice on a closed horizon, so a
// slot is inserted once and consumed (paired) once; no deletion.
struct RidgeSlot {
  RidgeKey key;
  std::int32_t facet = -1;
  std::uint32_t slot = 0;
  std::uint32_t stamp = 0;
  bool paired = false;
};

class HullBuilder {
 public:
  HullBuilder(const PointSet& points, const ConvexHullOptions& options)
      : input_(points), options_(options), dim_(points.dim()) {}

  HullStatus Build(ConvexHull* out);

 private:
  PointView PointAt(std::int32_t id) const {
    if (id < static_cast<std::int32_t>(input_.size())) {
      return input_[static_cast<std::size_t>(id)];
    }
    return PointView(sentinel_);
  }

  std::size_t NumPoints() const {
    return input_.size() + (sentinel_.empty() ? 0 : 1);
  }

  bool MakePlane(const std::int32_t* verts, FacetRec* f);
  void PushPending(std::int32_t fid) {
    pending_.push_back(Pending{facets_[fid].furthest_dist, fid});
    std::push_heap(pending_.begin(), pending_.end());
  }
  bool BuildInitialSimplex();
  bool ProcessOutsidePoints();
  void AssignInitialOutside();
  void Compact(ConvexHull* out);

  const PointSet& input_;
  ConvexHullOptions options_;
  std::size_t dim_;
  Point sentinel_;         // empty unless add_top_sentinel
  std::int32_t sentinel_id_ = -1;
  Point interior_;         // reference interior point
  std::vector<std::int32_t> simplex_;   // initial d+1 vertex ids
  std::vector<FacetRec> facets_;
  // Facets with outside points as a max-heap on (furthest_dist, -id):
  // the next apex is the furthest outside point over all live facets
  // (Barber, Dobkin & Huhdanpaa's furthest-point rule). A facet's key
  // is fixed once its outside set is assigned, so a dead facet's entry
  // is skipped when popped instead of being removed.
  struct Pending {
    double dist;
    std::int32_t facet;
    bool operator<(const Pending& o) const {
      if (dist != o.dist) return dist < o.dist;
      return facet > o.facet;
    }
  };
  std::vector<Pending> pending_;
  std::size_t live_facets_ = 0;
  // Per-facet visit stamps for the visibility BFS.
  std::vector<std::uint32_t> visit_stamp_;
  std::uint32_t current_stamp_ = 0;
  std::vector<PointView> plane_pts_;  // MakePlane scratch
  Hyperplane plane_scratch_;          // MakePlane scratch
};

bool HullBuilder::MakePlane(const std::int32_t* verts, FacetRec* f) {
  plane_pts_.clear();
  for (std::size_t s = 0; s < dim_; ++s) plane_pts_.push_back(PointAt(verts[s]));
  Hyperplane* plane = &plane_scratch_;
  if (!HyperplaneThroughPoints(plane_pts_, plane)) return false;
  // Orient outward: the interior reference point must be strictly below.
  const double d = plane->SignedDistance(PointView(interior_));
  if (std::fabs(d) < kEps * 0.5) return false;  // interior on plane
  if (d > 0.0) {
    for (double& x : plane->normal) x = -x;
    plane->offset = -plane->offset;
  }
  std::copy(plane->normal.begin(), plane->normal.end(), f->normal.begin());
  f->offset = plane->offset;
  return true;
}

bool HullBuilder::BuildInitialSimplex() {
  const std::size_t n = NumPoints();
  if (n < dim_ + 1) return false;

  // Greedy affinely-independent selection: start from the two points
  // extreme along the axis of largest spread, then repeatedly add the
  // point furthest from the current affine span.
  std::size_t best_axis = 0;
  std::int32_t lo = 0, hi = 0;
  double best_spread = -1.0;
  for (std::size_t a = 0; a < dim_; ++a) {
    std::int32_t lo_a = 0, hi_a = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const auto id = static_cast<std::int32_t>(i);
      if (PointAt(id)[a] < PointAt(lo_a)[a]) lo_a = id;
      if (PointAt(id)[a] > PointAt(hi_a)[a]) hi_a = id;
    }
    const double spread = PointAt(hi_a)[a] - PointAt(lo_a)[a];
    if (spread > best_spread) {
      best_spread = spread;
      best_axis = a;
      lo = lo_a;
      hi = hi_a;
    }
  }
  (void)best_axis;
  if (lo == hi || best_spread < kEps) return false;

  AffineBasis basis(dim_);
  simplex_.clear();
  basis.Add(PointAt(lo), kEps);
  simplex_.push_back(lo);
  if (!basis.Add(PointAt(hi), kEps)) return false;
  simplex_.push_back(hi);
  while (simplex_.size() < dim_ + 1) {
    std::int32_t best = -1;
    double best_dist = kEps;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::int32_t>(i);
      if (std::find(simplex_.begin(), simplex_.end(), id) != simplex_.end()) {
        continue;
      }
      const double dist = basis.DistanceToSpan(PointAt(id));
      if (dist > best_dist) {
        best_dist = dist;
        best = id;
      }
    }
    if (best < 0) return false;  // affinely dependent input
    DRLI_CHECK(basis.Add(PointAt(best), kEps));
    simplex_.push_back(best);
  }

  // Interior reference: centroid of the simplex.
  interior_.assign(dim_, 0.0);
  for (std::int32_t v : simplex_) {
    PointView p = PointAt(v);
    for (std::size_t j = 0; j < dim_; ++j) interior_[j] += p[j];
  }
  for (double& x : interior_) x /= static_cast<double>(dim_ + 1);

  // The d+1 simplex facets: facet i omits simplex_[i].
  facets_.clear();
  facets_.resize(dim_ + 1);
  for (std::size_t i = 0; i <= dim_; ++i) {
    FacetRec& f = facets_[i];
    f.neigh.fill(-1);
    std::size_t vcount = 0;
    for (std::size_t j = 0; j <= dim_; ++j) {
      if (j != i) f.verts[vcount++] = simplex_[j];
    }
    if (!MakePlane(f.verts.data(), &f)) return false;
    // Neighbour opposite f.verts[s]: f.verts[s] == simplex_[j], and the
    // ridge omitting both simplex_[i] and simplex_[j] is shared with
    // facet j.
    for (std::size_t s = 0; s < dim_; ++s) {
      const std::int32_t vid = f.verts[s];
      for (std::size_t j = 0; j <= dim_; ++j) {
        if (simplex_[j] == vid) {
          f.neigh[s] = static_cast<std::int32_t>(j);
          break;
        }
      }
      DRLI_DCHECK(f.neigh[s] >= 0);
    }
  }
  live_facets_ = dim_ + 1;
  return true;
}

void HullBuilder::AssignInitialOutside() {
  const std::size_t n = NumPoints();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::int32_t>(i);
    if (std::find(simplex_.begin(), simplex_.end(), id) != simplex_.end()) {
      continue;
    }
    PointView p = PointAt(id);
    for (FacetRec& f : facets_) {
      const double dist = FacetDistance(f, p, dim_);
      if (dist > kEps) {
        f.outside.push_back(id);
        if (dist > f.furthest_dist) {
          f.furthest_dist = dist;
          f.furthest = id;
        }
        break;
      }
    }
  }
  for (std::size_t i = 0; i < facets_.size(); ++i) {
    if (!facets_[i].outside.empty()) {
      PushPending(static_cast<std::int32_t>(i));
    }
  }
}

bool HullBuilder::ProcessOutsidePoints() {
  visit_stamp_.assign(facets_.size(), 0);
  std::vector<std::int32_t> visible;
  std::vector<std::int32_t> bfs;
  // Horizon ridge: (visible facet id, slot, outer neighbour id).
  struct Horizon {
    std::int32_t visible_facet;
    std::size_t slot;
    std::int32_t outer;
  };
  std::vector<Horizon> horizon;
  std::vector<RidgeSlot> ridge_table;  // power-of-two linear probing
  std::uint32_t ridge_stamp = 0;
  std::vector<std::int32_t> new_facets;
  // New-facet planes flattened to d normal entries plus the offset per
  // facet, so the redistribution loop scans contiguous memory instead
  // of chasing FacetRec -> heap-allocated normal per probe.
  std::vector<double> new_planes;
  // Apex distance per stamped facet, so the BFS evaluates each facet's
  // plane once instead of once per incident edge.
  std::vector<double> apex_dist;
  // Retired outside-point buffers, recycled into new facets so the
  // redistribution loop reuses capacity instead of reallocating.
  std::vector<std::vector<std::int32_t>> spare_outside;

  while (!pending_.empty()) {
    std::pop_heap(pending_.begin(), pending_.end());
    const std::int32_t fid = pending_.back().facet;
    pending_.pop_back();
    FacetRec& f = facets_[fid];
    if (!f.alive) continue;

    const std::int32_t apex = f.furthest;
    DRLI_DCHECK(apex >= 0);
    PointView apex_pt = PointAt(apex);

    // Visibility BFS from f.
    ++current_stamp_;
    visit_stamp_.resize(facets_.size(), 0);
    apex_dist.resize(facets_.size(), 0.0);
    visible.clear();
    horizon.clear();
    bfs.clear();
    bfs.push_back(fid);
    visit_stamp_[fid] = current_stamp_;
    // The seed's apex distance was computed when the apex was assigned
    // as its furthest outside point.
    apex_dist[fid] = f.furthest_dist;
    while (!bfs.empty()) {
      const std::int32_t cur = bfs.back();
      bfs.pop_back();
      visible.push_back(cur);
      const FacetRec& fc = facets_[cur];
      for (std::size_t s = 0; s < dim_; ++s) {
        const std::int32_t nb = fc.neigh[s];
        DRLI_DCHECK(nb >= 0);
        if (visit_stamp_[nb] == current_stamp_) {
          if (facets_[nb].alive && apex_dist[nb] > kEps) {
            continue;  // already queued as visible
          }
          // Already classified not-visible: horizon ridge.
          horizon.push_back(Horizon{cur, s, nb});
          continue;
        }
        visit_stamp_[nb] = current_stamp_;
        const double dist = FacetDistance(facets_[nb], apex_pt, dim_);
        apex_dist[nb] = dist;
        if (dist > kEps) {
          bfs.push_back(nb);
        } else {
          horizon.push_back(Horizon{cur, s, nb});
        }
      }
    }

    if (horizon.empty()) return false;  // numerically inconsistent

    // Create one new facet per horizon ridge. Size the ridge table for
    // load factor <= 1/2 and invalidate previous contents by stamp.
    const std::size_t expected_ridges = horizon.size() * (dim_ - 1);
    std::size_t cap = 16;
    while (cap < 2 * expected_ridges) cap <<= 1;
    if (ridge_table.size() < cap) {
      ridge_table.assign(cap, RidgeSlot{});
      ridge_stamp = 0;
    } else {
      cap = ridge_table.size();
    }
    ++ridge_stamp;
    const std::size_t ridge_mask = cap - 1;
    std::size_t open_ridges = 0;
    new_facets.clear();
    new_facets.reserve(horizon.size());
    for (const Horizon& h : horizon) {
      const FacetRec& vf = facets_[h.visible_facet];
      FacetRec nf;
      std::size_t vcount = 0;
      for (std::size_t s = 0; s < dim_; ++s) {
        if (s != h.slot) nf.verts[vcount++] = vf.verts[s];
      }
      nf.verts[vcount] = apex;
      nf.neigh.fill(-1);
      if (!MakePlane(nf.verts.data(), &nf)) return false;
      const auto new_id = static_cast<std::int32_t>(facets_.size());

      // Across the ridge without the apex lies the old outer facet.
      nf.neigh[dim_ - 1] = h.outer;
      FacetRec& outer = facets_[h.outer];
      bool wired = false;
      for (std::size_t s = 0; s < dim_; ++s) {
        if (outer.neigh[s] == h.visible_facet) {
          outer.neigh[s] = new_id;
          wired = true;
          break;
        }
      }
      if (!wired) return false;

      // Ridges containing the apex pair up among the new facets.
      for (std::size_t s = 0; s + 1 < dim_; ++s) {
        RidgeKey key;
        for (std::size_t t = 0; t < dim_; ++t) {
          if (t != s) key.verts[key.size++] = nf.verts[t];
        }
        std::sort(key.verts.begin(), key.verts.begin() + key.size);
        std::size_t h = RidgeKeyHash(key) & ridge_mask;
        while (true) {
          RidgeSlot& rs = ridge_table[h];
          if (rs.stamp != ridge_stamp) {
            rs.key = key;
            rs.facet = new_id;
            rs.slot = static_cast<std::uint32_t>(s);
            rs.stamp = ridge_stamp;
            rs.paired = false;
            ++open_ridges;
            break;
          }
          if (rs.key == key) {
            if (rs.paired) return false;  // ridge seen three times
            nf.neigh[s] = rs.facet;
            facets_[rs.facet].neigh[rs.slot] = new_id;
            rs.paired = true;
            --open_ridges;
            break;
          }
          h = (h + 1) & ridge_mask;
        }
      }

      facets_.push_back(std::move(nf));
      visit_stamp_.push_back(0);
      new_facets.push_back(new_id);
      ++live_facets_;
      if (live_facets_ > kMaxFacets) return false;
    }
    if (open_ridges != 0) return false;  // horizon not closed

    // Redistribute the outside points of all visible facets.
    const std::size_t pstride = dim_ + 1;
    new_planes.clear();
    for (const std::int32_t nid : new_facets) {
      const FacetRec& nf = facets_[nid];
      new_planes.insert(new_planes.end(), nf.normal.begin(),
                        nf.normal.begin() + dim_);
      new_planes.push_back(nf.offset);
    }
    for (const std::int32_t vid : visible) {
      FacetRec& vf = facets_[vid];
      for (const std::int32_t q : vf.outside) {
        if (q == apex) continue;
        PointView qp = PointAt(q);
        for (std::size_t k = 0; k < new_facets.size(); ++k) {
          // Same accumulation order as Hyperplane::SignedDistance.
          const double* pl = new_planes.data() + k * pstride;
          double dist = -pl[dim_];
          for (std::size_t j = 0; j < dim_; ++j) dist += pl[j] * qp[j];
          if (dist > kEps) {
            FacetRec& nf = facets_[new_facets[k]];
            if (nf.outside.capacity() == 0 && !spare_outside.empty()) {
              nf.outside = std::move(spare_outside.back());
              spare_outside.pop_back();
            }
            nf.outside.push_back(q);
            if (dist > nf.furthest_dist) {
              nf.furthest_dist = dist;
              nf.furthest = q;
            }
            break;
          }
        }
      }
      if (vf.outside.capacity() != 0) {
        vf.outside.clear();
        spare_outside.push_back(std::move(vf.outside));
        vf.outside = {};
      }
      vf.alive = false;
      --live_facets_;
    }
    for (const std::int32_t nid : new_facets) {
      if (!facets_[nid].outside.empty()) PushPending(nid);
    }
  }
  return true;
}

void HullBuilder::Compact(ConvexHull* out) {
  out->dim = dim_;
  out->vertices.clear();
  out->facets.clear();

  // Keep alive facets not incident to the sentinel.
  std::vector<std::int32_t> remap(facets_.size(), -1);
  for (std::size_t i = 0; i < facets_.size(); ++i) {
    const FacetRec& f = facets_[i];
    if (!f.alive) continue;
    if (sentinel_id_ >= 0 &&
        std::find(f.verts.begin(), f.verts.begin() + dim_, sentinel_id_) !=
            f.verts.begin() + dim_) {
      continue;
    }
    remap[i] = static_cast<std::int32_t>(out->facets.size());
    out->facets.emplace_back();
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < facets_.size(); ++i) {
    if (remap[i] < 0) continue;
    const FacetRec& f = facets_[i];
    HullFacet& hf = out->facets[next++];
    hf.vertices.assign(f.verts.begin(), f.verts.begin() + dim_);
    hf.plane.normal.assign(f.normal.begin(), f.normal.begin() + dim_);
    hf.plane.offset = f.offset;
    hf.neighbors.assign(dim_, -1);
    for (std::size_t s = 0; s < dim_; ++s) {
      const std::int32_t nb = f.neigh[s];
      if (nb >= 0 && remap[nb] >= 0) hf.neighbors[s] = remap[nb];
    }
  }

  std::vector<bool> is_vertex(NumPoints(), false);
  // Vertices come from all alive facets (including sentinel ones, so
  // that points whose every incident facet touches the sentinel are
  // still reported as hull vertices), minus the sentinel itself.
  for (const FacetRec& f : facets_) {
    if (!f.alive) continue;
    for (std::size_t s = 0; s < dim_; ++s) {
      if (f.verts[s] != sentinel_id_) is_vertex[f.verts[s]] = true;
    }
  }
  for (std::size_t i = 0; i < is_vertex.size(); ++i) {
    if (is_vertex[i]) out->vertices.push_back(static_cast<std::int32_t>(i));
  }
}

HullStatus HullBuilder::Build(ConvexHull* out) {
  DRLI_CHECK(dim_ >= 2) << "convex hull requires dim >= 2";
  if (dim_ > kMaxHullDim) return HullStatus::kDegenerate;
  if (options_.add_top_sentinel && input_.size() > 0) {
    // One point beyond the max corner in every coordinate; it is never
    // below any lower facet, so the lower hull is unchanged.
    sentinel_.assign(dim_, 0.0);
    for (std::size_t i = 0; i < input_.size(); ++i) {
      PointView p = input_[i];
      for (std::size_t j = 0; j < dim_; ++j) {
        sentinel_[j] = std::max(sentinel_[j], p[j]);
      }
    }
    for (double& x : sentinel_) x = x * 2.0 + 1.0;
    sentinel_id_ = static_cast<std::int32_t>(input_.size());
  }
  bool built = BuildInitialSimplex();
  if (built) {
    AssignInitialOutside();
    built = ProcessOutsidePoints();
  }
  if (built) Compact(out);
  out->facets_created = facets_.size();
  return built ? HullStatus::kOk : HullStatus::kDegenerate;
}

}  // namespace

HullStatus ComputeConvexHull(const PointSet& points,
                             const ConvexHullOptions& options,
                             ConvexHull* hull) {
  HullBuilder builder(points, options);
  return builder.Build(hull);
}

std::vector<std::vector<std::int32_t>> BuildVertexAdjacency(
    const ConvexHull& hull, const std::vector<bool>& wanted) {
  std::vector<std::vector<std::int32_t>> adj(wanted.size());
  for (const HullFacet& f : hull.facets) {
    // Simplicial facet: every vertex pair within it is a hull edge.
    for (const std::int32_t a : f.vertices) {
      if (!wanted[a]) continue;
      for (const std::int32_t b : f.vertices) {
        if (b != a) adj[a].push_back(b);
      }
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

}  // namespace drli
