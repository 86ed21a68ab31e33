#include "geometry/convex_hull.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "geometry/linalg.h"

namespace drli {

namespace {

// Ridge keys are stored inline; dimensions beyond this cap report
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

// The thread-local builder keeps its storage between builds up to this
// many facets; past it the storage goes back after the build, so a
// thread that once built a huge hull does not hold its memory for good.
constexpr std::size_t kRetainFacets = std::size_t{1} << 17;

// Per-facet scalars of the working hull. A facet's d vertex and d
// neighbour ids and its plane live in HullBuilder's flat arrays, and
// its outside points (those strictly above it) form a list threaded
// through HullBuilder::next_outside_, so a facet owns no storage.
struct FacetState {
  double furthest_dist = 0.0;
  std::int32_t furthest = -1;
  std::int32_t outside_head = -1;  // -1: no outside points
  std::int32_t outside_tail = -1;
  bool alive = true;
};

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
// table is kept across apexes and builds and invalidated by bumping a
// stamp instead of clearing, so the pairing allocates nothing in
// steady state. Each ridge occurs exactly twice on a closed horizon, so
// a slot is inserted once and consumed (paired) once; no deletion.
struct RidgeSlot {
  RidgeKey key;
  std::int32_t facet = -1;
  std::uint32_t slot = 0;
  std::uint32_t stamp = 0;
  bool paired = false;
};

// One hull build at a time. Every buffer is cleared, not freed, between
// builds (up to kRetainFacets), so the thread-local builder of
// ComputeConvexHull stops allocating once it has seen its largest
// input.
class HullBuilder {
 public:
  HullStatus Build(const PointSet& points, const ConvexHullOptions& options,
                   ConvexHull* out);

 private:
  PointView PointAt(std::int32_t id) const {
    if (id < static_cast<std::int32_t>(input_->size())) {
      return (*input_)[static_cast<std::size_t>(id)];
    }
    return PointView(sentinel_);
  }

  std::size_t NumPoints() const {
    return input_->size() + (sentinel_.empty() ? 0 : 1);
  }

  // Facet f's d vertex ids, then its d neighbour ids: neighbour s lies
  // across the ridge opposite vertex s.
  std::int32_t* Verts(std::int32_t f) {
    return ids_.data() + static_cast<std::size_t>(f) * 2 * dim_;
  }
  std::int32_t* Neigh(std::int32_t f) { return Verts(f) + dim_; }
  // Facet f's outward unit normal, then its offset: normal . x == offset.
  const double* Plane(std::int32_t f) const {
    return planes_.data() + static_cast<std::size_t>(f) * (dim_ + 1);
  }
  // Same accumulation order as Hyperplane::SignedDistance.
  double Distance(const double* plane, PointView p) const {
    double s = -plane[dim_];
    for (std::size_t j = 0; j < dim_; ++j) s += plane[j] * p[j];
    return s;
  }

  // Appends a facet with unset vertices, no neighbours and no plane.
  std::int32_t AddFacet();
  // Sets the plane of facet f through its vertices, oriented outward.
  bool MakePlane(std::int32_t f);
  // Appends q, at distance `dist` above facet f, to f's outside list.
  void AddOutside(std::int32_t f, std::int32_t q, double dist);
  void PushPending(std::int32_t fid) {
    pending_.push_back(Pending{facets_[fid].furthest_dist, fid});
    std::push_heap(pending_.begin(), pending_.end());
  }
  bool BuildInitialSimplex();
  bool ProcessOutsidePoints();
  void AssignInitialOutside();
  void Compact(ConvexHull* out);

  const PointSet* input_ = nullptr;
  std::size_t dim_ = 0;
  Point sentinel_;         // empty unless add_top_sentinel
  std::int32_t sentinel_id_ = -1;
  Point interior_;         // reference interior point
  std::vector<std::int32_t> simplex_;   // initial d+1 vertex ids
  std::vector<FacetState> facets_;
  std::vector<std::int32_t> ids_;   // per facet: d vertices, d neighbours
  std::vector<double> planes_;      // per facet: d normal entries, offset
  // Per point: the next point of the outside list holding it, -1 last.
  std::vector<std::int32_t> next_outside_;
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
  // Apex distance per stamped facet, so the BFS evaluates each facet's
  // plane once instead of once per incident edge.
  std::vector<double> apex_dist_;
  std::vector<std::int32_t> visible_;
  std::vector<std::int32_t> bfs_;
  // Horizon ridge: (visible facet id, slot, outer neighbour id).
  struct Horizon {
    std::int32_t visible_facet;
    std::size_t slot;
    std::int32_t outer;
  };
  std::vector<Horizon> horizon_;
  std::vector<RidgeSlot> ridge_table_;  // power-of-two linear probing
  std::uint32_t ridge_stamp_ = 0;
  std::vector<std::int32_t> remap_;     // Compact scratch
  std::vector<std::uint8_t> is_vertex_;  // Compact scratch
  std::vector<PointView> plane_pts_;  // MakePlane scratch
  Hyperplane plane_scratch_;          // MakePlane scratch
};

std::int32_t HullBuilder::AddFacet() {
  const auto f = static_cast<std::int32_t>(facets_.size());
  facets_.emplace_back();
  ids_.resize(ids_.size() + 2 * dim_, -1);
  planes_.resize(planes_.size() + dim_ + 1);
  return f;
}

bool HullBuilder::MakePlane(std::int32_t f) {
  const std::int32_t* verts = Verts(f);
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
  double* out = planes_.data() + static_cast<std::size_t>(f) * (dim_ + 1);
  std::copy(plane->normal.begin(), plane->normal.end(), out);
  out[dim_] = plane->offset;
  return true;
}

void HullBuilder::AddOutside(std::int32_t f, std::int32_t q, double dist) {
  FacetState& fs = facets_[f];
  next_outside_[q] = -1;
  if (fs.outside_tail < 0) {
    fs.outside_head = q;
  } else {
    next_outside_[fs.outside_tail] = q;
  }
  fs.outside_tail = q;
  if (dist > fs.furthest_dist) {
    fs.furthest_dist = dist;
    fs.furthest = q;
  }
}

bool HullBuilder::BuildInitialSimplex() {
  const std::size_t n = NumPoints();
  if (n < dim_ + 1) return false;

  // Greedy affinely-independent selection: start from the two points
  // extreme along the axis of largest spread, then repeatedly add the
  // point furthest from the current affine span.
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
      lo = lo_a;
      hi = hi_a;
    }
  }
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
  for (std::size_t i = 0; i <= dim_; ++i) {
    const std::int32_t f = AddFacet();
    std::int32_t* verts = Verts(f);
    std::size_t vcount = 0;
    for (std::size_t j = 0; j <= dim_; ++j) {
      if (j != i) verts[vcount++] = simplex_[j];
    }
    if (!MakePlane(f)) return false;
    // Neighbour opposite verts[s]: verts[s] == simplex_[j], and the
    // ridge omitting both simplex_[i] and simplex_[j] is shared with
    // facet j.
    std::int32_t* neigh = Neigh(f);
    for (std::size_t s = 0; s < dim_; ++s) {
      for (std::size_t j = 0; j <= dim_; ++j) {
        if (simplex_[j] == verts[s]) {
          neigh[s] = static_cast<std::int32_t>(j);
          break;
        }
      }
      DRLI_DCHECK(neigh[s] >= 0);
    }
  }
  live_facets_ = dim_ + 1;
  return true;
}

void HullBuilder::AssignInitialOutside() {
  const std::size_t n = NumPoints();
  next_outside_.assign(n, -1);
  const auto num_facets = static_cast<std::int32_t>(facets_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::int32_t>(i);
    if (std::find(simplex_.begin(), simplex_.end(), id) != simplex_.end()) {
      continue;
    }
    PointView p = PointAt(id);
    for (std::int32_t f = 0; f < num_facets; ++f) {
      const double dist = Distance(Plane(f), p);
      if (dist > kEps) {
        AddOutside(f, id, dist);
        break;
      }
    }
  }
  for (std::int32_t f = 0; f < num_facets; ++f) {
    if (facets_[f].outside_head >= 0) PushPending(f);
  }
}

bool HullBuilder::ProcessOutsidePoints() {
  current_stamp_ = 0;
  visit_stamp_.assign(facets_.size(), 0);

  while (!pending_.empty()) {
    std::pop_heap(pending_.begin(), pending_.end());
    const std::int32_t fid = pending_.back().facet;
    pending_.pop_back();
    if (!facets_[fid].alive) continue;

    const std::int32_t apex = facets_[fid].furthest;
    DRLI_DCHECK(apex >= 0);
    PointView apex_pt = PointAt(apex);

    // Visibility BFS from fid.
    ++current_stamp_;
    visit_stamp_.resize(facets_.size(), 0);
    apex_dist_.resize(facets_.size(), 0.0);
    visible_.clear();
    horizon_.clear();
    bfs_.clear();
    bfs_.push_back(fid);
    visit_stamp_[fid] = current_stamp_;
    // The seed's apex distance was computed when the apex was assigned
    // as its furthest outside point.
    apex_dist_[fid] = facets_[fid].furthest_dist;
    while (!bfs_.empty()) {
      const std::int32_t cur = bfs_.back();
      bfs_.pop_back();
      visible_.push_back(cur);
      const std::int32_t* neigh = Neigh(cur);
      for (std::size_t s = 0; s < dim_; ++s) {
        const std::int32_t nb = neigh[s];
        DRLI_DCHECK(nb >= 0);
        if (visit_stamp_[nb] == current_stamp_) {
          if (facets_[nb].alive && apex_dist_[nb] > kEps) {
            continue;  // already queued as visible
          }
          // Already classified not-visible: horizon ridge.
          horizon_.push_back(Horizon{cur, s, nb});
          continue;
        }
        visit_stamp_[nb] = current_stamp_;
        const double dist = Distance(Plane(nb), apex_pt);
        apex_dist_[nb] = dist;
        if (dist > kEps) {
          bfs_.push_back(nb);
        } else {
          horizon_.push_back(Horizon{cur, s, nb});
        }
      }
    }

    if (horizon_.empty()) return false;  // numerically inconsistent

    // Create one new facet per horizon ridge. Size the ridge table for
    // load factor <= 1/2 and invalidate previous contents by stamp.
    const std::size_t expected_ridges = horizon_.size() * (dim_ - 1);
    std::size_t cap = 16;
    while (cap < 2 * expected_ridges) cap <<= 1;
    if (ridge_table_.size() < cap ||
        ridge_stamp_ == std::numeric_limits<std::uint32_t>::max()) {
      ridge_table_.assign(std::max(cap, ridge_table_.size()), RidgeSlot{});
      ridge_stamp_ = 0;
    }
    cap = ridge_table_.size();
    ++ridge_stamp_;
    const std::size_t ridge_mask = cap - 1;
    std::size_t open_ridges = 0;
    // The new facets take consecutive ids from first_new.
    const auto first_new = static_cast<std::int32_t>(facets_.size());
    for (const Horizon& h : horizon_) {
      const std::int32_t new_id = AddFacet();
      std::int32_t* nv = Verts(new_id);
      const std::int32_t* vv = Verts(h.visible_facet);
      std::size_t vcount = 0;
      for (std::size_t s = 0; s < dim_; ++s) {
        if (s != h.slot) nv[vcount++] = vv[s];
      }
      nv[vcount] = apex;
      if (!MakePlane(new_id)) return false;

      // Across the ridge without the apex lies the old outer facet.
      std::int32_t* nn = Neigh(new_id);
      nn[dim_ - 1] = h.outer;
      std::int32_t* outer = Neigh(h.outer);
      bool wired = false;
      for (std::size_t s = 0; s < dim_; ++s) {
        if (outer[s] == h.visible_facet) {
          outer[s] = new_id;
          wired = true;
          break;
        }
      }
      if (!wired) return false;

      // Ridges containing the apex pair up among the new facets.
      for (std::size_t s = 0; s + 1 < dim_; ++s) {
        RidgeKey key;
        for (std::size_t t = 0; t < dim_; ++t) {
          if (t != s) key.verts[key.size++] = nv[t];
        }
        // Insertion sort over the d - 1 ids: std::sort over the runtime
        // key.size trips GCC 12's -Warray-bounds at -O3.
        for (std::uint32_t i = 1; i < key.size; ++i) {
          const std::int32_t v = key.verts[i];
          std::uint32_t j = i;
          for (; j > 0 && key.verts[j - 1] > v; --j) {
            key.verts[j] = key.verts[j - 1];
          }
          key.verts[j] = v;
        }
        std::size_t slot = RidgeKeyHash(key) & ridge_mask;
        while (true) {
          RidgeSlot& rs = ridge_table_[slot];
          if (rs.stamp != ridge_stamp_) {
            rs.key = key;
            rs.facet = new_id;
            rs.slot = static_cast<std::uint32_t>(s);
            rs.stamp = ridge_stamp_;
            rs.paired = false;
            ++open_ridges;
            break;
          }
          if (rs.key == key) {
            if (rs.paired) return false;  // ridge seen three times
            nn[s] = rs.facet;
            Neigh(rs.facet)[rs.slot] = new_id;
            rs.paired = true;
            --open_ridges;
            break;
          }
          slot = (slot + 1) & ridge_mask;
        }
      }

      ++live_facets_;
      if (live_facets_ > kMaxFacets) return false;
    }
    if (open_ridges != 0) return false;  // horizon not closed

    // Redistribute the outside points of all visible facets. The new
    // facets' planes are contiguous, so the scan over them reads one
    // flat run of memory.
    const std::size_t num_new = horizon_.size();
    const std::size_t pstride = dim_ + 1;
    const double* new_planes = Plane(first_new);
    for (const std::int32_t vid : visible_) {
      std::int32_t q = facets_[vid].outside_head;
      while (q >= 0) {
        const std::int32_t next = next_outside_[q];
        if (q != apex) {
          PointView qp = PointAt(q);
          for (std::size_t k = 0; k < num_new; ++k) {
            const double dist = Distance(new_planes + k * pstride, qp);
            if (dist > kEps) {
              AddOutside(first_new + static_cast<std::int32_t>(k), q, dist);
              break;
            }
          }
        }
        q = next;
      }
      FacetState& vf = facets_[vid];
      vf.outside_head = vf.outside_tail = -1;
      vf.alive = false;
      --live_facets_;
    }
    for (std::size_t k = 0; k < num_new; ++k) {
      const std::int32_t nid = first_new + static_cast<std::int32_t>(k);
      if (facets_[nid].outside_head >= 0) PushPending(nid);
    }
  }
  return true;
}

void HullBuilder::Compact(ConvexHull* out) {
  out->dim = dim_;
  out->vertices.clear();
  out->facet_vertices.clear();
  out->facet_neighbors.clear();
  out->facet_normals.clear();
  out->facet_offsets.clear();

  // Keep alive facets not incident to the sentinel.
  const auto num_facets = static_cast<std::int32_t>(facets_.size());
  remap_.assign(facets_.size(), -1);
  std::int32_t kept = 0;
  for (std::int32_t f = 0; f < num_facets; ++f) {
    if (!facets_[f].alive) continue;
    const std::int32_t* verts = Verts(f);
    if (sentinel_id_ >= 0 &&
        std::find(verts, verts + dim_, sentinel_id_) != verts + dim_) {
      continue;
    }
    remap_[f] = kept++;
  }
  out->facet_vertices.reserve(kept * dim_);
  out->facet_neighbors.reserve(kept * dim_);
  out->facet_normals.reserve(kept * dim_);
  out->facet_offsets.reserve(kept);
  for (std::int32_t f = 0; f < num_facets; ++f) {
    if (remap_[f] < 0) continue;
    const std::int32_t* verts = Verts(f);
    const std::int32_t* neigh = Neigh(f);
    const double* plane = Plane(f);
    out->facet_vertices.insert(out->facet_vertices.end(), verts,
                               verts + dim_);
    for (std::size_t s = 0; s < dim_; ++s) {
      const std::int32_t nb = neigh[s];
      out->facet_neighbors.push_back(nb >= 0 ? remap_[nb] : -1);
    }
    out->facet_normals.insert(out->facet_normals.end(), plane, plane + dim_);
    out->facet_offsets.push_back(plane[dim_]);
  }

  is_vertex_.assign(NumPoints(), 0);
  // Vertices come from all alive facets (including sentinel ones, so
  // that points whose every incident facet touches the sentinel are
  // still reported as hull vertices), minus the sentinel itself.
  for (std::int32_t f = 0; f < num_facets; ++f) {
    if (!facets_[f].alive) continue;
    const std::int32_t* verts = Verts(f);
    for (std::size_t s = 0; s < dim_; ++s) {
      if (verts[s] != sentinel_id_) is_vertex_[verts[s]] = 1;
    }
  }
  for (std::size_t i = 0; i < is_vertex_.size(); ++i) {
    if (is_vertex_[i]) out->vertices.push_back(static_cast<std::int32_t>(i));
  }
}

HullStatus HullBuilder::Build(const PointSet& points,
                              const ConvexHullOptions& options,
                              ConvexHull* out) {
  input_ = &points;
  dim_ = points.dim();
  DRLI_CHECK(dim_ >= 2) << "convex hull requires dim >= 2";
  out->facets_created = 0;
  if (dim_ > kMaxHullDim) return HullStatus::kDegenerate;
  sentinel_.clear();
  sentinel_id_ = -1;
  facets_.clear();
  ids_.clear();
  planes_.clear();
  pending_.clear();
  live_facets_ = 0;
  if (options.add_top_sentinel && points.size() > 0) {
    // One point beyond the max corner in every coordinate; it is never
    // below any lower facet, so the lower hull is unchanged.
    sentinel_.assign(dim_, 0.0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      PointView p = points[i];
      for (std::size_t j = 0; j < dim_; ++j) {
        sentinel_[j] = std::max(sentinel_[j], p[j]);
      }
    }
    for (double& x : sentinel_) x = x * 2.0 + 1.0;
    sentinel_id_ = static_cast<std::int32_t>(points.size());
  }
  bool built = BuildInitialSimplex();
  if (built) {
    AssignInitialOutside();
    built = ProcessOutsidePoints();
  }
  if (built) Compact(out);
  out->facets_created = facets_.size();
  if (facets_.capacity() > kRetainFacets) *this = HullBuilder();
  return built ? HullStatus::kOk : HullStatus::kDegenerate;
}

}  // namespace

HullStatus ComputeConvexHull(const PointSet& points,
                             const ConvexHullOptions& options,
                             ConvexHull* hull) {
  thread_local HullBuilder builder;
  return builder.Build(points, options, hull);
}

CsrGraph BuildVertexAdjacency(const ConvexHull& hull,
                              const std::vector<bool>& wanted) {
  using NodeId = CsrGraph::NodeId;
  const std::size_t n = wanted.size();
  const std::size_t d = hull.dim;
  // Simplicial facets: every vertex pair within a facet is a hull edge,
  // so a wanted vertex gets d - 1 entries per incident facet. Count,
  // fill, then sort, dedupe and close up each row in place.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const std::int32_t v : hull.facet_vertices) {
    if (wanted[v]) offsets[v + 1] += static_cast<std::uint32_t>(d - 1);
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<NodeId> targets(offsets[n]);
  std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t f = 0; f < hull.num_facets(); ++f) {
    const std::span<const std::int32_t> verts = hull.facet(f).vertices;
    for (const std::int32_t a : verts) {
      if (!wanted[a]) continue;
      for (const std::int32_t b : verts) {
        if (b != a) targets[fill[a]++] = static_cast<NodeId>(b);
      }
    }
  }
  std::uint32_t kept = 0;
  std::uint32_t begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t end = offsets[v + 1];
    const auto row = targets.begin();
    std::sort(row + begin, row + end);
    const auto last = std::unique(row + begin, row + end);
    offsets[v] = kept;
    kept = static_cast<std::uint32_t>(
        std::copy(row + begin, last, row + kept) - targets.begin());
    begin = end;
  }
  offsets[n] = kept;
  targets.resize(kept);
  return CsrGraph{std::move(offsets), std::move(targets)};
}

}  // namespace drli
