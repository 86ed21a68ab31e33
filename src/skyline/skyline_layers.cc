#include "skyline/skyline_layers.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <bit>
#include <cstdint>
#include <exception>
#include <iterator>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/parallel_for.h"
#include "geometry/convex_skyline.h"
#include "skyline/skyline.h"

namespace drli {

namespace {

// Points per sweep chunk with more than one thread. A chunk's points
// cannot see each other in the frozen tree, so each one also tests
// every earlier point of its chunk: the chunk trades that quadratic
// term against one barrier per chunk.
constexpr std::size_t kSweepChunk = 128;

// The box tree's members in tree order -- their coordinates, each id's
// position and leaf -- and each node's parent: the layout of the two
// walks below, the sweep's and the peel's. A leaf scan reads
// contiguous memory.
class TreeOrder {
 protected:
  TreeOrder(const PointSet& points, const BoxTree& tree)
      : tree_(tree), dim_(points.dim()) {
    const std::size_t n = points.size();
    const std::size_t nodes = tree.num_nodes();
    coords_.resize(n * dim_);
    parent_.assign(nodes, 0);
    position_.resize(n);
    leaf_of_.resize(n);
    for (std::size_t node = 0; node < nodes; ++node) {
      if (!tree.is_leaf(node)) {
        parent_[tree.left(node)] = static_cast<std::uint32_t>(node);
        parent_[tree.left(node) + 1] = static_cast<std::uint32_t>(node);
        continue;
      }
      for (std::size_t pos = Begin(node); pos < End(node); ++pos) {
        const TupleId id = tree.members(0)[pos];
        std::copy_n(points[id].data(), dim_, coords_.data() + pos * dim_);
        position_[id] = static_cast<std::uint32_t>(pos);
        leaf_of_[id] = static_cast<std::uint32_t>(node);
      }
    }
  }

  // Calls search(node) on id's leaf, then on the sibling of each
  // ancestor in turn, until it returns true: the nearest points to id
  // come first.
  template <typename Search>
  void Outward(TupleId id, Search&& search) const {
    std::uint32_t at = leaf_of_[id];
    if (search(at)) return;
    while (at != 0) {
      // The sibling: children are left(parent) and left(parent) + 1.
      const std::uint32_t parent = parent_[at];
      const auto left = static_cast<std::uint32_t>(tree_.left(parent));
      if (search(at == left ? left + 1 : left)) return;
      at = parent;
    }
  }

  // A node's member positions [Begin, End) in the tree's id permutation.
  std::size_t Begin(std::size_t node) const {
    return tree_.members(node).data() - tree_.members(0).data();
  }
  std::size_t End(std::size_t node) const {
    return Begin(node) + tree_.members(node).size();
  }

  const BoxTree& tree_;
  std::size_t dim_;
  std::vector<double> coords_;            // tree order
  std::vector<std::uint32_t> parent_;     // per node (the root's is 0)
  std::vector<std::uint32_t> position_;   // per id: its tree position
  std::vector<std::uint32_t> leaf_of_;    // per id: its leaf
};

// The box tree with each node's deepest swept layer: the structure the
// sweep queries.
class SweptLayers : private TreeOrder {
 public:
  SweptLayers(const PointSet& points, const BoxTree& tree)
      : TreeOrder(points, tree) {
    layer_.assign(points.size(), -1);
    max_layer_.assign(tree.num_nodes(), -1);
  }

  // The deepest layer among swept points strictly dominating point
  // `id`, or -1. Branch and bound: a node is skipped when its box cannot
  // hold a dominator or its deepest layer cannot beat the best found; a
  // node whose hi corner strictly dominates p holds only dominators, so
  // its deepest layer is taken whole. The nearest dominators tend to be
  // the deepest, so the search starts at id's own leaf and widens to
  // the sibling of each ancestor in turn.
  std::int32_t DeepestDominator(TupleId id, PointView p) const {
    switch (dim_) {
      case 2:
        return Deepest<2>(id, p.data());
      case 3:
        return Deepest<3>(id, p.data());
      case 4:
        return Deepest<4>(id, p.data());
      case 5:
        return Deepest<5>(id, p.data());
      default:
        return Deepest<0>(id, p.data());
    }
  }

  void Insert(TupleId id, std::int32_t layer) {
    layer_[position_[id]] = layer;
    // Ancestors' deepest layers are >= their children's, so the climb
    // stops at the first one already deep enough.
    for (std::uint32_t at = leaf_of_[id]; max_layer_[at] < layer;
         at = parent_[at]) {
      max_layer_[at] = layer;
      if (at == 0) break;
    }
  }

 private:
  // DeepestDominator with the dimension fixed at compile time for
  // d = 2..5 (D = 0: dim_). The tests are branch-free per coordinate.
  template <std::size_t D>
  std::int32_t Deepest(TupleId id, const double* p) const {
    const std::int32_t deepest = max_layer_[0];
    std::int32_t best = -1;
    Outward(id, [&](std::uint32_t node) {
      best = Search<D>(node, p, deepest, best);
      return best >= deepest;
    });
    return best;
  }

  // Each helper takes the best layer found so far and returns it,
  // raised by what it finds.
  template <std::size_t D>
  std::int32_t ScanLeaf(std::size_t node, const double* p,
                        std::int32_t best) const {
    const std::size_t d = D != 0 ? D : dim_;
    for (std::size_t pos = Begin(node); pos < End(node); ++pos) {
      const double* c = coords_.data() + pos * d;
      bool le = true;
      bool lt = false;
      for (std::size_t j = 0; j < d; ++j) {
        le &= c[j] <= p[j];
        lt |= c[j] < p[j];
      }
      best = std::max(best, (le & lt) ? layer_[pos] : -1);
    }
    return best;
  }

  // The branch and bound below one subtree. The stack holds at most one
  // node per level plus one; median splits keep the depth under 32.
  template <std::size_t D>
  std::int32_t Search(std::uint32_t root, const double* p,
                      std::int32_t deepest, std::int32_t best) const {
    const std::size_t d = D != 0 ? D : dim_;
    std::uint32_t stack[64];
    std::size_t size = 0;
    stack[size++] = root;
    while (size > 0 && best < deepest) {
      const std::uint32_t at = stack[--size];
      if (max_layer_[at] <= best) continue;
      const double* lo = tree_.lo(at).data();
      const double* hi = tree_.hi(at).data();
      bool lo_le = true;
      bool hi_le = true;
      bool hi_lt = false;
      for (std::size_t j = 0; j < d; ++j) {
        lo_le &= lo[j] <= p[j];
        hi_le &= hi[j] <= p[j];
        hi_lt |= hi[j] < p[j];
      }
      if (!lo_le) continue;
      if (hi_le & hi_lt) {
        best = max_layer_[at];
        continue;
      }
      if (tree_.is_leaf(at)) {
        best = ScanLeaf<D>(at, p, best);
        continue;
      }
      // The upper half of the split is popped first: its points are
      // nearer p.
      const auto left = static_cast<std::uint32_t>(tree_.left(at));
      stack[size++] = left;
      stack[size++] = left + 1;
    }
    return best;
  }

  std::vector<std::int32_t> layer_;      // tree order, -1 until swept
  std::vector<std::int32_t> max_layer_;  // per node, -1 while empty
};

// SKY(R) of a remainder R that convex layers leave one by one. Every
// dominated member of R holds a witness: a member of R strictly
// dominating it, found outward from its own leaf. A convex layer C
// lies in SKY(R), so when it leaves only the tuples whose witness was
// in C search again, and those that find none join the skyline; no
// other tuple can, since its witness is still in R.
class LiveSkyline : private TreeOrder {
 public:
  // R starts as every point.
  LiveSkyline(const PointSet& points, const BoxTree& tree)
      : TreeOrder(points, tree) {
    const std::size_t n = points.size();
    live_.assign(n, 1);
    live_count_.resize(tree.num_nodes());
    for (std::size_t node = 0; node < tree.num_nodes(); ++node) {
      live_count_[node] = static_cast<std::uint32_t>(End(node) - Begin(node));
    }
    first_dependant_.assign(n, kNone);
    next_dependant_.assign(n, kNone);
    for (TupleId id = 0; id < n; ++id) Attach(id, &skyline_);
  }

  // SKY(R), ascending.
  const std::vector<TupleId>& skyline() const { return skyline_; }

  // R, ascending.
  std::vector<TupleId> Remainder() const {
    std::vector<TupleId> rest;
    for (TupleId id = 0; id < position_.size(); ++id) {
      if (live_[position_[id]]) rest.push_back(id);
    }
    return rest;
  }

  // Takes `layer` (ascending, within skyline()) out of R.
  void Remove(const std::vector<TupleId>& layer) {
    for (const TupleId id : layer) {
      live_[position_[id]] = 0;
      for (std::uint32_t at = leaf_of_[id];; at = parent_[at]) {
        --live_count_[at];
        if (at == 0) break;
      }
    }
    std::vector<TupleId> joined;
    for (const TupleId id : layer) {
      for (TupleId t = first_dependant_[id]; t != kNone;) {
        const TupleId next = next_dependant_[t];
        Attach(t, &joined);
        t = next;
      }
    }
    std::sort(joined.begin(), joined.end());
    std::vector<TupleId> kept;
    kept.reserve(skyline_.size() - layer.size());
    std::set_difference(skyline_.begin(), skyline_.end(), layer.begin(),
                        layer.end(), std::back_inserter(kept));
    skyline_.clear();
    std::merge(kept.begin(), kept.end(), joined.begin(), joined.end(),
               std::back_inserter(skyline_));
  }

 private:
  static constexpr TupleId kNone = std::numeric_limits<TupleId>::max();

  // Files id under a witness in R, or appends it to `undominated`.
  void Attach(TupleId id, std::vector<TupleId>* undominated) {
    TupleId witness;
    switch (dim_) {
      case 2:
        witness = Witness<2>(id);
        break;
      case 3:
        witness = Witness<3>(id);
        break;
      case 4:
        witness = Witness<4>(id);
        break;
      case 5:
        witness = Witness<5>(id);
        break;
      default:
        witness = Witness<0>(id);
    }
    if (witness == kNone) {
      undominated->push_back(id);
      return;
    }
    next_dependant_[id] = first_dependant_[witness];
    first_dependant_[witness] = id;
  }

  // A member of R strictly dominating id, or kNone, with the dimension
  // fixed at compile time for d = 2..5 (D = 0: dim_).
  template <std::size_t D>
  TupleId Witness(TupleId id) const {
    const double* p = coords_.data() + position_[id] * (D != 0 ? D : dim_);
    TupleId found = kNone;
    Outward(id, [&](std::uint32_t node) {
      found = Search<D>(node, p);
      return found != kNone;
    });
    return found;
  }

  // A member of R below `root` strictly dominating p, or kNone. A node
  // is skipped when none of its members is in R or its lo corner cannot
  // dominate p. The upper half of a split is searched first, as in the
  // sweep: its points are nearer p, so they tend to leave R later.
  template <std::size_t D>
  TupleId Search(std::uint32_t root, const double* p) const {
    const std::size_t d = D != 0 ? D : dim_;
    std::uint32_t stack[64];
    std::size_t size = 0;
    stack[size++] = root;
    while (size > 0) {
      const std::uint32_t at = stack[--size];
      if (live_count_[at] == 0) continue;
      const double* lo = tree_.lo(at).data();
      bool lo_le = true;
      for (std::size_t j = 0; j < d; ++j) lo_le &= lo[j] <= p[j];
      if (!lo_le) continue;
      if (tree_.is_leaf(at)) {
        for (std::size_t pos = Begin(at); pos < End(at); ++pos) {
          const double* c = coords_.data() + pos * d;
          bool le = true;
          bool lt = false;
          for (std::size_t j = 0; j < d; ++j) {
            le &= c[j] <= p[j];
            lt |= c[j] < p[j];
          }
          if (live_[pos] & le & lt) return tree_.members(0)[pos];
        }
        continue;
      }
      const auto left = static_cast<std::uint32_t>(tree_.left(at));
      stack[size++] = left;
      stack[size++] = left + 1;
    }
    return kNone;
  }

  std::vector<std::uint8_t> live_;         // tree order: 1 while in R
  std::vector<std::uint32_t> live_count_;  // per node: members in R
  // Per id: the first tuple it witnesses, and the next tuple with the
  // same witness as id; kNone ends a list.
  std::vector<TupleId> first_dependant_;
  std::vector<TupleId> next_dependant_;
  std::vector<TupleId> skyline_;
};

}  // namespace

LayerDecomposition BuildSkylineLayers(const PointSet& points,
                                      const BoxTree& tree,
                                      std::size_t threads) {
  LayerDecomposition out;
  const std::size_t n = points.size();
  out.layer_of.assign(n, 0);
  if (n == 0) return out;
  DRLI_CHECK_EQ(tree.members(0).size(), n);

  // Sum order, then id: every dominator of a point precedes it.
  std::vector<std::pair<double, TupleId>> order;
  order.reserve(n);
  for (TupleId id = 0; id < n; ++id) {
    order.emplace_back(AttributeSum(points[id]), id);
  }
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (PrecedesInSumOrder(a.first, points[a.second], b.first,
                           points[b.second])) {
      return true;
    }
    if (PrecedesInSumOrder(b.first, points[b.second], a.first,
                           points[a.second])) {
      return false;
    }
    return a.second < b.second;
  });

  // layer_of[p] = 1 + the deepest layer among p's dominators, all of
  // which precede p. Per chunk, the workers find each point's deepest
  // dominator among earlier chunks in the tree, frozen for the chunk,
  // and list its dominators among the chunk's earlier points; then one
  // thread, the others waiting, resolves the chunk in order and inserts
  // it. One thread sweeps chunks of one point, which leaves nothing to
  // resolve. The chunk size follows the requested thread count, so a
  // host with fewer cores runs the same chunks on fewer workers.
  if (threads == 0) threads = ParallelThreadCount();
  const std::size_t chunk = threads > 1 ? kSweepChunk : 1;
  const std::size_t workers = std::min<std::size_t>(
      threads, std::max(1u, std::thread::hardware_concurrency()));
  SweptLayers swept(points, tree);
  std::vector<std::int32_t> base(chunk);
  // earlier[i]: bit j is set when the chunk's point j dominates point i.
  std::vector<std::array<std::uint64_t, kSweepChunk / 64>> earlier(chunk);
  std::size_t start = 0;
  std::size_t size = std::min(chunk, n);
  std::atomic<std::size_t> next{0};
  const auto query_chunk = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < size;) {
      const TupleId id = order[start + i].second;
      const PointView p = points[id];
      base[i] = swept.DeepestDominator(id, p) + 1;
      earlier[i].fill(0);
      for (std::size_t j = 0; j < i; ++j) {
        if (Dominates(points[order[start + j].second], p)) {
          earlier[i][j / 64] |= std::uint64_t{1} << (j % 64);
        }
      }
    }
  };
  const auto resolve_chunk = [&]() noexcept {
    for (std::size_t i = 0; i < size; ++i) {
      const TupleId id = order[start + i].second;
      std::int32_t layer = base[i];
      for (std::size_t word = 0; word < earlier[i].size(); ++word) {
        for (std::uint64_t bits = earlier[i][word]; bits != 0;
             bits &= bits - 1) {
          const std::size_t j = word * 64 + std::countr_zero(bits);
          layer = std::max(layer, static_cast<std::int32_t>(
                                      out.layer_of[order[start + j].second]) +
                                      1);
        }
      }
      if (static_cast<std::size_t>(layer) == out.layers.size()) {
        out.layers.emplace_back();
      }
      out.layers[layer].push_back(id);
      out.layer_of[id] = static_cast<std::size_t>(layer);
      swept.Insert(id, layer);
    }
    start += size;
    size = std::min(chunk, n - start);
    next.store(0);
  };
  if (workers == 1) {
    while (start < n) {
      query_chunk();
      resolve_chunk();
    }
  } else {
    // One team for the whole sweep; the barrier's completion step runs
    // resolve_chunk on the last worker to arrive.
    std::barrier sync(static_cast<std::ptrdiff_t>(workers), resolve_chunk);
    const auto team = [&] {
      while (start < n) {
        query_chunk();
        sync.arrive_and_wait();
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    try {
      while (pool.size() + 1 < workers) pool.emplace_back(team);
    } catch (const std::exception&) {
      // Out of threads: the missing workers drop out of the barrier and
      // the running ones claim their points. The result is the same.
      for (std::size_t w = pool.size() + 1; w < workers; ++w) {
        sync.arrive_and_drop();
      }
    }
    team();
    for (std::thread& t : pool) t.join();
  }
  // Insertion was in sum order; the contract is ascending ids.
  for (std::vector<TupleId>& layer : out.layers) {
    std::sort(layer.begin(), layer.end());
  }
  return out;
}

LayerDecomposition BuildSkylineLayers(const PointSet& points,
                                      std::size_t threads) {
  return BuildSkylineLayers(points, BoxTree::Build(points), threads);
}

LayerDecomposition BuildSkylineLayersByPeeling(const PointSet& points) {
  LayerDecomposition out;
  out.layer_of.assign(points.size(), 0);
  std::vector<TupleId> remaining(points.size());
  std::iota(remaining.begin(), remaining.end(), 0);
  while (!remaining.empty()) {
    std::vector<TupleId> layer = NaiveSkyline(points, remaining);
    DRLI_CHECK(!layer.empty()) << "skyline of a non-empty set is non-empty";
    const std::size_t layer_index = out.layers.size();
    for (TupleId id : layer) out.layer_of[id] = layer_index;
    // Remove the layer (both lists are ascending).
    std::vector<TupleId> next;
    next.reserve(remaining.size() - layer.size());
    std::set_difference(remaining.begin(), remaining.end(), layer.begin(),
                        layer.end(), std::back_inserter(next));
    remaining = std::move(next);
    out.layers.push_back(std::move(layer));
  }
  return out;
}

ConvexLayerDecomposition BuildConvexLayers(const PointSet& points,
                                           std::size_t max_layers) {
  ConvexLayerDecomposition out;
  out.layer_of.assign(points.size(), 0);
  if (points.size() == 0) return out;
  const BoxTree tree = BoxTree::Build(points);
  LiveSkyline remaining(points, tree);
  while (!remaining.skyline().empty()) {
    if (out.layers.size() == max_layers) {
      // Budget exhausted: the remainder becomes one final
      // complete-access layer.
      std::vector<TupleId> rest = remaining.Remainder();
      for (TupleId id : rest) out.layer_of[id] = out.layers.size();
      out.layers.push_back(std::move(rest));
      out.truncated = true;
      break;
    }
    // CSKY(R) = CSKY(SKY(R)): the hull runs on the skyline only.
    const std::vector<TupleId>& sky = remaining.skyline();
    const ConvexSkylineResult csky = ComputeConvexSkyline(points.Subset(sky));
    std::vector<TupleId> layer;
    layer.reserve(csky.members.size());
    for (TupleId local : csky.members) layer.push_back(sky[local]);
    std::sort(layer.begin(), layer.end());
    DRLI_CHECK(!layer.empty());
    const std::size_t layer_index = out.layers.size();
    for (TupleId id : layer) out.layer_of[id] = layer_index;
    remaining.Remove(layer);
    out.layers.push_back(std::move(layer));
  }
  return out;
}

}  // namespace drli
