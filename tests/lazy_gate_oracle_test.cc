// Oracle for the DL/DL+ traversal's lazy ∀-gate (core/dual_layer.h,
// QueryLayout): a node-space reference of the eager Algorithm 2, which
// walks every ∀-edge out of every popped node, must agree exactly with
// DualLayerIndex::Query on items, evaluation counts and the multiset of
// accessed tuples, with and without a step budget cut at every point.
// It also pins QueryStats::edges_walked against the eager walk.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/dual_layer.h"
#include "core/serialization.h"
#include "data/generator.h"

namespace drli {
namespace {

struct EagerRun {
  TopKResult result;
  std::size_t edges = 0;  // adjacency entries read, as edges_walked
};

// Algorithm 2 over NodeGraph()'s rows in node space, scoring each
// node the moment it is freed and decrementing every ∀-successor of
// every pop -- the traversal before the lazy gate.
EagerRun EagerReference(const DualLayerIndex& index, const TopKQuery& query) {
  const PointView w(query.weights);
  const std::size_t total = index.num_nodes();
  const NodeSpaceGraph graph = index.NodeGraph();
  std::vector<std::uint32_t> remaining = graph.coarse_in_degree;
  std::vector<std::uint8_t> fine_free(total), locked(total), freed(total);
  for (std::size_t i = 0; i < total; ++i) {
    fine_free[i] = !graph.has_fine_in[i];
  }
  std::vector<std::size_t> chain_pos(
      total, std::numeric_limits<std::size_t>::max());
  const std::vector<TupleId>* chain = nullptr;
  if (index.uses_weight_table() && !index.weight_table().empty()) {
    chain = &index.weight_table().chain();
    const std::size_t top1 = index.weight_table().Lookup(query.weights[0]);
    for (std::size_t pos = 0; pos < chain->size(); ++pos) {
      chain_pos[(*chain)[pos]] = pos;
      locked[(*chain)[pos]] = pos != top1;
    }
  }
  EagerRun run;
  TopKResult& r = run.result;
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  double tie_cutoff = std::numeric_limits<double>::infinity();
  // The ∃-edges' rounding slack: the stop, the tie filter and the
  // frontier look that far past the k-th score.
  const double slack = index.StopSlack(w);
  double stop_above = tie_cutoff;
  const auto try_free = [&](std::uint32_t node) {
    if (freed[node] || remaining[node] != 0 || !fine_free[node] ||
        locked[node]) {
      return;
    }
    freed[node] = 1;
    const double score = Score(w, index.node_point(node));
    if (score > stop_above) return;
    if (index.is_virtual(node)) {
      ++r.stats.virtual_evaluated;
    } else {
      ++r.stats.tuples_evaluated;
      r.accessed.push_back(node);
    }
    heap.emplace(score, node);
  };
  for (const std::uint32_t node : graph.initial) try_free(node);
  BudgetGate gate(query.budget);
  Termination stop = Termination::kComplete;
  double frontier = -std::numeric_limits<double>::infinity();
  while (!heap.empty()) {
    if (r.items.size() >= query.k && heap.top().first > stop_above) break;
    if (stop = gate.Step(r.stats.tuples_evaluated);
        stop != Termination::kComplete) {
      frontier = std::min(heap.top().first - slack, tie_cutoff);
      break;
    }
    const auto [score, node] = heap.top();
    heap.pop();
    if (!index.is_virtual(node)) {
      r.items.push_back(ScoredTuple{node, score});
      if (r.items.size() == query.k) {
        tie_cutoff = score;
        stop_above = tie_cutoff + slack;
      }
    }
    for (const std::uint32_t succ : graph.coarse_out[node]) {
      ++run.edges;
      --remaining[succ];
      try_free(succ);
    }
    for (const std::uint32_t succ : graph.fine_out[node]) {
      ++run.edges;
      fine_free[succ] = 1;
      try_free(succ);
    }
    if (chain != nullptr && chain_pos[node] < chain->size()) {
      const std::size_t pos = chain_pos[node];
      for (const std::size_t nb : {pos - 1, pos + 1}) {
        if (nb >= chain->size()) continue;  // pos - 1 wraps at 0
        ++run.edges;
        locked[(*chain)[nb]] = 0;
        try_free((*chain)[nb]);
      }
    }
  }
  std::sort(r.items.begin(), r.items.end(), ResultOrderLess);
  if (r.items.size() > query.k) r.items.resize(query.k);
  if (stop == Termination::kComplete) {
    FinalizeComplete(r);
  } else {
    FinalizePartial(r, stop, frontier);
  }
  return run;
}

::testing::AssertionResult SameAnswer(const TopKResult& want,
                                      const TopKResult& got) {
  if (got.items.size() != want.items.size()) {
    return ::testing::AssertionFailure() << "items " << got.items.size()
                                         << " != " << want.items.size();
  }
  for (std::size_t i = 0; i < want.items.size(); ++i) {
    if (got.items[i].id != want.items[i].id ||
        got.items[i].score != want.items[i].score) {
      return ::testing::AssertionFailure()
             << "rank " << i << ": id " << got.items[i].id << " != "
             << want.items[i].id;
    }
  }
  if (got.stats.tuples_evaluated != want.stats.tuples_evaluated ||
      got.stats.virtual_evaluated != want.stats.virtual_evaluated) {
    return ::testing::AssertionFailure()
           << "evaluated " << got.stats.tuples_evaluated << "+"
           << got.stats.virtual_evaluated << " != "
           << want.stats.tuples_evaluated << "+"
           << want.stats.virtual_evaluated;
  }
  std::vector<TupleId> a = want.accessed, b = got.accessed;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a != b) return ::testing::AssertionFailure() << "accessed multiset";
  if (got.termination != want.termination ||
      got.certified_prefix != want.certified_prefix ||
      got.frontier_bound != want.frontier_bound) {
    return ::testing::AssertionFailure()
           << "termination " << TerminationName(got.termination) << "/"
           << TerminationName(want.termination) << " prefix "
           << got.certified_prefix << "/" << want.certified_prefix
           << " frontier " << got.frontier_bound << "/"
           << want.frontier_bound;
  }
  return ::testing::AssertionSuccess();
}

DualLayerOptions ZeroLayerOptions() {
  DualLayerOptions options;
  options.build_zero_layer = true;
  return options;
}

// Every k, complete and with max_evals cut at every step up to the
// complete run's evaluation count.
void ExpectMatchesReference(const DualLayerIndex& index, std::uint64_t seed,
                            const std::string& what) {
  Rng rng(seed);
  const std::size_t n = index.size();
  for (const std::size_t k : {std::size_t{1}, std::size_t{10},
                              std::size_t{100}, n}) {
    TopKQuery query{rng.SimplexWeight(index.dim()), k};
    const TopKResult full = index.Query(query);
    ASSERT_TRUE(SameAnswer(EagerReference(index, query).result, full))
        << what << " k=" << k;
    for (std::size_t cut = 1; cut <= full.stats.tuples_evaluated; ++cut) {
      query.budget.max_evals = cut;
      ASSERT_TRUE(SameAnswer(EagerReference(index, query).result,
                             index.Query(query)))
          << what << " k=" << k << " max_evals=" << cut;
    }
  }
}

// The fresh index and its v2 snapshot round-trip.
void ExpectFreshAndLoadedMatch(PointSet points, std::uint64_t seed,
                               const std::string& what) {
  const DualLayerIndex built =
      DualLayerIndex::Build(std::move(points), ZeroLayerOptions());
  ASSERT_GT(built.virtual_points().size(), 0u) << what;
  ExpectMatchesReference(built, seed, what + " fresh");
  const std::string path =
      ::testing::TempDir() + "lazy_gate_" + std::to_string(seed) + ".bin";
  ASSERT_TRUE(SaveDualLayerIndex(built, path).ok());
  auto loaded = LoadDualLayerIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectMatchesReference(loaded.value(), seed, what + " loaded");
  std::filesystem::remove(path);
}

TEST(LazyGateOracleTest, IndependentD3D4D5) {
  for (const std::size_t d : {3, 4, 5}) {
    ExpectFreshAndLoadedMatch(
        Generate(Distribution::kIndependent, 400, d, 30 + d), 300 + d,
        "ind d=" + std::to_string(d));
  }
}

TEST(LazyGateOracleTest, AnticorrelatedD3D4D5) {
  for (const std::size_t d : {3, 4, 5}) {
    ExpectFreshAndLoadedMatch(
        Generate(Distribution::kAnticorrelated, 400, d, 40 + d), 400 + d,
        "ant d=" + std::to_string(d));
  }
}

// Integer grids with exact duplicates: bitwise score ties, and pseudo-
// tuples that coincide with real tuples.
TEST(LazyGateOracleTest, IntegerGridWithDuplicates) {
  for (const std::size_t d : {3, 4, 5}) {
    Rng rng(50 + d);
    PointSet points(d);
    for (int i = 0; i < 300; ++i) {
      Point p(d);
      for (double& x : p) x = static_cast<double>(rng.Index(5)) / 4.0;
      points.Add(p);
    }
    for (int i = 0; i < 40; ++i) points.Add(points.Materialize(i * 7));
    ExpectFreshAndLoadedMatch(std::move(points), 500 + d,
                              "grid+dups d=" + std::to_string(d));
  }
}

// The push bound's score buffer: scores below the bound are appended,
// and at 2k entries it is cut back to the k smallest. On 20k
// anticorrelated d=3 rows a k = 1000 query fills it once and evaluates
// too few tuples (about 1.3k) to reach 2k, while k = 1 and k = 10
// queries compact it about once each. Complete and budget-cut runs must
// equal the eager walk, which pushes every freed node. Compactions are
// counted by replaying `accessed`, which lists real tuples in scoring
// order.
TEST(LazyGateOracleTest, PushBoundBufferAtLargeAndSmallK) {
  const PointSet points =
      Generate(Distribution::kAnticorrelated, 20000, 3, 64);
  const DualLayerIndex index =
      DualLayerIndex::Build(points, ZeroLayerOptions());
  Rng rng(603);
  std::size_t compactions = 0;
  for (const std::size_t k : {1, 10, 1000}) {
    for (int q = 0; q < (k == 1000 ? 3 : 8); ++q) {
      TopKQuery query{rng.SimplexWeight(3), k};
      const TopKResult full = index.Query(query);
      ASSERT_TRUE(SameAnswer(EagerReference(index, query).result, full))
          << "k=" << k << " query " << q;
      std::vector<double> buffer;
      double bound = std::numeric_limits<double>::infinity();
      for (const TupleId id : full.accessed) {
        const double score = Score(query.weights, points[id]);
        if (!(score < bound)) continue;
        buffer.push_back(score);
        if (buffer.size() == k) {
          bound = *std::max_element(buffer.begin(), buffer.end());
        } else if (buffer.size() == 2 * k) {
          std::nth_element(buffer.begin(), buffer.begin() + (k - 1),
                           buffer.end());
          buffer.resize(k);
          bound = buffer[k - 1];
          ++compactions;
        }
      }
      const std::size_t evals = full.stats.tuples_evaluated;
      for (std::size_t cut = 1; cut < evals;
           cut += std::max<std::size_t>(1, evals / 7)) {
        query.budget.max_evals = cut;
        ASSERT_TRUE(SameAnswer(EagerReference(index, query).result,
                               index.Query(query)))
            << "k=" << k << " query " << q << " max_evals=" << cut;
      }
    }
  }
  EXPECT_GE(compactions, 8u);
}

// The gate's point: at d=4 a k=10 DL+ query reads strictly fewer
// adjacency entries than the eager walk, with the same answer.
TEST(LazyGateOracleTest, WalksFewerEdgesThanEagerAtD4) {
  const DualLayerIndex index = DualLayerIndex::Build(
      Generate(Distribution::kAnticorrelated, 20000, 4, 61),
      ZeroLayerOptions());
  Rng rng(601);
  for (int i = 0; i < 5; ++i) {
    const TopKQuery query{rng.SimplexWeight(4), 10};
    const EagerRun eager = EagerReference(index, query);
    const TopKResult lazy = index.Query(query);
    ASSERT_TRUE(SameAnswer(eager.result, lazy)) << "query " << i;
    EXPECT_LT(lazy.stats.edges_walked, eager.edges) << "query " << i;
  }
}

// Where the gate is a no-op the counter equals the eager walk's: the
// 2-d weight table has no pseudo-tuples, and without fine layers every
// L1 tuple is fine-free at init.
TEST(LazyGateOracleTest, EdgeCountsEqualEagerWhereGateIsNoOp) {
  const DualLayerIndex table = DualLayerIndex::Build(
      Generate(Distribution::kAnticorrelated, 2000, 2, 62),
      ZeroLayerOptions());
  ASSERT_TRUE(table.uses_weight_table());
  DualLayerOptions coarse_only = ZeroLayerOptions();
  coarse_only.enable_fine_layers = false;
  const DualLayerIndex no_fine = DualLayerIndex::Build(
      Generate(Distribution::kAnticorrelated, 2000, 4, 63), coarse_only);
  ASSERT_GT(no_fine.virtual_points().size(), 0u);
  Rng rng(602);
  for (const DualLayerIndex* index : {&table, &no_fine}) {
    for (const std::size_t k : {1, 10, 100}) {
      const TopKQuery query{rng.SimplexWeight(index->dim()), k};
      const EagerRun eager = EagerReference(*index, query);
      const TopKResult lazy = index->Query(query);
      ASSERT_TRUE(SameAnswer(eager.result, lazy)) << "d=" << index->dim();
      EXPECT_GT(eager.edges, 0u);
      EXPECT_EQ(lazy.stats.edges_walked, eager.edges)
          << "d=" << index->dim() << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace drli
