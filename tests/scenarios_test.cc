// Query scenarios over the DL+ core (scenarios/): constrained top-k
// with box pushdown on all three engines, diversified greedy with its
// pool certificate, reverse top-k against the full kinetic sweep, the
// QueryBatch wall-clock accounting, and the tombstone-floor compaction
// option. The randomized cross-engine sweep lives in the scenario
// oracle (testing/scenario_oracle.h) and the fuzz suite; this file
// pins the deterministic contracts.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "common/simd.h"
#include "core/dual_layer.h"
#include "core/index_registry.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "geometry/box_tree.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "scenarios/reverse_topk.h"
#include "shard/sharded_index.h"
#include "test_util.h"
#include "testing/check_index.h"
#include "testing/result_check.h"
#include "testing/scenario_oracle.h"
#include "topk/query.h"

namespace drli {
namespace {

struct Engines {
  DualLayerIndex dl;
  ShardedDualLayerIndex sdl;
  TieredDualLayerIndex tdl;
};

Engines BuildEngines(const PointSet& points) {
  DualLayerOptions dl_opts;
  dl_opts.build_zero_layer = true;
  dl_opts.build_threads = 1;

  ShardedBuildOptions sh_opts;
  sh_opts.num_shards = 3;
  sh_opts.shard_options.build_zero_layer = true;
  sh_opts.build_threads = 1;

  TieredIndexOptions t_opts;
  t_opts.memtable_capacity = 16;

  Engines engines{DualLayerIndex::Build(points, dl_opts),
                  ShardedDualLayerIndex::Build(points, sh_opts),
                  TieredDualLayerIndex(points.dim(), t_opts)};
  for (std::size_t i = 0; i < points.size(); ++i) {
    engines.tdl.Insert(points[i]);
  }
  return engines;
}

void ExpectSameItems(const TopKResult& got, const TopKResult& want,
                     const char* engine) {
  ASSERT_EQ(got.termination, Termination::kComplete) << engine;
  ASSERT_EQ(got.items.size(), want.items.size()) << engine;
  EXPECT_EQ(got.certified_prefix, got.items.size()) << engine;
  for (std::size_t i = 0; i < want.items.size(); ++i) {
    EXPECT_EQ(got.items[i].id, want.items[i].id) << engine << " rank " << i;
    EXPECT_EQ(got.items[i].score, want.items[i].score)
        << engine << " rank " << i;
  }
}

// --- constrained ---

TEST(ConstrainedTest, MatchesScanOnAllEnginesWithPruning) {
  const PointSet points = GenerateIndependent(180, 3, 11);
  const Engines engines = BuildEngines(points);
  Rng rng(5);

  bool dl_pruned = false, sdl_pruned = false, tdl_pruned = false;
  for (int probe = 0; probe < 12; ++probe) {
    ConstrainedQuery query;
    query.weights = rng.SimplexWeight(3);
    query.k = 1 + rng.Index(8);
    // Box spanned by two data rows: edges hit coordinates exactly.
    const TupleId a = static_cast<TupleId>(rng.Index(points.size()));
    const TupleId b = static_cast<TupleId>(rng.Index(points.size()));
    query.box.lo.resize(3);
    query.box.hi.resize(3);
    for (std::size_t attr = 0; attr < 3; ++attr) {
      query.box.lo[attr] = std::min(points.At(a, attr), points.At(b, attr));
      query.box.hi[attr] = std::max(points.At(a, attr), points.At(b, attr));
    }
    const TopKResult want = ConstrainedTopKScan(points, query);
    const TopKResult dl = ConstrainedTopK(engines.dl, query);
    const TopKResult sdl = ConstrainedTopK(engines.sdl, query);
    const TopKResult tdl = ConstrainedTopK(engines.tdl, query);
    ExpectSameItems(dl, want, "dl+");
    ExpectSameItems(sdl, want, "sdl+");
    ExpectSameItems(tdl, want, "tdl+");
    dl_pruned |= dl.stats.boxes_pruned > 0;
    sdl_pruned |= sdl.stats.boxes_pruned > 0;
    tdl_pruned |= tdl.stats.boxes_pruned > 0;
  }
  // Narrow boxes over 180 rows must have discarded whole units
  // somewhere in the sweep on every engine.
  EXPECT_TRUE(dl_pruned);
  EXPECT_TRUE(sdl_pruned);
  EXPECT_TRUE(tdl_pruned);
}

TEST(ConstrainedTest, DegenerateBoxes) {
  const PointSet points = GenerateIndependent(60, 2, 3);
  const Engines engines = BuildEngines(points);

  ConstrainedQuery query;
  query.weights = {0.5, 0.5};
  query.k = 5;

  // Inverted box matches nothing.
  query.box = AttributeBox::All(2);
  query.box.lo[0] = 1.0;
  query.box.hi[0] = 0.0;
  EXPECT_TRUE(ConstrainedTopK(engines.dl, query).items.empty());
  EXPECT_TRUE(ConstrainedTopK(engines.sdl, query).items.empty());
  EXPECT_TRUE(ConstrainedTopK(engines.tdl, query).items.empty());
  EXPECT_TRUE(ConstrainedTopKScan(points, query).items.empty());

  // The all-space box reduces to the plain top-k.
  query.box = AttributeBox::All(2);
  TopKQuery plain;
  plain.weights = query.weights;
  plain.k = query.k;
  const TopKResult unconstrained = engines.dl.Query(plain);
  ExpectSameItems(ConstrainedTopK(engines.dl, query), unconstrained, "dl+");
  ExpectSameItems(ConstrainedTopK(engines.tdl, query), unconstrained, "tdl+");

  // A point box (lo == hi == one row) with k far beyond the match
  // count returns exactly that row.
  query.box.lo = points.Materialize(7);
  query.box.hi = points.Materialize(7);
  query.k = points.size() + 3;
  const TopKResult want = ConstrainedTopKScan(points, query);
  ASSERT_EQ(want.items.size(), 1u);
  EXPECT_EQ(want.items[0].id, 7u);
  ExpectSameItems(ConstrainedTopK(engines.dl, query), want, "dl+");
  ExpectSameItems(ConstrainedTopK(engines.sdl, query), want, "sdl+");
  ExpectSameItems(ConstrainedTopK(engines.tdl, query), want, "tdl+");

  // Dimension mismatch and NaN endpoints are recoverable errors.
  query.box.lo = {0.0};
  query.box.hi = {1.0};
  EXPECT_EQ(ConstrainedTopK(engines.dl, query).termination,
            Termination::kInvalidQuery);
  query.box.lo = {std::numeric_limits<double>::quiet_NaN(), 0.0};
  query.box.hi = {1.0, 1.0};
  EXPECT_EQ(ConstrainedTopK(engines.dl, query).termination,
            Termination::kInvalidQuery);
}

TEST(ConstrainedTest, ZeroWeightQueriesAreLegal) {
  const PointSet points = GenerateIndependent(50, 2, 17);
  const Engines engines = BuildEngines(points);
  ConstrainedQuery query;
  query.weights = {0.0, 1.0};  // simplex boundary
  query.k = 4;
  query.box = AttributeBox::All(2);
  query.box.hi[1] = 0.8;
  const TopKResult want = ConstrainedTopKScan(points, query);
  ExpectSameItems(ConstrainedTopK(engines.dl, query), want, "dl+");
  ExpectSameItems(ConstrainedTopK(engines.sdl, query), want, "sdl+");
  ExpectSameItems(ConstrainedTopK(engines.tdl, query), want, "tdl+");
}

// k = 0 is legal (ValidateQuery): every engine answers complete and
// empty without reading a k-th score from an empty heap.
TEST(ConstrainedTest, KZeroIsCompleteAndEmptyOnAllEngines) {
  const PointSet points = GenerateIndependent(200, 3, 29);
  const Engines engines = BuildEngines(points);
  ConstrainedQuery query;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 0;
  query.box = AttributeBox::All(3);
  for (const TopKResult& got : {ConstrainedTopK(engines.dl, query),
                                ConstrainedTopK(engines.sdl, query),
                                ConstrainedTopK(engines.tdl, query),
                                ConstrainedTopKScan(points, query)}) {
    EXPECT_EQ(got.termination, Termination::kComplete);
    EXPECT_TRUE(got.items.empty());
    EXPECT_EQ(got.certified_prefix, 0u);
  }
}

TEST(ConstrainedTest, BudgetedPartialCertifiesTruePrefix) {
  const PointSet points = GenerateIndependent(150, 3, 23);
  const Engines engines = BuildEngines(points);
  Rng rng(23);

  ConstrainedQuery query;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 10;
  query.box = AttributeBox::All(3);
  query.box.hi[0] = 0.6;
  const TopKResult want = ConstrainedTopKScan(points, query);
  const std::size_t full_cost =
      ConstrainedTopK(engines.dl, query).stats.tuples_evaluated;
  ASSERT_GT(full_cost, 0u);

  bool saw_partial = false;
  for (std::size_t cut = 1; cut <= full_cost; cut += 1 + cut / 4) {
    ConstrainedQuery budgeted = query;
    budgeted.budget.max_evals = cut;
    for (const TopKResult& got : {ConstrainedTopK(engines.dl, budgeted),
                                  ConstrainedTopK(engines.sdl, budgeted),
                                  ConstrainedTopK(engines.tdl, budgeted)}) {
      saw_partial |= !got.complete();
      ASSERT_LE(got.certified_prefix, got.items.size());
      ASSERT_LE(got.certified_prefix, want.items.size());
      for (std::size_t i = 0; i < got.certified_prefix; ++i) {
        EXPECT_EQ(got.items[i].id, want.items[i].id) << "cut " << cut;
        EXPECT_EQ(got.items[i].score, want.items[i].score) << "cut " << cut;
      }
    }
  }
  EXPECT_TRUE(saw_partial);
}

// Every cut of the evaluation budget, from 0 (unlimited) to the
// unbudgeted cost, on every engine: the result passes the shared check
// (certified prefix equal to the exact answer's, frontier at most the
// score of every in-box tuple it did not return).
TEST(ConstrainedTest, EveryEvalCutCertifies) {
  const PointSet points = GenerateIndependent(150, 3, 23);
  const Engines engines = BuildEngines(points);
  const CheckUniverse universe = CheckUniverse::Of(points);
  Rng rng(29);
  for (int probe = 0; probe < 3; ++probe) {
    ConstrainedQuery query;
    query.weights = rng.SimplexWeight(3);
    query.k = 10;
    query.box = AttributeBox::All(3);
    query.box.hi[probe] = 0.6;
    query.box.lo[(probe + 1) % 3] = 0.1;
    const TopKReference reference(universe.InBox(query.box), query.weights,
                                  query.k);
    const auto run = [&](std::size_t engine, const ConstrainedQuery& q) {
      return engine == 0   ? ConstrainedTopK(engines.dl, q)
             : engine == 1 ? ConstrainedTopK(engines.sdl, q)
                           : ConstrainedTopK(engines.tdl, q);
    };
    const char* const names[] = {"dl+", "sdl+", "tdl+"};
    for (std::size_t e = 0; e < 3; ++e) {
      const std::size_t full_cost = run(e, query).stats.tuples_evaluated;
      bool saw_partial = false;
      for (std::size_t cut = 0; cut <= full_cost; ++cut) {
        ConstrainedQuery budgeted = query;
        budgeted.budget.max_evals = cut;
        const TopKResult got = run(e, budgeted);
        saw_partial |= !got.complete();
        const std::string error =
            reference.Check(got, MatchRule::kExact, budgeted.budget);
        ASSERT_TRUE(error.empty()) << names[e] << " probe " << probe
                                   << " cut " << cut << ": " << error;
      }
      EXPECT_TRUE(saw_partial) << names[e] << " probe " << probe;
    }
  }
}

// One entry point for every engine: registry-built dl+, sdl+4h and
// tdl+64, held only as a TopKIndex, answer like the scan and certify
// every max-evals cut; a family without a box tree is refused by name.
TEST(ConstrainedTest, OneEntryPointServesEveryRegistryEngine) {
  const PointSet points = GenerateAnticorrelated(400, 3, 61);
  const CheckUniverse universe = CheckUniverse::Of(points);
  Rng rng(61);
  ConstrainedQuery query;
  query.weights = rng.SimplexWeight(3);
  query.k = 8;
  query.box = AttributeBox::All(3);
  query.box.hi[0] = 0.7;
  query.box.lo[1] = 0.1;
  const TopKResult want = ConstrainedTopKScan(points, query);
  const TopKReference reference(universe.InBox(query.box), query.weights,
                                query.k);
  for (const char* kind : {"dl+", "sdl+4h", "tdl+64"}) {
    IndexBuildConfig config;
    config.kind = kind;
    auto built = BuildIndex(config, points);
    ASSERT_TRUE(built.ok()) << kind;
    const TopKIndex& engine = *built.value();
    const TopKResult got = ConstrainedTopK(engine, query);
    ExpectSameItems(got, want, kind);
    EXPECT_LT(got.stats.tuples_evaluated, want.stats.tuples_evaluated)
        << kind;
    for (std::size_t cut = 1; cut <= got.stats.tuples_evaluated; ++cut) {
      ConstrainedQuery budgeted = query;
      budgeted.budget.max_evals = cut;
      const std::string error = reference.Check(
          ConstrainedTopK(engine, budgeted), MatchRule::kExact,
          budgeted.budget);
      ASSERT_TRUE(error.empty()) << kind << " cut " << cut << ": " << error;
    }
  }

  IndexBuildConfig config;
  config.kind = "ta";
  auto ta = BuildIndex(config, points);
  ASSERT_TRUE(ta.ok());
  const TopKResult refused = ConstrainedTopK(*ta.value(), query);
  EXPECT_EQ(refused.termination, Termination::kInvalidQuery);
  EXPECT_NE(refused.error.find(ta.value()->name()), std::string::npos)
      << refused.error;
  EXPECT_TRUE(refused.items.empty());
}

// --- diversified ---

TEST(DiversifiedTest, LambdaZeroIsCanonicalTopK) {
  const PointSet points = GenerateIndependent(80, 3, 31);
  const Engines engines = BuildEngines(points);
  DiversifiedQuery query;
  query.weights = {0.2, 0.5, 0.3};
  query.k = 6;
  query.lambda = 0.0;
  TopKQuery plain;
  plain.weights = query.weights;
  plain.k = query.k;
  const TopKResult topk = engines.dl.Query(plain);
  const DiversifiedResult got =
      DiversifiedTopK(engines.dl, engines.dl.points(), query);
  ASSERT_TRUE(got.complete());
  ASSERT_EQ(got.picks.size(), topk.items.size());
  for (std::size_t i = 0; i < topk.items.size(); ++i) {
    EXPECT_EQ(got.picks[i].id, topk.items[i].id) << i;
    EXPECT_EQ(got.picks[i].utility, topk.items[i].score) << i;
  }
}

TEST(DiversifiedTest, MatchesBruteForceAcrossLambdas) {
  const PointSet points = GenerateIndependent(90, 2, 37);
  const Engines engines = BuildEngines(points);
  for (const double lambda : {0.0, 0.4, 5.0}) {
    DiversifiedQuery query;
    query.weights = {0.6, 0.4};
    query.k = 5;
    query.lambda = lambda;
    query.pool_factor = 2;
    const DiversifiedResult want = DiversifiedTopKScan(points, query);
    for (const DiversifiedResult& got :
         {DiversifiedTopK(engines.dl, engines.dl.points(), query),
          DiversifiedTopK(engines.sdl, points, query),
          DiversifiedTopK(engines.tdl, points, query)}) {
      ASSERT_TRUE(got.complete()) << "lambda=" << lambda;
      ASSERT_EQ(got.picks.size(), want.picks.size());
      EXPECT_EQ(got.certified_prefix, got.picks.size());
      for (std::size_t i = 0; i < want.picks.size(); ++i) {
        EXPECT_EQ(got.picks[i].id, want.picks[i].id)
            << "lambda=" << lambda << " pick " << i;
        EXPECT_EQ(got.picks[i].score, want.picks[i].score);
        EXPECT_EQ(got.picks[i].utility, want.picks[i].utility);
      }
    }
  }
}

// The pool certificate: a pick with utility strictly below the pool
// bound beats every out-of-pool tuple (score >= bound and the penalty
// only raises g), so certified picks never change as the pool grows --
// and a large lambda forces the engine to grow the pool before it can
// certify all k picks.
TEST(DiversifiedTest, PoolGrowsUntilCertificateCovers) {
  const PointSet points = GenerateIndependent(120, 2, 41);
  const Engines engines = BuildEngines(points);
  DiversifiedQuery query;
  query.weights = {0.5, 0.5};
  query.k = 4;
  query.lambda = 50.0;  // penalty dwarfs scores: picks flee the pool top
  query.pool_factor = 2;
  const DiversifiedResult got =
      DiversifiedTopK(engines.dl, engines.dl.points(), query);
  ASSERT_TRUE(got.complete());
  EXPECT_EQ(got.certified_prefix, got.picks.size());
  // The initial pool (pool_factor * k = 8) cannot certify under this
  // lambda; completion proves at least one doubling happened.
  EXPECT_GT(got.pool_size, query.pool_factor * query.k);
  for (const DiversifiedPick& pick : got.picks) {
    EXPECT_LT(pick.utility, got.pool_bound);
  }
  const DiversifiedResult want = DiversifiedTopKScan(points, query);
  for (std::size_t i = 0; i < want.picks.size(); ++i) {
    EXPECT_EQ(got.picks[i].id, want.picks[i].id) << i;
  }
}

// --- the box tree ---

// Datasets for the per-node soundness check: the three generators, an
// integer grid with exact duplicates, a constant attribute, rows on the
// edges of a uniform grid, and a relation too small for more than one
// leaf split.
std::vector<PointSet> CellDatasets(std::size_t d, std::uint64_t seed) {
  std::vector<PointSet> sets;
  for (const Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAnticorrelated}) {
    sets.push_back(Generate(dist, 1500, d, seed));
  }
  Rng rng(seed);
  PointSet grid(d);
  for (std::size_t i = 0; i < 800; ++i) {
    Point p(d);
    for (double& x : p) x = static_cast<double>(rng.Index(6));
    grid.Add(p);
    if (i % 5 == 0) grid.Add(p);
  }
  sets.push_back(std::move(grid));
  PointSet constant = Generate(Distribution::kIndependent, 900, d, seed + 1);
  for (std::size_t i = 0; i < constant.size(); ++i) constant.Set(i, 0, 0.25);
  sets.push_back(std::move(constant));
  // Coordinates i / G on [0, 1]: every row sits on a boundary of the
  // uniform G^d grid over 1,500 rows with G^d * 40 <= 1,500, for
  // d = 2..6.
  constexpr std::size_t kGrid[] = {0, 0, 6, 3, 2, 2, 1};
  const std::size_t g = kGrid[d];
  PointSet edges(d);
  for (std::size_t i = 0; i < 1200; ++i) {
    Point p(d);
    for (double& x : p) {
      x = static_cast<double>(rng.Index(g + 1)) / static_cast<double>(g);
    }
    edges.Add(p);
  }
  sets.push_back(std::move(edges));
  sets.push_back(Generate(Distribution::kAnticorrelated, 30, d, seed + 2));
  return sets;
}

// For every node b (internal and leaf), every member t, each probe s,
// each weight w and each query box, compared as computed doubles:
// Score(w, lo_b) <= Score(w, t), SimilarityFloor(lo_b, hi_b, s) <=
// Sim(t, s), and for in-box t the constrained key Score(w, max(lo_b,
// box.lo)) <= Score(w, t); a node whose box misses the query box holds
// no in-box member. Each is checked against the minimum over the
// node's members, which is exact. The structure passes CheckBoxTree.
void ExpectTreeFloorsHold(const PointSet& points, Rng& rng) {
  const std::size_t d = points.dim();
  const std::size_t n = points.size();
  const BoxTree tree = BoxTree::Build(points);
  const CheckReport structure = CheckBoxTree(tree, points);
  ASSERT_TRUE(structure.ok()) << "d=" << d << " n=" << n << ": "
                              << structure.ToString();
  std::vector<Point> probes;
  for (int q = 0; q < 6; ++q) {
    probes.push_back(points.Materialize(rng.Index(n)));
    Point outside(d);
    for (double& x : outside) x = rng.Uniform(-1.0, 7.0);
    probes.push_back(outside);
  }
  const std::vector<Point> weights = {rng.SimplexWeight(d),
                                      rng.SimplexWeight(d),
                                      Point(d, 1.0 / static_cast<double>(d))};
  // Boxes spanned by two rows, and one open below on every attribute.
  std::vector<AttributeBox> boxes;
  for (int q = 0; q < 3; ++q) {
    const PointView a = points[rng.Index(n)];
    const PointView b = points[rng.Index(n)];
    AttributeBox box = AttributeBox::All(d);
    for (std::size_t i = 0; i < d; ++i) {
      box.lo[i] = std::min(a[i], b[i]);
      box.hi[i] = std::max(a[i], b[i]);
    }
    boxes.push_back(box);
  }
  boxes.push_back(AttributeBox::All(d));
  boxes.back().hi = points.Materialize(rng.Index(n));

  // Per node, the minimum of `value` over its members; children follow
  // their parent, so one reverse pass fills every node.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto node_min = [&](const auto& value) {
    std::vector<double> mins(tree.num_nodes(), kInf);
    for (std::size_t node = tree.num_nodes(); node-- > 0;) {
      if (!tree.is_leaf(node)) {
        mins[node] =
            std::min(mins[tree.left(node)], mins[tree.left(node) + 1]);
        continue;
      }
      for (const TupleId t : tree.members(node)) {
        mins[node] = std::min(mins[node], value(points[t]));
      }
    }
    return mins;
  };
  Point corner(d);
  for (const Point& w : weights) {
    const std::vector<double> score =
        node_min([&](PointView t) { return Score(w, t); });
    for (std::size_t node = 0; node < tree.num_nodes(); ++node) {
      ASSERT_LE(Score(w, tree.lo(node)), score[node])
          << "d=" << d << " node " << node;
    }
    for (const AttributeBox& box : boxes) {
      const std::vector<double> boxed = node_min([&](PointView t) {
        return box.Contains(t) ? Score(w, t) : kInf;
      });
      for (std::size_t node = 0; node < tree.num_nodes(); ++node) {
        const PointView lo = tree.lo(node);
        if (!box.Intersects(lo, tree.hi(node))) {
          ASSERT_EQ(boxed[node], kInf) << "d=" << d << " node " << node;
          continue;
        }
        for (std::size_t i = 0; i < d; ++i) {
          corner[i] = std::max(lo[i], box.lo[i]);
        }
        ASSERT_LE(Score(w, corner), boxed[node])
            << "d=" << d << " node " << node;
      }
    }
  }
  for (const Point& s : probes) {
    const std::vector<double> similarity =
        node_min([&](PointView t) { return Similarity(t, s); });
    for (std::size_t node = 0; node < tree.num_nodes(); ++node) {
      ASSERT_LE(SimilarityFloor(tree.lo(node), tree.hi(node), s),
                similarity[node])
          << "d=" << d << " node " << node;
    }
  }
}

TEST(BoxTreeTest, FloorsHoldForEveryNodeAndMemberBitForBit) {
  for (std::size_t d = 2; d <= 6; ++d) {
    Rng rng(100 + d);
    for (const PointSet& points : CellDatasets(d, 200 + d)) {
      ExpectTreeFloorsHold(points, rng);
    }
  }
  // d = 20, 140k rows: a deep tree over many dimensions.
  Rng rng(120);
  ExpectTreeFloorsHold(Generate(Distribution::kIndependent, 140000, 20, 220),
                       rng);
}

void ExpectSameDiversified(const DiversifiedResult& got,
                           const DiversifiedResult& want,
                           const std::string& where) {
  ASSERT_EQ(got.picks.size(), want.picks.size()) << where;
  for (std::size_t i = 0; i < want.picks.size(); ++i) {
    EXPECT_EQ(got.picks[i].id, want.picks[i].id) << where << " pick " << i;
    EXPECT_EQ(got.picks[i].score, want.picks[i].score) << where;
    EXPECT_EQ(got.picks[i].utility, want.picks[i].utility) << where;
  }
}

// The engine equals the brute-force greedy; a DL+ index passed as a
// TopKIndex with its own relation (the index's box tree) and with an
// equal copy of it (a tree built on demand) agree on everything the
// replay of a traced run compares; and each certified pick's g is
// strictly below the true g of every tuple outside the pool at its
// step.
TEST(DiversifiedTest, CellCertificateMatchesScanAndIsSound) {
  const PointSet points = GenerateAnticorrelated(3000, 3, 47);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex dl = DualLayerIndex::Build(points, options);
  const TopKIndex& generic = dl;
  std::vector<ScoredTuple> ranked;
  Rng rng(53);
  for (const double lambda : {0.0, 0.1, 0.5, 2.0, 50.0}) {
    for (const std::size_t k : {1u, 10u, 50u}) {
      DiversifiedQuery query;
      query.weights = rng.SimplexWeight(3);
      query.k = k;
      query.lambda = lambda;
      const std::string where =
          "lambda=" + std::to_string(lambda) + " k=" + std::to_string(k);
      const DiversifiedResult want = DiversifiedTopKScan(points, query);
      const DiversifiedResult cached =
          DiversifiedTopK(generic, dl.points(), query);
      const DiversifiedResult on_demand =
          DiversifiedTopK(generic, points, query);
      ASSERT_TRUE(cached.complete()) << where;
      EXPECT_EQ(cached.certified_prefix, cached.picks.size()) << where;
      ExpectSameDiversified(cached, want, where);
      ExpectSameDiversified(on_demand, cached, where);
      EXPECT_EQ(on_demand.pool_size, cached.pool_size) << where;
      EXPECT_EQ(on_demand.pool_bound, cached.pool_bound) << where;
      EXPECT_EQ(on_demand.certified_prefix, cached.certified_prefix)
          << where;
      EXPECT_EQ(on_demand.stats.tuples_evaluated,
                cached.stats.tuples_evaluated)
          << where;
      EXPECT_EQ(on_demand.stats.virtual_evaluated,
                cached.stats.virtual_evaluated)
          << where;

      // A complete pool is the canonical top pool_size.
      ranked.clear();
      for (std::size_t i = 0; i < points.size(); ++i) {
        ranked.push_back(ScoredTuple{static_cast<TupleId>(i),
                                     Score(query.weights, points[i])});
      }
      std::sort(ranked.begin(), ranked.end(), ResultOrderLess);
      std::vector<double> penalty(points.size(), 0.0);
      for (std::size_t j = 0; j < cached.certified_prefix; ++j) {
        for (std::size_t r = cached.pool_size; r < ranked.size(); ++r) {
          const ScoredTuple& t = ranked[r];
          const double g = t.score + lambda * penalty[t.id];
          ASSERT_LT(cached.picks[j].utility, g)
              << where << " pick " << j << " outside tuple " << t.id;
        }
        const PointView chosen = points[cached.picks[j].id];
        for (std::size_t i = 0; i < points.size(); ++i) {
          penalty[i] = std::max(penalty[i], Similarity(points[i], chosen));
        }
      }
    }
  }
}

// The pool the score certificate alone needs: the doubling schedule's
// first top-m pool whose greedy has every utility below the m-th score
// (or m = n). The greedy over a top-m pool is the scan greedy over
// those rows, kept in id order so id ties break the same way.
std::size_t ScoreOnlyPool(const PointSet& points,
                          const DiversifiedQuery& query) {
  std::vector<ScoredTuple> ranked;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ranked.push_back(ScoredTuple{static_cast<TupleId>(i),
                                 Score(query.weights, points[i])});
  }
  std::sort(ranked.begin(), ranked.end(), ResultOrderLess);
  const std::size_t n = points.size();
  for (std::size_t m = std::min(n, query.pool_factor * query.k);;
       m = std::min(n, 2 * m)) {
    if (m == n) return n;
    std::vector<TupleId> ids;
    for (std::size_t r = 0; r < m; ++r) ids.push_back(ranked[r].id);
    std::sort(ids.begin(), ids.end());
    PointSet pool(points.dim());
    for (const TupleId id : ids) pool.Add(points[id]);
    const DiversifiedResult greedy = DiversifiedTopKScan(pool, query);
    if (std::all_of(greedy.picks.begin(), greedy.picks.end(),
                    [&](const DiversifiedPick& pick) {
                      return pick.utility < ranked[m - 1].score;
                    })) {
      return m;
    }
  }
}

// On anticorrelated data at lambda = 0.5 the score certificate needs
// most of the relation; the cell certificate stops well before.
TEST(DiversifiedTest, CellCertificateStopsOnASmallerPool) {
  const PointSet points = GenerateAnticorrelated(8000, 3, 59);
  const DualLayerIndex dl = DualLayerIndex::Build(points);
  DiversifiedQuery query;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 10;
  query.lambda = 0.5;
  const DiversifiedResult got = DiversifiedTopK(dl, dl.points(), query);
  ASSERT_TRUE(got.complete());
  const std::size_t score_only = ScoreOnlyPool(points, query);
  EXPECT_LT(got.pool_size, score_only);
  EXPECT_LT(got.pool_size, points.size() / 2);
  ExpectSameDiversified(got, DiversifiedTopKScan(points, query), "ant");
}

// The first pool of the doubling schedule whose greedy returns `want`:
// the greedy over a top-m pool is the scan greedy over those rows,
// kept in id order so id ties break the same way.
std::size_t FirstPoolHoldingTheAnswer(
    const PointSet& points, const DiversifiedQuery& query,
    const std::vector<DiversifiedPick>& want) {
  std::vector<ScoredTuple> ranked;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ranked.push_back(ScoredTuple{static_cast<TupleId>(i),
                                 Score(query.weights, points[i])});
  }
  std::sort(ranked.begin(), ranked.end(), ResultOrderLess);
  const std::size_t n = points.size();
  for (std::size_t m = std::min(n, query.pool_factor * query.k);;
       m = std::min(n, 2 * m)) {
    if (m == n) return n;
    std::vector<TupleId> ids;
    for (std::size_t r = 0; r < m; ++r) ids.push_back(ranked[r].id);
    std::sort(ids.begin(), ids.end());
    PointSet pool(points.dim());
    for (const TupleId id : ids) pool.Add(points[id]);
    const std::vector<DiversifiedPick> picks =
        DiversifiedTopKScan(pool, query).picks;
    if (std::equal(picks.begin(), picks.end(), want.begin(), want.end(),
                   [&](const DiversifiedPick& got,
                       const DiversifiedPick& pick) {
                     return ids[got.id] == pick.id;
                   })) {
      return m;
    }
  }
}

// The certificate is tight: the doubling stops at the first pool of
// its schedule whose greedy already equals the whole relation's, on
// both index-backed paths (the DL+ index's own tree and a tree built on
// demand).
TEST(DiversifiedTest, DoublingStopsAtFirstPoolHoldingTheAnswer) {
  for (const Distribution dist :
       {Distribution::kAnticorrelated, Distribution::kIndependent}) {
    for (std::size_t d = 2; d <= 4; ++d) {
      const PointSet points = Generate(dist, 3000, d, 80 + d);
      const DualLayerIndex dl = DualLayerIndex::Build(points);
      Rng rng(90 + d);
      for (const double lambda : {0.1, 0.5, 2.0, 10.0}) {
        for (const std::size_t k : {1u, 5u, 20u}) {
          for (int q = 0; q < 2; ++q) {
            DiversifiedQuery query;
            query.weights = rng.SimplexWeight(d);
            query.k = k;
            query.lambda = lambda;
            query.pool_factor = 2;
            const std::string where =
                std::string(dist == Distribution::kIndependent ? "ind"
                                                               : "ant") +
                " d=" + std::to_string(d) + " lambda=" +
                std::to_string(lambda) + " k=" + std::to_string(k) +
                " q=" + std::to_string(q);
            const DiversifiedResult want = DiversifiedTopKScan(points, query);
            const std::size_t first =
                FirstPoolHoldingTheAnswer(points, query, want.picks);
            for (const DiversifiedResult& got :
                 {DiversifiedTopK(dl, dl.points(), query),
                  DiversifiedTopK(dl, points, query)}) {
              ASSERT_TRUE(got.complete()) << where;
              ExpectSameDiversified(got, want, where);
              EXPECT_EQ(got.pool_size, first) << where;
            }
          }
        }
      }
    }
  }
}

// Exact g ties and budget cuts. On the integer grid with duplicates
// many rows tie on score and on every similarity, so g ties exactly
// and the id decides; the engine still equals the scan. Under an
// evaluation cap the pool may be partial, and only its certified
// prefix is the pool: the rows past it count as out of pool, so the
// certified picks stay a prefix of the scan's.
TEST(DiversifiedTest, TiesAndPartialPoolsCertifyTheScanPrefix) {
  for (std::size_t d = 2; d <= 4; ++d) {
    const PointSet points = CellDatasets(d, 300 + d)[3];
    const DualLayerIndex dl = DualLayerIndex::Build(points);
    // Dyadic weights score the integer grid exactly, so whole level
    // sets tie; random weights tie on duplicates.
    Point dyadic(d, 0.25);
    dyadic[d - 1] = 1.0 - 0.25 * static_cast<double>(d - 1);
    Rng rng(310 + d);
    std::vector<DiversifiedQuery> queries;
    for (const double lambda : {0.1, 0.5, 2.0}) {
      for (const std::size_t k : {1u, 5u, 20u}) {
        for (const Point& weights : {dyadic, rng.SimplexWeight(d)}) {
          DiversifiedQuery query;
          query.weights = weights;
          query.k = k;
          query.lambda = lambda;
          query.pool_factor = 2;
          queries.push_back(query);
        }
      }
    }
    bool saw_tie = false;
    bool saw_partial_certified = false;
    for (const DiversifiedQuery& query : queries) {
      const std::string where =
          "d=" + std::to_string(d) + " lambda=" +
          std::to_string(query.lambda) + " k=" + std::to_string(query.k) +
          " w0=" + std::to_string(query.weights[0]);
      const DiversifiedResult want = DiversifiedTopKScan(points, query);
      const DiversifiedResult full = DiversifiedTopK(dl, dl.points(), query);
      ASSERT_TRUE(full.complete()) << where;
      ExpectSameDiversified(full, want, where);
      ExpectSameDiversified(DiversifiedTopK(dl, points, query), want,
                            where + " on-demand tree");
      // Some row not yet picked has exactly the g of the pick.
      std::vector<double> penalty(points.size(), 0.0);
      std::vector<char> taken(points.size(), 0);
      for (const DiversifiedPick& pick : want.picks) {
        taken[pick.id] = 1;
        for (std::size_t i = 0; i < points.size(); ++i) {
          const double g =
              Score(query.weights, points[i]) + query.lambda * penalty[i];
          saw_tie |= !taken[i] && g == pick.utility;
        }
        for (std::size_t i = 0; i < points.size(); ++i) {
          penalty[i] =
              std::max(penalty[i], Similarity(points[i], points[pick.id]));
        }
      }

      const std::size_t full_cost = full.stats.tuples_evaluated;
      for (std::size_t cut = 1; cut <= full_cost; cut += 1 + cut / 3) {
        DiversifiedQuery budgeted = query;
        budgeted.budget.max_evals = cut;
        const DiversifiedResult got =
            DiversifiedTopK(dl, dl.points(), budgeted);
        const std::string at = where + " cut=" + std::to_string(cut);
        ASSERT_LE(got.certified_prefix, got.picks.size()) << at;
        ASSERT_LE(got.certified_prefix, want.picks.size()) << at;
        saw_partial_certified |= !got.complete() && got.certified_prefix > 0;
        for (std::size_t i = 0; i < got.certified_prefix; ++i) {
          EXPECT_EQ(got.picks[i].id, want.picks[i].id) << at;
          EXPECT_EQ(got.picks[i].utility, want.picks[i].utility) << at;
        }
      }
    }
    EXPECT_TRUE(saw_tie) << "d=" << d;
    EXPECT_TRUE(saw_partial_certified) << "d=" << d;
  }
}

// The greedy as it ran over row-major points before the dimension-major
// rewrite: one Similarity call per untaken candidate per pick, a taken
// flag, the (g, id) tie-break. The engine and DiversifiedTopKScan share
// the library's greedy, so this copy is its only independent check.
std::vector<DiversifiedPick> ReferenceGreedy(
    const PointSet& points, const std::vector<ScoredTuple>& pool,
    double lambda, std::size_t k) {
  std::vector<DiversifiedPick> picks;
  std::vector<double> penalty(pool.size(), 0.0);
  std::vector<char> taken(pool.size(), 0);
  while (picks.size() < k) {
    std::size_t best = pool.size();
    double best_g = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      const double g = pool[i].score + lambda * penalty[i];
      if (best == pool.size() || g < best_g ||
          (g == best_g && pool[i].id < pool[best].id)) {
        best = i;
        best_g = g;
      }
    }
    if (best == pool.size()) break;
    taken[best] = 1;
    picks.push_back(DiversifiedPick{pool[best].id, pool[best].score, best_g});
    const PointView chosen = points[pool[best].id];
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      penalty[i] =
          std::max(penalty[i], Similarity(points[pool[i].id], chosen));
    }
  }
  return picks;
}

void ExpectSamePicks(const std::vector<DiversifiedPick>& got,
                     const std::vector<DiversifiedPick>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " pick " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " pick " << i;
    EXPECT_EQ(got[i].utility, want[i].utility) << what << " pick " << i;
  }
}

// `n` random rows in which every third row repeats an earlier one: a
// duplicate ties its twin's score and every similarity, so g ties
// exactly and the id decides.
PointSet RowsWithDuplicates(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(d);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 2) {
      points.Add(points.Materialize(rng.Index(i)));
      continue;
    }
    Point row(d);
    for (double& x : row) x = rng.Uniform();
    points.Add(row);
  }
  return points;
}

// The library greedy equals the reference bit for bit on both kernel
// targets: over whole relations of every size 1..17 (the scan's pool)
// and over the final pools of real DL+ runs.
TEST(DiversifiedTest, GreedyMatchesRowMajorReferenceBitwise) {
  for (const bool force_scalar : {false, true}) {
    ForceScalarKernels(force_scalar);
    const std::string target = force_scalar ? "scalar" : "dispatched";
    for (const double lambda : {0.0, 0.5, 2.0}) {
      for (std::size_t m = 1; m <= 17; ++m) {
        const std::size_t d = 2 + m % 4;
        const PointSet points = RowsWithDuplicates(m, d, 70 + m);
        Rng rng(170 + m);
        DiversifiedQuery query;
        query.weights = rng.SimplexWeight(d);
        query.k = m;
        query.lambda = lambda;
        std::vector<ScoredTuple> pool;
        for (std::size_t i = 0; i < m; ++i) {
          pool.push_back(ScoredTuple{static_cast<TupleId>(i),
                                     Score(query.weights, points[i])});
        }
        std::sort(pool.begin(), pool.end(), ResultOrderLess);
        ExpectSamePicks(DiversifiedTopKScan(points, query).picks,
                        ReferenceGreedy(points, pool, lambda, m),
                        target + " m=" + std::to_string(m) +
                            " lambda=" + std::to_string(lambda));
      }
      const PointSet points = RowsWithDuplicates(3000, 3, 71);
      const DualLayerIndex dl = DualLayerIndex::Build(points);
      Rng rng(171);
      for (int q = 0; q < 4; ++q) {
        DiversifiedQuery query;
        query.weights = rng.SimplexWeight(3);
        query.k = 10;
        query.lambda = lambda;
        const DiversifiedResult got =
            DiversifiedTopK(dl, dl.points(), query);
        ASSERT_TRUE(got.complete());
        const TopKResult pool = dl.Query(TopKQuery{query.weights,
                                                   got.pool_size});
        ASSERT_EQ(pool.items.size(), got.pool_size);
        ExpectSamePicks(got.picks,
                        ReferenceGreedy(points, pool.items, lambda, query.k),
                        target + " dl+ q=" + std::to_string(q) +
                            " lambda=" + std::to_string(lambda));
      }
    }
  }
  ForceScalarKernels(false);
}

// pool_factor is client-supplied: a product pool_factor * k past n
// asks for the whole relation at once instead of wrapping to a small
// first pool.
TEST(DiversifiedTest, HugePoolFactorSaturatesAtTheRelation) {
  const PointSet points = GenerateIndependent(200, 3, 73);
  const DualLayerIndex dl = DualLayerIndex::Build(points);
  DiversifiedQuery query;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 8;
  query.lambda = 0.5;
  query.pool_factor = std::size_t{1} << 62;  // times 8 wraps to 0
  const DiversifiedResult got = DiversifiedTopK(dl, dl.points(), query);
  ASSERT_TRUE(got.complete());
  EXPECT_EQ(got.pool_size, points.size());
  EXPECT_EQ(got.stats.tuples_evaluated, points.size());
  ExpectSamePicks(got.picks, DiversifiedTopKScan(points, query).picks,
                  "pool_factor 2^62");
}

// --- reverse top-k ---

TEST(ReverseTopKTest, FastPathMatchesSweepForK1) {
  const PointSet points = GenerateIndependent(100, 2, 43);
  const Engines engines = BuildEngines(points);
  ASSERT_TRUE(engines.dl.uses_weight_table());
  for (TupleId target = 0; target < points.size(); ++target) {
    ReverseTopKQuery query;
    query.target = target;
    query.k = 1;
    const ReverseTopKResult got = ReverseTopK2D(engines.dl, query);
    const ReverseTopKResult want = ReverseTopK2DScan(points, query);
    ASSERT_EQ(got.intervals.size(), want.intervals.size())
        << "target " << target;
    for (std::size_t i = 0; i < want.intervals.size(); ++i) {
      EXPECT_NEAR(got.intervals[i].lo, want.intervals[i].lo, 1e-9);
      EXPECT_NEAR(got.intervals[i].hi, want.intervals[i].hi, 1e-9);
    }
    if (engines.dl.coarse_layer_of(target) == 0) {
      EXPECT_TRUE(got.used_weight_table) << "target " << target;
    } else {
      // Deeper than layer 0: top-1 is empty, certified at zero cost.
      EXPECT_TRUE(got.intervals.empty());
      EXPECT_EQ(got.stats.tuples_evaluated, 0u);
    }
  }
}

TEST(ReverseTopKTest, LayerRestrictedSweepMatchesFullSweep) {
  const PointSet points = GenerateIndependent(70, 2, 47);
  const Engines engines = BuildEngines(points);
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    for (TupleId target = 0; target < points.size(); ++target) {
      ReverseTopKQuery query;
      query.target = target;
      query.k = k;
      const ReverseTopKResult got = ReverseTopK2D(engines.dl, query);
      const ReverseTopKResult want = ReverseTopK2DScan(points, query);
      ASSERT_EQ(got.intervals.size(), want.intervals.size())
          << "k=" << k << " target=" << target;
      for (std::size_t i = 0; i < want.intervals.size(); ++i) {
        EXPECT_NEAR(got.intervals[i].lo, want.intervals[i].lo, 1e-9);
        EXPECT_NEAR(got.intervals[i].hi, want.intervals[i].hi, 1e-9);
      }
      // Acceleration: the restricted pool never exceeds the relation,
      // and deep targets cost nothing at all.
      EXPECT_LE(got.stats.tuples_evaluated, want.stats.tuples_evaluated);
      if (engines.dl.coarse_layer_of(target) >= k) {
        EXPECT_EQ(got.stats.tuples_evaluated, 0u);
        EXPECT_TRUE(got.intervals.empty());
      }
    }
  }
}

TEST(ReverseTopKTest, RejectsNon2DAndBadTargets) {
  const PointSet points3 = GenerateIndependent(20, 3, 53);
  DualLayerOptions opts;
  opts.build_zero_layer = true;
  const DualLayerIndex index3 = DualLayerIndex::Build(points3, opts);
  ReverseTopKQuery query;
  query.target = 0;
  query.k = 1;
  EXPECT_EQ(ReverseTopK2D(index3, query).termination,
            Termination::kInvalidQuery);

  const PointSet points2 = GenerateIndependent(20, 2, 53);
  const DualLayerIndex index2 = DualLayerIndex::Build(points2, opts);
  query.target = 99;  // out of range
  EXPECT_EQ(ReverseTopK2D(index2, query).termination,
            Termination::kInvalidQuery);
  query.target = 0;
  query.k = 0;  // top-0 is empty for everyone
  const ReverseTopKResult empty = ReverseTopK2D(index2, query);
  EXPECT_TRUE(empty.complete());
  EXPECT_TRUE(empty.intervals.empty());
}

// --- scenario oracle smoke (the fuzz suite runs it at scale) ---

TEST(ScenarioOracleTest, CleanOnRandomDatasets) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const PointSet points =
        GenerateIndependent(60 + 7 * seed, 2 + seed % 3, seed);
    const std::vector<std::string> failures =
        CheckScenarioFamilies(points, seed);
    EXPECT_TRUE(failures.empty())
        << "seed " << seed << ": " << failures.front();
  }
}

// --- batch wall-clock accounting ---

TEST(BatchStatsTest, WallClockIsNotTheSumOfPerQueryClocks) {
  const PointSet points = GenerateIndependent(400, 3, 59);
  DualLayerOptions opts;
  opts.build_zero_layer = true;
  const DualLayerIndex index = DualLayerIndex::Build(points, opts);
  Rng rng(59);
  std::vector<TopKQuery> queries(64);
  for (TopKQuery& query : queries) {
    query.weights = rng.SimplexWeight(3);
    query.k = 10;
  }
  BatchStats stats;
  const std::vector<TopKResult> results = index.QueryBatch(queries, &stats);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_GT(stats.wall_seconds, 0.0);

  double query_seconds = 0.0;
  std::size_t evaluated = 0;
  for (const TopKResult& result : results) {
    query_seconds += result.stats.elapsed_seconds;
    evaluated += result.stats.tuples_evaluated;
    EXPECT_TRUE(result.complete());
  }
  // merged is the Merge of every per-query QueryStats...
  EXPECT_EQ(stats.merged.tuples_evaluated, evaluated);
  EXPECT_DOUBLE_EQ(stats.merged.elapsed_seconds, query_seconds);
  // ...whose elapsed sum is aggregate query-seconds, NOT the batch
  // wall clock the QPS math needs. (With parallel workers the sum
  // typically exceeds the wall clock; equality would mean a serial
  // batch, which this overload does not request.)
  EXPECT_NE(stats.merged.elapsed_seconds, stats.wall_seconds);
}

// --- tombstone compaction floor ---

TEST(TieredTombstoneFloorTest, FloorKeepsSmallIndexesUncompacted) {
  // 24 live rows in sealed runs, then erase 20: far over the 50%
  // fraction but far under the default floor of 64 tombstones.
  const auto build = [](std::size_t floor_value) {
    TieredIndexOptions options;
    options.memtable_capacity = 8;
    options.fanout = 64;  // keep size-tiered merges out of the way
    options.tombstone_compact_min = floor_value;
    TieredDualLayerIndex index(2, options);
    Rng rng(61);
    std::vector<TupleId> ids;
    for (int i = 0; i < 24; ++i) {
      Point p{rng.Uniform(), rng.Uniform()};
      ids.push_back(index.Insert(PointView(p)));
    }
    index.SealMemtable();
    for (std::size_t i = 0; i < 20; ++i) index.Erase(ids[i]);
    // Give the scheduler every chance to start and finish merges.
    for (int i = 0; i < 64; ++i) index.CompactStep();
    return index.tombstone_count();
  };
  // Default floor: 20 tombstones stay below max(64, 0.5 * rows) --
  // the historical behaviour, now an option.
  EXPECT_EQ(build(64), 20u);
  // Floor disabled: the 50% fraction alone governs, and the erase
  // storm triggers full merges that drop every consumed tombstone.
  // (Any residual is one that fell back under the fraction of the
  // shrunken index -- strictly below the fraction cap, never 20.)
  EXPECT_LE(build(0), 2u);
}

}  // namespace
}  // namespace drli
