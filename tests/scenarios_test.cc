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
#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "scenarios/reverse_topk.h"
#include "shard/sharded_index.h"
#include "test_util.h"
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
  const DiversifiedResult got = DiversifiedTopK(engines.dl, points, query);
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
         {DiversifiedTopK(engines.dl, points, query),
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
  const DiversifiedResult got = DiversifiedTopK(engines.dl, points, query);
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

// --- the cell certificate ---

// Datasets for the per-cell soundness check: the three generators, an
// integer grid with exact duplicates, a constant attribute, rows on the
// cell edges of the grid, and a relation too small for more than one
// cell.
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
  // Coordinates i / G on [0, 1]: every row sits on a cell boundary.
  const std::size_t g = RelationCells::Build(sets.front()).grid;
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

// Every member t of cell c and every s: Score(w, lo_c) <= Score(w, t)
// and Sim(far_c(s), s) <= Sim(t, s), compared as computed doubles. G
// is the largest grid with G^d * 40 <= n (or 1), so the slot table
// never exceeds max(1, n / 40) entries.
void ExpectCellFloorsHold(const PointSet& points, Rng& rng) {
  const std::size_t d = points.dim();
  const std::size_t n = points.size();
  const RelationCells cells = RelationCells::Build(points);
  std::size_t slots = 1;
  std::size_t next_slots = 1;
  for (std::size_t i = 0; i < d; ++i) {
    slots *= cells.grid;
    next_slots *= cells.grid + 1;
  }
  ASSERT_EQ(cells.cell_of_slot.size(), slots) << "d=" << d << " n=" << n;
  ASSERT_LE(slots * 40, std::max<std::size_t>(n, 40)) << "d=" << d;
  ASSERT_GT(next_slots * 40, n) << "d=" << d;
  if (n < 40) {
    ASSERT_EQ(cells.num_cells(), 1u);
  }
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
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t c = cells.CellOf(points[t]);
    ASSERT_LT(c, cells.num_cells());
    for (const Point& w : weights) {
      ASSERT_LE(Score(w, cells.cell_lo(c)), Score(w, points[t]))
          << "d=" << d << " tuple " << t;
    }
    for (const Point& s : probes) {
      ASSERT_LE(cells.SimilarityFloor(c, s), Similarity(points[t], s))
          << "d=" << d << " tuple " << t;
    }
  }
}

TEST(RelationCellsTest, CellFloorsHoldForEveryMemberBitForBit) {
  for (std::size_t d = 2; d <= 6; ++d) {
    Rng rng(100 + d);
    for (const PointSet& points : CellDatasets(d, 200 + d)) {
      ExpectCellFloorsHold(points, rng);
    }
  }
  // d = 20 with (n / 40)^(1/d) just above 1.5: rounding to the nearest
  // G would give 2^20 slots for 3,500 cells' worth of rows.
  Rng rng(120);
  ExpectCellFloorsHold(Generate(Distribution::kIndependent, 140000, 20, 220),
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

// The engine equals the brute-force greedy; the cached-catalog and the
// on-demand overloads agree on everything the replay of a traced run
// compares; and each certified pick's g is strictly below the true g
// of every tuple outside the pool at its step.
TEST(DiversifiedTest, CellCertificateMatchesScanAndIsSound) {
  const PointSet points = GenerateAnticorrelated(3000, 3, 47);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex dl = DualLayerIndex::Build(points, options);
  const RelationCells cells = RelationCells::Build(points);
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
          DiversifiedTopK(dl, points, query, cells);
      const DiversifiedResult on_demand = DiversifiedTopK(dl, points, query);
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
  const DiversifiedResult got = DiversifiedTopK(dl, points, query);
  ASSERT_TRUE(got.complete());
  const std::size_t score_only = ScoreOnlyPool(points, query);
  EXPECT_LT(got.pool_size, score_only);
  EXPECT_LT(got.pool_size, points.size() / 2);
  ExpectSameDiversified(got, DiversifiedTopKScan(points, query), "ant");
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
