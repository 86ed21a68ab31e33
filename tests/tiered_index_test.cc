// Tiered (LSM-style) dynamic index: seal / compaction state machine,
// multi-run merge correctness against a brute-force mirror, id
// stability across compactions, tombstone masking, budgeted queries
// certifying against multi-run frontiers, and the deterministic
// query-mid-compaction interleaving contract (queries between
// CompactStep calls always see the pre-merge generation and never
// block on the merge).

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/partition_merge.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "test_util.h"
#include "topk/query.h"

namespace drli {
namespace {

// Brute-force oracle over the live (id -> row) map, canonical order.
std::vector<ScoredTuple> ExactTopK(const std::map<TupleId, Point>& live,
                                   const TopKQuery& query) {
  std::vector<ScoredTuple> all;
  all.reserve(live.size());
  for (const auto& [id, row] : live) {
    all.push_back({id, Score(PointView(query.weights.data(),
                                       query.weights.size()),
                             PointView(row.data(), row.size()))});
  }
  std::sort(all.begin(), all.end(), ResultOrderLess);
  if (all.size() > query.k) all.resize(query.k);
  return all;
}

void ExpectExact(const TieredDualLayerIndex& index,
                 const std::map<TupleId, Point>& live, std::size_t k,
                 const char* where) {
  Rng rng(7);
  for (std::size_t q = 0; q < 6; ++q) {
    TopKQuery query;
    query.weights = rng.SimplexWeight(index.dim());
    query.k = k;
    const std::vector<ScoredTuple> want = ExactTopK(live, query);
    const TopKResult got = index.Query(query);
    ASSERT_TRUE(got.complete()) << where << ": " << got.error;
    ASSERT_EQ(got.items.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.items[i].id, want[i].id) << where << " rank " << i;
      EXPECT_DOUBLE_EQ(got.items[i].score, want[i].score)
          << where << " rank " << i;
    }
  }
}

Point RandomRow(Rng& rng, std::size_t d) {
  Point row(d);
  for (double& x : row) x = rng.Uniform();
  return row;
}

TieredIndexOptions SmallRuns() {
  TieredIndexOptions options;
  options.memtable_capacity = 8;
  options.fanout = 2;
  options.auto_compact = false;  // tests drive the state machine
  return options;
}

TEST(TieredIndexTest, InsertsSpanRunsAndStayExact) {
  TieredDualLayerIndex index(3, SmallRuns());
  std::map<TupleId, Point> live;
  Rng rng(11);
  for (std::size_t i = 0; i < 60; ++i) {
    const Point row = RandomRow(rng, 3);
    live[index.Insert(PointView(row.data(), row.size()))] = row;
  }
  EXPECT_GE(index.num_runs(), 4u);  // 60 rows / memtable of 8
  EXPECT_GT(index.memtable_size(), 0u);
  EXPECT_EQ(index.size(), live.size());
  ExpectExact(index, live, 5, "multi-run");
  ExpectExact(index, live, 60, "k = n");
}

TEST(TieredIndexTest, SealAndCompactPreserveAnswers) {
  TieredDualLayerIndex index(2, SmallRuns());
  std::map<TupleId, Point> live;
  Rng rng(13);
  for (std::size_t i = 0; i < 40; ++i) {
    const Point row = RandomRow(rng, 2);
    live[index.Insert(PointView(row.data(), row.size()))] = row;
  }
  index.SealMemtable();
  EXPECT_EQ(index.memtable_size(), 0u);
  ExpectExact(index, live, 7, "sealed");
  const std::uint64_t generation = index.generation();
  index.Compact();
  EXPECT_LE(index.num_runs(), 1u);
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_GT(index.generation(), generation);
  ExpectExact(index, live, 7, "compacted");
}

// Queries issued between CompactStep calls must return the exact
// answer at every phase of the merge (the pre-merge generation stays
// queryable until kInstalled swaps atomically) -- the "queries never
// block on compaction" contract, exercised deterministically.
TEST(TieredIndexTest, QueryMidCompactionSeesConsistentGeneration) {
  TieredIndexOptions options = SmallRuns();
  options.compact_rows_per_step = 4;  // many merge steps per job
  TieredDualLayerIndex index(3, options);
  std::map<TupleId, Point> live;
  Rng rng(17);
  for (std::size_t i = 0; i < 48; ++i) {
    const Point row = RandomRow(rng, 3);
    live[index.Insert(PointView(row.data(), row.size()))] = row;
  }
  index.SealMemtable();
  const std::size_t runs_before = index.num_runs();
  ASSERT_GE(runs_before, 2u);
  std::size_t steps = 0;
  std::size_t mid_phase_queries = 0;
  while (true) {
    const CompactProgress progress = index.CompactStep();
    if (progress == CompactProgress::kIdle) break;
    ++steps;
    // The merge is mid-flight: answers must already be exact, and the
    // pre-install phases must not have mutated the visible run set.
    if (progress != CompactProgress::kInstalled) {
      EXPECT_EQ(index.num_runs(), runs_before) << "merge leaked early";
      ++mid_phase_queries;
    }
    ExpectExact(index, live, 5, "mid-compaction");
    ASSERT_LT(steps, 1000u) << "compaction does not terminate";
  }
  EXPECT_GT(mid_phase_queries, 2u) << "merge completed in one step; the "
                                      "interleaving was never exercised";
  EXPECT_LT(index.num_runs(), runs_before);
  ExpectExact(index, live, 5, "post-compaction");
}

TEST(TieredIndexTest, EraseThenReinsertKeepsIdsStableAcrossCompactions) {
  TieredDualLayerIndex index(2, SmallRuns());
  std::map<TupleId, Point> live;
  Rng rng(19);
  std::vector<TupleId> ids;
  for (std::size_t i = 0; i < 30; ++i) {
    const Point row = RandomRow(rng, 2);
    const TupleId id = index.Insert(PointView(row.data(), row.size()));
    live[id] = row;
    ids.push_back(id);
  }
  // Erase a third, remember their rows, re-insert the same rows: the
  // new copies must get fresh ids (never reused), and the old ids must
  // stay dead forever -- across an intervening full compaction.
  std::vector<std::pair<TupleId, Point>> erased;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    erased.push_back({ids[i], live[ids[i]]});
    ASSERT_TRUE(index.Erase(ids[i]));
    live.erase(ids[i]);
  }
  index.Compact();
  for (const auto& [old_id, row] : erased) {
    const TupleId fresh = index.Insert(PointView(row.data(), row.size()));
    EXPECT_GT(fresh, old_id) << "stable id reused";
    EXPECT_FALSE(index.Contains(old_id));
    EXPECT_TRUE(index.Contains(fresh));
    live[fresh] = row;
  }
  index.Compact();
  for (const auto& [old_id, row] : erased) {
    EXPECT_FALSE(index.Contains(old_id)) << "erased id resurrected";
  }
  EXPECT_EQ(index.size(), live.size());
  ExpectExact(index, live, 9, "after erase/reinsert/compact");
}

TEST(TieredIndexTest, KLargerThanLiveSizeWithTombstones) {
  TieredDualLayerIndex index(3, SmallRuns());
  std::map<TupleId, Point> live;
  Rng rng(23);
  std::vector<TupleId> ids;
  for (std::size_t i = 0; i < 25; ++i) {
    const Point row = RandomRow(rng, 3);
    const TupleId id = index.Insert(PointView(row.data(), row.size()));
    live[id] = row;
    ids.push_back(id);
  }
  index.SealMemtable();
  for (std::size_t i = 0; i < ids.size(); i += 2) {  // tombstone most rows
    ASSERT_TRUE(index.Erase(ids[i]));
    live.erase(ids[i]);
  }
  EXPECT_GT(index.tombstone_count(), 0u);
  // k far beyond the live count: every live tuple comes back exactly
  // once, no tombstoned id leaks.
  TopKQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 1000;
  const TopKResult result = index.Query(query);
  ASSERT_TRUE(result.complete()) << result.error;
  EXPECT_EQ(result.items.size(), live.size());
  for (const ScoredTuple& item : result.items) {
    EXPECT_TRUE(live.count(item.id)) << "dead id " << item.id << " returned";
  }
  // The constrained merge over the same runs: the whole space gives the
  // plain answer, and a half-space box only live in-box rows.
  ConstrainedQuery constrained;
  constrained.weights = query.weights;
  constrained.k = query.k;
  constrained.box = AttributeBox::All(3);
  const TopKResult all = ConstrainedTopK(index, constrained);
  ASSERT_TRUE(all.complete()) << all.error;
  ASSERT_EQ(all.items.size(), result.items.size());
  for (std::size_t i = 0; i < all.items.size(); ++i) {
    EXPECT_EQ(all.items[i].id, result.items[i].id) << "rank " << i;
  }
  constrained.box.hi[0] = 0.5;
  const TopKResult half = ConstrainedTopK(index, constrained);
  ASSERT_TRUE(half.complete()) << half.error;
  std::size_t in_box = 0;
  for (const auto& [id, row] : live) in_box += row[0] <= 0.5 ? 1 : 0;
  EXPECT_EQ(half.items.size(), in_box);
  for (const ScoredTuple& item : half.items) {
    EXPECT_TRUE(live.count(item.id)) << "dead id " << item.id << " returned";
    EXPECT_LE(live.at(item.id)[0], 0.5) << "id " << item.id;
  }
  ExpectExact(index, live, live.size() + 5, "k > live");
}

// Each run is asked for min(|run|, k) items, its tombstoned members
// retired in it; for k near SIZE_MAX that is the run size. Plain and
// constrained queries at k past the live count return every live
// tuple, in canonical order, complete.
TEST(TieredIndexTest, HugeKReturnsEveryLiveTuple) {
  const std::size_t n = 1000;
  TieredIndexOptions options = SmallRuns();
  options.memtable_capacity = 256;
  TieredDualLayerIndex index(3, options);
  std::map<TupleId, Point> live;
  std::vector<TupleId> ids;
  Rng rng(31);
  for (std::size_t i = 0; i < n; ++i) {
    const Point row = RandomRow(rng, 3);
    ids.push_back(index.Insert(PointView(row.data(), row.size())));
    live[ids.back()] = row;
  }
  index.SealMemtable();
  for (const std::size_t pos : {3, 170, 401, 650, 999}) {
    ASSERT_TRUE(index.Erase(ids[pos]));
    live.erase(ids[pos]);
  }
  ASSERT_EQ(index.tombstone_count(), 5u);
  ASSERT_GT(index.num_runs(), 1u);
  const Point weights = {0.2, 0.3, 0.5};
  const std::vector<ScoredTuple> want =
      ExactTopK(live, TopKQuery{weights, live.size()});
  ASSERT_EQ(want.size(), n - 5);
  const auto expect_all_live = [&](const TopKResult& got, std::size_t k,
                                   const char* what) {
    ASSERT_TRUE(got.complete()) << what << " k=" << k << ": " << got.error;
    EXPECT_EQ(got.certified_prefix, got.items.size()) << what;
    ASSERT_EQ(got.items.size(), want.size()) << what << " k=" << k;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.items[i].id, want[i].id) << what << " rank " << i;
      EXPECT_EQ(got.items[i].score, want[i].score) << what << " rank " << i;
    }
  };
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  for (const std::size_t k : {max, max - 2, n + 1}) {
    expect_all_live(index.Query(TopKQuery{weights, k}), k, "plain");
    ConstrainedQuery constrained;
    constrained.weights = weights;
    constrained.k = k;
    constrained.box = AttributeBox::All(3);
    expect_all_live(ConstrainedTopK(index, constrained), k, "constrained");
  }
}

// Tombstoned members are retired inside their run, so erasing rows a
// read never scored leaves that read -- plain or constrained -- exactly
// as it was: same answer, same cost, same runs opened.
TEST(TieredIndexTest, ErasingUnreachedRowsLeavesReadsUnchanged) {
  TieredIndexOptions options;
  options.memtable_capacity = 200;
  options.auto_compact = false;
  TieredDualLayerIndex index(GenerateAnticorrelated(3000, 4, 81), options);
  Rng rng(82);
  for (std::size_t i = 0; i < 700; ++i) {
    const Point row = RandomRow(rng, 4);
    index.Insert(PointView(row.data(), row.size()));
  }
  ASSERT_GE(index.num_runs(), 3u);
  const std::vector<TopKQuery> plain =
      testing_util::RandomQueries(4, 10, 8, 83);
  std::vector<ConstrainedQuery> constrained;
  for (const TopKQuery& query : plain) {
    ConstrainedQuery c;
    c.weights = query.weights;
    c.k = query.k;
    c.box = AttributeBox::All(4);
    c.box.hi[1] = 0.6;
    constrained.push_back(c);
  }
  const auto run_reads = [&] {
    std::vector<TopKResult> reads;
    for (const TopKQuery& query : plain) reads.push_back(index.Query(query));
    for (const ConstrainedQuery& query : constrained) {
      reads.push_back(ConstrainedTopK(index, query));
    }
    return reads;
  };
  const std::vector<TopKResult> before = run_reads();
  std::vector<char> touched(index.next_id(), 0);
  for (const TopKResult& read : before) {
    for (const TupleId id : read.accessed) touched[id] = 1;
  }
  std::vector<TupleId> victims;
  for (std::size_t r = 0; r < index.num_runs(); ++r) {
    for (const TupleId id : index.run(r).ids) {
      if (touched[id] == 0 && id % 2 == 0) victims.push_back(id);
    }
  }
  for (const TupleId id : victims) ASSERT_TRUE(index.Erase(id));
  ASSERT_GT(index.tombstone_count(), 1000u);
  const std::vector<TopKResult> after = run_reads();
  for (std::size_t q = 0; q < before.size(); ++q) {
    ASSERT_TRUE(after[q].complete()) << "read " << q << ": " << after[q].error;
    ASSERT_EQ(after[q].items.size(), before[q].items.size()) << "read " << q;
    for (std::size_t i = 0; i < before[q].items.size(); ++i) {
      EXPECT_EQ(after[q].items[i].id, before[q].items[i].id)
          << "read " << q << " rank " << i;
      EXPECT_EQ(after[q].items[i].score, before[q].items[i].score)
          << "read " << q << " rank " << i;
    }
    EXPECT_EQ(after[q].stats.tuples_evaluated,
              before[q].stats.tuples_evaluated)
        << "read " << q;
    EXPECT_EQ(after[q].stats.runs_opened, before[q].stats.runs_opened)
        << "read " << q;
    EXPECT_EQ(after[q].accessed, before[q].accessed) << "read " << q;
  }
}

TEST(TieredIndexTest, AllTombstonedRunsAndEmptyMemtable) {
  TieredDualLayerIndex index(2, SmallRuns());
  std::vector<TupleId> ids;
  Rng rng(29);
  for (std::size_t i = 0; i < 16; ++i) {
    const Point row = RandomRow(rng, 2);
    ids.push_back(index.Insert(PointView(row.data(), row.size())));
  }
  index.SealMemtable();  // everything indexed, memtable empty
  for (const TupleId id : ids) ASSERT_TRUE(index.Erase(id));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_GT(index.num_runs(), 0u);  // runs still hold the dead rows
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 3;
  const TopKResult result = index.Query(query);
  ASSERT_TRUE(result.complete()) << result.error;
  EXPECT_TRUE(result.items.empty());
  // Compaction over fully-dead runs collapses to nothing.
  index.Compact();
  EXPECT_EQ(index.num_runs(), 0u);
  EXPECT_EQ(index.tombstone_count(), 0u);
  // Double-erase and unknown ids are recoverable no-ops.
  EXPECT_FALSE(index.Erase(ids.front()));
  EXPECT_FALSE(index.Erase(123456u));
}

// Budgeted query over a genuinely multi-run shape: the certified
// prefix must be an exact prefix of the brute-force answer, and the
// frontier bound must bound every unreturned live tuple -- the bound
// here is a min over per-run frontiers plus surviving heap keys.
TEST(TieredIndexTest, BudgetedQueryCertifiesAgainstMultiRunFrontier) {
  TieredDualLayerIndex index(3, SmallRuns());
  std::map<TupleId, Point> live;
  Rng rng(31);
  for (std::size_t i = 0; i < 64; ++i) {
    const Point row = RandomRow(rng, 3);
    live[index.Insert(PointView(row.data(), row.size()))] = row;
  }
  ASSERT_GE(index.num_runs(), 4u);
  TopKQuery query;
  query.weights = {0.4, 0.3, 0.3};
  query.k = 10;
  const std::vector<ScoredTuple> exact = ExactTopK(live, query);
  std::size_t partials = 0;
  for (std::size_t budget = 1; budget <= 40; ++budget) {
    TopKQuery budgeted = query;
    budgeted.budget.max_evals = budget;
    const TopKResult result = index.Query(budgeted);
    if (result.complete()) {
      ASSERT_EQ(result.items.size(), exact.size());
      continue;
    }
    ++partials;
    EXPECT_EQ(result.termination, Termination::kStepBudget);
    ASSERT_LE(result.certified_prefix, result.items.size());
    for (std::size_t i = 0; i < result.certified_prefix; ++i) {
      EXPECT_EQ(result.items[i].id, exact[i].id) << "budget " << budget;
      EXPECT_DOUBLE_EQ(result.items[i].score, exact[i].score);
    }
    // Every unreturned live tuple scores >= the frontier bound.
    for (const auto& [id, row] : live) {
      bool returned = false;
      for (const ScoredTuple& item : result.items) {
        if (item.id == id) { returned = true; break; }
      }
      if (returned) continue;
      const double score =
          Score(PointView(query.weights.data(), query.weights.size()),
                PointView(row.data(), row.size()));
      EXPECT_GE(score, result.frontier_bound)
          << "budget " << budget << " id " << id;
    }
  }
  EXPECT_GT(partials, 0u) << "no budget ever fired; sweep is vacuous";
}

// The per-run lower bounds must keep cold runs closed: with the best
// tuple planted in one run, k=1 queries should not open every run.
TEST(TieredIndexTest, ColdRunsStayClosed) {
  TieredIndexOptions options = SmallRuns();
  TieredDualLayerIndex index(2, options);
  Rng rng(37);
  // Three well-separated score bands, one run each (seal in between):
  // the 0.0 band dominates every query, the 0.8 band can never win.
  for (const double base : {0.8, 0.4, 0.0}) {
    for (std::size_t i = 0; i < 8; ++i) {
      const Point row = {base + 0.1 * rng.Uniform(),
                         base + 0.1 * rng.Uniform()};
      index.Insert(PointView(row.data(), row.size()));
    }
    index.SealMemtable();
  }
  ASSERT_EQ(index.num_runs(), 3u);
  TopKQuery query;
  query.weights = {0.5, 0.5};
  query.k = 1;
  const TopKResult result = index.Query(query);
  ASSERT_TRUE(result.complete());
  EXPECT_LT(result.stats.runs_opened, index.num_runs())
      << "every run was opened for k=1; bounds prune nothing";
  EXPECT_GE(result.stats.runs_opened, 1u);
}

TEST(TieredIndexTest, BudgetedCompactIsResumable) {
  TieredDualLayerIndex index(3, SmallRuns());
  Rng rng(41);
  for (std::size_t i = 0; i < 80; ++i) {
    const Point row = RandomRow(rng, 3);
    index.Insert(PointView(row.data(), row.size()));
  }
  ExecBudget tiny;
  tiny.max_evals = 3;  // trips almost immediately
  std::size_t rounds = 0;
  while (index.Compact(tiny) != Termination::kComplete) {
    ASSERT_LT(++rounds, 10000u) << "budgeted compaction does not progress";
  }
  EXPECT_GT(rounds, 0u) << "budget never fired";
  EXPECT_LE(index.num_runs(), 1u);
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.memtable_size(), 0u);
}

TEST(TieredIndexTest, BulkConstructorMatchesInsertPath) {
  const PointSet points = testing_util::MakeToyDataset();
  TieredIndexOptions options = SmallRuns();
  const TieredDualLayerIndex bulk{[&] {
    PointSet copy(points.dim());
    for (std::size_t i = 0; i < points.size(); ++i) copy.Add(points[i]);
    return copy;
  }(), options};
  TieredDualLayerIndex incremental(points.dim(), options);
  for (std::size_t i = 0; i < points.size(); ++i) {
    incremental.Insert(points[i]);
  }
  EXPECT_EQ(bulk.num_runs(), 1u);  // bulk start is one run
  for (const TopKQuery& query :
       testing_util::RandomQueries(points.dim(), 4, 12, 43)) {
    const TopKResult a = bulk.Query(query);
    const TopKResult b = incremental.Query(query);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (std::size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].id, b.items[i].id);
      EXPECT_DOUBLE_EQ(a.items[i].score, b.items[i].score);
    }
  }
}

// The engine makes its partition set again on every install (seal,
// compaction, bulk start) and keeps it across erases, which retire in
// place: after each such step the set lists the current runs and
// bounds each from its block bit for bit. A move carries the set
// along, and the moved engine reads exactly as before.
TEST(TieredIndexTest, PartitionSetFreshAfterEveryInstallAndErase) {
  TieredIndexOptions options = SmallRuns();
  options.compact_rows_per_step = 5;
  TieredDualLayerIndex index(GenerateAnticorrelated(30, 3, 5), options);
  testing_util::ExpectFreshTieredSet(index, "bulk start");
  std::vector<TupleId> live(30);
  std::iota(live.begin(), live.end(), TupleId{0});
  Rng rng(53);
  std::size_t seals = 0;
  std::size_t installs = 0;
  std::size_t erases = 0;
  for (std::size_t step = 0; step < 400; ++step) {
    const std::string where = "step " + std::to_string(step);
    const std::size_t seals_before = index.seal_count();
    const std::size_t op = rng.Index(10);
    if (op < 5) {
      const Point row = RandomRow(rng, 3);
      live.push_back(index.Insert(PointView(row)));
    } else if (op < 7 && !live.empty()) {
      const std::size_t pick = rng.Index(live.size());
      ASSERT_TRUE(index.Erase(live[pick]));
      live[pick] = live.back();
      live.pop_back();
      ++erases;
      testing_util::ExpectFreshTieredSet(index, where + " erase");
    } else if (op == 7) {
      index.SealMemtable();
    } else if (index.CompactStep() == CompactProgress::kInstalled) {
      ++installs;
      testing_util::ExpectFreshTieredSet(index, where + " install");
    }
    if (index.seal_count() != seals_before) {
      ++seals;
      testing_util::ExpectFreshTieredSet(index, where + " seal");
    }
  }
  EXPECT_GT(seals, 10u);
  EXPECT_GT(installs, 3u);
  EXPECT_GT(erases, 30u);

  const std::vector<TopKResult> before = testing_util::SampleReads(index);
  const TieredDualLayerIndex moved = std::move(index);
  testing_util::ExpectFreshTieredSet(moved, "moved");
  const std::vector<TopKResult> after = testing_util::SampleReads(moved);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    testing_util::ExpectIdenticalResult(before[i], after[i], "moved read");
  }
}

// The read as it was before the memtable cut: the same merge, opened
// with the whole memtable scored and fully sorted.
TopKResult FullSortMemtableRead(const TieredDualLayerIndex& index,
                                const TopKQuery& query) {
  const PointView w(query.weights);
  TopKResult memtable;
  for (std::size_t i = 0; i < index.memtable_size(); ++i) {
    memtable.items.push_back(
        ScoredTuple{index.memtable_ids()[i], Score(w, index.memtable()[i])});
    memtable.accessed.push_back(index.memtable_ids()[i]);
  }
  memtable.stats.tuples_evaluated = index.memtable_size();
  std::sort(memtable.items.begin(), memtable.items.end(), ResultOrderLess);
  return MergeDualLayerPartitions(
      index.partitions(), w, query.k, query.budget, Stopwatch(),
      std::move(memtable),
      [&](const DualLayerIndex& run, std::size_t k,
          const ExecBudget& budget) -> std::optional<TopKResult> {
        return run.Query(TopKQuery{query.weights, k, budget});
      });
}

// The memtable opens as its k best rows only. Over a memtable larger
// than k full of exact duplicates (equal scores, so the id tie-break
// decides the cut), at k at and beyond the memtable size, and under
// budgets that trip before or inside the first run, every read equals
// the full-sort read: items, costs, certified prefix and frontier.
TEST(TieredIndexTest, MemtableCutMatchesFullSort) {
  TieredIndexOptions options = SmallRuns();
  options.memtable_capacity = 64;
  TieredDualLayerIndex index(3, options);
  Rng rng(59);
  // Grid rows: attributes in {lo, ..., lo + steps - 1} / 4. The runs
  // take the upper grid, the memtable the lower one, so the memtable
  // holds most of every top-k; the grids overlap, so ties also cross
  // from the memtable into the runs.
  const auto grid_row = [&rng](std::size_t lo, std::size_t steps) {
    Point row(3);
    for (double& x : row) {
      x = static_cast<double>(lo + rng.Index(steps)) / 4.0;
    }
    return row;
  };
  for (std::size_t run = 0; run < 2; ++run) {
    for (std::size_t i = 0; i < 40; ++i) {
      index.Insert(PointView(grid_row(1, 4)));
    }
    index.SealMemtable();
  }
  for (std::size_t i = 0; i < 50; ++i) index.Insert(PointView(grid_row(0, 3)));
  ASSERT_EQ(index.num_runs(), 2u);
  ASSERT_EQ(index.memtable_size(), 50u);

  std::vector<Point> weights = {{1.0 / 3, 1.0 / 3, 1.0 / 3}};
  for (std::size_t i = 0; i < 5; ++i) weights.push_back(rng.SimplexWeight(3));
  std::size_t partials = 0;
  for (const Point& w : weights) {
    for (const std::size_t k : {1ul, 5ul, 10ul, 49ul, 50ul, 51ul, 200ul}) {
      for (const std::size_t extra : {0ul, 1ul, 3ul, 1000ul}) {
        TopKQuery query{w, k};
        // max_evals = memtable size trips before the first run opens;
        // a few more trip inside it; 1000 never trips.
        query.budget.max_evals = index.memtable_size() + extra;
        const TopKResult got = index.Query(query);
        partials += got.complete() ? 0 : 1;
        testing_util::ExpectIdenticalResult(
            FullSortMemtableRead(index, query), got,
            "k=" + std::to_string(k) + " extra=" + std::to_string(extra));
      }
    }
  }
  EXPECT_GT(partials, 0u) << "no budget tripped on the first run";
}

}  // namespace
}  // namespace drli
