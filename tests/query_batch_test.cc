// The parallel fast path must be invisible in results: QueryBatch over
// the task pool is element-wise identical to a serial Query loop for
// every index kind, a parallel build produces the same index as a
// serial build, bit for bit, and the per-index scratch pool answers
// exactly like an explicit scratch while never re-seeding once warm.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/parallel_for.h"
#include "core/dual_layer.h"
#include "core/index_registry.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace drli {
namespace {

// The whole binary runs with a forced 4-worker pool so the parallel
// paths are exercised even on small CI machines.
class ForceThreadsEnv : public ::testing::Environment {
 public:
  void SetUp() override { setenv("DRLI_THREADS", "4", 1); }
};
const ::testing::Environment* const kForceThreads =
    ::testing::AddGlobalTestEnvironment(new ForceThreadsEnv);

// Full equality, not just score equivalence: the batch path must be
// indistinguishable from the serial loop (elapsed_seconds excepted --
// it is wall time, not a function of the query).
void ExpectIdentical(const TopKResult& expected, const TopKResult& actual) {
  ASSERT_EQ(expected.items.size(), actual.items.size());
  for (std::size_t i = 0; i < expected.items.size(); ++i) {
    EXPECT_EQ(expected.items[i].id, actual.items[i].id) << "rank " << i;
    EXPECT_EQ(expected.items[i].score, actual.items[i].score) << "rank " << i;
  }
  EXPECT_EQ(expected.stats.tuples_evaluated, actual.stats.tuples_evaluated);
  EXPECT_EQ(expected.stats.virtual_evaluated, actual.stats.virtual_evaluated);
  EXPECT_EQ(expected.accessed, actual.accessed);
}

class QueryBatchKindTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Kinds, QueryBatchKindTest,
                         ::testing::Values("dl", "dl+", "dg", "scan"),
                         [](const auto& info) {
                           std::string name = info.param;
                           if (!name.empty() && name.back() == '+') {
                             name.back() = 'p';
                           }
                           return name;
                         });

TEST_P(QueryBatchKindTest, BatchMatchesSerialLoop) {
  ASSERT_EQ(ParallelThreadCount(), 4u);
  for (std::size_t d : {std::size_t{2}, std::size_t{4}}) {
    const PointSet points = GenerateAnticorrelated(600, d, 31 + d);
    IndexBuildConfig config;
    config.kind = GetParam();
    auto built = BuildIndex(config, points);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const TopKIndex& index = *built.value();

    const std::vector<TopKQuery> queries =
        testing_util::RandomQueries(d, /*k=*/7, /*count=*/64, /*seed=*/d);
    const std::vector<TopKResult> batch = index.QueryBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ExpectIdentical(index.Query(queries[i]), batch[i]);
    }
  }
}

TEST(QueryBatchTest, EmptyBatchAndEmptyIndex) {
  const PointSet points = GenerateIndependent(100, 3, 5);
  const DualLayerIndex index = DualLayerIndex::Build(points);
  EXPECT_TRUE(index.QueryBatch({}).empty());

  const DualLayerIndex empty = DualLayerIndex::Build(PointSet(3));
  const auto results =
      empty.QueryBatch(testing_util::RandomQueries(3, 5, 8, 1));
  ASSERT_EQ(results.size(), 8u);
  for (const TopKResult& result : results) {
    EXPECT_TRUE(result.items.empty());
  }
}

TEST(QueryBatchTest, SharedScratchAcrossIndexesStaysCorrect) {
  // One scratch serving interleaved queries against indexes of
  // different node counts must reset correctly via epoch stamps.
  const PointSet small = GenerateAnticorrelated(120, 3, 21);
  const PointSet large = GenerateAnticorrelated(900, 3, 22);
  const DualLayerIndex small_index = DualLayerIndex::Build(small);
  const DualLayerIndex large_index = DualLayerIndex::Build(large);
  QueryScratch scratch;
  for (const TopKQuery& query : testing_util::RandomQueries(3, 9, 30, 23)) {
    ExpectIdentical(small_index.Query(query),
                    small_index.Query(query, &scratch));
    ExpectIdentical(large_index.Query(query),
                    large_index.Query(query, &scratch));
  }
}

// Coordinators query each partition through DualLayerIndex::Query, so
// every shard and run draws a scratch from its own pool: once a round
// of queries has warmed the pools, a repeat round re-seeds nothing and
// returns the same answers, and each partition's pooled path equals
// the explicit-scratch path bit for bit.
TEST(ScratchPoolTest, WarmPartitionsNeverReseed) {
  ShardedBuildOptions shard_options;
  shard_options.num_shards = 8;
  const ShardedDualLayerIndex sharded = ShardedDualLayerIndex::Build(
      GenerateAnticorrelated(2000, 4, 61), shard_options);

  TieredIndexOptions tiered_options;
  tiered_options.memtable_capacity = 64;
  tiered_options.auto_compact = false;
  TieredDualLayerIndex tiered(GenerateAnticorrelated(600, 4, 62),
                              tiered_options);
  const PointSet inserts = GenerateAnticorrelated(300, 4, 63);
  for (std::size_t i = 0; i < inserts.size(); ++i) tiered.Insert(inserts[i]);
  ASSERT_GE(tiered.num_runs(), 4u);

  const std::vector<TopKQuery> queries =
      testing_util::RandomQueries(4, /*k=*/10, /*count=*/32, /*seed=*/64);
  for (const TopKIndex* index :
       {static_cast<const TopKIndex*>(&sharded),
        static_cast<const TopKIndex*>(&tiered)}) {
    SCOPED_TRACE(index->name());
    std::vector<TopKResult> warm_up;
    std::size_t seeds = 0;
    for (const TopKQuery& query : queries) {
      warm_up.push_back(index->Query(query));
      seeds += warm_up.back().stats.scratch_seeds;
    }
    EXPECT_GT(seeds, 0u);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const TopKResult again = index->Query(queries[i]);
      EXPECT_EQ(again.stats.scratch_seeds, 0u) << "query " << i;
      ExpectIdentical(warm_up[i], again);
    }
  }

  std::vector<const DualLayerIndex*> partitions;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    partitions.push_back(&sharded.shard(s));
  }
  for (std::size_t r = 0; r < tiered.num_runs(); ++r) {
    partitions.push_back(&tiered.run(r).index);
  }
  QueryScratch scratch;  // shared: it re-seeds on every partition switch
  for (const TopKQuery& query : queries) {
    for (const DualLayerIndex* partition : partitions) {
      ExpectIdentical(partition->Query(query, &scratch),
                      partition->Query(query));
    }
  }
}

// Concurrent coordinator queries share each shard's pool: every thread
// borrows its own scratch, and the answers match a serial loop.
TEST(ScratchPoolTest, ConcurrentShardedQueriesMatchSerial) {
  constexpr std::size_t kThreads = 4;
  ShardedBuildOptions options;
  options.num_shards = 8;
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      GenerateAnticorrelated(2000, 3, 71), options);
  const std::vector<TopKQuery> queries =
      testing_util::RandomQueries(3, /*k=*/10, /*count=*/64, /*seed=*/72);
  std::vector<TopKResult> serial;
  for (const TopKQuery& query : queries) serial.push_back(index.Query(query));

  std::vector<std::vector<TopKResult>> answers(
      kThreads, std::vector<TopKResult>(queries.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Staggered starts so the threads hit different shards at once.
      for (std::size_t j = 0; j < queries.size(); ++j) {
        const std::size_t i = (j + t * queries.size() / kThreads) %
                              queries.size();
        answers[t][i] = index.Query(queries[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ExpectIdentical(serial[i], answers[t][i]);
    }
  }
}

void ExpectSameIndex(const DualLayerIndex& a, const DualLayerIndex& b) {
  const NodeSpaceGraph ga = a.NodeGraph();
  const NodeSpaceGraph gb = b.NodeGraph();
  EXPECT_EQ(ga.coarse_out, gb.coarse_out);
  EXPECT_EQ(ga.fine_out, gb.fine_out);
  EXPECT_EQ(ga.coarse_in_degree, gb.coarse_in_degree);
  EXPECT_EQ(ga.has_fine_in, gb.has_fine_in);
  EXPECT_EQ(ga.initial, gb.initial);
  EXPECT_EQ(a.LayerGroups(), b.LayerGroups());
  EXPECT_TRUE(
      std::ranges::equal(a.virtual_points().raw(), b.virtual_points().raw()));
  const DualLayerBuildStats& sa = a.build_stats();
  const DualLayerBuildStats& sb = b.build_stats();
  EXPECT_EQ(sa.num_coarse_layers, sb.num_coarse_layers);
  EXPECT_EQ(sa.num_fine_layers, sb.num_fine_layers);
  EXPECT_EQ(sa.num_coarse_edges, sb.num_coarse_edges);
  EXPECT_EQ(sa.num_fine_edges, sb.num_fine_edges);
  EXPECT_EQ(sa.eds_uncovered, sb.eds_uncovered);
  EXPECT_EQ(sa.csky_fallbacks, sb.csky_fallbacks);
  EXPECT_EQ(sa.num_virtual, sb.num_virtual);
  for (std::size_t node = 0; node < a.num_nodes(); ++node) {
    const auto id = static_cast<DualLayerIndex::NodeId>(node);
    ASSERT_EQ(a.coarse_layer_of(id), b.coarse_layer_of(id));
    ASSERT_EQ(a.fine_layer_of(id), b.fine_layer_of(id));
  }
}

TEST(ParallelBuildTest, ParallelBuildEqualsSerialBuild) {
  for (std::size_t d : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const PointSet points = GenerateAnticorrelated(700, d, 41 + d);
    for (bool zero_layer : {false, true}) {
      DualLayerOptions options;
      options.build_zero_layer = zero_layer;
      options.build_threads = 1;
      const DualLayerIndex serial = DualLayerIndex::Build(points, options);
      options.build_threads = 4;
      const DualLayerIndex parallel = DualLayerIndex::Build(points, options);
      ExpectSameIndex(serial, parallel);
    }
  }
}

TEST(ParallelBuildTest, EnvThreadCountAlsoDeterministic) {
  // build_threads = 0 resolves through DRLI_THREADS (4 here).
  const PointSet points = GenerateIndependent(500, 4, 51);
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex via_env = DualLayerIndex::Build(points, options);
  options.build_threads = 1;
  const DualLayerIndex serial = DualLayerIndex::Build(points, options);
  ExpectSameIndex(serial, via_env);
}

}  // namespace
}  // namespace drli
