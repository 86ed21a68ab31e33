// Sharded DL+ suite (ctest label "shard"): partition invariants,
// bit-identical scatter-gather merges against the unsharded index,
// shard pruning, budget certification across shard merges, manifest +
// per-shard persistence (round trip, fault injection, missing files),
// and thread-count determinism of the sharded build.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/index_registry.h"
#include "data/generator.h"
#include "shard/shard_io.h"
#include "shard/sharded_index.h"
#include "testing/differential.h"
#include "testing/fault_inject.h"
#include "testing/fuzz.h"
#include "topk/scan.h"
#include "test_util.h"

namespace drli {
namespace {

using testing_util::RandomQueries;

ShardedBuildOptions Opts(std::size_t shards, ShardPartitioner partitioner,
                         bool zero_layer = true) {
  ShardedBuildOptions options;
  options.num_shards = shards;
  options.partitioner = partitioner;
  options.shard_options.build_zero_layer = zero_layer;
  return options;
}

// Adversarial shapes the merge tie-break must survive: heavy exact
// duplicates (many equal scores across shards) and coplanar rows.
PointSet DuplicateHeavyDataset(std::size_t n, std::size_t d,
                               std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(d);
  Point row(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || rng.Uniform() > 0.35) {
      for (std::size_t j = 0; j < d; ++j) {
        // Grid-snap so distinct tuples still collide in single
        // attributes (and often in full rows).
        row[j] = static_cast<double>(rng.Index(6)) / 5.0;
      }
    }
    points.Add(row);
  }
  return points;
}

PointSet CoplanarDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  PointSet points(d);
  Point row(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j + 1 < d; ++j) {
      row[j] = rng.Uniform();
      sum += row[j];
    }
    // All points on the hyperplane sum(x) = d - 1 (clamped).
    row[d - 1] = std::max(0.0, static_cast<double>(d - 1) - sum);
    points.Add(row);
  }
  return points;
}

void ExpectBitIdentical(const TopKResult& expected, const TopKResult& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.items.size(), actual.items.size()) << what;
  for (std::size_t i = 0; i < expected.items.size(); ++i) {
    EXPECT_EQ(expected.items[i].id, actual.items[i].id)
        << what << " rank " << i;
    EXPECT_EQ(expected.items[i].score, actual.items[i].score)
        << what << " rank " << i;
  }
}

TEST(ShardPartitionTest, BothPartitionersCoverTheRelation) {
  const PointSet points = GenerateAnticorrelated(257, 3, 5);
  for (const ShardPartitioner partitioner :
       {ShardPartitioner::kRandom, ShardPartitioner::kHyperplane}) {
    for (const std::size_t shards : {1ul, 2ul, 7ul, 16ul}) {
      const auto members =
          PartitionPoints(points, shards, partitioner, 42);
      ASSERT_EQ(members.size(), shards);
      std::vector<int> seen(points.size(), 0);
      for (const auto& shard : members) {
        for (std::size_t i = 0; i < shard.size(); ++i) {
          if (i > 0) {
            EXPECT_LT(shard[i - 1], shard[i]) << "ascending ids";
          }
          ASSERT_LT(shard[i], points.size());
          ++seen[shard[i]];
        }
      }
      for (const int count : seen) EXPECT_EQ(count, 1);
      if (partitioner == ShardPartitioner::kHyperplane) {
        // Equal slabs: sizes differ by at most one.
        for (const auto& shard : members) {
          EXPECT_GE(shard.size(), points.size() / shards);
          EXPECT_LE(shard.size(), points.size() / shards + 1);
        }
      }
    }
  }
}

TEST(ShardPartitionTest, DeterministicAcrossCalls) {
  const PointSet points = GenerateIndependent(100, 2, 3);
  const auto a =
      PartitionPoints(points, 4, ShardPartitioner::kRandom, 7);
  const auto b =
      PartitionPoints(points, 4, ShardPartitioner::kRandom, 7);
  EXPECT_EQ(a, b);
  const auto c =
      PartitionPoints(points, 4, ShardPartitioner::kRandom, 8);
  EXPECT_NE(a, c) << "seed must matter";
}

// The acceptance bar of the scatter-gather merge: for any shard count
// and either partitioner the sharded answer is bit-identical (ids and
// scores) to the unsharded DL+ answer, including on duplicate-heavy
// and coplanar data where exact score ties cross shard boundaries.
TEST(ShardedQueryTest, BitIdenticalToUnshardedDlPlus) {
  struct Dataset {
    std::string name;
    PointSet points;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"ant_d3", GenerateAnticorrelated(400, 3, 11)});
  datasets.push_back({"dup_d2", DuplicateHeavyDataset(300, 2, 12)});
  datasets.push_back({"dup_d4", DuplicateHeavyDataset(260, 4, 13)});
  datasets.push_back({"coplanar_d3", CoplanarDataset(220, 3, 14)});

  for (const Dataset& dataset : datasets) {
    DualLayerOptions dl_options;
    dl_options.build_zero_layer = true;
    const DualLayerIndex reference =
        DualLayerIndex::Build(dataset.points, dl_options);
    for (const std::size_t shards : {1ul, 2ul, 4ul, 7ul}) {
      for (const ShardPartitioner partitioner :
           {ShardPartitioner::kRandom, ShardPartitioner::kHyperplane}) {
        const ShardedDualLayerIndex sharded = ShardedDualLayerIndex::Build(
            dataset.points, Opts(shards, partitioner));
        Rng rng(31);
        for (std::size_t q = 0; q < 24; ++q) {
          TopKQuery query;
          query.weights = rng.SimplexWeight(dataset.points.dim());
          query.k = 1 + rng.Index(2 * shards + 20);
          const TopKResult expected = reference.Query(query);
          const TopKResult actual = sharded.Query(query);
          ExpectBitIdentical(expected, actual,
                             dataset.name + "/" + sharded.name());
          EXPECT_TRUE(actual.complete());
          EXPECT_EQ(actual.certified_prefix, actual.items.size());
          EXPECT_GE(actual.stats.shards_touched, 1u);
          EXPECT_LE(actual.stats.shards_touched, shards);
        }
      }
    }
  }
}

TEST(ShardedQueryTest, DegenerateQueriesAndValidation) {
  const PointSet points = GenerateIndependent(40, 3, 21);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      points, Opts(5, ShardPartitioner::kHyperplane));

  TopKQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 0;
  EXPECT_TRUE(index.Query(query).complete());
  EXPECT_TRUE(index.Query(query).items.empty());

  query.k = 1000;  // k > n returns everything
  const TopKResult all = index.Query(query);
  EXPECT_TRUE(all.complete());
  EXPECT_EQ(all.items.size(), points.size());

  query.weights = {0.5, 0.5};  // wrong dimensionality
  const TopKResult bad = index.Query(query);
  EXPECT_EQ(bad.termination, Termination::kInvalidQuery);
  EXPECT_FALSE(bad.error.empty());

  query.weights = {-0.1, 0.6, 0.5};  // negative weight
  EXPECT_EQ(index.Query(query).termination, Termination::kInvalidQuery);
}

TEST(ShardedQueryTest, EmptyAndTinyRelations) {
  const PointSet empty(3);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      empty, Opts(4, ShardPartitioner::kRandom));
  TopKQuery query;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 5;
  const TopKResult result = index.Query(query);
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(result.items.empty());

  // More shards than tuples: some shards are empty, the rest hold one
  // tuple each; the answer still matches the scan.
  const PointSet tiny = GenerateIndependent(3, 3, 2);
  const ShardedDualLayerIndex sparse = ShardedDualLayerIndex::Build(
      tiny, Opts(7, ShardPartitioner::kHyperplane));
  const TopKResult got = sparse.Query(query);
  const TopKResult want = Scan(tiny, query);
  ASSERT_EQ(got.items.size(), want.items.size());
  for (std::size_t i = 0; i < got.items.size(); ++i) {
    EXPECT_EQ(got.items[i].id, want.items[i].id);
  }
}

// Hyperplane slabs order along the diagonal, which every positive
// weight vector correlates with -- so small-k queries must open only a
// fraction of the shards. Random shards have no such structure and
// serve as the contrast.
TEST(ShardedQueryTest, HyperplanePruningEngages) {
  const PointSet points = GenerateIndependent(4000, 3, 77);
  const std::size_t shards = 16;
  const ShardedDualLayerIndex hyper = ShardedDualLayerIndex::Build(
      points, Opts(shards, ShardPartitioner::kHyperplane));
  const std::vector<TopKQuery> queries = RandomQueries(3, 10, 40, 5);
  std::size_t touched = 0;
  for (const TopKQuery& query : queries) {
    const TopKResult result = hyper.Query(query);
    EXPECT_TRUE(result.complete());
    touched += result.stats.shards_touched;
  }
  const double mean = static_cast<double>(touched) /
                      static_cast<double>(queries.size());
  // k=10 out of n=4000 lives in the first slab or two.
  EXPECT_LT(mean, static_cast<double>(shards) / 2) << "mean " << mean;
  EXPECT_GE(mean, 1.0);
}

TEST(ShardedQueryTest, QueryBatchMatchesSerialLoop) {
  const PointSet points = GenerateAnticorrelated(600, 4, 9);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      points, Opts(4, ShardPartitioner::kHyperplane));
  const std::vector<TopKQuery> queries = RandomQueries(4, 15, 32, 17);
  const std::vector<TopKResult> batch = index.QueryBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const TopKResult serial = index.Query(queries[i]);
    ExpectBitIdentical(serial, batch[i], "batch slot " + std::to_string(i));
    EXPECT_EQ(serial.stats.tuples_evaluated, batch[i].stats.tuples_evaluated);
    EXPECT_EQ(serial.stats.shards_touched, batch[i].stats.shards_touched);
    EXPECT_EQ(serial.accessed, batch[i].accessed);
  }
}

// Budget certification across shard merges: for every step index of
// the sharded traversal, a max_evals budget tripping there must yield
// a certified prefix that is a correct prefix of the exact answer.
// CheckQuery is the same oracle the fuzzer uses.
TEST(ShardedBudgetTest, CertifiedPrefixSoundAtEveryCutPoint) {
  const PointSet points = DuplicateHeavyDataset(180, 3, 42);
  StatusOr<DifferentialHarness> harness = DifferentialHarness::Build(points);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();

  Rng rng(8);
  std::size_t partials = 0;
  for (std::size_t q = 0; q < 4; ++q) {
    TopKQuery base;
    base.weights = rng.SimplexWeight(3);
    base.k = 12;
    std::size_t cost = 0;
    for (const auto& [kind, kind_cost] :
         harness.value().UnbudgetedCosts(base)) {
      if (kind == "sdl+4h") cost = kind_cost;
    }
    ASSERT_GT(cost, 0u);
    for (std::size_t step = 1; step <= cost; ++step) {
      TopKQuery budgeted = base;
      budgeted.budget.max_evals = step;
      const std::vector<std::string> failures =
          harness.value().CheckQuery(budgeted, "sdl+4h", &partials);
      EXPECT_TRUE(failures.empty())
          << "step " << step << ": " << failures.front();
      if (!failures.empty()) return;
    }
  }
  EXPECT_GT(partials, 0u) << "budgets never fired";
}

TEST(ShardedBudgetTest, CancellationStopsTheMerge) {
  const PointSet points = GenerateAnticorrelated(500, 3, 33);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      points, Opts(8, ShardPartitioner::kRandom));
  TopKQuery query;
  query.weights = {0.4, 0.3, 0.3};
  query.k = 50;
  CancelToken token;
  token.Cancel();
  query.budget.cancel = &token;
  const TopKResult result = index.Query(query);
  EXPECT_EQ(result.termination, Termination::kCancelled);
  EXPECT_EQ(result.certified_prefix, 0u);
}

// ---------------------------------------------------------------------------
// Persistence

class ShardIoTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) const {
    return ::testing::TempDir() + "shard_io_" + name;
  }

  static void RemoveAll(const std::string& manifest, std::size_t shards) {
    std::remove(manifest.c_str());
    for (std::size_t s = 0; s < shards; ++s) {
      std::remove(ShardFilePath(manifest, s).c_str());
    }
  }
};

TEST_F(ShardIoTest, ManifestRoundTrip) {
  const PointSet points = GenerateAnticorrelated(300, 3, 19);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      points, Opts(5, ShardPartitioner::kHyperplane));
  const std::string path = Path("round_trip.idx");
  ASSERT_TRUE(SaveShardedIndex(index, path).ok());

  const StatusOr<ShardManifestInfo> info = InspectShardManifest(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().num_shards, 5u);
  EXPECT_EQ(info.value().total_points, points.size());
  EXPECT_EQ(info.value().dim, 3u);
  EXPECT_EQ(info.value().partitioner, ShardPartitioner::kHyperplane);
  EXPECT_EQ(info.value().name, index.name());

  for (const bool mmap : {true, false}) {
    ShardedLoadOptions load_options;
    load_options.snapshot.prefer_mmap = mmap;
    StatusOr<ShardedDualLayerIndex> loaded =
        LoadShardedIndex(path, load_options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().name(), index.name());
    EXPECT_EQ(loaded.value().num_shards(), index.num_shards());
    EXPECT_EQ(loaded.value().partition_seed(), index.partition_seed());
    for (std::size_t s = 0; s < index.num_shards(); ++s) {
      EXPECT_EQ(loaded.value().shard_members(s), index.shard_members(s));
    }
    for (const TopKQuery& query : RandomQueries(3, 9, 16, 3)) {
      ExpectBitIdentical(index.Query(query), loaded.value().Query(query),
                         mmap ? "mmap load" : "owned load");
    }
  }
  RemoveAll(path, 5);
}

TEST_F(ShardIoTest, IsShardManifestProbe) {
  const PointSet points = GenerateIndependent(50, 2, 4);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      points, Opts(2, ShardPartitioner::kRandom));
  const std::string path = Path("probe.idx");
  ASSERT_TRUE(SaveShardedIndex(index, path).ok());
  EXPECT_TRUE(IsShardManifest(path));
  // A per-shard snapshot is a plain v2 file, not a manifest.
  EXPECT_FALSE(IsShardManifest(ShardFilePath(path, 0)));
  EXPECT_FALSE(IsShardManifest(Path("missing.idx")));
  RemoveAll(path, 2);
}

// Every shard file is a standard v2 snapshot, so the existing fault
// sweep applies unchanged: every mutant of every shard must be
// rejected by the (checksummed) loader.
TEST_F(ShardIoTest, PerShardSnapshotFaultSweep) {
  const PointSet points = GenerateAnticorrelated(150, 3, 23);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      points, Opts(3, ShardPartitioner::kHyperplane));
  const std::string path = Path("fault_sweep.idx");
  ASSERT_TRUE(SaveShardedIndex(index, path).ok());
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    testing::FaultSweepOptions options;
    options.seed = 100 + s;
    options.num_flips = 300;
    const testing::FaultSweepReport report =
        testing::RunSnapshotFaultSweep(ShardFilePath(path, s), options);
    EXPECT_TRUE(report.ok()) << "shard " << s << ": " << report.ToString();
    EXPECT_EQ(report.undetected, 0u) << "shard " << s;
  }
  RemoveAll(path, 3);
}

// Exhaustive manifest mutation: flipping any single bit anywhere in
// the manifest -- header, name, member lists, trailer -- must fail the
// load (the whole file is covered by the checksum; a corrupted magic
// fails the magic gate instead).
TEST_F(ShardIoTest, EveryManifestByteFlipRejected) {
  const PointSet points = GenerateIndependent(60, 2, 29);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      points, Opts(3, ShardPartitioner::kRandom));
  const std::string path = Path("manifest_flip.idx");
  ASSERT_TRUE(SaveShardedIndex(index, path).ok());
  const std::vector<std::uint8_t> pristine = testing::ReadFileBytes(path);
  ASSERT_FALSE(pristine.empty());

  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::vector<std::uint8_t> mutant = pristine;
    mutant[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    testing::WriteFileBytes(path, mutant);
    const StatusOr<ShardedDualLayerIndex> loaded = LoadShardedIndex(path);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << pos << " loaded OK";
    if (!loaded.ok()) ++rejected;
  }
  EXPECT_EQ(rejected, pristine.size());

  // And truncation at every prefix length of the (small) header.
  for (std::size_t len = 0; len < 52 && len < pristine.size(); ++len) {
    testing::WriteFileBytes(
        path, std::vector<std::uint8_t>(pristine.begin(),
                                        pristine.begin() + len));
    EXPECT_FALSE(LoadShardedIndex(path).ok()) << "truncation to " << len;
  }

  testing::WriteFileBytes(path, pristine);
  ASSERT_TRUE(LoadShardedIndex(path).ok()) << "pristine must still load";
  RemoveAll(path, 3);
}

TEST_F(ShardIoTest, MissingShardFileFailsCleanly) {
  const PointSet points = GenerateIndependent(80, 3, 31);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      points, Opts(4, ShardPartitioner::kHyperplane));
  const std::string path = Path("missing_shard.idx");
  ASSERT_TRUE(SaveShardedIndex(index, path).ok());
  ASSERT_EQ(std::remove(ShardFilePath(path, 2).c_str()), 0);
  const StatusOr<ShardedDualLayerIndex> loaded = LoadShardedIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
      << loaded.status().ToString();
  RemoveAll(path, 4);
}

// The sharded build is bit-identical across thread counts: the
// partition is a pure function of the data, every shard builds
// serially, and the merge is order-independent -- so the serialized
// bytes (every shard file and the manifest) must match exactly.
TEST_F(ShardIoTest, BuildIsBitIdenticalAcrossThreadCounts) {
  const PointSet points = GenerateAnticorrelated(400, 4, 47);
  // Same basename in two directories: the manifest embeds the relative
  // shard file names, so different basenames would trivially differ.
  const std::string dir_serial = Path("threads1.d");
  const std::string dir_parallel = Path("threads8.d");
  std::filesystem::create_directories(dir_serial);
  std::filesystem::create_directories(dir_parallel);
  const std::string path_serial = dir_serial + "/index.idx";
  const std::string path_parallel = dir_parallel + "/index.idx";

  ShardedBuildOptions serial = Opts(6, ShardPartitioner::kHyperplane);
  serial.build_threads = 1;
  ShardedBuildOptions parallel = serial;
  parallel.build_threads = 8;

  ASSERT_TRUE(SaveShardedIndex(ShardedDualLayerIndex::Build(points, serial),
                               path_serial)
                  .ok());
  ASSERT_TRUE(SaveShardedIndex(ShardedDualLayerIndex::Build(points, parallel),
                               path_parallel)
                  .ok());

  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(testing::ReadFileBytes(ShardFilePath(path_serial, s)),
              testing::ReadFileBytes(ShardFilePath(path_parallel, s)))
        << "shard " << s << " bytes differ across thread counts";
  }
  // Manifests embed no timings, so they must match byte for byte too.
  EXPECT_EQ(testing::ReadFileBytes(path_serial),
            testing::ReadFileBytes(path_parallel));
  RemoveAll(path_serial, 6);
  RemoveAll(path_parallel, 6);
}

TEST_F(ShardIoTest, RoundTripWithEmptyShards) {
  const PointSet tiny = GenerateIndependent(3, 2, 53);
  const ShardedDualLayerIndex index = ShardedDualLayerIndex::Build(
      tiny, Opts(5, ShardPartitioner::kRandom));
  const std::string path = Path("empty_shards.idx");
  ASSERT_TRUE(SaveShardedIndex(index, path).ok());
  StatusOr<ShardedDualLayerIndex> loaded = LoadShardedIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  TopKQuery query;
  query.weights = {0.6, 0.4};
  query.k = 3;
  ExpectBitIdentical(index.Query(query), loaded.value().Query(query),
                     "empty-shard round trip");
  RemoveAll(path, 5);
}

// The engine makes its partition set once, at Build and at the end of
// LoadShardedIndex, and a move carries it along: it still lists the
// engine's own shards, bounds each from its block bit for bit as
// ShardLowerBound does, and the moved engine reads exactly as before.
void ExpectFreshShardSet(const ShardedDualLayerIndex& index,
                         const std::string& where) {
  const PartitionSet& set = index.partitions();
  ASSERT_EQ(set.parts.size(), index.num_shards()) << where;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    ASSERT_EQ(&set.parts[s]->index, &index.shard(s)) << where;
    ASSERT_EQ(&set.parts[s]->ids, &index.shard_members(s)) << where;
    EXPECT_EQ(set.Label(s), "shard " + std::to_string(s)) << where;
  }
  testing_util::ExpectFreshBounds(
      set, index.dim(),
      [&index](std::size_t s, PointView w) {
        return index.ShardLowerBound(s, w);
      },
      where);
}

void ExpectMovePreservesReads(ShardedDualLayerIndex&& index,
                              const std::string& where) {
  const std::vector<TopKResult> before = testing_util::SampleReads(index);
  const ShardedDualLayerIndex moved = std::move(index);
  ExpectFreshShardSet(moved, where + " moved");
  const std::vector<TopKResult> after = testing_util::SampleReads(moved);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    testing_util::ExpectIdenticalResult(before[i], after[i],
                                        where + " moved read");
  }
}

TEST_F(ShardIoTest, PartitionSetFreshAfterBuildLoadAndMove) {
  struct Case {
    std::size_t n, d, shards;
    ShardPartitioner partitioner;
  };
  // The last case leaves empty shards (n < S): empty row ranges.
  for (const Case& c : {Case{400, 3, 5, ShardPartitioner::kHyperplane},
                        Case{300, 5, 8, ShardPartitioner::kRandom},
                        Case{250, 4, 16, ShardPartitioner::kHyperplane},
                        Case{3, 2, 5, ShardPartitioner::kRandom}}) {
    const std::string where = "n=" + std::to_string(c.n) +
                              " d=" + std::to_string(c.d) +
                              " S=" + std::to_string(c.shards);
    ShardedDualLayerIndex built = ShardedDualLayerIndex::Build(
        GenerateAnticorrelated(c.n, c.d, 61 + c.d),
        Opts(c.shards, c.partitioner));
    ExpectFreshShardSet(built, where + " built");
    const std::string path = Path("fresh_set.idx");
    ASSERT_TRUE(SaveShardedIndex(built, path).ok());
    StatusOr<ShardedDualLayerIndex> loaded = LoadShardedIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectFreshShardSet(loaded.value(), where + " loaded");
    ExpectMovePreservesReads(std::move(built), where + " built");
    ExpectMovePreservesReads(std::move(loaded.value()), where + " loaded");
    RemoveAll(path, c.shards);
  }
}

// The fuzzer's own entry point with the sharded family enrolled in the
// default kind list -- one pinned seed here; the corpus seed and the
// nightly run cover breadth.
TEST(ShardedFuzzTest, PinnedSeedClean) {
  // Seed 964: d=5 n=137 cor coplanar=109 dup=20 -- most of the relation
  // is one score-tie plane, so the partition splits exact-tie classes
  // across shard boundaries and the merge must re-interleave them in
  // canonical (score, id) order.
  FuzzOptions options;
  options.dynamic = false;
  const FuzzCaseResult result = RunFuzzCase(964, options);
  EXPECT_TRUE(result.ok()) << result.failures.front();
}

}  // namespace
}  // namespace drli
