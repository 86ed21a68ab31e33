// Cross-version compatibility against checked-in golden snapshots.
//
// tests/golden/ holds one v2 snapshot per recipe, produced by the
// deterministic build over a seeded generator. Loading them with
// today's loader and cross-checking answers against a freshly built
// index proves that a format change cannot silently orphan existing v2
// files. The recipes' v1 files stay as negative fixtures: v1 is no
// longer read, and loading one must fail with a hint to rebuild. They
// cannot be regenerated, since nothing writes v1 any more.
//
// Regenerate the v2 fixtures after an *intentional* format change with:
//   DRLI_REGEN_GOLDEN=1 ./snapshot_compat_test
// which rewrites them in the source tree.
//
// Two manifest fixtures pin the partition-table formats: a DRLS v1
// shard manifest and a DRLT v1 tiered manifest, each with its
// partition snapshots, written by an earlier build of the library from
// the recipes below. They must load, answer like a full scan of their
// relation, and re-save to the same bytes. They are not regenerated:
// their bytes are the format.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/dual_layer.h"
#include "core/serialization.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "shard/shard_io.h"
#include "storage/engine_io.h"
#include "storage/tiered_io.h"
#include "testing/check_index.h"
#include "testing/result_check.h"
#include "test_util.h"
#include "topk/scan.h"

#ifndef DRLI_TEST_GOLDEN_DIR
#error "DRLI_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace drli {
namespace {

struct GoldenRecipe {
  const char* name;
  Distribution dist;
  std::size_t n;
  std::size_t d;
  std::uint64_t seed;
  bool zero_layer;
};

// d=3 exercises the clustered pseudo-tuple zero layer; d=2 exercises
// the weight-range-table chain. Both shapes must survive the format.
constexpr GoldenRecipe kRecipes[] = {
    {"dl_plus_d3", Distribution::kAnticorrelated, 300, 3, 42, true},
    {"dl_plus_wt_d2", Distribution::kAnticorrelated, 300, 2, 43, true},
};

std::string GoldenPath(const GoldenRecipe& recipe, std::uint32_t version) {
  return std::string(DRLI_TEST_GOLDEN_DIR) + "/" + recipe.name + "_v" +
         std::to_string(version) + ".bin";
}

DualLayerIndex BuildRecipe(const GoldenRecipe& recipe) {
  const PointSet points =
      Generate(recipe.dist, recipe.n, recipe.d, recipe.seed);
  DualLayerOptions options;
  options.build_zero_layer = recipe.zero_layer;
  return DualLayerIndex::Build(points, options);
}

TEST(SnapshotCompatTest, GoldenFixturesLoadAndAnswerIdentically) {
  const bool regen = std::getenv("DRLI_REGEN_GOLDEN") != nullptr;
  for (const GoldenRecipe& recipe : kRecipes) {
    const DualLayerIndex fresh = BuildRecipe(recipe);
    const std::string path = GoldenPath(recipe, snapshot::kVersionV2);
    if (regen) {
      ASSERT_TRUE(SaveDualLayerIndex(fresh, path).ok()) << path;
    }
    ASSERT_TRUE(std::filesystem::exists(path))
        << path << " missing -- run with DRLI_REGEN_GOLDEN=1";

    auto loaded = LoadDualLayerIndex(path);
    ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value().size(), recipe.n) << path;
    EXPECT_EQ(loaded.value().points().dim(), recipe.d) << path;
    EXPECT_EQ(loaded.value().uses_weight_table(), fresh.uses_weight_table())
        << path;
    EXPECT_TRUE(CheckIndex(loaded.value()).ok()) << path;

    // Answers from the fixture must match a from-scratch build.
    // Scores only, not traversal counters: a legitimate future build
    // change may alter the structure while answers stay correct.
    for (const TopKQuery& query : testing_util::RandomQueries(
             recipe.d, /*k=*/10, /*count=*/20, /*seed=*/recipe.seed)) {
      EXPECT_TRUE(testing_util::ResultsEquivalent(
          fresh.Query(query), loaded.value().Query(query)))
          << path;
    }
  }
}

TEST(SnapshotCompatTest, GoldenInfoMatchesRecipe) {
  for (const GoldenRecipe& recipe : kRecipes) {
    const std::string path = GoldenPath(recipe, snapshot::kVersionV2);
    if (!std::filesystem::exists(path)) {
      GTEST_SKIP() << path << " missing -- run with DRLI_REGEN_GOLDEN=1";
    }
    const auto info = InspectSnapshot(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().version, snapshot::kVersionV2);
    EXPECT_EQ(info.value().num_points, recipe.n);
    EXPECT_EQ(info.value().dim, recipe.d);
    for (const SnapshotSectionInfo& row : info.value().sections) {
      EXPECT_TRUE(row.crc_ok) << path << " section " << row.name;
    }
  }
}

// v1 files -- the recipes' checked-in fixtures and a bare 8-byte magic +
// version -- are rejected by every entry point with Corruption and a
// hint naming `drli build`, at any length.
TEST(SnapshotCompatTest, V1SnapshotsAreRejectedWithRebuildHint) {
  std::vector<std::string> paths;
  for (const GoldenRecipe& recipe : kRecipes) {
    paths.push_back(GoldenPath(recipe, snapshot::kVersionV1));
    ASSERT_TRUE(std::filesystem::exists(paths.back())) << paths.back();
  }
  const std::string bare = ::testing::TempDir() + "/bare_header_v1.bin";
  {
    const std::uint32_t lead[2] = {snapshot::kMagic, snapshot::kVersionV1};
    std::ofstream out(bare, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(lead), sizeof(lead));
    ASSERT_TRUE(bool(out));
  }
  paths.push_back(bare);

  const auto expect_hint = [](const Status& status, const std::string& what) {
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << what;
    EXPECT_NE(status.message().find("v1"), std::string::npos) << what;
    EXPECT_NE(status.message().find("drli build"), std::string::npos)
        << what << ": " << status.ToString();
  };
  for (const std::string& path : paths) {
    for (const bool mmap : {true, false}) {
      SnapshotLoadOptions options;
      options.prefer_mmap = mmap;
      const auto loaded = LoadDualLayerIndex(path, options);
      ASSERT_FALSE(loaded.ok()) << path;
      expect_hint(loaded.status(), path + (mmap ? " (mmap)" : " (owning)"));
    }
    const auto info = InspectSnapshot(path);
    ASSERT_FALSE(info.ok()) << path;
    expect_hint(info.status(), path + " (inspect)");
  }
  std::filesystem::remove(bare);
}

// A v2 snapshot written by a build that kept ∃-edges the EDS LP
// accepted up to its 1e-7 tolerance (no kFlagVerifiedFineEdges): 74
// rows on the plane sum(x) = 1 at d = 3, one in three scaled down by a
// factor 1 - delta, delta in [1e-9, 3e-8]. Such a row sits just past a
// facet of the sublayer above, and the stored in-set gates it although
// it scores below every member. Over the stored graph DL+ answers
// uniform weights at k = 10 with row 15 (0.33333332678) at rank 9 and
// misses row 9 (0.33333332602), far beyond the traversal's rounding
// slack. The loader re-verifies the in-sets of such files and drops
// the in-edges that fail. The fixture cannot be regenerated: today's
// build writes only verified edges.
TEST(SnapshotCompatTest, UnverifiedFineEdgesAreDroppedAtLoad) {
  const std::string path = std::string(DRLI_TEST_GOLDEN_DIR) +
                           "/near_coplanar_tolerance_edges_v2.bin";
  const auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  std::uint64_t stored_edges = 0;
  for (const SnapshotSectionInfo& row : info.value().sections) {
    if (row.kind == static_cast<std::uint32_t>(
                        snapshot::SectionKind::kFineTargets)) {
      stored_edges = row.length / sizeof(std::uint32_t);
    }
  }
  auto loaded = LoadDualLayerIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const DualLayerIndex& index = loaded.value();
  const std::size_t fine_edges = index.NodeGraph().fine_out.num_edges();
  EXPECT_LT(fine_edges, stored_edges);
  EXPECT_GT(fine_edges, 0u);
  EXPECT_TRUE(CheckIndex(index).ok());

  const std::size_t d = index.points().dim();
  std::vector<TopKQuery> queries;
  for (const std::size_t k : {1u, 3u, 10u}) {
    queries.push_back(TopKQuery{Point(d, 1.0 / static_cast<double>(d)), k});
    for (TopKQuery& query :
         testing_util::RandomQueries(d, k, /*count=*/50, /*seed=*/k)) {
      queries.push_back(std::move(query));
    }
  }
  const auto expect_exact = [&](const DualLayerIndex& under_test,
                                const std::string& where) {
    for (const TopKQuery& query : queries) {
      const TopKResult want = Scan(index.points(), query);
      const TopKResult got = under_test.Query(query);
      ASSERT_EQ(got.items.size(), want.items.size()) << where;
      for (std::size_t r = 0; r < want.items.size(); ++r) {
        EXPECT_EQ(got.items[r].id, want.items[r].id)
            << where << " k=" << query.k << " rank " << r;
      }
    }
  };
  expect_exact(index, "loaded");

  // Saved again, the file carries the flag and reloads as is.
  const std::string resaved = ::testing::TempDir() + "/resaved_verified.v2";
  ASSERT_TRUE(SaveDualLayerIndex(index, resaved).ok());
  auto reloaded = LoadDualLayerIndex(resaved);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().NodeGraph().fine_out.num_edges(), fine_edges);
  expect_exact(reloaded.value(), "resaved");
  std::filesystem::remove(resaved);
}

// The manifest fixtures' recipes. Sharded: 240 anticorrelated tuples
// at d = 3 (seed 44), 3 hyperplane shards (seed 42), zero layer on.
// Tiered: memtable capacity 48 and fanout 3, 260 independent tuples at
// d = 3 (seed 45) inserted in order, then ids 2, 9, 16, ... erased --
// leaving 3 runs with 34 tombstones and 17 memtable rows.
constexpr char kShardedGolden[] = "sharded_d3_v1.drls";
constexpr char kTieredGolden[] = "tiered_d3_v1.drlt";

std::map<TupleId, Point> TieredGoldenLive() {
  const PointSet points = Generate(Distribution::kIndependent, 260, 3, 45);
  std::map<TupleId, Point> live;
  for (TupleId id = 0; id < points.size(); ++id) {
    if (id % 7 != 2) live[id] = points.Materialize(id);
  }
  return live;
}

std::vector<std::uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

// The golden directory's files of the manifest `base`: the manifest
// and its partition snapshots ("<base>.shard-NNNN", "<base>.run-NNNNNN").
std::vector<std::string> ManifestFiles(const std::string& dir,
                                       const std::string& base) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(base, 0) == 0) files.push_back(name);
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Every file of the fixture `base` equals, byte for byte, the file
// `save` writes under the same base name in a fresh directory, and
// `save` writes no other file.
template <typename Save>
void ExpectResavedIdentically(const std::string& base, const Save& save) {
  const std::string golden_dir = DRLI_TEST_GOLDEN_DIR;
  const std::string out_dir = ::testing::TempDir() + "/resave_" + base;
  std::filesystem::remove_all(out_dir);
  std::filesystem::create_directories(out_dir);
  ASSERT_TRUE(save(out_dir + "/" + base).ok()) << base;
  const std::vector<std::string> golden = ManifestFiles(golden_dir, base);
  ASSERT_GT(golden.size(), 1u) << base;
  EXPECT_EQ(ManifestFiles(out_dir, base), golden) << base;
  for (const std::string& name : golden) {
    EXPECT_EQ(FileBytes(out_dir + "/" + name),
              FileBytes(golden_dir + "/" + name))
        << name << " differs after re-save";
  }
  std::filesystem::remove_all(out_dir);
}

// Every answer of `engine` is the exact top-k over `universe`.
void ExpectAnswersLikeScan(const TopKIndex& engine,
                           const CheckUniverse& universe,
                           const std::string& where) {
  for (const std::size_t k : {1u, 10u, 50u}) {
    for (const TopKQuery& query : testing_util::RandomQueries(
             universe.rows.dim(), k, /*count=*/20, /*seed=*/k)) {
      const TopKReference reference(universe, query.weights, k);
      const std::string violation =
          reference.Check(engine.Query(query), MatchRule::kExact, {});
      EXPECT_TRUE(violation.empty()) << where << " k=" << k << ": "
                                     << violation;
    }
  }
}

TEST(SnapshotCompatTest, ShardManifestGoldenLoadsAnswersAndResaves) {
  const std::string path =
      std::string(DRLI_TEST_GOLDEN_DIR) + "/" + kShardedGolden;
  const auto loaded = LoadShardedIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ShardedDualLayerIndex& index = loaded.value();
  EXPECT_EQ(index.num_shards(), 3u);
  EXPECT_EQ(index.partitioner(), ShardPartitioner::kHyperplane);
  ExpectAnswersLikeScan(
      index,
      CheckUniverse::Of(Generate(Distribution::kAnticorrelated, 240, 3, 44)),
      kShardedGolden);
  ExpectResavedIdentically(kShardedGolden, [&](const std::string& out) {
    return SaveShardedIndex(index, out);
  });
}

TEST(SnapshotCompatTest, TieredManifestGoldenLoadsAnswersAndResaves) {
  const std::string path =
      std::string(DRLI_TEST_GOLDEN_DIR) + "/" + kTieredGolden;
  const auto loaded = LoadTieredIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TieredDualLayerIndex& index = loaded.value();
  EXPECT_EQ(index.num_runs(), 3u);
  EXPECT_EQ(index.tombstone_count(), 34u);
  EXPECT_EQ(index.memtable_size(), 17u);
  ExpectAnswersLikeScan(index, CheckUniverse::Of(TieredGoldenLive(), 3),
                        kTieredGolden);
  ExpectResavedIdentically(kTieredGolden, [&](const std::string& out) {
    return SaveTieredIndex(index, out);
  });
}

// Every answer of `loaded` equals the answer of `saved`, the engine it
// was loaded from (or the same file through its own loader): items,
// scores and evaluations.
void ExpectAnswersLikeSaved(const TopKIndex& loaded, const TopKIndex& saved) {
  for (const TopKQuery& query : testing_util::RandomQueries(
           saved.dim(), /*k=*/10, /*count=*/20, /*seed=*/7)) {
    const TopKResult want = saved.Query(query);
    const TopKResult got = loaded.Query(query);
    ASSERT_EQ(got.items.size(), want.items.size());
    for (std::size_t r = 0; r < want.items.size(); ++r) {
      EXPECT_EQ(got.items[r].id, want.items[r].id) << "rank " << r;
      EXPECT_EQ(got.items[r].score, want.items[r].score) << "rank " << r;
    }
    EXPECT_EQ(got.stats.tuples_evaluated, want.stats.tuples_evaluated);
  }
}

// LoadEngine routes each format by its magic into its own slot, and
// index() is the engaged slot.
TEST(SnapshotCompatTest, LoadEngineRoutesEveryFormatToItsSlot) {
  const std::string golden_dir = DRLI_TEST_GOLDEN_DIR;

  auto single = LoadEngine(GoldenPath(kRecipes[0], 2));
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_TRUE(single.value().dl.has_value());
  EXPECT_FALSE(single.value().sharded.has_value());
  EXPECT_FALSE(single.value().tiered.has_value());
  EXPECT_EQ(&single.value().index(), &*single.value().dl);
  EXPECT_TRUE(single.value().partitions().parts.empty());
  const auto direct_dl = LoadDualLayerIndex(GoldenPath(kRecipes[0], 2));
  ASSERT_TRUE(direct_dl.ok());
  ExpectAnswersLikeSaved(single.value().index(), direct_dl.value());

  auto sharded = LoadEngine(golden_dir + "/" + kShardedGolden);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_FALSE(sharded.value().dl.has_value());
  ASSERT_TRUE(sharded.value().sharded.has_value());
  EXPECT_FALSE(sharded.value().tiered.has_value());
  EXPECT_EQ(&sharded.value().index(), &*sharded.value().sharded);
  EXPECT_EQ(sharded.value().partitions().parts.size(), 3u);
  const auto direct_sharded =
      LoadShardedIndex(golden_dir + "/" + kShardedGolden);
  ASSERT_TRUE(direct_sharded.ok());
  ExpectAnswersLikeSaved(sharded.value().index(), direct_sharded.value());

  // A fresh DRLT: runs, tombstones and a partial memtable.
  TieredIndexOptions options;
  options.memtable_capacity = 40;
  TieredDualLayerIndex saved(3, options);
  const PointSet points = Generate(Distribution::kIndependent, 200, 3, 46);
  for (std::size_t i = 0; i < points.size(); ++i) saved.Insert(points[i]);
  for (TupleId id = 1; id < points.size(); id += 9) saved.Erase(id);
  const std::string path = ::testing::TempDir() + "/load_engine.drlt";
  ASSERT_TRUE(SaveTieredIndex(saved, path).ok());
  auto tiered = LoadEngine(path);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  EXPECT_FALSE(tiered.value().dl.has_value());
  EXPECT_FALSE(tiered.value().sharded.has_value());
  ASSERT_TRUE(tiered.value().tiered.has_value());
  EXPECT_EQ(&tiered.value().index(), &*tiered.value().tiered);
  EXPECT_EQ(tiered.value().partitions().parts.size(), saved.num_runs());
  ExpectAnswersLikeSaved(tiered.value().index(), saved);

  // index() reads the slot, so a moved engine answers from its new home.
  LoadedEngine moved = std::move(tiered).value();
  EXPECT_EQ(&moved.index(), &*moved.tiered);
  ExpectAnswersLikeSaved(moved.index(), saved);
}

// A file of unknown magic, a truncated manifest of either kind and a
// missing file are errors, never a crash or a half-loaded engine.
TEST(SnapshotCompatTest, LoadEngineRejectsUnknownAndTruncatedFiles) {
  const std::string dir = ::testing::TempDir() + "/load_engine_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& name,
                         const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return dir + "/" + name;
  };
  const std::string unknown = write("unknown.bin", {'X', 'Y', 'Z', 'W', 1, 2});
  EXPECT_FALSE(LoadEngine(unknown).ok());
  EXPECT_FALSE(LoadEngine(dir + "/missing.bin").ok());
  for (const char* golden : {kShardedGolden, kTieredGolden}) {
    std::vector<std::uint8_t> bytes =
        FileBytes(std::string(DRLI_TEST_GOLDEN_DIR) + "/" + golden);
    ASSERT_GT(bytes.size(), 16u) << golden;
    bytes.resize(bytes.size() / 2);
    const auto loaded = LoadEngine(write(golden, bytes));
    EXPECT_FALSE(loaded.ok()) << golden;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace drli
