// Cross-version compatibility against checked-in golden snapshots.
//
// tests/golden/ holds one v1 and one v2 snapshot per recipe, produced
// by the deterministic build over a seeded generator. Loading them
// with today's loader and cross-checking answers against a freshly
// built index proves that (a) old v1 files written before the v2
// format existed keep loading, and (b) a future format change cannot
// silently orphan existing v2 files.
//
// Regenerate after an *intentional* format change with:
//   DRLI_REGEN_GOLDEN=1 ./snapshot_compat_test
// which rewrites the fixtures in the source tree.

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/dual_layer.h"
#include "core/serialization.h"
#include "data/generator.h"
#include "testing/check_index.h"
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
// the weight-range-table chain. Both shapes must survive either format.
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
    for (const std::uint32_t version :
         {snapshot::kVersionV1, snapshot::kVersionV2}) {
      const std::string path = GoldenPath(recipe, version);
      if (regen) {
        SnapshotSaveOptions save;
        save.format_version = version;
        ASSERT_TRUE(SaveDualLayerIndex(fresh, path, save).ok()) << path;
      }
      ASSERT_TRUE(std::filesystem::exists(path))
          << path << " missing -- run with DRLI_REGEN_GOLDEN=1";

      auto loaded = LoadDualLayerIndex(path);
      ASSERT_TRUE(loaded.ok())
          << path << ": " << loaded.status().ToString();
      EXPECT_EQ(loaded.value().size(), recipe.n) << path;
      EXPECT_EQ(loaded.value().points().dim(), recipe.d) << path;
      EXPECT_EQ(loaded.value().uses_weight_table(),
                fresh.uses_weight_table())
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
}

TEST(SnapshotCompatTest, GoldenInfoMatchesRecipe) {
  for (const GoldenRecipe& recipe : kRecipes) {
    for (const std::uint32_t version :
         {snapshot::kVersionV1, snapshot::kVersionV2}) {
      const std::string path = GoldenPath(recipe, version);
      if (!std::filesystem::exists(path)) {
        GTEST_SKIP() << path << " missing -- run with DRLI_REGEN_GOLDEN=1";
      }
      const auto info = InspectSnapshot(path);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_EQ(info.value().version, version);
      EXPECT_EQ(info.value().num_points, recipe.n);
      EXPECT_EQ(info.value().dim, recipe.d);
      if (version == snapshot::kVersionV2) {
        for (const SnapshotSectionInfo& row : info.value().sections) {
          EXPECT_TRUE(row.crc_ok) << path << " section " << row.name;
        }
      }
    }
  }
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
  EXPECT_LT(index.fine_out().num_edges(), stored_edges);
  EXPECT_GT(index.fine_out().num_edges(), 0u);
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
  EXPECT_EQ(reloaded.value().fine_out().num_edges(),
            index.fine_out().num_edges());
  expect_exact(reloaded.value(), "resaved");
  std::filesystem::remove(resaved);
}

}  // namespace
}  // namespace drli
