#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>

#include "gtest/gtest.h"

#include "baselines/dominant_graph.h"
#include "core/dual_layer.h"
#include "data/generator.h"
#include "storage/mmap_file.h"
#include "storage/page_layout.h"
#include "test_util.h"

namespace drli {
namespace {

TEST(ReadFileContentsTest, RoundTripsBytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "drli_read_contents.bin")
          .string();
  const std::string payload("dual\0resolution\nlayer\xff", 22);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(payload.data(), 1, payload.size(), f);
  std::fclose(f);

  auto bytes = MmapFile::ReadFileContents(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_EQ(bytes.value().size(), payload.size());
  EXPECT_EQ(std::memcmp(bytes.value().data(), payload.data(), payload.size()),
            0);
  std::filesystem::remove(path);
}

TEST(ReadFileContentsTest, EmptyFileYieldsEmptyVector) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "drli_read_empty.bin")
          .string();
  std::fclose(std::fopen(path.c_str(), "wb"));
  auto bytes = MmapFile::ReadFileContents(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(bytes.value().empty());
  std::filesystem::remove(path);
}

TEST(ReadFileContentsTest, MissingFileCarriesPathAndErrnoDetail) {
  auto bytes = MmapFile::ReadFileContents("/nonexistent/drli_nope.bin");
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kIoError);
  // The Status names the failing syscall, the path, and the errno text
  // so a serving-directory misconfiguration is diagnosable from the
  // error alone.
  EXPECT_NE(bytes.status().message().find("open("), std::string::npos);
  EXPECT_NE(bytes.status().message().find("/nonexistent/drli_nope.bin"),
            std::string::npos);
  EXPECT_NE(bytes.status().message().find("No such file"),
            std::string::npos);
}

TEST(PageLayoutTest, PacksGroupsIntoPages) {
  // Two groups of 5 and 3 tuples, 2 per page: pages 0,0,1,1,2 | 3,3,4.
  const std::vector<std::vector<TupleId>> groups = {{0, 1, 2, 3, 4},
                                                    {5, 6, 7}};
  const PageLayout layout(groups, 2);
  EXPECT_EQ(layout.num_pages(), 5u);
  EXPECT_EQ(layout.page_of(0), 0u);
  EXPECT_EQ(layout.page_of(1), 0u);
  EXPECT_EQ(layout.page_of(4), 2u);
  EXPECT_EQ(layout.page_of(5), 3u);  // new group, new page
  EXPECT_EQ(layout.page_of(7), 4u);
}

TEST(PageLayoutTest, GroupsNeverSharePages) {
  const std::vector<std::vector<TupleId>> groups = {{0}, {1}, {2}};
  const PageLayout layout(groups, 100);
  EXPECT_EQ(layout.num_pages(), 3u);
  EXPECT_NE(layout.page_of(0), layout.page_of(1));
  EXPECT_NE(layout.page_of(1), layout.page_of(2));
}

TEST(PageLayoutTest, SequentialLayout) {
  const PageLayout layout = PageLayout::Sequential(10, 4);
  EXPECT_EQ(layout.num_pages(), 3u);
  EXPECT_EQ(layout.page_of(0), 0u);
  EXPECT_EQ(layout.page_of(3), 0u);
  EXPECT_EQ(layout.page_of(4), 1u);
  EXPECT_EQ(layout.page_of(9), 2u);
}

TEST(PageLayoutTest, DistinctPages) {
  const PageLayout layout = PageLayout::Sequential(100, 10);
  EXPECT_EQ(layout.DistinctPages({0, 1, 2}), 1u);
  EXPECT_EQ(layout.DistinctPages({0, 10, 20}), 3u);
  EXPECT_EQ(layout.DistinctPages({}), 0u);
  EXPECT_EQ(layout.DistinctPages({5, 5, 5, 15}), 2u);
}

TEST(PageLayoutTest, LruFetchesBasics) {
  const PageLayout layout = PageLayout::Sequential(100, 10);
  // Repeated access to one page: one fetch.
  EXPECT_EQ(layout.LruFetches({0, 1, 2, 3}, 1), 1u);
  // Alternating between two pages with a single frame: thrashing.
  EXPECT_EQ(layout.LruFetches({0, 10, 0, 10, 0, 10}, 1), 6u);
  // Two frames hold both pages.
  EXPECT_EQ(layout.LruFetches({0, 10, 0, 10, 0, 10}, 2), 2u);
}

TEST(PageLayoutTest, LruNeverBeatsDistinctPages) {
  Rng rng(3);
  const PageLayout layout = PageLayout::Sequential(1000, 16);
  std::vector<TupleId> trace;
  for (int i = 0; i < 500; ++i) {
    trace.push_back(static_cast<TupleId>(rng.Index(1000)));
  }
  const std::size_t distinct = layout.DistinctPages(trace);
  for (std::size_t frames : {1u, 4u, 64u, 1024u}) {
    EXPECT_GE(layout.LruFetches(trace, frames), distinct);
  }
  // With frames >= pages LRU matches the cold-miss count exactly.
  EXPECT_EQ(layout.LruFetches(trace, layout.num_pages()), distinct);
}

TEST(LayerGroupsTest, GroupsPartitionRelationInLayerOrder) {
  const PointSet pts = GenerateAnticorrelated(500, 3, 8);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  const auto groups = index.LayerGroups();
  std::vector<bool> seen(pts.size(), false);
  std::size_t total = 0;
  for (const auto& group : groups) {
    EXPECT_FALSE(group.empty());
    for (TupleId id : group) {
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, pts.size());
  EXPECT_EQ(groups.size(), index.build_stats().num_fine_layers);
  // Every group is one (coarse, fine) bucket.
  for (const auto& group : groups) {
    for (TupleId id : group) {
      EXPECT_EQ(index.coarse_layer_of(id),
                index.coarse_layer_of(group[0]));
      EXPECT_EQ(index.fine_layer_of(id), index.fine_layer_of(group[0]));
    }
  }
}

TEST(IoModelTest, LayerClusteredLayoutBeatsRandomPlacement) {
  // The paper's disk argument: storing layer-mates together makes the
  // touched-page count track the (small) access cost. Compare a
  // layer-clustered layout against an adversarial scattered layout on
  // the same DL query trace.
  const PointSet pts = GenerateAnticorrelated(4000, 3, 9);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  const PageLayout clustered(index.LayerGroups(), 64);

  // Scattered layout: tuples shuffled across pages.
  std::vector<TupleId> shuffled(pts.size());
  std::iota(shuffled.begin(), shuffled.end(), 0);
  Rng rng(10);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Index(i)]);
  }
  const PageLayout scattered({shuffled}, 64);

  std::size_t clustered_pages = 0, scattered_pages = 0;
  for (const TopKQuery& query : testing_util::RandomQueries(3, 10, 20, 11)) {
    const TopKResult result = index.Query(query);
    clustered_pages += clustered.DistinctPages(result.accessed);
    scattered_pages += scattered.DistinctPages(result.accessed);
  }
  EXPECT_LT(clustered_pages, scattered_pages);
}

TEST(IoModelTest, DlTouchesFewerPagesThanDg) {
  const PointSet pts = GenerateAnticorrelated(3000, 4, 12);
  const DualLayerIndex dl = DualLayerIndex::Build(pts);
  const DualLayerIndex dg =
      DualLayerIndex::Build(pts, DominantGraphConfig(false));
  const PageLayout dl_layout(dl.LayerGroups(), 64);
  const PageLayout dg_layout(dg.LayerGroups(), 64);
  std::size_t dl_pages = 0, dg_pages = 0;
  for (const TopKQuery& query : testing_util::RandomQueries(4, 10, 15, 13)) {
    dl_pages += dl_layout.DistinctPages(dl.Query(query).accessed);
    dg_pages += dg_layout.DistinctPages(dg.Query(query).accessed);
  }
  EXPECT_LE(dl_pages, dg_pages);
}

TEST(AccessTraceTest, TraceMatchesCostCounter) {
  const PointSet pts = GenerateIndependent(800, 3, 14);
  const DualLayerIndex index = DualLayerIndex::Build(pts);
  for (const TopKQuery& query : testing_util::RandomQueries(3, 10, 10, 15)) {
    const TopKResult result = index.Query(query);
    EXPECT_EQ(result.accessed.size(), result.stats.tuples_evaluated);
  }
}

}  // namespace
}  // namespace drli
