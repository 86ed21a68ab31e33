// TSan target: a hot-snapshot save racing a reader pool. The serving
// front end persists generations with SaveTieredIndex while query
// workers keep answering from the same engine, so the const save path
// (run table walk + per-run serialization) and the const query path
// must be free of data races, and every snapshot written under load
// must reload to a bit-identical engine -- no torn generation.
//
// The CI tsan job builds and runs this binary explicitly; under plain
// builds it doubles as a functional save-under-load test.

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "gtest/gtest.h"

#include "common/random.h"
#include "core/tiered_index.h"
#include "storage/tiered_io.h"
#include "test_util.h"

namespace drli {
namespace {

void ExpectIdenticalAnswers(const TopKIndex& expected_index,
                            const TopKIndex& actual_index,
                            const std::vector<TopKQuery>& queries,
                            const char* what) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const TopKResult expected = expected_index.Query(queries[i]);
    const TopKResult actual = actual_index.Query(queries[i]);
    ASSERT_EQ(expected.items.size(), actual.items.size())
        << what << " query " << i;
    for (std::size_t r = 0; r < expected.items.size(); ++r) {
      EXPECT_EQ(expected.items[r].id, actual.items[r].id)
          << what << " query " << i << " rank " << r;
      EXPECT_EQ(expected.items[r].score, actual.items[r].score)
          << what << " query " << i << " rank " << r;
    }
  }
}

TEST(DynamicSaveRaceTest, ConcurrentTieredSaveAndReaderPool) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("drli_save_race_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);

  TieredIndexOptions options;
  options.run.build_zero_layer = false;
  options.memtable_capacity = 64;  // several runs + a live memtable
  TieredDualLayerIndex index(3, options);
  Rng rng(7);

  const std::vector<TopKQuery> queries =
      testing_util::RandomQueries(3, /*k=*/5, /*count=*/16, /*seed=*/21);
  constexpr std::size_t kGenerations = 4;
  constexpr std::size_t kReaders = 4;

  for (std::size_t gen = 0; gen < kGenerations; ++gen) {
    // Single-threaded mutation burst between the concurrent phases:
    // the engine itself promises const-safety, not mutate-vs-read.
    for (int i = 0; i < 200; ++i) {
      const TupleId id =
          index.Insert(Point{rng.Uniform(), rng.Uniform(), rng.Uniform()});
      if (i % 5 == 0) index.Erase(id);
    }
    std::vector<TopKResult> expected;
    for (const TopKQuery& query : queries) {
      expected.push_back(index.Query(query));
    }

    // One saver vs. a reader pool, all over the same engine.
    const std::string path = dir + "/gen-" + std::to_string(gen) + ".drlt";
    std::atomic<bool> save_done{false};
    Status save_status;
    std::thread saver([&] {
      save_status = SaveTieredIndex(index, path);
      save_done.store(true);
    });
    std::vector<std::thread> readers;
    std::atomic<std::size_t> mismatches{0};
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        std::size_t q = r;
        do {
          const TopKResult got = index.Query(queries[q % queries.size()]);
          const TopKResult& want = expected[q % queries.size()];
          if (got.items.size() != want.items.size()) {
            mismatches.fetch_add(1);
          } else {
            for (std::size_t i = 0; i < got.items.size(); ++i) {
              if (got.items[i].id != want.items[i].id ||
                  got.items[i].score != want.items[i].score) {
                mismatches.fetch_add(1);
              }
            }
          }
          ++q;
        } while (!save_done.load());
      });
    }
    saver.join();
    for (std::thread& reader : readers) reader.join();
    ASSERT_TRUE(save_status.ok()) << save_status.ToString();
    EXPECT_EQ(mismatches.load(), 0u) << "generation " << gen;

    // The snapshot written under load is not torn: it reloads cleanly
    // and answers exactly like the live engine it was taken from.
    auto loaded = LoadTieredIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().size(), index.size());
    EXPECT_EQ(loaded.value().generation(), index.generation());
    ExpectIdenticalAnswers(index, loaded.value(), queries, "reload");
  }

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace drli
