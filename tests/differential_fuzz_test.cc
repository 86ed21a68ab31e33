// Fuzz smoke: 500 seeded differential cases across d in {2..5} (five
// shards so ctest runs them in parallel), deterministic seed replay,
// and the minimized failure corpus in tests/corpus/.

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "testing/fuzz.h"

namespace drli {
namespace {

// Shards share one seed space: shard s covers seeds s*100+1..s*100+100.
void RunShard(std::uint64_t shard) {
  std::set<std::size_t> dims;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    const std::uint64_t seed = shard * 100 + i;
    const FuzzCaseResult result = RunFuzzCase(seed);
    dims.insert(result.d);
    EXPECT_TRUE(result.ok())
        << "FAIL seed=" << seed << " (" << result.dataset_desc
        << "); replay with: drli_fuzz --replay=" << seed;
    if (!result.ok()) {
      for (const std::string& failure : result.failures) {
        ADD_FAILURE() << failure;
      }
      return;
    }
  }
  // 100 seeds draw d uniformly from {2..5}; all four must appear.
  EXPECT_EQ(dims.size(), 4u) << "dimension coverage hole in shard "
                             << shard;
}

TEST(DifferentialFuzzTest, Shard0) { RunShard(0); }
TEST(DifferentialFuzzTest, Shard1) { RunShard(1); }
TEST(DifferentialFuzzTest, Shard2) { RunShard(2); }
TEST(DifferentialFuzzTest, Shard3) { RunShard(3); }
TEST(DifferentialFuzzTest, Shard4) { RunShard(4); }

TEST(DifferentialFuzzTest, SeedReplayIsDeterministic) {
  for (const std::uint64_t seed : {17ULL, 391ULL, 52ULL}) {
    const FuzzCaseResult first = RunFuzzCase(seed);
    const FuzzCaseResult second = RunFuzzCase(seed);
    EXPECT_EQ(first.dataset_desc, second.dataset_desc) << seed;
    EXPECT_EQ(first.n, second.n) << seed;
    EXPECT_EQ(first.d, second.d) << seed;
    EXPECT_EQ(first.failures, second.failures) << seed;
  }
}

// Checks a "# floor: key>=value ..." corpus line against the trace
// telemetry, so a seed picked for a trace shape keeps that shape.
void CheckTraceFloor(const std::string& line, const FuzzCaseResult& r,
                     const std::string& file) {
  const std::map<std::string, std::size_t> telemetry = {
      {"max_runs", r.max_runs},
      {"mid_compaction_queries", r.mid_compaction_queries},
      {"peak_tombstones", r.peak_tombstones},
      {"split_tie_queries", r.split_tie_queries}};
  std::istringstream in(line.substr(std::string("# floor:").size()));
  std::string key;
  std::size_t floor = 0;
  while (std::getline(in >> std::ws, key, '>') && in.ignore() >> floor) {
    EXPECT_GE(telemetry.at(key), floor)
        << file << ": the trace lost its shape (" << key << ")";
  }
}

// Every .seed file in tests/corpus/ is a historical failure or a pinned
// trace shape; all must stay fixed. The file format is comment lines
// (#), optional "# floor:" lines of telemetry minimums, and one seed.
TEST(DifferentialFuzzTest, CorpusStaysFixed) {
  const std::filesystem::path corpus(DRLI_TEST_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus)) << corpus;
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".seed") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::uint64_t seed = 0;
    bool have_seed = false;
    std::vector<std::string> floors;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("# floor:", 0) == 0) floors.push_back(line);
      if (line.empty() || line[0] == '#') continue;
      seed = std::stoull(line);
      have_seed = true;
      break;
    }
    ASSERT_TRUE(have_seed) << "no seed in " << entry.path();
    const FuzzCaseResult result = RunFuzzCase(seed);
    EXPECT_TRUE(result.ok())
        << entry.path().filename() << " regressed (seed " << seed << ", "
        << result.dataset_desc << ")";
    for (const std::string& failure : result.failures) {
      ADD_FAILURE() << failure;
    }
    for (const std::string& floor : floors) {
      CheckTraceFloor(floor, result, entry.path().filename().string());
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 7u) << "corpus went missing";
}

}  // namespace
}  // namespace drli
