#include "bench/bench_util.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include <sys/wait.h>

#include "common/check.h"
#include "common/simd.h"

namespace drli {
namespace bench_util {

namespace {

constexpr std::uint64_t kDataSeed = 20120401;  // ICDE 2012

// The short hash of DRLI_SOURCE_DIR's HEAD (a compile definition), with
// "-dirty" when `git diff --quiet HEAD` reports changed tracked files.
std::string ReadCommit() {
  const std::string git = std::string("git -C '") + DRLI_SOURCE_DIR + "' ";
  std::FILE* pipe =
      popen((git + "rev-parse --short HEAD 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buffer[64] = {};
  const bool read = std::fgets(buffer, sizeof(buffer), pipe) != nullptr;
  if (pclose(pipe) != 0 || !read) return "unknown";
  std::string commit(buffer, std::strcspn(buffer, " \r\n"));
  if (commit.empty()) return "unknown";
  const int status =
      std::system((git + "diff --quiet HEAD -- >/dev/null 2>&1").c_str());
  if (status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 1) {
    commit += "-dirty";
  }
  return commit;
}

}  // namespace

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const char* end = value + std::strlen(value);
  std::size_t parsed = 0;
  const auto [stop, error] = std::from_chars(value, end, parsed);
  if (error != std::errc() || stop != end || parsed == 0) {
    std::fprintf(stderr, "%s=%s: expected a positive integer\n", name, value);
    std::exit(2);
  }
  return parsed;
}

std::string OutputPath(int argc, char** argv, const char* fallback) {
  if (argc > 1) return argv[1];
  const char* env_out = std::getenv("DRLI_BENCH_OUT");
  return env_out != nullptr ? env_out : fallback;
}

const Provenance& RunProvenance() {
  static const Provenance* provenance = new Provenance{
      SimdTargetName(ActiveSimdTarget()), std::thread::hardware_concurrency(),
      ReadCommit()};
  return *provenance;
}

std::size_t DefaultN() {
  static const std::size_t n = EnvSize("DRLI_BENCH_N", 10000);
  return n;
}

std::size_t NumQueries() {
  static const std::size_t q = EnvSize("DRLI_BENCH_QUERIES", 30);
  return q;
}

const PointSet& GetDataset(Distribution dist, std::size_t n, std::size_t d) {
  static std::map<std::string, std::unique_ptr<PointSet>>* cache =
      new std::map<std::string, std::unique_ptr<PointSet>>();
  const std::string key = std::string(DistributionName(dist)) + "/" +
                          std::to_string(n) + "/" + std::to_string(d);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, std::make_unique<PointSet>(
                                 Generate(dist, n, d, kDataSeed)))
             .first;
  }
  return *it->second;
}

}  // namespace bench_util
}  // namespace drli
