// Shared plumbing for the benchmark harness that regenerates the
// paper's tables and figures (Section VI).
//
// Conventions:
//  * The cost metric is the paper's Definition 9 -- the number of
//    relation tuples evaluated by the scoring function. Wall-clock
//    time is reported too but is not the headline number.
//  * Dataset sizes scale with the DRLI_BENCH_N environment variable
//    (default 10000; the paper uses 200000 -- set DRLI_BENCH_N=200000
//    to run at paper scale). DRLI_BENCH_QUERIES (default 30) controls
//    how many random weight vectors are averaged.
//  * A bench that writes a JSON record takes its path from argv[1],
//    else DRLI_BENCH_OUT, else a BENCH_<name>.json default
//    (OutputPath), and records RunProvenance() on every row.

#ifndef DRLI_BENCH_BENCH_UTIL_H_
#define DRLI_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/stopwatch.h"
#include "core/index_registry.h"
#include "data/generator.h"

namespace drli {
namespace bench_util {

// The positive integer in environment variable `name`, or `fallback`
// when it is unset or empty. Any other value -- trailing characters
// ("200k", "2e5"), a sign, zero -- prints an error naming the variable
// and exits the process with code 2.
std::size_t EnvSize(const char* name, std::size_t fallback);

// Where a bench writes its JSON record: argv[1], else DRLI_BENCH_OUT,
// else `fallback`.
std::string OutputPath(int argc, char** argv, const char* fallback);

// What a recorded number was measured on and with.
struct Provenance {
  std::string kernel;             // active score-kernel dispatch target
  unsigned hardware_threads = 0;  // std::thread::hardware_concurrency()
  // `git rev-parse --short HEAD` of the source tree the bench was built
  // from, with "-dirty" when tracked files differ from HEAD; "unknown"
  // when git or the tree is unavailable.
  std::string commit;
};

// Computed once per process; never fails.
const Provenance& RunProvenance();

// DRLI_BENCH_N (default 10000).
std::size_t DefaultN();

// DRLI_BENCH_QUERIES (default 30).
std::size_t NumQueries();

// The benches' shared datasets (seed 20120401), generated once per
// (dist, n, d).
const PointSet& GetDataset(Distribution dist, std::size_t n, std::size_t d);

// The timer of the plain-main benches. `body(i)` runs in batches of
// calls, i = 0, 1, ... within a batch, the batch size doubled until
// one batch takes kMinBatchSeconds; then `best_of` batches are timed.
// Returns the best batch's seconds per call.
inline constexpr int kBestOf = 7;
inline constexpr double kMinBatchSeconds = 0.05;

template <typename Body>
double BestSeconds(Body body, int best_of = kBestOf) {
  std::size_t calls = 1;
  for (;; calls *= 2) {
    Stopwatch timer;
    for (std::size_t i = 0; i < calls; ++i) body(i);
    if (timer.ElapsedSeconds() >= kMinBatchSeconds) break;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int batch = 0; batch < best_of; ++batch) {
    Stopwatch timer;
    for (std::size_t i = 0; i < calls; ++i) body(i);
    best = std::min(best,
                    timer.ElapsedSeconds() / static_cast<double>(calls));
  }
  return best;
}

}  // namespace bench_util
}  // namespace drli

#endif  // DRLI_BENCH_BENCH_UTIL_H_
