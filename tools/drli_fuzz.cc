// drli_fuzz — seeded differential fuzzer over all index families.
//
//   drli_fuzz --cases=500 --seed=1        # seeds 1..500
//   drli_fuzz --replay=391                # one failing seed, verbose
//   drli_fuzz --cases=200 --dynamic=0     # skip the dynamic-index oracle
//   drli_fuzz --mixed-rw --cases=40       # sustained ~95/5 read/write
//                                         # traces against the tiered
//                                         # engine (nightly sanitizer
//                                         # soak entry point)
//   drli_fuzz --snapshot-faults --flips=20000 --seed=7
//                                         # snapshot corruption sweep +
//                                         # tiered crash-recovery sweep
//   drli_fuzz --budget-faults --cases=20 --seed=3
//                                         # exhaustive execution-budget
//                                         # fault sweep (every step index
//                                         # of every family, step budget
//                                         # and cancellation)
//   drli_fuzz --server-faults --cases=3 --seed=5
//                                         # serving front end under fire:
//                                         # corrupt frames, disconnects,
//                                         # reload races, deadline storms,
//                                         # overload (one sweep per seed)
//
// Every case builds a fresh adversarial dataset from its seed (exact
// duplicates, grid-snapped coordinates, coplanar rows, d in 2..5, tiny
// n), runs the invariant checker on dl/dl+ builds, cross-checks every
// registered family against the brute-force reference, and replays an
// insert/erase/query/compact-step trace against the tiered dynamic
// engine. A failure prints "FAIL seed=<seed>" and
// the process exits nonzero; the same seed reproduces the case
// deterministically.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/dual_layer.h"
#include "core/serialization.h"
#include "data/generator.h"
#include "testing/fault_inject.h"
#include "testing/fuzz.h"
#include "testing/server_faults.h"

#include "flags.h"

namespace drli {
namespace {

// Sustained ~95% read / ~5% write traces against the tiered dynamic
// engine, each checked step by step against a brute-force mirror. The
// nightly ASan/UBSan job runs this mode to soak the concurrent-shape
// state machine (seal and compaction under a read stream).
int RunMixedTraces(std::size_t cases, std::uint64_t first_seed) {
  std::size_t failed = 0;
  std::size_t max_runs = 0;
  std::size_t mid_compaction = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = first_seed + i;
    const FuzzCaseResult result = RunMixedTraceCase(seed);
    max_runs = std::max(max_runs, result.max_runs);
    mid_compaction += result.mid_compaction_queries;
    if (result.ok()) continue;
    ++failed;
    std::printf("FAIL seed=%llu (%s)\n",
                static_cast<unsigned long long>(seed),
                result.dataset_desc.c_str());
    for (const std::string& failure : result.failures) {
      std::printf("  %s\n", failure.c_str());
    }
  }
  if (failed == 0) {
    std::printf("%zu/%zu mixed-rw traces ok (max %zu runs, %zu queries "
                "mid-compaction)\n",
                cases, cases, max_runs, mid_compaction);
    return 0;
  }
  std::printf("%zu/%zu mixed-rw traces FAILED\n", failed, cases);
  return 1;
}

// Execution-budget fault sweep: for each case seed, derive the usual
// adversarial dataset, then for every index family and EVERY step index
// of its traversal fire a step budget and a cancel fuse there, and
// check the certified partial result against the exact answer. The
// sweep is fully deterministic in the seed.
int RunBudgetFaults(std::size_t cases, std::uint64_t first_seed) {
  FuzzOptions options;
  options.max_n = 120;  // exhaustive per-step sweep; keep cases compact
  bool ok = true;
  std::size_t datasets = 0;
  std::size_t total_queries = 0;
  std::size_t total_partials = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = first_seed + i;
    std::string desc;
    const PointSet dataset = MakeFuzzDataset(seed, options, &desc);
    if (dataset.empty()) continue;
    ++datasets;
    Rng rng(seed ^ 0xb5297a4db1a54e25ULL);
    std::vector<TopKQuery> queries;
    {
      TopKQuery query;  // uniform weights maximize score collisions
      query.k = std::min<std::size_t>(3, dataset.size());
      query.weights.assign(dataset.dim(),
                           1.0 / static_cast<double>(dataset.dim()));
      queries.push_back(std::move(query));
    }
    {
      TopKQuery query;
      query.k = 1 + rng.Index(dataset.size());
      query.weights = rng.SimplexWeight(dataset.dim());
      queries.push_back(std::move(query));
    }
    const testing::BudgetFaultReport report =
        testing::RunBudgetFaultSweep(dataset, queries);
    total_queries += report.cases;
    total_partials += report.partials;
    if (!report.ok()) {
      ok = false;
      std::printf("FAIL seed=%llu (%s)\n  %s\n",
                  static_cast<unsigned long long>(seed), desc.c_str(),
                  report.ToString().c_str());
    }
  }
  // A sweep in which no budget ever fired means the gates are not
  // wired into the traversals at all -- that is itself a failure.
  if (datasets > 0 && total_partials == 0) {
    ok = false;
    std::printf("budget fault sweep never produced a partial result\n");
  }
  std::printf("%s: %zu dataset(s), %zu budgeted quer(ies), %zu partial\n",
              ok ? "budget fault sweep ok" : "budget fault sweep FAILED",
              datasets, total_queries, total_partials);
  return ok ? 0 : 1;
}

// Snapshot corruption sweep: builds one index per family (plain DL,
// clustered DL+, 2-d weight-table DL+), saves it, and runs the full
// fault matrix against each file. Nonzero exit when any mutant loads or
// is rejected without a clean Status; a crash takes the process down,
// which the nightly ASan/UBSan job reports with a trace.
int RunSnapshotFaults(std::size_t flips, std::uint64_t seed) {
  struct Config {
    const char* label;
    std::size_t d;
    bool zero_layer;
  };
  const Config configs[] = {
      {"dl_4d", 4, false},
      {"dl_plus_4d", 4, true},
      {"dl_plus_2d", 2, true},
  };
  const std::string base =
      "/tmp/drli_faults_" + std::to_string(getpid()) + "_";
  bool ok = true;
  for (const Config& config : configs) {
    const PointSet points =
        Generate(Distribution::kAnticorrelated, 400, config.d, seed);
    DualLayerOptions options;
    options.build_zero_layer = config.zero_layer;
    const DualLayerIndex index = DualLayerIndex::Build(points, options);
    const std::string path = base + config.label + ".bin";
    if (const Status status = SaveDualLayerIndex(index, path); !status.ok()) {
      std::printf("FAIL %s: %s\n", path.c_str(), status.ToString().c_str());
      ok = false;
      continue;
    }
    testing::FaultSweepOptions sweep;
    sweep.seed = seed;
    sweep.num_flips = flips;
    const testing::FaultSweepReport report =
        testing::RunSnapshotFaultSweep(path, sweep);
    std::printf("%s: %s\n", config.label, report.ToString().c_str());
    ok = ok && report.ok();
    std::remove(path.c_str());
  }
  // Tiered crash-recovery sweep: crash prefixes over the generation
  // write schedule plus corruption of the manifest and run files.
  {
    testing::TieredFaultOptions sweep;
    sweep.seed = seed;
    sweep.num_flips = flips;
    const testing::TieredFaultReport report =
        testing::RunTieredFaultSweep(base + "tiered", sweep);
    std::printf("tiered crash sweep: %s\n", report.ToString().c_str());
    ok = ok && report.ok();
  }
  std::printf(ok ? "snapshot fault sweep ok\n"
                 : "snapshot fault sweep FAILED\n");
  return ok ? 0 : 1;
}

// Serving-front-end fault sweep: each case stands up a real server on
// a loopback socket and runs the full attack matrix (corrupt frames,
// mid-request disconnects, reload-during-query races, deadline storms,
// overload). The nightly ASan/UBSan job runs this as a soak.
int RunServerFaults(std::size_t cases, std::uint64_t first_seed) {
  const std::string base =
      "/tmp/drli_server_faults_" + std::to_string(getpid()) + "_";
  bool ok = true;
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = first_seed + i;
    testing::ServerFaultOptions sweep;
    sweep.seed = seed;
    const testing::ServerFaultReport report = testing::RunServerFaultSweep(
        base + std::to_string(seed), sweep);
    std::printf("seed=%llu: %s\n", static_cast<unsigned long long>(seed),
                report.ToString().c_str());
    if (!report.ok()) {
      ok = false;
      std::printf("FAIL seed=%llu\n", static_cast<unsigned long long>(seed));
    }
  }
  std::printf(ok ? "server fault sweep ok\n" : "server fault sweep FAILED\n");
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  const cli::Flags flags = cli::ParseFlags(
      argc, argv, 1, "drli_fuzz",
      {"cases", "seed", "replay", "dynamic", "max-n", "mixed-rw",
       "snapshot-faults", "flips", "budget-faults", "server-faults"});
  // --replay=SEED runs that one seed, verbosely.
  const bool replay = flags.count("replay") != 0;
  const std::uint64_t first_seed =
      cli::GetSizeFlag(flags, replay ? "replay" : "seed", 1);
  const std::size_t cases = replay ? 1 : cli::GetSizeFlag(flags, "cases", 100);
  // DRLI_FAULT_FLIPS pre-sets the flip budget (the nightly job raises
  // it); --flips= wins over the environment.
  std::size_t flips = 1000;
  if (const char* env = std::getenv("DRLI_FAULT_FLIPS")) {
    flips = std::strtoul(env, nullptr, 10);
  }
  flips = cli::GetSizeFlag(flags, "flips", flips);
  FuzzOptions options;
  options.dynamic = cli::GetSizeFlag(flags, "dynamic", 1, 1) != 0;
  options.max_n = cli::GetSizeFlag(flags, "max-n", options.max_n);
  if (flags.count("snapshot-faults")) {
    return RunSnapshotFaults(flips, first_seed);
  }
  if (flags.count("budget-faults")) return RunBudgetFaults(cases, first_seed);
  if (flags.count("mixed-rw")) return RunMixedTraces(cases, first_seed);
  if (flags.count("server-faults")) return RunServerFaults(cases, first_seed);

  std::size_t failed = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = first_seed + i;
    const FuzzCaseResult result = RunFuzzCase(seed, options);
    if (replay) {
      std::printf("seed=%llu dataset: %s\n",
                  static_cast<unsigned long long>(seed),
                  result.dataset_desc.c_str());
      std::printf("  tiered trace: max_runs=%zu mid_compaction_queries=%zu "
                  "peak_tombstones=%zu split_tie_queries=%zu\n",
                  result.max_runs, result.mid_compaction_queries,
                  result.peak_tombstones, result.split_tie_queries);
    }
    if (result.ok()) continue;
    ++failed;
    std::printf("FAIL seed=%llu (%s)\n",
                static_cast<unsigned long long>(seed),
                result.dataset_desc.c_str());
    for (const std::string& failure : result.failures) {
      std::printf("  %s\n", failure.c_str());
    }
  }
  if (failed == 0) {
    std::printf("%zu/%zu cases ok (seeds %llu..%llu)\n", cases, cases,
                static_cast<unsigned long long>(first_seed),
                static_cast<unsigned long long>(first_seed + cases - 1));
    return 0;
  }
  std::printf("%zu/%zu cases FAILED\n", failed, cases);
  return 1;
}

}  // namespace
}  // namespace drli

int main(int argc, char** argv) { return drli::Main(argc, argv); }
