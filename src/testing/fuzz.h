// Seeded invariant fuzzer. One seed deterministically derives an
// adversarial dataset (distribution, dimension d in [2, 5], tiny to
// medium n, grid-snapped coordinates, exact duplicates, coplanar rows,
// constant attributes), then drives four oracles over it:
//
//  1. CheckIndex on fresh DL and DL+ builds (structural invariants);
//  2. the differential harness across every index family, with
//     degenerate queries (k = 0, k = n, k > n) and tied weights mixed
//     into the sampled ones, then a sampled query cut at random step
//     budgets and cancel fuses;
//  3. the scenario oracle (constrained, diversified and reverse top-k
//     on DL+, sharded and tiered engines);
//  4. optionally the tiered LSM dynamic engine with rng-derived
//     memtable/fanout knobs -- sometimes a memtable larger than the
//     trace, so rows pile up beside one big run until an explicit
//     seal or Compact() -- under interleaved insert / delete / query
//     / seal / compact-step traces, checked against a brute-force top-k
//     over the live rows, with a budgeted probe at a random cut point
//     on every query and a save/load roundtrip of the live multi-run
//     state at the end.
//
// Every answer, complete or partial, goes through the one result check
// of testing/result_check.h. Everything is derived from the case seed,
// so any failure replays with `drli_fuzz --replay=<seed>`.

#ifndef DRLI_TESTING_FUZZ_H_
#define DRLI_TESTING_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/point.h"

namespace drli {

struct FuzzOptions {
  // Also exercise TieredDualLayerIndex with interleaved updates.
  bool dynamic = true;
  // Upper bound on the generated dataset size.
  std::size_t max_n = 160;
};

struct FuzzCaseResult {
  std::uint64_t seed = 0;
  std::size_t n = 0;
  std::size_t d = 0;
  std::string dataset_desc;
  std::vector<std::string> failures;

  // Dynamic-oracle trace telemetry (tiered engine), used to pick
  // corpus seeds that actually exercise multi-run shapes.
  std::size_t max_runs = 0;
  std::size_t mid_compaction_queries = 0;
  std::size_t peak_tombstones = 0;
  // Queries whose exact answer splits a tie class across runs.
  std::size_t split_tie_queries = 0;
  // Mixed-trace reads at k below the memtable size: the memtable opens
  // cut to its k best.
  std::size_t memtable_cut_queries = 0;

  bool ok() const { return failures.empty(); }
};

// The deterministic dataset for `seed` (exposed for replay tooling);
// `desc` (optional) receives a short human-readable shape summary.
PointSet MakeFuzzDataset(std::uint64_t seed, const FuzzOptions& options,
                         std::string* desc);

// Runs the full case for `seed`. Never throws; failures are collected
// as human-readable lines prefixed with the oracle that found them.
FuzzCaseResult RunFuzzCase(std::uint64_t seed, const FuzzOptions& options = {});

// Sustained serving-shaped trace (~95% reads / ~5% writes) against the
// tiered dynamic engine, checked against a brute-force top-k over the
// live rows: seals and compactions happen under the read stream, every
// answer is checked, a fraction of reads carry a random execution
// budget, and one read in eight adds constrained (unbudgeted and cut
// halfway) and diversified probes. The entry point for
// `drli_fuzz --mixed-rw` and the nightly sanitizer soak.
FuzzCaseResult RunMixedTraceCase(std::uint64_t seed,
                                 const FuzzOptions& options = {});

}  // namespace drli

#endif  // DRLI_TESTING_FUZZ_H_
