// The four workloads of drli_bench, each run end to end (closed loop,
// then open loop, tracing off) or as a traced layer-by-layer run.

#ifndef DRLI_BENCH_E2E_WORKLOADS_H_
#define DRLI_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace drli {
namespace bench {

enum class EngineKind { kDualLayer, kSharded, kTiered };

struct WorkloadSpec {
  std::string name;
  EngineKind engine = EngineKind::kDualLayer;
  std::size_t n = 0;
  std::size_t d = 0;
  std::size_t shards = 0;  // kSharded only
  // Read mix in percent, summing to 100.
  unsigned plain_k10 = 0;
  unsigned plain_k100 = 0;
  unsigned constrained = 0;  // k = 10, box spanning two random tuples
  unsigned diversified = 0;  // k = 10, lambda = 0.5
  // kTiered only: share of operations that write (4/5 insert, 1/5 erase).
  unsigned write_percent = 0;
  // Open-loop arrival rate (operations per second), fixed once at about
  // a fifth of the closed-loop capacity measured on the commit that
  // defined the benchmark: below half of the capacity left in the
  // shared host's slow periods (about 40% of normal), so the server is
  // never overloaded. It is never recalibrated per run: a rate derived
  // from each run's own capacity would hide a slowdown in the latency
  // it yields.
  double open_rate = 0.0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t n_override = 0;  // 0 = the workload's own n
  // Instances an end-to-end run sets up, each over its own data;
  // setup_s is the median of their set-ups. A traced run sets up one.
  std::size_t setups = 3;
  std::string work_dir;        // snapshots and the server's directory
  std::string trace_out;       // where the traced run writes its spans
};

struct RunOutcome {
  // False when the run could not produce its measurements (the error
  // says why); wrong answers leave it true and clear `correct`.
  bool completed = false;
  std::string error;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // exactly the declared set of the mode
  std::vector<Metric> details;  // every other measurement of the run
  RunHeader header;
};

RunOutcome RunWorkload(const WorkloadSpec& spec, const RunConfig& config);

// (name, unit) of every metric each mode emits, in emission order; the
// smoke test holds them equal to BENCHMARK.json.
using MetricNames = std::vector<std::pair<std::string, std::string>>;
const MetricNames& EndToEndMetricNames();
const MetricNames& PerLayerMetricNames();

}  // namespace bench
}  // namespace drli

#endif  // DRLI_BENCH_E2E_WORKLOADS_H_
