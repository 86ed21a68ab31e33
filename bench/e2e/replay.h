// Layer-by-layer replay of one read for the traced run: the engine call
// in-process, then the DL+ partition calls it made, each as spans of
// the request's trace.

#ifndef DRLI_BENCH_E2E_REPLAY_H_
#define DRLI_BENCH_E2E_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/dual_layer.h"
#include "core/tiered_index.h"
#include "report.h"
#include "server/protocol.h"
#include "shard/sharded_index.h"
#include "topk/query.h"

namespace drli {
namespace bench {

// Exact (id, score) equality of two answers.
bool SameItems(const std::vector<ScoredTuple>& a,
               const std::vector<ScoredTuple>& b);

// The engine a read runs on; exactly one pointer is set.
struct Engine {
  const DualLayerIndex* dl = nullptr;
  const ShardedDualLayerIndex* sharded = nullptr;
  const TieredDualLayerIndex* tiered = nullptr;
};

// What replays keep across the requests of one traced run.
struct ReplayState {
  // Each partition's private scratch, kept warm across requests:
  // dl: one; sharded: one per shard; tiered: one per run uid.
  std::vector<QueryScratch> partition_scratch;
  std::map<std::uint32_t, QueryScratch> run_scratch;
  // Scenario counters summed over the run.
  std::uint64_t boxes_pruned = 0;
  std::uint64_t diversified = 0;
  std::uint64_t pool_size = 0;
};

// Runs `query` on `engine` in-process as span engine.query (plain and
// diversified reads) or scenarios.constrained, under `parent`, then
// replays the DL+ calls engine.query made one layer deeper. The replay
// must reproduce the engine's partitions opened, tuples evaluated and
// answer; otherwise the attribution would be wrong and this returns
// false with `error` set. `answer` receives the engine's (id, score)
// answer, in selection order for diversified reads.
bool TraceEngine(Trace& trace, std::uint64_t request, std::int64_t parent,
                 const Engine& engine, const wire::WireQuery& query,
                 ReplayState& state, std::vector<ScoredTuple>* answer,
                 std::string* error);

// The per-layer metrics every workload emits, from the traced run's
// engine.query and dual_layer spans.
bool PerLayerMetrics(const Trace& trace, double generate_s, double build_s,
                     std::vector<Metric>* out, std::string* error);

// Details of the scenario layers a traced run exercised; `n` is the
// relation size.
void ScenarioDetails(const Trace& trace, const ReplayState& state,
                     std::size_t n, std::vector<Metric>* details);

}  // namespace bench
}  // namespace drli

#endif  // DRLI_BENCH_E2E_REPLAY_H_
