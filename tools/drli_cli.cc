// drli — command-line front end for the DRLI library.
//
//   drli generate --dist=ant --n=20000 --d=4 --seed=1 --out=data.csv
//   drli build    --input=data.csv --kind=dl+ --out=index.bin
//   drli stats    --index=index.bin
//   drli inspect  --index=index.bin
//   drli query    --index=index.bin --weights=0.3,0.3,0.4 --k=10
//   drli query    --input=data.csv --kind=hl+ --weights=0.5,0.5 --k=5
//   drli query    --index=index.bin --weights=0.5,0.5 --k=10
//                 --deadline-ms=0.5 --max-evals=2000
//                 # budgeted query: prints the certified partial answer
//                 # if either cap fires mid-traversal
//   drli compare  --input=data.csv --kinds=dg,dg+,dl,dl+ --k=10 --queries=50
//   drli sweep    --input=data2d.csv --k=5 --reverse=42
//   drli check    --index=index.bin
//   drli check    --input=data.csv --kind=dl+ --samples=32
//
// Serving front end (DESIGN.md §10): `serve` answers queries over a
// loopback/TCP socket from a serving directory whose CURRENT file
// names the generation to serve; `publish` atomically repoints
// CURRENT (the running server picks the new generation up without
// dropping in-flight queries). SIGTERM/SIGINT drain gracefully.
//
//   drli serve    --dir=/srv/drli --port=7071
//                 [--port-file=port.txt]     # written once bound
//                 [--max-in-flight=256] [--deadline-ms=50]
//                 [--loops=2] [--workers=4]  # pool of loops + workers
//                                            # threads, each serving a
//                                            # request start to finish
//   drli publish  --dir=/srv/drli --snapshot=gen-000002.v2
//
// Query scenarios (DESIGN.md "Query scenarios"):
//
//   drli query    --index=index.bin --weights=0.5,0.5 --k=10
//                 --box=0.2:0.8,:0.5
//                 # constrained top-k inside the attribute box; each
//                 # component is lo:hi, an empty side is unbounded
//   drli query    --index=index.bin --weights=0.5,0.5 --k=10
//                 --lambda=0.7 --pool-factor=4
//                 # diversified greedy re-ranking (score + lambda * sim)
//   drli query    --index=index.bin --k=5 --reverse=42
//                 # reverse top-k: the w1 intervals on which tuple 42
//                 # is in the top-k (2-d dl+ indexes only)
//
// Tiered dynamic index: --kind=tdl+ (optionally tdl+<M> for a memtable
// of M rows) builds the LSM-style engine by streaming the relation
// through its insert path and writes a generation manifest plus one
// run snapshot per sealed run; inspect/query/check detect tiered
// manifests automatically and inspect prints the run table.
//
//   drli build    --input=data.csv --kind=tdl+128 --out=index.drlt
//   drli inspect  --index=index.drlt        # generation + run table
//   drli check    --index=index.drlt        # audits every run
//   drli query    --index=index.drlt --weights=0.3,0.3,0.4 --k=10
//                 # prints "runs opened R_o/R" next to the timings
//
// Sharded serving (DESIGN.md §7): --shards=S at build time partitions
// the relation and writes one snapshot per shard plus a manifest;
// inspect/query/check detect manifest files automatically.
//
//   drli build    --input=data.csv --kind=dl+ --shards=16
//                 --partitioner=hyperplane --shard-seed=42 --out=index.bin
//   drli inspect  --index=index.bin         # manifest + per-shard table
//   drli query    --index=index.bin --weights=0.3,0.3,0.4 --k=10
//                 # prints "shards touched S_t/S" next to the timings
//   drli check    --index=index.bin         # audits every shard
//
// `build`/`stats` operate on the serializable dual-resolution index;
// `query` and `compare` accept any index kind (built on the fly from
// CSV when --index is not given).
//
// `--no-simd` (any command) forces the scalar batch kernels, same as
// the DRLI_NO_SIMD environment variable; `query` and `inspect` report
// the active kernel dispatch target. Any other flag a command does not
// read is an error: the command exits 2 and names the flag.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/dual_layer.h"
#include "core/index_registry.h"
#include "core/partition_merge.h"
#include "core/rank_sweep_2d.h"
#include "core/serialization.h"
#include "core/tiered_index.h"
#include "data/csv.h"
#include "data/generator.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "scenarios/reverse_topk.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "shard/shard_io.h"
#include "shard/sharded_index.h"
#include "storage/engine_io.h"
#include "storage/tiered_io.h"
#include "testing/check_index.h"

#include "flags.h"

namespace drli {
namespace {

using cli::Flags;
using cli::GetDoubleFlag;
using cli::GetFlag;
using cli::GetSizeFlag;
using cli::SplitComma;

int Usage() {
  std::fprintf(stderr,
               "usage: drli <generate|build|stats|inspect|query|compare|"
               "sweep|check|serve|publish>"
               " [--flags]\n"
               "see the header of tools/drli_cli.cc for examples\n");
  return 2;
}

StatusOr<Dataset> LoadInput(const Flags& flags) {
  const std::string path = GetFlag(flags, "input");
  if (path.empty()) {
    return Status::InvalidArgument("--input=<csv> is required");
  }
  return LoadCsv(path);
}

int CmdGenerate(const Flags& flags) {
  const std::string dist_name = GetFlag(flags, "dist", "ind");
  Distribution dist;
  if (dist_name == "ind") {
    dist = Distribution::kIndependent;
  } else if (dist_name == "ant") {
    dist = Distribution::kAnticorrelated;
  } else if (dist_name == "cor") {
    dist = Distribution::kCorrelated;
  } else {
    std::fprintf(stderr, "unknown --dist=%s (ind|ant|cor)\n",
                 dist_name.c_str());
    return 2;
  }
  const std::size_t n = GetSizeFlag(flags, "n", 10000);
  const std::size_t d = GetSizeFlag(flags, "d", 4);
  const std::size_t seed = GetSizeFlag(flags, "seed", 42);
  const std::string out = GetFlag(flags, "out");
  if (out.empty()) {
    std::fprintf(stderr, "--out=<csv> is required\n");
    return 2;
  }
  const Dataset dataset(Generate(dist, n, d, seed));
  if (const Status status = SaveCsv(dataset, out); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu x %zu %s tuples to %s\n", n, d, dist_name.c_str(),
              out.c_str());
  return 0;
}

int CmdBuild(const Flags& flags) {
  auto dataset = LoadInput(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const std::string kind = GetFlag(flags, "kind", "dl+");
  if (kind != "dl" && kind != "dl+" && kind.rfind("tdl+", 0) != 0) {
    std::fprintf(stderr,
                 "only dl, dl+ and tdl+ support serialization; got %s\n",
                 kind.c_str());
    return 2;
  }
  const std::string out = GetFlag(flags, "out");
  if (out.empty()) {
    std::fprintf(stderr, "--out=<index file> is required\n");
    return 2;
  }
  if (kind.rfind("tdl+", 0) == 0) {
    // The registry streams the relation through the insert path, so
    // the saved state genuinely spans sealed runs plus a (possibly
    // partial) memtable -- the shape a live dynamic deployment has.
    IndexBuildConfig config;
    config.kind = kind;
    config.zero_layer_clusters = GetSizeFlag(flags, "clusters", 0);
    Stopwatch timer;
    auto built = BuildIndex(config, dataset.value().points());
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    const auto* tiered =
        static_cast<const TieredDualLayerIndex*>(built.value().get());
    std::printf("built %s over %zu tuples in %.2fs "
                "(%zu runs, %zu memtable rows, %zu seals, %zu compactions)\n",
                tiered->name().c_str(), tiered->size(),
                timer.ElapsedSeconds(), tiered->num_runs(),
                tiered->memtable_size(), tiered->seal_count(),
                tiered->compaction_count());
    if (const Status status = SaveTieredIndex(*tiered, out); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved manifest to %s (+%zu run snapshots)\n", out.c_str(),
                tiered->num_runs());
    return 0;
  }
  DualLayerOptions options;
  options.build_zero_layer = (kind == "dl+");
  options.zero_layer_clusters = GetSizeFlag(flags, "clusters", 0);

  const std::size_t shards = GetSizeFlag(flags, "shards", 0);
  if (shards > 0) {
    auto partitioner =
        ParseShardPartitioner(GetFlag(flags, "partitioner", "hyperplane"));
    if (!partitioner.ok()) {
      std::fprintf(stderr, "%s\n", partitioner.status().ToString().c_str());
      return 2;
    }
    ShardedBuildOptions sharded;
    sharded.num_shards = shards;
    sharded.partitioner = partitioner.value();
    sharded.partition_seed = GetSizeFlag(flags, "shard-seed", 42);
    sharded.shard_options = options;
    const ShardedDualLayerIndex index =
        ShardedDualLayerIndex::Build(dataset.value().points(), sharded);
    const ShardedBuildStats& bs = index.build_stats();
    std::printf("built %s over %zu tuples in %.2fs\n", index.name().c_str(),
                index.size(), bs.total_seconds);
    std::printf(
        "shards: %zu (%s split, seed %llu), %zu..%zu tuples each\n",
        index.num_shards(), ShardPartitionerName(index.partitioner()),
        static_cast<unsigned long long>(index.partition_seed()),
        bs.min_shard_points, bs.max_shard_points);
    std::printf(
        "build phases: partition=%.3fs shard_wall=%.3fs shard_cpu=%.3fs "
        "(parallel speedup %.2fx)\n",
        bs.partition_seconds, bs.build_wall_seconds, bs.build_cpu_seconds,
        bs.build_wall_seconds > 0.0
            ? bs.build_cpu_seconds / bs.build_wall_seconds
            : 1.0);
    if (const Status status = SaveShardedIndex(index, out); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved manifest to %s (+%zu shard snapshots)\n", out.c_str(),
                index.num_shards());
    return 0;
  }

  Stopwatch timer;
  const DualLayerIndex index =
      DualLayerIndex::Build(dataset.value().points(), options);
  std::printf("built %s over %zu tuples in %.2fs\n", index.name().c_str(),
              index.size(), timer.ElapsedSeconds());
  const DualLayerBuildStats& bs = index.build_stats();
  std::printf(
      "build phases: skyline=%.3fs fine_peel=%.3fs coarse_edge=%.3fs "
      "zero_layer=%.3fs finalize=%.3fs\n",
      bs.skyline_seconds, bs.fine_peel_seconds, bs.coarse_edge_seconds,
      bs.zero_layer_seconds, bs.finalize_seconds);
  std::printf("fine peel: hull_facets_created=%zu (%.3fs)\n",
              bs.hull_facets_created, bs.hull_seconds);
  std::printf(
      "eds: lp_calls=%zu bbox_rejects=%zu member_hits=%zu (%.3fs)\n",
      bs.eds_lp_calls, bs.eds_bbox_rejects, bs.eds_member_hits,
      bs.eds_seconds);
  std::printf("coarse edges: pairs_pruned=%zu pairs_tested=%zu\n",
              bs.coarse_pairs_pruned, bs.coarse_pairs_tested);
  if (const Status status = SaveDualLayerIndex(index, out); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s\n", out.c_str());
  return 0;
}

// Shard-manifest metadata: the partition summary and a per-shard table.
// Validates the manifest checksum but does not open the shard files;
// run `drli inspect` on an individual .shard-NNNN file (a standard v2
// snapshot) to audit its sections.
int InspectManifest(const std::string& path) {
  const auto inspected = InspectShardManifest(path);
  if (!inspected.ok()) {
    std::fprintf(stderr, "%s\n", inspected.status().ToString().c_str());
    return 1;
  }
  const ShardManifestInfo& info = inspected.value();
  std::printf("%s: shard manifest v%u (%s)\n", path.c_str(), info.version,
              info.name.c_str());
  std::printf(
      "n=%llu d=%zu shards=%llu partitioner=%s seed=%llu\n",
      static_cast<unsigned long long>(info.total_points), info.dim,
      static_cast<unsigned long long>(info.num_shards),
      ShardPartitionerName(info.partitioner),
      static_cast<unsigned long long>(info.partition_seed));
  std::printf("%-8s %10s  %s\n", "shard", "tuples", "file");
  for (std::size_t s = 0; s < info.shards.size(); ++s) {
    std::printf("%-8zu %10llu  %s\n", s,
                static_cast<unsigned long long>(info.shards[s].num_points),
                info.shards[s].file.c_str());
  }
  return 0;
}

// Tiered-manifest metadata: the generation summary and the run table.
// Validates the manifest checksum but does not open the run files;
// `drli inspect` on an individual .run-NNNNNN file (a standard v2
// snapshot) audits its sections.
int InspectTiered(const std::string& path) {
  const auto inspected = InspectTieredManifest(path);
  if (!inspected.ok()) {
    std::fprintf(stderr, "%s\n", inspected.status().ToString().c_str());
    return 1;
  }
  const TieredManifestInfo& info = inspected.value();
  std::printf("%s: tiered manifest v%u (%s)\n", path.c_str(), info.version,
              info.name.c_str());
  std::printf("generation=%llu d=%zu runs=%zu memtable=%llu tombstones=%llu "
              "next_id=%llu\n",
              static_cast<unsigned long long>(info.generation), info.dim,
              info.runs.size(),
              static_cast<unsigned long long>(info.memtable_rows),
              static_cast<unsigned long long>(info.num_tombstones),
              static_cast<unsigned long long>(info.next_id));
  std::printf("%-8s %-6s %10s  %s\n", "run", "tier", "tuples", "file");
  for (const TieredManifestRunInfo& run : info.runs) {
    std::printf("%-8u %-6u %10llu  %s\n", run.uid, run.tier,
                static_cast<unsigned long long>(run.num_points),
                run.file.c_str());
  }
  return 0;
}

// Snapshot metadata without constructing the index: format version,
// shape, and the section table with recomputed CRCs.
int CmdInspect(const Flags& flags) {
  const std::string path = GetFlag(flags, "index");
  if (path.empty()) {
    std::fprintf(stderr, "--index=<file> is required\n");
    return 2;
  }
  if (IsShardManifest(path)) return InspectManifest(path);
  if (IsTieredManifest(path)) return InspectTiered(path);
  const auto inspected = InspectSnapshot(path);
  if (!inspected.ok()) {
    std::fprintf(stderr, "%s\n", inspected.status().ToString().c_str());
    return 1;
  }
  const SnapshotInfo& info = inspected.value();
  std::printf("%s: snapshot v%u, %llu bytes\n", path.c_str(), info.version,
              static_cast<unsigned long long>(info.file_size));
  std::printf("n=%zu d=%zu pseudo-tuples=%zu 2-d weight table: %s\n",
              info.num_points, info.dim, info.num_virtual,
              info.use_weight_table ? "yes" : "no");
  std::printf("kernel dispatch: %s\n", SimdTargetName(ActiveSimdTarget()));
  std::printf("%-16s %10s %12s %10s %s\n", "section", "offset", "bytes",
              "crc32c", "ok");
  bool all_ok = true;
  for (const SnapshotSectionInfo& row : info.sections) {
    std::printf("%-16s %10llu %12llu %10x %s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.offset),
                static_cast<unsigned long long>(row.length), row.crc,
                row.crc_ok ? "yes" : "NO");
    all_ok = all_ok && row.crc_ok;
  }
  if (!all_ok) {
    std::fprintf(stderr, "section checksum mismatch: snapshot is corrupt\n");
    return 1;
  }
  return 0;
}

int CmdStats(const Flags& flags) {
  const std::string path = GetFlag(flags, "index");
  if (path.empty()) {
    std::fprintf(stderr, "--index=<file> is required\n");
    return 2;
  }
  if (IsShardManifest(path)) return InspectManifest(path);
  if (IsTieredManifest(path)) return InspectTiered(path);
  auto index = LoadDualLayerIndex(path);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const DualLayerIndex& dl = index.value();
  std::printf("%s: n=%zu d=%zu\n", dl.name().c_str(), dl.size(),
              dl.points().dim());
  const auto groups = dl.LayerGroups();
  std::printf("coarse layers: %zu, fine sublayers: %zu, pseudo-tuples: %zu, "
              "2-d weight table: %s\n",
              dl.build_stats().num_coarse_layers, groups.size(),
              dl.virtual_points().size(),
              dl.uses_weight_table() ? "yes" : "no");
  std::printf("%-8s %-6s %-6s\n", "group", "coarse", "size");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::printf("%-8zu %-6u %-6zu\n", g,
                dl.coarse_layer_of(groups[g][0]), groups[g].size());
    if (g == 19 && groups.size() > 21) {
      std::printf("... (%zu more groups)\n", groups.size() - 20);
      break;
    }
  }
  return 0;
}

// --weights with one component per attribute, normalized to sum 1.
StatusOr<Point> ParseWeights(const Flags& flags, std::size_t d) {
  Point weights = cli::GetWeightsFlag(flags);
  if (weights.size() != d) {
    return Status::InvalidArgument(
        "--weights must have " + std::to_string(d) + " components");
  }
  double sum = 0.0;
  for (const double w : weights) sum += w;
  if (sum <= 0.0) return Status::InvalidArgument("weights must sum > 0");
  for (double& w : weights) w /= sum;  // normalize for convenience
  return weights;
}

void PrintTopKItems(const TopKResult& result) {
  for (std::size_t r = 0; r < result.items.size(); ++r) {
    std::printf("  %2zu. tuple %-8u score %.6f%s\n", r + 1,
                result.items[r].id, result.items[r].score,
                !result.complete() && r >= result.certified_prefix
                    ? "  (uncertified)"
                    : "");
  }
  if (!result.complete()) {
    std::printf("partial result: stopped on %s; first %zu of %zu items "
                "certified exact\n",
                TerminationName(result.termination), result.certified_prefix,
                result.items.size());
  }
}

// False, after naming the stop on stderr, when a reverse query did not
// complete.
bool ReverseCompleted(const ReverseTopKResult& result) {
  if (result.complete()) return true;
  std::fprintf(stderr, "reverse query stopped (%s): %s\n",
               TerminationName(result.termination), result.error.c_str());
  return false;
}

// The intervals of a reverse top-k answer, after its caption.
void PrintIntervals(const std::vector<WeightInterval>& intervals,
                    std::size_t k) {
  if (intervals.empty()) std::printf(" never in the top-%zu", k);
  for (const WeightInterval& iv : intervals) {
    std::printf(" [%.5f, %.5f]", iv.lo, iv.hi);
  }
  std::printf("\n");
}

int CmdQuery(const Flags& flags) {
  const std::size_t k = GetSizeFlag(flags, "k", 10);
  const std::string index_path = GetFlag(flags, "index");

  LoadedEngine loaded;
  std::unique_ptr<TopKIndex> built;
  std::optional<Dataset> dataset;
  const TopKIndex* index = nullptr;
  if (!index_path.empty()) {
    auto engine = LoadEngine(index_path);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return 1;
    }
    loaded = std::move(engine).value();
    index = &loaded.index();
  } else {
    auto input = LoadInput(flags);
    if (!input.ok()) {
      std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
      return 1;
    }
    dataset.emplace(std::move(input).value());
    IndexBuildConfig config;
    config.kind = GetFlag(flags, "kind", "dl+");
    config.zero_layer_clusters = GetSizeFlag(flags, "clusters", 0);
    auto result = BuildIndex(config, dataset->points());
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    built = std::move(result).value();
    index = built.get();
  }
  const std::size_t dim = index->dim();
  // Reverse top-k and --explain read the single DL+ index.
  const auto* dl = dynamic_cast<const DualLayerIndex*>(index);

  // Serving controls: --deadline-ms caps wall time, --max-evals caps
  // scored tuples; either can cut the traversal short, in which case
  // the certified prefix of the partial answer is reported. They apply
  // to every scenario below as well.
  ExecBudget budget;
  budget.deadline_seconds = GetDoubleFlag(flags, "deadline-ms", 0.0) / 1000.0;
  budget.max_evals = GetSizeFlag(flags, "max-evals", 0);

  // Reverse top-k: no weight vector -- the weights ARE the answer.
  if (flags.count("reverse") != 0) {
    if (dl == nullptr) {
      std::fprintf(stderr,
                   "--reverse needs a dl+ engine: a dual-layer snapshot or "
                   "--input with --kind=dl+\n");
      return 2;
    }
    ReverseTopKQuery rquery;
    rquery.target = static_cast<TupleId>(
        GetSizeFlag(flags, "reverse", 0, kInvalidTupleId - 1));
    rquery.k = k;
    rquery.budget = budget;
    Stopwatch timer;
    const ReverseTopKResult result = ReverseTopK2D(*dl, rquery);
    const double ms = timer.ElapsedMillis();
    if (!ReverseCompleted(result)) return 1;
    std::printf("%s reverse top-%zu of tuple %u "
                "(%.3f ms, %zu tuples compared):",
                dl->name().c_str(), k, rquery.target, ms,
                result.stats.tuples_evaluated);
    PrintIntervals(result.intervals, k);
    return 0;
  }

  auto weights = ParseWeights(flags, dim);
  if (!weights.ok()) {
    std::fprintf(stderr, "%s\n", weights.status().ToString().c_str());
    return 2;
  }

  // Constrained top-k: the plain query restricted to an attribute box,
  // with box-tree nodes, shards and runs pruned on bounding-box misses.
  if (flags.count("box") != 0) {
    ConstrainedQuery cquery;
    cquery.weights = weights.value();
    cquery.k = k;
    cquery.box = cli::GetBoxFlag(flags);
    cquery.budget = budget;
    if (cquery.box.lo.size() != dim) {
      std::fprintf(stderr, "--box must have %zu lo:hi components\n", dim);
      return 2;
    }
    Stopwatch timer;
    TopKResult result = ConstrainedTopK(*index, cquery);
    // A family without a box tree refuses the query; over a CSV the scan
    // answers it instead (and rejects a query that is itself invalid).
    const bool scanned = result.termination == Termination::kInvalidQuery &&
                         dataset.has_value();
    if (scanned) result = ConstrainedTopKScan(dataset->points(), cquery);
    const double ms = timer.ElapsedMillis();
    if (result.termination == Termination::kInvalidQuery ||
        result.termination == Termination::kError) {
      std::fprintf(stderr, "query rejected (%s): %s\n",
                   TerminationName(result.termination), result.error.c_str());
      return 1;
    }
    std::printf("%s constrained top-%zu%s "
                "(%.3f ms, %zu tuples evaluated, %zu boxes pruned):\n",
                index->name().c_str(), k,
                scanned ? ", answered by the full scan" : "", ms,
                result.stats.tuples_evaluated, result.stats.boxes_pruned);
    PrintTopKItems(result);
    return 0;
  }

  // Diversified top-k: greedy score + lambda * similarity re-ranking
  // over a certified candidate pool.
  if (flags.count("lambda") != 0) {
    // The index's own relation when it has one, so a DL+ index lends
    // the certificate its box tree.
    const PointSet* relation = dl != nullptr          ? &dl->points()
                               : dataset.has_value() ? &dataset->points()
                                                     : nullptr;
    if (relation == nullptr) {
      std::fprintf(stderr,
                   "--lambda needs the relation for the similarity "
                   "penalty: a dual-layer snapshot or --input\n");
      return 2;
    }
    DiversifiedQuery dquery;
    dquery.weights = weights.value();
    dquery.k = k;
    dquery.lambda = GetDoubleFlag(flags, "lambda", 0.0);
    dquery.pool_factor = GetSizeFlag(flags, "pool-factor", 4);
    dquery.budget = budget;
    Stopwatch timer;
    const DiversifiedResult result =
        DiversifiedTopK(*index, *relation, dquery);
    const double ms = timer.ElapsedMillis();
    if (result.termination == Termination::kInvalidQuery ||
        result.termination == Termination::kError) {
      std::fprintf(stderr, "query rejected (%s): %s\n",
                   TerminationName(result.termination), result.error.c_str());
      return 1;
    }
    std::printf("%s diversified top-%zu, lambda=%g "
                "(%.3f ms, %zu tuples evaluated, pool %zu):\n",
                index->name().c_str(), k, dquery.lambda, ms,
                result.stats.tuples_evaluated, result.pool_size);
    for (std::size_t r = 0; r < result.picks.size(); ++r) {
      std::printf("  %2zu. tuple %-8u score %.6f utility %.6f%s\n", r + 1,
                  result.picks[r].id, result.picks[r].score,
                  result.picks[r].utility,
                  !result.complete() && r >= result.certified_prefix
                      ? "  (uncertified)"
                      : "");
    }
    if (!result.complete()) {
      std::printf("partial result: stopped on %s; first %zu of %zu picks "
                  "certified exact\n",
                  TerminationName(result.termination),
                  result.certified_prefix, result.picks.size());
    }
    return 0;
  }

  TopKQuery query;
  query.weights = weights.value();
  query.k = k;
  query.budget = budget;
  Stopwatch timer;
  const TopKResult result = index->Query(query);
  const double ms = timer.ElapsedMillis();
  if (result.termination == Termination::kInvalidQuery ||
      result.termination == Termination::kError) {
    std::fprintf(stderr, "query rejected (%s): %s\n",
                 TerminationName(result.termination), result.error.c_str());
    return 1;
  }
  std::printf("%s top-%zu (%.3f ms, %zu tuples evaluated, kernel=%s):\n",
              index->name().c_str(), k, ms, result.stats.tuples_evaluated,
              SimdTargetName(ActiveSimdTarget()));
  if (loaded.sharded.has_value()) {
    std::printf("shards touched %zu/%zu\n", result.stats.shards_touched,
                loaded.sharded->num_shards());
  } else if (result.stats.shards_touched > 0) {
    std::printf("shards touched %zu\n", result.stats.shards_touched);
  }
  if (loaded.tiered.has_value()) {
    std::printf("runs opened %zu/%zu (+memtable of %zu rows)\n",
                result.stats.runs_opened, loaded.tiered->num_runs(),
                loaded.tiered->memtable_size());
  }
  PrintTopKItems(result);
  if (GetFlag(flags, "explain") == "true" && dl != nullptr) {
    std::printf("\naccess breakdown by sublayer:\n");
    std::printf("%-8s %-6s %-8s %-8s\n", "coarse", "fine", "size",
                "accessed");
    for (const LayerAccessRow& row : ExplainAccess(*dl, result)) {
      if (row.accessed == 0) continue;
      std::printf("%-8u %-6u %-8zu %-8zu\n", row.coarse, row.fine,
                  row.layer_size, row.accessed);
    }
  }
  return 0;
}

int CmdCompare(const Flags& flags) {
  auto dataset = LoadInput(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const PointSet& points = dataset.value().points();
  const std::size_t k = GetSizeFlag(flags, "k", 10);
  const std::size_t num_queries = GetSizeFlag(flags, "queries", 50);
  std::vector<std::string> kinds = SplitComma(
      GetFlag(flags, "kinds", "scan,ta,onion,dg,dg+,hl+,dl,dl+"));

  std::printf("n=%zu d=%zu k=%zu queries=%zu\n\n", points.size(),
              points.dim(), k, num_queries);
  std::printf("%-8s %10s %14s\n", "index", "build(s)", "avg tuples");
  for (const std::string& kind : kinds) {
    IndexBuildConfig config;
    config.kind = kind;
    Stopwatch timer;
    auto index = BuildIndex(config, points);
    if (!index.ok()) {
      std::fprintf(stderr, "%s: %s\n", kind.c_str(),
                   index.status().ToString().c_str());
      return 1;
    }
    const double build_s = timer.ElapsedSeconds();
    Rng rng(11);
    double total = 0.0;
    for (std::size_t q = 0; q < num_queries; ++q) {
      TopKQuery query;
      query.weights = rng.SimplexWeight(points.dim());
      query.k = k;
      total += static_cast<double>(
          index.value()->Query(query).stats.tuples_evaluated);
    }
    std::printf("%-8s %10.2f %14.1f\n", index.value()->name().c_str(),
                build_s, total / static_cast<double>(num_queries));
  }
  return 0;
}

// Exact 2-d weight-space analysis: the intervals of w1 on which each
// top-k set holds, and optionally the reverse top-k of one tuple.
int CmdSweep(const Flags& flags) {
  auto dataset = LoadInput(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  if (dataset.value().dim() != 2) {
    std::fprintf(stderr, "sweep requires a 2-attribute dataset (got %zu)\n",
                 dataset.value().dim());
    return 2;
  }
  const std::size_t k = GetSizeFlag(flags, "k", 5);
  if (k == 0) cli::Reject("k", "0", "a positive integer");
  // The reverse query validates its target before anything is printed.
  ReverseTopKQuery rquery;
  rquery.k = k;
  ReverseTopKResult reverse;
  const bool want_reverse = flags.count("reverse") != 0;
  if (want_reverse) {
    rquery.target = static_cast<TupleId>(
        GetSizeFlag(flags, "reverse", 0, kInvalidTupleId - 1));
    reverse = ReverseTopK2DScan(dataset.value().points(), rquery);
    if (!ReverseCompleted(reverse)) return 1;
  }
  const RankSweepResult sweep =
      SweepTopKSets2D(dataset.value().points(), k);
  std::printf("top-%zu weight-space partition: %zu intervals\n", k,
              sweep.topk_sets.size());
  const std::size_t limit = GetSizeFlag(flags, "limit", 20);
  for (std::size_t i = 0; i < sweep.topk_sets.size() && i < limit; ++i) {
    const double lo = i == 0 ? 0.0 : sweep.breakpoints[i - 1];
    const double hi =
        i < sweep.breakpoints.size() ? sweep.breakpoints[i] : 1.0;
    std::printf("  w1 in [%.5f, %.5f]: {", lo, hi);
    for (std::size_t j = 0; j < sweep.topk_sets[i].size(); ++j) {
      std::printf("%s%u", j ? ", " : "", sweep.topk_sets[i][j]);
    }
    std::printf("}\n");
  }
  if (sweep.topk_sets.size() > limit) {
    std::printf("  ... (%zu more intervals)\n",
                sweep.topk_sets.size() - limit);
  }
  if (want_reverse) {
    std::printf("reverse top-%zu of tuple %u:", k, rquery.target);
    PrintIntervals(reverse.intervals, k);
  }
  return 0;
}

// Structural invariant audit of a dual-resolution index, either loaded
// from disk or built on the fly from a CSV. A shard or tiered manifest
// is audited partition by partition: each is a full dual-resolution
// index (the merge layer itself is covered by the differential suite,
// not structural invariants).
int CmdCheck(const Flags& flags) {
  LoadedEngine engine;
  const std::string index_path = GetFlag(flags, "index");
  if (!index_path.empty()) {
    auto loaded = LoadEngine(index_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    engine = std::move(loaded).value();
  } else {
    auto dataset = LoadInput(flags);
    if (!dataset.ok()) {
      std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
      return 1;
    }
    const std::string kind = GetFlag(flags, "kind", "dl+");
    if (kind != "dl" && kind != "dl+") {
      std::fprintf(stderr, "check builds dl or dl+; got %s\n", kind.c_str());
      return 2;
    }
    DualLayerOptions options;
    options.build_zero_layer = (kind == "dl+");
    options.zero_layer_clusters = GetSizeFlag(flags, "clusters", 0);
    engine.dl.emplace(DualLayerIndex::Build(dataset.value().points(), options));
  }

  const PartitionSet& set = engine.partitions();
  std::vector<const DualLayerIndex*> audited;
  for (const DualLayerPartition* part : set.parts) {
    audited.push_back(&part->index);
  }
  if (engine.dl.has_value()) audited.push_back(&*engine.dl);
  std::string shape;  // printed after the size
  if (engine.sharded.has_value()) {
    shape = ", " + std::to_string(set.parts.size()) + " shards";
  } else if (engine.tiered.has_value()) {
    shape = ", " + std::to_string(set.parts.size()) + " runs, " +
            std::to_string(engine.tiered->memtable_size()) + " memtable rows";
  }

  CheckOptions options;
  options.weight_samples = GetSizeFlag(flags, "samples", 16);
  options.seed = GetSizeFlag(flags, "seed", 12345);
  std::size_t invariants = 0;
  bool ok = true;
  for (std::size_t i = 0; i < audited.size(); ++i) {
    const CheckReport report = CheckIndex(*audited[i], options);
    invariants += report.invariants_checked;
    if (!report.ok()) {
      ok = false;
      if (i < set.parts.size()) {
        std::fprintf(stderr, "%s:\n", set.Label(i).c_str());
      }
      std::fprintf(stderr, "%s", report.ToString().c_str());
    }
  }
  std::printf("%s: n=%zu%s, %zu invariants checked\n",
              engine.index().name().c_str(), engine.index().size(),
              shape.c_str(), invariants);
  if (!ok) return 1;
  std::printf("OK\n");
  return 0;
}

volatile std::sig_atomic_t g_stop_serving = 0;

void HandleStopSignal(int) { g_stop_serving = 1; }

int CmdServe(const Flags& flags) {
  const std::string dir = GetFlag(flags, "dir");
  if (dir.empty()) {
    std::fprintf(stderr, "--dir=<serving directory> is required\n");
    return 2;
  }
  server::ServerOptions options;
  options.host = GetFlag(flags, "host", "127.0.0.1");
  options.port =
      static_cast<std::uint16_t>(GetSizeFlag(flags, "port", 0, 65535));
  options.num_loops = GetSizeFlag(flags, "loops", 0);
  options.num_workers = GetSizeFlag(flags, "workers", 0);
  options.max_in_flight = GetSizeFlag(flags, "max-in-flight", 0);
  options.default_deadline_ms = GetDoubleFlag(flags, "deadline-ms", 0.0);
  options.idle_timeout_seconds =
      GetDoubleFlag(flags, "idle-timeout", options.idle_timeout_seconds);
  options.reload_poll_seconds =
      GetDoubleFlag(flags, "reload-poll", options.reload_poll_seconds);

  server::TopKServer server;
  if (const Status status = server.Start(dir, options); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  const auto generation = server.engine().Acquire();
  std::printf("serving %s (%s, n=%zu d=%zu) on %s:%u\n", dir.c_str(),
              generation->snapshot.c_str(), generation->index().size(),
              generation->index().dim(), options.host.c_str(), server.port());
  std::fflush(stdout);

  // Smoke tests bind port 0 and discover the real port from this file.
  const std::string port_file = GetFlag(flags, "port-file");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  while (g_stop_serving == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("draining...\n");
  std::fflush(stdout);
  server.Shutdown();
  const server::ServerCounters counters = server.counters();
  std::printf("served %llu queries (%llu shed, %llu malformed frames, "
              "%llu connections, %llu reloads)\n",
              static_cast<unsigned long long>(counters.queries_served),
              static_cast<unsigned long long>(counters.queries_shed),
              static_cast<unsigned long long>(counters.malformed_frames),
              static_cast<unsigned long long>(counters.connections_opened),
              static_cast<unsigned long long>(counters.reloads));
  return 0;
}

int CmdPublish(const Flags& flags) {
  const std::string dir = GetFlag(flags, "dir");
  const std::string snapshot = GetFlag(flags, "snapshot");
  if (dir.empty() || snapshot.empty()) {
    std::fprintf(stderr,
                 "--dir=<serving directory> and --snapshot=<name> are "
                 "required\n");
    return 2;
  }
  if (const Status status = server::PublishSnapshot(dir, snapshot);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("published %s/CURRENT -> %s\n", dir.c_str(), snapshot.c_str());
  return 0;
}

// One subcommand and every flag it reads.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string> flags;
};

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Command commands[] = {
      {"generate", CmdGenerate, {"dist", "n", "d", "seed", "out"}},
      {"build",
       CmdBuild,
       {"input", "kind", "out", "clusters", "shards", "partitioner",
        "shard-seed"}},
      {"stats", CmdStats, {"index"}},
      {"inspect", CmdInspect, {"index"}},
      {"query",
       CmdQuery,
       {"index", "input", "kind", "clusters", "weights", "k", "box",
        "reverse", "lambda", "pool-factor", "deadline-ms", "max-evals",
        "explain"}},
      {"compare", CmdCompare, {"input", "kinds", "k", "queries"}},
      {"sweep", CmdSweep, {"input", "k", "limit", "reverse"}},
      {"check",
       CmdCheck,
       {"index", "input", "kind", "clusters", "samples", "seed"}},
      {"serve",
       CmdServe,
       {"dir", "host", "port", "port-file", "loops", "workers",
        "max-in-flight", "deadline-ms", "idle-timeout", "reload-poll"}},
      {"publish", CmdPublish, {"dir", "snapshot"}},
  };
  for (const Command& command : commands) {
    if (command.name != std::string(argv[1])) continue;
    std::vector<std::string> accepted = command.flags;
    accepted.push_back("no-simd");
    const Flags flags =
        cli::ParseFlags(argc, argv, 2, command.name, accepted);
    if (GetFlag(flags, "no-simd") == "true") ForceScalarKernels(true);
    return command.run(flags);
  }
  return Usage();
}

}  // namespace
}  // namespace drli

int main(int argc, char** argv) { return drli::Main(argc, argv); }
