#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include <unistd.h>

#include "common/random.h"
#include "core/dual_layer.h"
#include "core/serialization.h"
#include "core/tiered_index.h"
#include "data/generator.h"
#include "load.h"
#include "replay.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "shard/shard_io.h"
#include "shard/sharded_index.h"
#include "speed.h"
#include "topk/scan.h"

namespace drli {
namespace bench {

namespace {

// One event loop and two workers, loaded by at most two client
// threads: five busy threads on the four cores the benchmark targets.
constexpr std::size_t kServerLoops = 1;
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kClosedConnections = 2;

constexpr double kLambda = 0.5;
constexpr std::size_t kPoolFactor = 4;
constexpr std::size_t kInsertPoolSize = 8192;
constexpr std::size_t kMaxSpansWritten = 20000;
// tiered-rw runs a fixed number of operations per second of its closed
// and warm-up phases (about the seed's throughput), so every run walks
// the same sequence of index states -- seals and merges change read
// cost, and a time-bound run would let machine speed decide how far it
// gets.
constexpr double kTieredOpsPerSecond = 2000.0;
// Set-up inserts this many tuples after the bulk load, so measurement
// starts from a steady LSM shape (the bulk run plus merged recent runs)
// rather than a lone bulk run. From a lone run, the share of reads that
// open a second run climbs from 0 during the run, and the median read
// flips between the one-run and two-run latency modes from seed to seed.
constexpr std::size_t kTieredPreload = 4096;

// Request streams; each draws from its own generator.
constexpr std::uint64_t kWarmupStream = 100;
constexpr std::uint64_t kClosedStream = 200;
constexpr std::uint64_t kOpenStream = 300;
constexpr std::uint64_t kTraceStream = 400;
constexpr std::uint64_t kInstanceStream = 1000;

// The measured time is split into a warm-up, then kRounds rounds of a
// closed-loop slice followed by an open-loop slice. The machine's speed
// drifts over seconds; interleaving spreads both loops over the whole
// run, and each metric is the median of its per-round values, which
// rejects a burst that hits fewer than half of the rounds.
constexpr int kRounds = 6;

struct Phases {
  double warmup;
  double closed;  // per round
  double open;    // per round
};

Phases SplitSeconds(double seconds) {
  return {0.1 * seconds, 0.6 * seconds / kRounds, 0.3 * seconds / kRounds};
}

// Adds percentile `q` of `us` as `name` when enough samples lie beyond
// it, and its sample counts either way.
void AddPercentile(const std::string& name, const std::vector<double>& us,
                   double q, std::vector<Metric>* details) {
  const PercentileValue p = Percentile(us, q);
  if (p.present) details->push_back({name, p.value, "us"});
  details->push_back(
      {name + ".samples", static_cast<double>(p.samples), "count"});
  details->push_back(
      {name + ".beyond", static_cast<double>(p.beyond), "count"});
}

// Per-round estimates of the end-to-end metrics, the reference-kernel
// times taken between the rounds, and the pooled latencies the run
// details report.
class Rounds {
 public:
  // `evaluated`: tuples the engine reported evaluating for the closed
  // slice's answered reads.
  bool Add(double qps, const std::vector<double>& closed_us,
           const std::vector<double>& open_us, std::uint64_t evaluated,
           std::string* error) {
    const PercentileValue p50 = Percentile(closed_us, 0.50);
    if (!p50.present) {
      *error = "a round has too few closed-loop samples (" +
               std::to_string(closed_us.size()) + ")";
      return false;
    }
    qps_.push_back(qps);
    p50_.push_back(p50.value);
    evaluated_ += evaluated;
    closed_us_.insert(closed_us_.end(), closed_us.begin(), closed_us.end());
    open_us_.insert(open_us_.end(), open_us.begin(), open_us.end());
    return true;
  }

  void AddReference(double ms) { reference_ms_.push_back(ms); }

  // The median round's p50 at the nominal host speed, the tuples
  // evaluated per closed-loop read, then `setup_s`.
  std::vector<Metric> EndToEnd(double setup_s) const {
    return {
        {"p50_us", AtNominalSpeed(Median(p50_), reference_ms_), "us"},
        {"evals_per_query",
         static_cast<double>(evaluated_) /
             static_cast<double>(closed_us_.size()),
         "count"},
        {"setup_s", setup_s, "s"},
    };
  }

  // Throughput, the open-loop latencies and the closed-loop tail are
  // reported, not gated: on a shared host their run-to-run spread is far
  // wider than any bound a regression check could use. Host stalls
  // (a vCPU descheduled for milliseconds) lengthen a few requests a
  // hundredfold, which moves a mean such as throughput far more than
  // the median.
  void AddDetails(std::vector<Metric>* details) const {
    details->push_back({"measured.p50_us", Median(p50_), "us"});
    details->push_back({"speed.reference_ms", Median(reference_ms_), "ms"});
    details->push_back({"qps", Median(qps_), "1/s"});
    details->push_back({"qps_at_nominal_speed",
                        Median(qps_) * Median(reference_ms_) /
                            SpeedReference::kNominalMs,
                        "1/s"});
    details->push_back({"rounds.qps_min",
                        *std::min_element(qps_.begin(), qps_.end()), "1/s"});
    details->push_back({"rounds.qps_max",
                        *std::max_element(qps_.begin(), qps_.end()), "1/s"});
    AddPercentile("p99_us", closed_us_, 0.99, details);
    AddPercentile("p999_us", closed_us_, 0.999, details);
    AddPercentile("open_p50_us", open_us_, 0.50, details);
    AddPercentile("open_p99_us", open_us_, 0.99, details);
  }

 private:
  std::vector<double> qps_, p50_;
  std::vector<double> reference_ms_;
  std::uint64_t evaluated_ = 0;
  std::vector<double> closed_us_, open_us_;
};

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Data seed of a run's i-th instance. A run sets up several instances
// of the workload, each over its own data, and rotates its rounds
// across them: one instance's data and memory placement can favour or
// slow a whole run, and the median over rounds averages that out.
std::uint64_t InstanceSeed(std::uint64_t seed, std::size_t instance) {
  return instance == 0 ? seed : StreamSeed(seed, kInstanceStream + instance);
}

// Draws the workload's read mix. Weights are fresh per request, so no
// two requests repeat.
class RequestMaker {
 public:
  RequestMaker(const WorkloadSpec& spec, const PointSet& points,
               std::uint64_t seed, std::uint64_t stream)
      : spec_(spec), points_(points), rng_(StreamSeed(seed, stream)) {}

  wire::WireQuery Next() {
    wire::WireQuery query;
    query.weights = rng_.SimplexWeight(points_.dim());
    query.k = 10;
    const unsigned pick = static_cast<unsigned>(rng_.Index(100));
    if (pick < spec_.plain_k10) return query;
    if (pick < spec_.plain_k10 + spec_.plain_k100) {
      query.k = 100;
    } else if (pick <
               spec_.plain_k10 + spec_.plain_k100 + spec_.constrained) {
      // A box spanning two random tuples, as bench/scenarios builds them.
      query.scenario = wire::Scenario::kConstrained;
      const std::size_t a = rng_.Index(points_.size());
      const std::size_t b = rng_.Index(points_.size());
      for (std::size_t attr = 0; attr < points_.dim(); ++attr) {
        query.box.lo.push_back(
            std::min(points_.At(a, attr), points_.At(b, attr)));
        query.box.hi.push_back(
            std::max(points_.At(a, attr), points_.At(b, attr)));
      }
    } else {
      query.scenario = wire::Scenario::kDiversified;
      query.lambda = kLambda;
      query.pool_factor = kPoolFactor;
    }
    return query;
  }

  Rng& rng() { return rng_; }

 private:
  const WorkloadSpec& spec_;
  const PointSet& points_;
  Rng rng_;
};

std::vector<ScoredTuple> ReplyItems(const wire::WireResult& reply) {
  std::vector<ScoredTuple> items;
  items.reserve(reply.items.size());
  for (const wire::WireItem& item : reply.items) {
    items.push_back(ScoredTuple{item.id, item.score});
  }
  return items;
}

// Brute-force answer over a static relation, as (id, score) in answer
// order (selection order for diversified).
std::vector<ScoredTuple> Reference(const PointSet& points,
                                   const wire::WireQuery& query) {
  const std::size_t k = static_cast<std::size_t>(query.k);
  switch (query.scenario) {
    case wire::Scenario::kConstrained: {
      ConstrainedQuery q;
      q.weights = query.weights;
      q.k = k;
      q.box = query.box;
      return ConstrainedTopKScan(points, q).items;
    }
    case wire::Scenario::kDiversified: {
      DiversifiedQuery q;
      q.weights = query.weights;
      q.k = k;
      q.lambda = query.lambda;
      q.pool_factor = static_cast<std::size_t>(query.pool_factor);
      std::vector<ScoredTuple> items;
      for (const DiversifiedPick& pick : DiversifiedTopKScan(points, q).picks) {
        items.push_back(ScoredTuple{pick.id, pick.score});
      }
      return items;
    }
    default: {
      TopKQuery q;
      q.weights = query.weights;
      q.k = k;
      return Scan(points, q).items;
    }
  }
}

bool ReplyCorrect(const wire::WireResult& reply,
                  const std::vector<ScoredTuple>& expected) {
  return reply.status == wire::ReplyStatus::kOk &&
         reply.termination ==
             static_cast<std::uint8_t>(Termination::kComplete) &&
         SameItems(ReplyItems(reply), expected);
}

// Wrong answers among the kept kOk replies (other replies already count
// as failed).
std::uint64_t CountWrong(const PointSet& points,
                         const std::vector<CheckedReply>& checked) {
  std::uint64_t wrong = 0;
  for (const CheckedReply& c : checked) {
    if (c.reply.status != wire::ReplyStatus::kOk) continue;
    if (!ReplyCorrect(c.reply, Reference(points, c.query))) ++wrong;
  }
  return wrong;
}

// The live rows of the tiered engine, kept beside it as the reference
// for its answers. Stable ids are dense: the bulk load takes [0, n) and
// each insert the next id.
class LiveMirror {
 public:
  LiveMirror() = default;
  explicit LiveMirror(const PointSet& initial) : dim_(initial.dim()) {
    coords_.assign(initial.raw().begin(), initial.raw().end());
    alive_.assign(initial.size(), 1);
    for (std::size_t id = 0; id < initial.size(); ++id) {
      position_.push_back(id);
      live_.push_back(static_cast<TupleId>(id));
    }
  }

  bool Insert(TupleId id, PointView tuple) {
    if (id != alive_.size()) return false;
    coords_.insert(coords_.end(), tuple.begin(), tuple.end());
    alive_.push_back(1);
    position_.push_back(live_.size());
    live_.push_back(id);
    return true;
  }

  TupleId RandomLive(Rng& rng) const { return live_[rng.Index(live_.size())]; }

  void Erase(TupleId id) {
    alive_[id] = 0;
    const std::size_t at = position_[id];
    const TupleId last = live_.back();
    live_[at] = last;
    position_[last] = at;
    live_.pop_back();
  }

  std::vector<ScoredTuple> TopK(const wire::WireQuery& query) const {
    const bool boxed = query.scenario == wire::Scenario::kConstrained;
    std::vector<ScoredTuple> all;
    for (std::size_t id = 0; id < alive_.size(); ++id) {
      if (!alive_[id]) continue;
      const PointView p(&coords_[id * dim_], dim_);
      if (boxed && !query.box.Contains(p)) continue;
      all.push_back(ScoredTuple{static_cast<TupleId>(id),
                                Score(query.weights, p)});
    }
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(query.k), all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                      all.end(), ResultOrderLess);
    all.resize(k);
    return all;
  }

 private:
  std::size_t dim_ = 1;
  std::vector<double> coords_;
  std::vector<char> alive_;
  std::vector<std::size_t> position_;  // id -> index in live_
  std::vector<TupleId> live_;
};

double FailFraction(const RunOutcome& out) {
  return out.attempted > 0 ? static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted)
                           : 0.0;
}

double ShareNonNegative(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  const auto count = std::count_if(samples.begin(), samples.end(),
                                   [](double x) { return x >= 0.0; });
  return static_cast<double>(count) / static_cast<double>(samples.size());
}

bool WriteTrace(const Trace& trace, const RunConfig& config,
                const RunOutcome& out, std::string* error) {
  std::vector<Metric> layers = out.metrics;
  layers.insert(layers.end(), out.details.begin(), out.details.end());
  if (!trace.Write(config.trace_out, out.header, layers, kMaxSpansWritten)) {
    *error = "cannot write " + config.trace_out;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Serving workloads: a snapshot behind an in-process TopKServer.

struct ServingSetup {
  PointSet points{1};
  std::unique_ptr<server::TopKServer> server;
  std::string dir;
  double generate_s = 0.0;
  double build_s = 0.0;
  double save_s = 0.0;
  double total_s = 0.0;
};

// Generate, build, save, publish, start: the set-up a deployment pays.
Status SetupServing(const WorkloadSpec& spec, std::size_t n,
                    std::uint64_t seed, const std::string& dir,
                    ServingSetup* out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  out->dir = dir;
  const Clock::time_point start = Clock::now();
  out->points = GenerateAnticorrelated(n, spec.d, seed);
  const Clock::time_point generated = Clock::now();
  std::string snapshot;
  Status saved;
  Clock::time_point built;
  if (spec.engine == EngineKind::kSharded) {
    ShardedBuildOptions options;
    options.num_shards = spec.shards;
    options.partitioner = ShardPartitioner::kHyperplane;
    options.shard_options.build_zero_layer = true;
    const ShardedDualLayerIndex index =
        ShardedDualLayerIndex::Build(out->points, options);
    built = Clock::now();
    snapshot = "gen-1.drls";
    saved = SaveShardedIndex(index, dir + "/" + snapshot);
  } else {
    DualLayerOptions options;
    options.build_zero_layer = true;
    const DualLayerIndex index = DualLayerIndex::Build(out->points, options);
    built = Clock::now();
    snapshot = "gen-1.v2";
    saved = SaveDualLayerIndex(index, dir + "/" + snapshot);
  }
  const Clock::time_point stored = Clock::now();
  if (!saved.ok()) return saved;
  if (Status s = server::PublishSnapshot(dir, snapshot); !s.ok()) return s;
  out->server = std::make_unique<server::TopKServer>();
  server::ServerOptions options;
  options.num_loops = kServerLoops;
  options.num_workers = kServerWorkers;
  if (Status s = out->server->Start(dir, options); !s.ok()) return s;
  const Clock::time_point started = Clock::now();
  out->generate_s = Seconds(start, generated);
  out->build_s = Seconds(generated, built);
  out->save_s = Seconds(built, stored);
  out->total_s = Seconds(start, started);
  return Status::Ok();
}

// One traced request: the real round trip on the socket (client-side
// encode and decode timed in place), then the layers below the wire
// replayed in-process against the server's own serving generation.
bool TraceServingRequest(Trace& trace, std::uint64_t request,
                         server::DrliClient& client, server::TopKServer& srv,
                         const wire::WireQuery& query, ReplayState& state,
                         std::uint64_t* reply_bytes, wire::WireResult* reply,
                         std::string* error) {
  wire::Request req;
  req.verb = wire::Verb::kQuery;
  req.queries.push_back(query);
  const std::uint32_t id = static_cast<std::uint32_t>(request);

  const Clock::time_point t0 = Clock::now();
  const std::vector<std::uint8_t> payload = wire::EncodeRequest(req);
  std::vector<std::uint8_t> frame;
  const bool framed = wire::AppendFrame(id, payload, &frame);
  const Clock::time_point t1 = Clock::now();
  if (!framed || !client.SendRaw(frame).ok()) {
    *error = "cannot send a traced request";
    return false;
  }
  StatusOr<wire::Frame> received = client.ReadFrame();
  while (received.ok() && received.value().request_id != id) {
    received = client.ReadFrame();
  }
  const Clock::time_point t2 = Clock::now();
  if (!received.ok()) {
    *error = "traced request lost: " + received.status().ToString();
    return false;
  }
  std::vector<wire::WireResult> results;
  const Status decoded =
      wire::DecodeResultReply(received.value().payload, &results);
  const Clock::time_point t3 = Clock::now();
  if (!decoded.ok() || results.size() != 1) {
    *error = "undecodable reply to a traced request";
    return false;
  }
  *reply = results[0];
  const std::int64_t root = trace.Add(request, "request", t0, t3, -1);
  trace.at(root).items = reply->items.size();
  trace.Add(request, "protocol.encode_request", t0, t1, root);
  const std::int64_t wire_span =
      trace.Add(request, "wire.roundtrip", t1, t2, root);
  trace.Add(request, "protocol.decode_reply", t2, t3, root);
  *reply_bytes += received.value().payload.size();
  if (reply->status != wire::ReplyStatus::kOk) return true;

  Clock::time_point a = Clock::now();
  wire::Request replayed_request;
  const Status parsed = wire::DecodeRequest(payload, &replayed_request);
  Clock::time_point b = Clock::now();
  trace.Add(request, "protocol.decode_request", a, b, wire_span);
  if (!parsed.ok() || replayed_request.queries.size() != 1) {
    *error = "the traced request does not decode";
    return false;
  }
  const wire::WireQuery& wq = replayed_request.queries[0];

  a = Clock::now();
  const std::shared_ptr<const server::ServingGeneration> generation =
      srv.engine().Acquire();
  b = Clock::now();
  trace.Add(request, "serving_engine.acquire", a, b, wire_span);

  // The server's worker ran this request with its caches warm; one
  // untimed run first lets the timed replay on this core start warm too.
  // Otherwise the replay overstates execution and the residual reads
  // negative.
  (void)server::ExecuteWireQuery(*generation, wq, ExecBudget{});
  a = Clock::now();
  std::vector<wire::WireResult> executed{
      server::ExecuteWireQuery(*generation, wq, ExecBudget{})};
  b = Clock::now();
  const std::int64_t execute =
      trace.Add(request, "serving_engine.execute", a, b, wire_span);

  a = Clock::now();
  const std::vector<std::uint8_t> encoded = wire::EncodeResultReply(executed);
  b = Clock::now();
  trace.Add(request, "protocol.encode_reply", a, b, wire_span);
  if (encoded != received.value().payload) {
    *error = "the replayed reply differs from the served one";
    return false;
  }

  Engine engine;
  if (generation->dl.has_value()) engine.dl = &*generation->dl;
  if (generation->sharded.has_value()) engine.sharded = &*generation->sharded;
  std::vector<ScoredTuple> answer;
  if (!TraceEngine(trace, request, execute, engine, wq, state, &answer,
                   error)) {
    return false;
  }
  if (!SameItems(answer, ReplyItems(*reply))) {
    *error = "the engine replay answers differently from the reply";
    return false;
  }
  return true;
}

// The traced run of a serving workload on its one instance.
RunOutcome TraceServing(const WorkloadSpec& spec, const RunConfig& config,
                        std::size_t n, ServingSetup& live, RunOutcome out) {
  server::TopKServer& srv = *live.server;
  Trace trace;
  ReplayState state;
  std::uint64_t reply_bytes = 0;
  std::vector<CheckedReply> traced;
  server::ServingEngine loader;
  const Clock::time_point load_start = Clock::now();
  const Status loaded = loader.Open(live.dir);
  const double load_s = Seconds(load_start, Clock::now());
  server::DrliClient client;
  if (!loaded.ok() || !client.Connect("127.0.0.1", srv.port()).ok()) {
    out.error = "cannot open or reach the served snapshot";
    return out;
  }
  RequestMaker maker(spec, live.points, config.seed, kTraceStream);
  const Clock::time_point start = Clock::now();
  for (std::uint64_t request = 1;
       Seconds(start, Clock::now()) < config.seconds; ++request) {
    CheckedReply c{maker.Next(), {}};
    if (!TraceServingRequest(trace, request, client, srv, c.query, state,
                             &reply_bytes, &c.reply, &out.error)) {
      return out;
    }
    ++out.attempted;
    if (c.reply.status != wire::ReplyStatus::kOk) ++out.failed;
    traced.push_back(std::move(c));
  }
  client.Close();
  const server::ServerCounters counters = srv.counters();
  srv.Shutdown();
  const std::uint64_t wrong = CountWrong(live.points, traced);
  out.failed += wrong;
  out.correct = wrong == 0;

  if (!PerLayerMetrics(trace, live.generate_s, live.build_s, &out.metrics,
                       &out.error)) {
    return out;
  }
  const double requests = static_cast<double>(trace.Totals("request").count);
  const SpanTotals roundtrip = trace.Totals("wire.roundtrip");
  auto per_request = [&](const char* name) {
    return trace.Totals(name).total_us / requests;
  };
  out.details = {
      {"request_us", per_request("request"), "us"},
      {"protocol.encode_request_us", per_request("protocol.encode_request"),
       "us"},
      {"protocol.decode_request_us", per_request("protocol.decode_request"),
       "us"},
      {"protocol.encode_reply_us", per_request("protocol.encode_reply"), "us"},
      {"protocol.decode_reply_us", per_request("protocol.decode_reply"), "us"},
      {"protocol.reply_bytes", static_cast<double>(reply_bytes) / requests,
       "bytes"},
      {"server.roundtrip_us", roundtrip.total_us / requests, "us"},
      {"server.residual_us", roundtrip.self_us / requests, "us"},
      {"server.residual_nonneg_share",
       ShareNonNegative(roundtrip.self_samples_us), "ratio"},
      {"server.shed", static_cast<double>(counters.queries_shed), "count"},
      {"server.malformed", static_cast<double>(counters.malformed_frames),
       "count"},
      {"serving_engine.acquire_us", per_request("serving_engine.acquire"),
       "us"},
      {"serving_engine.execute_self_us",
       trace.Totals("serving_engine.execute").self_us / requests, "us"},
      {"serving_engine.load_s", load_s, "s"},
      {"serialization.save_s", live.save_s, "s"},
  };
  if (spec.engine == EngineKind::kSharded) {
    const SpanTotals dl = trace.Totals("dual_layer.query");
    const SpanTotals engine = trace.Totals("engine.query");
    out.details.push_back(
        {"shard.touched_per_query",
         static_cast<double>(dl.count) / static_cast<double>(engine.count),
         "count"});
    out.details.push_back(
        {"shard.useful_shard_ratio",
         static_cast<double>(dl.useful) / static_cast<double>(dl.count),
         "ratio"});
  }
  ScenarioDetails(trace, state, n, &out.details);
  out.completed = WriteTrace(trace, config, out, &out.error);
  return out;
}

RunOutcome RunServing(const WorkloadSpec& spec, const RunConfig& config,
                      std::size_t n, RunOutcome out) {
  const std::size_t setups =
      config.trace ? 1 : std::max<std::size_t>(1, config.setups);
  std::vector<std::unique_ptr<ServingSetup>> live;
  SpeedReference speed;
  std::vector<double> setup_s, setup_reference_ms;
  for (std::size_t i = 0; i < setups; ++i) {
    if (!config.trace) setup_reference_ms.push_back(speed.Measure());
    live.push_back(std::make_unique<ServingSetup>());
    const Status status =
        SetupServing(spec, n, InstanceSeed(config.seed, i),
                     config.work_dir + "/instance-" + std::to_string(i),
                     live.back().get());
    if (!status.ok()) {
      out.error = "set-up failed: " + status.ToString();
      return out;
    }
    setup_s.push_back(live.back()->total_s);
  }
  if (config.trace) return TraceServing(spec, config, n, *live[0], out);

  std::vector<StreamFactory> factories;
  for (const auto& instance : live) {
    const PointSet& points = instance->points;
    factories.push_back([&spec, &points, &config](std::uint64_t stream) {
      auto maker =
          std::make_shared<RequestMaker>(spec, points, config.seed, stream);
      return QueryStream([maker] { return maker->Next(); });
    });
  }
  const Phases phases = SplitSeconds(config.seconds);
  // loads[i]: every load phase that ran against instance i.
  std::vector<std::vector<LoadResult>> loads(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    loads[i].push_back(RunClosedLoop(
        live[i]->server->port(), kClosedConnections,
        phases.warmup / static_cast<double>(live.size()), factories[i],
        kWarmupStream));
  }
  Rounds rounds;
  std::vector<double> late_us;
  for (int r = 0; r < kRounds; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) % live.size();
    const std::uint16_t port = live[i]->server->port();
    LoadResult closed = RunClosedLoop(port, kClosedConnections, phases.closed,
                                      factories[i], kClosedStream + 10 * r);
    rounds.AddReference(speed.Measure());
    LoadResult open = RunOpenLoop(port, spec.open_rate, phases.open,
                                  factories[i](kOpenStream + r));
    rounds.AddReference(speed.Measure());
    if (!rounds.Add(static_cast<double>(closed.ok) / closed.elapsed_s,
                    closed.latency_us, open.latency_us,
                    closed.tuples_evaluated, &out.error)) {
      return out;
    }
    late_us.insert(late_us.end(), open.late_us.begin(), open.late_us.end());
    loads[i].push_back(std::move(closed));
    loads[i].push_back(std::move(open));
  }

  std::uint64_t wrong = 0, checked = 0, errors = 0, unanswered = 0, shed = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    shed += live[i]->server->counters().queries_shed;
    live[i]->server->Shutdown();
    for (const LoadResult& load : loads[i]) {
      out.attempted += load.sent;
      out.failed += load.failed();
      wrong += CountWrong(live[i]->points, load.checked);
      checked += load.checked.size();
      errors += load.errors;
      unanswered += load.unanswered;
    }
  }
  out.failed += wrong;
  out.correct = wrong == 0;

  out.metrics =
      rounds.EndToEnd(AtNominalSpeed(Median(setup_s), setup_reference_ms));
  out.details = {
      {"measured.setup_s", Median(setup_s), "s"},
      {"open.rate", spec.open_rate, "1/s"},
      {"shed", static_cast<double>(shed), "count"},
      {"errors", static_cast<double>(errors), "count"},
      {"unanswered", static_cast<double>(unanswered), "count"},
      {"wrong", static_cast<double>(wrong), "count"},
      {"checked", static_cast<double>(checked), "count"},
      {"fail_fraction", FailFraction(out), "ratio"},
  };
  rounds.AddDetails(&out.details);
  AddPercentile("loadgen.late_p50_us", late_us, 0.50, &out.details);
  AddPercentile("loadgen.late_p99_us", late_us, 0.99, &out.details);
  out.details.push_back({"setup.generate_s", live[0]->generate_s, "s"});
  out.details.push_back({"setup.build_s", live[0]->build_s, "s"});
  out.details.push_back({"setup.save_s", live[0]->save_s, "s"});
  out.completed = true;
  return out;
}

// ---------------------------------------------------------------------
// tiered-rw: the LSM-style engine in-process under reads and writes.

struct TieredOp {
  enum Kind { kRead, kInsert, kErase } kind = kRead;
  wire::WireQuery query;
  PointView tuple;
  TupleId victim = 0;
};

// One tiered-rw instance: its data, the engine (bulk-loaded, then
// pre-aged with kTieredPreload inserts), the live mirror that checks
// it, and its operation stream.
class TieredWorkload {
 public:
  // Generates the data and sets up the engine; the set-up is timed.
  TieredWorkload(const WorkloadSpec& spec, std::size_t n, std::uint64_t seed)
      : spec_(spec), maker_(spec, points_, seed, kOpsStream) {
    const Clock::time_point start = Clock::now();
    points_ = GenerateAnticorrelated(n, spec.d, seed);
    inserts_ = GenerateAnticorrelated(kInsertPoolSize, spec.d,
                                      StreamSeed(seed, kInsertStream));
    const Clock::time_point generated = Clock::now();
    index_ = std::make_unique<TieredDualLayerIndex>(points_);
    for (std::size_t i = 0; i < kTieredPreload; ++i) {
      index_->Insert(inserts_[i]);
    }
    const Clock::time_point loaded = Clock::now();
    generate_s_ = Seconds(start, generated);
    build_s_ = Seconds(generated, loaded);
    mirror_ = LiveMirror(points_);
    for (std::size_t i = 0; i < kTieredPreload; ++i) {
      mirror_.Insert(static_cast<TupleId>(n + i), inserts_[i]);
    }
    next_insert_ = kTieredPreload;
  }
  TieredWorkload(const TieredWorkload&) = delete;
  TieredWorkload& operator=(const TieredWorkload&) = delete;

  double generate_s() const { return generate_s_; }
  double build_s() const { return build_s_; }
  double setup_s() const { return generate_s_ + build_s_; }
  const TieredDualLayerIndex& index() const { return *index_; }

  TieredOp Next() {
    TieredOp op;
    if (maker_.rng().Index(100) < spec_.write_percent) {
      if (maker_.rng().Index(5) == 0) {
        op.kind = TieredOp::kErase;
        op.victim = mirror_.RandomLive(maker_.rng());
      } else {
        op.kind = TieredOp::kInsert;
        op.tuple = inserts_[next_insert_++ % inserts_.size()];
      }
      return op;
    }
    op.query = maker_.Next();
    return op;
  }

  // Executes `op`; false when the engine refused a write or returned a
  // partial read.
  bool Execute(const TieredOp& op, TopKResult* read, TupleId* inserted) {
    switch (op.kind) {
      case TieredOp::kInsert:
        *inserted = index_->Insert(op.tuple);
        return true;
      case TieredOp::kErase:
        return index_->Erase(op.victim);
      case TieredOp::kRead:
        break;
    }
    if (op.query.scenario == wire::Scenario::kConstrained) {
      ConstrainedQuery q;
      q.weights = op.query.weights;
      q.k = static_cast<std::size_t>(op.query.k);
      q.box = op.query.box;
      *read = ConstrainedTopK(*index_, q);
    } else {
      TopKQuery q;
      q.weights = op.query.weights;
      q.k = static_cast<std::size_t>(op.query.k);
      *read = index_->Query(q);
    }
    return read->complete();
  }

  // Keeps the mirror in step after a write; false on an id mismatch.
  bool Apply(const TieredOp& op, TupleId inserted) {
    if (op.kind == TieredOp::kInsert) return mirror_.Insert(inserted, op.tuple);
    if (op.kind == TieredOp::kErase) mirror_.Erase(op.victim);
    return true;
  }

  bool Correct(const TieredOp& op, const std::vector<ScoredTuple>& items) {
    return SameItems(items, mirror_.TopK(op.query));
  }

 private:
  static constexpr std::uint64_t kOpsStream = 500;
  static constexpr std::uint64_t kInsertStream = 600;

  const WorkloadSpec& spec_;
  PointSet points_{1};
  PointSet inserts_{1};
  std::unique_ptr<TieredDualLayerIndex> index_;
  LiveMirror mirror_;
  std::size_t next_insert_ = 0;
  RequestMaker maker_;  // draws boxes from points_
  double generate_s_ = 0.0;
  double build_s_ = 0.0;
};

// Latencies of one phase of the op stream.
struct StreamStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t checked = 0;
  std::uint64_t read_evals = 0;  // tuples evaluated by the reads
  std::vector<double> read_us;
  std::vector<double> insert_us;
  std::vector<double> erase_us;
  std::vector<double> late_us;
  double seconds = 0.0;  // stream wall time, reference checks excluded
};

// Runs the next `ops` operations. rate == 0: back to back, each read
// timed from its own start; rate > 0: op i is due at i / rate and timed
// from its due time. Every kCheckEvery-th read is checked against the
// mirror; check time is taken out of the stream clock and schedule.
StreamStats RunStream(TieredWorkload& w, std::uint64_t ops, double rate) {
  StreamStats stats;
  if (rate > 0.0) TightenTimerSlack();
  Clock::duration paused{0};
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    Clock::time_point due = Clock::now();
    if (rate > 0.0) {
      due = start + paused +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(static_cast<double>(i) / rate));
      std::this_thread::sleep_until(due);
    }
    const TieredOp op = w.Next();
    TopKResult read;
    TupleId inserted = 0;
    const Clock::time_point begin = Clock::now();
    const bool ok = w.Execute(op, &read, &inserted);
    const Clock::time_point end = Clock::now();
    if (!ok) ++stats.failed;
    if (rate > 0.0) stats.late_us.push_back(Micros(due, begin));
    const double us = Micros(rate > 0.0 ? due : begin, end);

    const Clock::time_point check_start = Clock::now();
    if (op.kind == TieredOp::kRead) {
      stats.read_us.push_back(us);
      stats.read_evals += read.stats.tuples_evaluated;
      if (stats.reads++ % kCheckEvery == 0) {
        ++stats.checked;
        if (!w.Correct(op, read.items)) ++stats.wrong;
      }
    } else {
      ++stats.writes;
      (op.kind == TieredOp::kInsert ? stats.insert_us : stats.erase_us)
          .push_back(Micros(begin, end));
      if (!w.Apply(op, inserted)) ++stats.failed;
    }
    paused += Clock::now() - check_start;
  }
  stats.seconds =
      std::chrono::duration<double>(Clock::now() - start - paused).count();
  return stats;
}

// The traced run of tiered-rw on its one instance, after its warm-up.
RunOutcome TraceTiered(const RunConfig& config, std::size_t n,
                       std::uint64_t traced_ops, TieredWorkload& workload,
                       RunOutcome out) {
  Trace trace;
  ReplayState state;
  const Engine engine{nullptr, nullptr, &workload.index()};
  double runs_sum = 0.0;
  std::uint64_t reads = 0;
  for (std::uint64_t request = 1; request <= traced_ops; ++request) {
    const TieredOp op = workload.Next();
    ++out.attempted;
    if (op.kind == TieredOp::kRead) {
      runs_sum += static_cast<double>(workload.index().num_runs());
      ++reads;
      std::vector<ScoredTuple> answer;
      if (!TraceEngine(trace, request, -1, engine, op.query, state, &answer,
                       &out.error)) {
        return out;
      }
      if (!workload.Correct(op, answer)) {
        ++out.failed;
        out.correct = false;
      }
      continue;
    }
    TopKResult unused;
    TupleId inserted = 0;
    const Clock::time_point begin = Clock::now();
    const bool ok = workload.Execute(op, &unused, &inserted);
    const Clock::time_point end = Clock::now();
    trace.Add(request,
              op.kind == TieredOp::kInsert ? "tiered.insert" : "tiered.erase",
              begin, end, -1);
    if (!ok || !workload.Apply(op, inserted)) ++out.failed;
  }
  if (!PerLayerMetrics(trace, workload.generate_s(), workload.build_s(),
                       &out.metrics, &out.error)) {
    return out;
  }
  const SpanTotals engine_totals = trace.Totals("engine.query");
  const SpanTotals dl = trace.Totals("dual_layer.query");
  const SpanTotals insert = trace.Totals("tiered.insert");
  const SpanTotals erase = trace.Totals("tiered.erase");
  std::vector<double> write_us = insert.self_samples_us;
  write_us.insert(write_us.end(), erase.self_samples_us.begin(),
                  erase.self_samples_us.end());
  const double plain = static_cast<double>(engine_totals.count);
  const TieredDualLayerIndex& index = workload.index();
  out.details = {
      {"tiered.query_us", engine_totals.total_us / plain, "us"},
      {"tiered.self_us", engine_totals.self_us / plain, "us"},
      {"tiered.runs_opened_per_query", static_cast<double>(dl.count) / plain,
       "count"},
      {"tiered.fetch_ratio",
       static_cast<double>(engine_totals.items) /
           static_cast<double>(dl.items),
       "ratio"},
      {"tiered.insert_us", Mean(insert.self_samples_us), "us"},
      {"tiered.erase_us", Mean(erase.self_samples_us), "us"},
      {"tiered.seals", static_cast<double>(index.seal_count()), "count"},
      {"tiered.compactions", static_cast<double>(index.compaction_count()),
       "count"},
      {"tiered.mean_runs",
       reads > 0 ? runs_sum / static_cast<double>(reads) : 0.0, "count"},
  };
  AddPercentile("tiered.write_p99_us", write_us, 0.99, &out.details);
  ScenarioDetails(trace, state, n, &out.details);
  out.completed = WriteTrace(trace, config, out, &out.error);
  return out;
}

RunOutcome RunTiered(const WorkloadSpec& spec, const RunConfig& config,
                     std::size_t n, RunOutcome out) {
  const std::size_t instances = std::max<std::size_t>(1, config.setups);
  std::vector<std::unique_ptr<TieredWorkload>> live;
  SpeedReference speed;
  std::vector<double> setup_s, setup_reference_ms;
  for (std::size_t i = 0; i < (config.trace ? 1 : instances); ++i) {
    if (!config.trace) setup_reference_ms.push_back(speed.Measure());
    live.push_back(std::make_unique<TieredWorkload>(
        spec, n, InstanceSeed(config.seed, i)));
    setup_s.push_back(live.back()->setup_s());
  }
  const Phases phases = SplitSeconds(config.seconds);
  const auto ops = [](double seconds) {
    return static_cast<std::uint64_t>(kTieredOpsPerSecond * seconds);
  };
  // Each instance runs its share of the warm-up and of the rounds.
  std::vector<StreamStats> streams;
  for (const auto& w : live) {
    streams.push_back(
        RunStream(*w, ops(phases.warmup) / instances, 0.0));
  }
  if (config.trace) {
    out.attempted = streams[0].reads + streams[0].writes;
    out.failed = streams[0].failed + streams[0].wrong;
    out.correct = streams[0].wrong == 0;
    // The operations one instance runs in its closed slices of an
    // end-to-end run.
    return TraceTiered(config, n, ops(phases.closed) * kRounds / instances,
                       *live[0], std::move(out));
  }

  Rounds rounds;
  std::vector<double> late_us;
  const auto open_ops =
      static_cast<std::uint64_t>(spec.open_rate * phases.open);
  for (int r = 0; r < kRounds; ++r) {
    TieredWorkload& w = *live[static_cast<std::size_t>(r) % live.size()];
    StreamStats closed = RunStream(w, ops(phases.closed), 0.0);
    rounds.AddReference(speed.Measure());
    StreamStats open = RunStream(w, open_ops, spec.open_rate);
    rounds.AddReference(speed.Measure());
    if (!rounds.Add(static_cast<double>(closed.reads) / closed.seconds,
                    closed.read_us, open.read_us, closed.read_evals,
                    &out.error)) {
      return out;
    }
    late_us.insert(late_us.end(), open.late_us.begin(), open.late_us.end());
    streams.push_back(std::move(closed));
    streams.push_back(std::move(open));
  }

  std::uint64_t wrong = 0, checked = 0;
  std::vector<double> write_us;
  for (const StreamStats& s : streams) {
    out.attempted += s.reads + s.writes;
    out.failed += s.failed + s.wrong;
    wrong += s.wrong;
    checked += s.checked;
    write_us.insert(write_us.end(), s.insert_us.begin(), s.insert_us.end());
    write_us.insert(write_us.end(), s.erase_us.begin(), s.erase_us.end());
  }
  out.correct = wrong == 0;
  std::size_t seals = 0, compactions = 0, runs = 0;
  for (const auto& w : live) {
    seals += w->index().seal_count();
    compactions += w->index().compaction_count();
    runs += w->index().num_runs();
  }

  out.metrics =
      rounds.EndToEnd(AtNominalSpeed(Median(setup_s), setup_reference_ms));
  out.details = {
      {"measured.setup_s", Median(setup_s), "s"},
      {"open.rate", spec.open_rate, "1/s"},
      {"write_mean_us", Mean(write_us), "us"},
      {"wrong", static_cast<double>(wrong), "count"},
      {"checked", static_cast<double>(checked), "count"},
      {"fail_fraction", FailFraction(out), "ratio"},
      {"tiered.seals", static_cast<double>(seals), "count"},
      {"tiered.compactions", static_cast<double>(compactions), "count"},
      {"tiered.final_runs", static_cast<double>(runs), "count"},
      {"setup.generate_s", live[0]->generate_s(), "s"},
      {"setup.build_s", live[0]->build_s(), "s"},
  };
  rounds.AddDetails(&out.details);
  AddPercentile("write_p99_us", write_us, 0.99, &out.details);
  AddPercentile("loadgen.late_p50_us", late_us, 0.50, &out.details);
  AddPercentile("loadgen.late_p99_us", late_us, 0.99, &out.details);
  out.completed = true;
  return out;
}

std::string ParamsJson(const WorkloadSpec& spec, const RunConfig& config,
                       std::size_t n) {
  const char* engine = spec.engine == EngineKind::kSharded  ? "sharded-dl+"
                       : spec.engine == EngineKind::kTiered ? "tiered-dl+"
                                                            : "dl+";
  const Phases phases = SplitSeconds(config.seconds);
  std::string json = "{\"n\": " + std::to_string(n) +
                     ", \"d\": " + std::to_string(spec.d) +
                     ", \"distribution\": \"anticorrelated\"" +
                     ", \"engine\": \"" + engine + "\"";
  if (spec.engine == EngineKind::kSharded) {
    json += ", \"shards\": " + std::to_string(spec.shards) +
            ", \"partitioner\": \"hyperplane\"";
  }
  json += ", \"mix_percent\": {\"plain_k10\": " +
          std::to_string(spec.plain_k10) +
          ", \"plain_k100\": " + std::to_string(spec.plain_k100) +
          ", \"constrained_k10\": " + std::to_string(spec.constrained) +
          ", \"diversified_k10\": " + std::to_string(spec.diversified) + "}";
  if (spec.diversified > 0) {
    json += ", \"lambda\": " + JsonNumber(kLambda) +
            ", \"pool_factor\": " + std::to_string(kPoolFactor);
  }
  if (spec.engine == EngineKind::kTiered) {
    json += ", \"write_percent\": " + std::to_string(spec.write_percent) +
            ", \"insert_share\": 0.8, \"client_threads\": 1" +
            ", \"closed_ops_per_s\": " + JsonNumber(kTieredOpsPerSecond) +
            ", \"preload_inserts\": " + std::to_string(kTieredPreload);
  } else {
    json += ", \"server\": {\"num_loops\": " + std::to_string(kServerLoops) +
            ", \"num_workers\": " + std::to_string(kServerWorkers) +
            "}, \"client_threads\": " +
            std::to_string(config.trace ? 1 : kClosedConnections);
  }
  json += ", \"open_rate\": " + JsonNumber(spec.open_rate) +
          ", \"instances\": " +
          std::to_string(config.trace ? 1 : config.setups) +
          ", \"rounds\": " + std::to_string(kRounds) +
          ", \"phases_s\": {\"warmup\": " + JsonNumber(phases.warmup) +
          ", \"closed_per_round\": " + JsonNumber(phases.closed) +
          ", \"open_per_round\": " + JsonNumber(phases.open) + "}}";
  return json;
}

bool SameNames(const std::vector<Metric>& metrics, const MetricNames& names) {
  if (metrics.size() != names.size()) return false;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (metrics[i].name != names[i].first ||
        metrics[i].unit != names[i].second) {
      return false;
    }
  }
  return true;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> w(4);
    w[0].name = "dl-serve";
    w[0].engine = EngineKind::kDualLayer;
    w[0].n = 100000;
    w[0].d = 4;
    w[0].plain_k10 = 100;
    w[0].open_rate = 5000.0;

    w[1].name = "shard-serve";
    w[1].engine = EngineKind::kSharded;
    w[1].n = 100000;
    w[1].d = 4;
    w[1].shards = 8;
    w[1].plain_k10 = 80;
    w[1].plain_k100 = 10;
    w[1].constrained = 10;
    w[1].open_rate = 400.0;

    w[2].name = "tiered-rw";
    w[2].engine = EngineKind::kTiered;
    w[2].n = 100000;
    w[2].d = 4;
    w[2].plain_k10 = 80;
    w[2].plain_k100 = 10;
    w[2].constrained = 10;
    w[2].write_percent = 5;
    w[2].open_rate = 500.0;

    w[3].name = "diverse-serve";
    w[3].engine = EngineKind::kDualLayer;
    w[3].n = 20000;
    w[3].d = 3;
    w[3].diversified = 100;
    w[3].open_rate = 30.0;
    return w;
  }();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const MetricNames& EndToEndMetricNames() {
  static const MetricNames names = {
      {"p50_us", "us"},
      {"evals_per_query", "count"},
      {"setup_s", "s"},
  };
  return names;
}

const MetricNames& PerLayerMetricNames() {
  static const MetricNames names = {
      {"engine.query_us", "us"},
      {"engine.self_us", "us"},
      {"dual_layer.query_us", "us"},
      {"dual_layer.warm_query_us", "us"},
      {"dual_layer.reseed_us", "us"},
      {"dual_layer.calls_per_query", "count"},
      {"dual_layer.evals_per_query", "count"},
      {"dual_layer.virtual_evals_per_query", "count"},
      {"dual_layer.useful_ratio", "ratio"},
      {"engine.fetch_ratio", "ratio"},
      {"engine.useful_call_ratio", "ratio"},
      {"data.generate_s", "s"},
      {"index.build_s", "s"},
  };
  return names;
}

RunOutcome RunWorkload(const WorkloadSpec& spec, const RunConfig& config) {
  const std::size_t n = config.n_override > 0 ? config.n_override : spec.n;
  RunOutcome out;
  out.header.workload = spec.name;
  out.header.seed = config.seed;
  out.header.seconds = config.seconds;
  out.header.trace = config.trace;
  out.header.params_json = ParamsJson(spec, config, n);

  RunConfig local = config;
  local.work_dir = config.work_dir + "/" + spec.name + "-" +
                   std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(local.work_dir, ec);
  std::filesystem::create_directories(local.work_dir, ec);
  if (ec) {
    out.error = "cannot create " + local.work_dir + ": " + ec.message();
    return out;
  }
  out = spec.engine == EngineKind::kTiered
            ? RunTiered(spec, local, n, std::move(out))
            : RunServing(spec, local, n, std::move(out));
  std::filesystem::remove_all(local.work_dir, ec);

  const MetricNames& declared =
      config.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  if (out.completed && !SameNames(out.metrics, declared)) {
    out.completed = false;
    out.error = "emitted metrics differ from the declared set";
  }
  return out;
}

}  // namespace bench
}  // namespace drli
