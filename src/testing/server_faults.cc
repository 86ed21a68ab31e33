#include "testing/server_faults.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "core/dual_layer.h"
#include "core/serialization.h"
#include "data/generator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "testing/result_check.h"

namespace drli {
namespace testing {

namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotA[] = "gen-a.v2";
constexpr char kSnapshotB[] = "gen-b.v2";

// Corrupt-frame cases (flips / truncations / garbage).
constexpr std::size_t kFrameFaults = 120;
// Reload flips raced against the query stream.
constexpr std::size_t kReloadRaces = 12;
// Queries in the deadline storm.
constexpr std::size_t kDeadlineStorm = 96;
// Concurrent overload clients.
constexpr std::size_t kOverloadClients = 8;
// Frames pipelined in one burst, four times the sweep's in-flight cap.
constexpr std::uint32_t kPipelinedFrames = 16;

std::vector<std::uint8_t> MakeQueryFrame(const Point& weights,
                                         std::uint64_t k,
                                         std::uint32_t request_id) {
  wire::Request request;
  request.verb = wire::Verb::kQuery;
  wire::WireQuery query;
  query.weights = weights;
  query.k = k;
  request.queries.push_back(std::move(query));
  std::vector<std::uint8_t> frame;
  (void)wire::AppendFrame(request_id, wire::EncodeRequest(request), &frame);
  return frame;
}

// Reads frames until timeout/EOF. Returns false on a frame that fails
// to parse -- the one thing the server must never put on the wire.
bool DrainReplies(server::DrliClient& client, std::size_t* malformed_replies) {
  while (true) {
    auto frame = client.ReadFrame();
    if (!frame.ok()) {
      // EOF and timeouts end the case; a Corruption status means the
      // server emitted an unparseable frame.
      return frame.status().code() != StatusCode::kCorruption;
    }
    if (!frame.value().payload.empty() &&
        frame.value().payload[0] ==
            static_cast<std::uint8_t>(wire::ReplyStatus::kMalformed)) {
      ++*malformed_replies;
    }
  }
}

std::vector<ScoredTuple> ToScoredTuples(
    const std::vector<wire::WireItem>& items) {
  std::vector<ScoredTuple> tuples;
  tuples.reserve(items.size());
  for (const wire::WireItem& item : items) {
    tuples.push_back(ScoredTuple{item.id, item.score});
  }
  return tuples;
}

bool SameAnswer(const std::vector<wire::WireItem>& got,
                const TopKResult& expected) {
  return got.size() == expected.items.size() &&
         SameExactPrefix(ToScoredTuples(got), expected.items, got.size());
}

}  // namespace

std::string ServerFaultReport::ToString() const {
  std::ostringstream out;
  out << "server fault sweep: " << cases << " cases, " << malformed_replies
      << " malformed rejections, " << disconnects << " disconnects, "
      << partials << " storm partials, " << sheds << " sheds, "
      << reload_swaps << " reload swaps, " << violations.size()
      << " violations";
  for (const std::string& v : violations) out << "\n  VIOLATION: " << v;
  return out.str();
}

ServerFaultReport RunServerFaultSweep(const std::string& scratch_dir,
                                      const ServerFaultOptions& options) {
  ServerFaultReport report;
  std::mt19937_64 rng(options.seed);
  fs::create_directories(scratch_dir);

  // Two generations with different relations: reload races must show
  // every answer belonging exactly to one of them.
  PointSet points_a = GenerateAnticorrelated(400, 3, options.seed + 101);
  PointSet points_b = GenerateIndependent(400, 3, options.seed + 202);
  DualLayerIndex index_a = DualLayerIndex::Build(std::move(points_a));
  DualLayerIndex index_b = DualLayerIndex::Build(std::move(points_b));
  if (!SaveDualLayerIndex(index_a, scratch_dir + "/" + kSnapshotA).ok() ||
      !SaveDualLayerIndex(index_b, scratch_dir + "/" + kSnapshotB).ok() ||
      !server::PublishSnapshot(scratch_dir, kSnapshotA).ok()) {
    report.violations.push_back("failed to stage snapshots in " + scratch_dir);
    return report;
  }

  const Point weights = {0.2, 0.3, 0.5};
  TopKQuery probe_query;
  probe_query.weights = weights;
  probe_query.k = 5;
  const TopKResult expected_a = index_a.Query(probe_query);
  const TopKResult expected_b = index_b.Query(probe_query);

  server::ServerOptions server_options;
  server_options.num_loops = 2;
  server_options.num_workers = 2;
  server_options.max_in_flight = 4;
  server_options.reload_poll_seconds = 0.005;
  server_options.retry_after_ms = 20;
  server_options.test_worker_delay_ms = 0.0;
  server::TopKServer topk_server;
  Status start = topk_server.Start(scratch_dir, server_options);
  if (!start.ok()) {
    report.violations.push_back("server start failed: " + start.message());
    return report;
  }
  const std::uint16_t port = topk_server.port();

  auto probe_alive = [&](const char* context) {
    server::DrliClient probe;
    if (!probe.Connect("127.0.0.1", port, 5.0).ok()) {
      report.violations.push_back(std::string(context) +
                                  ": server unreachable after fault");
      return;
    }
    auto health = probe.Health();
    if (!health.ok()) {
      report.violations.push_back(std::string(context) +
                                  ": health probe failed: " +
                                  health.status().ToString());
    }
  };

  // --- corrupt frames ---
  const std::vector<std::uint8_t> valid_frame =
      MakeQueryFrame(weights, 5, 7777);
  for (std::size_t i = 0; i < kFrameFaults; ++i) {
    ++report.cases;
    server::DrliClient client;
    if (!client.Connect("127.0.0.1", port, 2.0).ok()) {
      report.violations.push_back("connect failed during frame faults");
      break;
    }
    std::vector<std::uint8_t> bytes = valid_frame;
    const int mode = static_cast<int>(rng() % 3);
    if (mode == 0) {
      // Single-bit flip anywhere in the frame.
      const std::size_t pos = rng() % bytes.size();
      bytes[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
      (void)client.SendRaw(bytes);
    } else if (mode == 1) {
      // Truncated prefix, then the client vanishes mid-frame.
      const std::size_t cut = 1 + rng() % (bytes.size() - 1);
      bytes.resize(cut);
      (void)client.SendRaw(bytes);
      ++report.disconnects;
      client.Close();
      probe_alive("truncated frame");
      continue;
    } else {
      // Raw garbage.
      bytes.resize(8 + rng() % 56);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      (void)client.SendRaw(bytes);
    }
    // A trailing valid request bounds the wait: if the fault left the
    // stream parseable, this earns a reply; if not, the server has
    // already rejected and closed.
    (void)client.SendRaw(MakeQueryFrame(weights, 3, 8888));
    if (!DrainReplies(client, &report.malformed_replies)) {
      report.violations.push_back(
          "server emitted an unparseable frame after fault case " +
          std::to_string(i));
    }
    client.Close();
    if (i % 16 == 0) probe_alive("frame fault");
  }

  // --- mid-request disconnects around whole requests ---
  for (std::size_t i = 0; i < 8; ++i) {
    ++report.cases;
    ++report.disconnects;
    server::DrliClient client;
    if (!client.Connect("127.0.0.1", port, 2.0).ok()) continue;
    // Full request, then vanish without reading the reply: the server
    // hits EPIPE/RST on its send path and must shrug it off.
    (void)client.SendRaw(MakeQueryFrame(weights, 50, 99));
    client.Close();
  }
  probe_alive("disconnect burst");

  // --- oversized reply budgets: well-formed requests whose replies
  // could not fit one frame must be refused, never abort the process --
  {
    server::DrliClient client;
    if (client.Connect("127.0.0.1", port, 5.0).ok()) {
      ++report.cases;
      wire::WireQuery query;
      query.weights = weights;
      query.k = wire::kMaxWireItems + 1;
      auto result = client.Query(query);
      if (!result.ok()) {
        report.violations.push_back(
            "oversized k not rejected with kInvalidQuery: " +
            result.status().ToString());
      } else if (result.value().status != wire::ReplyStatus::kInvalidQuery) {
        report.violations.push_back(
            std::string("oversized k not rejected with kInvalidQuery: got ") +
            wire::ReplyStatusName(result.value().status));
      }
      ++report.cases;
      std::vector<wire::WireQuery> batch(wire::kMaxBatchQueries);
      for (auto& wq : batch) {
        wq.weights = weights;
        wq.k = 1000;  // modest per query, over the cap combined
      }
      auto batch_result = client.Batch(batch);
      if (!batch_result.ok() || batch_result.value().empty() ||
          batch_result.value()[0].status !=
              wire::ReplyStatus::kInvalidQuery) {
        report.violations.push_back(
            "oversized batch budget not rejected with kInvalidQuery");
      }
    } else {
      report.violations.push_back("connect failed for reply budget cases");
    }
    probe_alive("reply budget");
  }

  // --- reload-during-query races ---
  {
    std::atomic<bool> publishing{true};
    std::thread publisher([&] {
      for (std::size_t r = 0; r < kReloadRaces; ++r) {
        const char* name = (r % 2 == 0) ? kSnapshotB : kSnapshotA;
        (void)server::PublishSnapshot(scratch_dir, name);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      publishing.store(false);
    });
    server::DrliClient client;
    if (client.Connect("127.0.0.1", port, 5.0).ok()) {
      std::uint64_t last_generation = 0;
      while (publishing.load()) {
        ++report.cases;
        wire::WireQuery query;
        query.weights = weights;
        query.k = 5;
        auto result = client.Query(query);
        if (!result.ok()) {
          report.violations.push_back("query failed during reload race: " +
                                      result.status().ToString());
          break;
        }
        const wire::WireResult& r = result.value();
        if (r.status != wire::ReplyStatus::kOk) {
          report.violations.push_back(
              "non-ok reply during reload race: " +
              std::string(wire::ReplyStatusName(r.status)) + " " + r.message);
          continue;
        }
        if (!SameAnswer(r.items, expected_a) && !SameAnswer(r.items, expected_b)) {
          report.violations.push_back(
              "reload race answer matches neither generation (generation " +
              std::to_string(r.generation) + ")");
        }
        if (r.generation < last_generation) {
          report.violations.push_back("generation went backwards: " +
                                      std::to_string(last_generation) + " -> " +
                                      std::to_string(r.generation));
        }
        last_generation = r.generation;
      }
    } else {
      report.violations.push_back("connect failed for reload race");
    }
    publisher.join();
    report.reload_swaps = topk_server.counters().reloads;
  }

  // --- deadline storms (pin generation A first) ---
  {
    server::DrliClient client;
    if (client.Connect("127.0.0.1", port, 5.0).ok()) {
      (void)server::PublishSnapshot(scratch_dir, kSnapshotA);
      (void)client.Reload();
      auto inspect = client.Inspect();
      if (!inspect.ok() || inspect.value().snapshot != kSnapshotA) {
        report.violations.push_back("failed to pin generation A for storm");
      }
      for (std::size_t i = 0; i < kDeadlineStorm; ++i) {
        ++report.cases;
        wire::WireQuery query;
        query.weights = weights;
        query.k = 5;
        if (i % 3 == 0) {
          query.deadline_ms = 1e-6;  // expired before the worker starts
        } else if (i % 3 == 1) {
          query.max_evals = 1 + i % 4;
        }  // else: unbudgeted control query
        auto result = client.Query(query);
        if (!result.ok()) {
          report.violations.push_back("storm query failed: " +
                                      result.status().ToString());
          continue;
        }
        const wire::WireResult& r = result.value();
        if (r.status != wire::ReplyStatus::kOk) {
          report.violations.push_back(
              "storm reply not ok: " +
              std::string(wire::ReplyStatusName(r.status)));
          continue;
        }
        if (r.termination != static_cast<std::uint8_t>(Termination::kComplete)) {
          ++report.partials;
        }
        if (r.certified_prefix > r.items.size()) {
          report.violations.push_back("certified prefix exceeds item count");
          continue;
        }
        // The certified prefix must be an exact prefix of the true
        // answer -- the wire-level degradation contract.
        if (!SameExactPrefix(ToScoredTuples(r.items), expected_a.items,
                             r.certified_prefix)) {
          report.violations.push_back(
              "storm certified prefix diverges from the exact answer");
        }
      }
    } else {
      report.violations.push_back("connect failed for deadline storm");
    }
  }

  // --- overload: concurrent clients past the in-flight cap ---
  {
    std::atomic<std::size_t> sheds{0};
    std::atomic<std::size_t> bad_sheds{0};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kOverloadClients; ++c) {
      clients.emplace_back([&, c] {
        server::DrliClient client;
        if (!client.Connect("127.0.0.1", port, 5.0).ok()) {
          failures.fetch_add(1);
          return;
        }
        for (std::size_t i = 0; i < 12; ++i) {
          wire::WireQuery query;
          query.weights = weights;
          query.k = 10 + (c % 3);
          auto result = client.Query(query);
          if (!result.ok()) {
            failures.fetch_add(1);
            return;
          }
          const wire::WireResult& r = result.value();
          if (r.status == wire::ReplyStatus::kOverloaded) {
            sheds.fetch_add(1);
            if (r.retry_after_ms == 0) bad_sheds.fetch_add(1);
          } else if (r.status != wire::ReplyStatus::kOk) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    report.cases += kOverloadClients * 12;
    report.sheds = sheds.load();
    if (bad_sheds.load() > 0) {
      report.violations.push_back("kOverloaded reply without a retry hint");
    }
    if (failures.load() > 0) {
      report.violations.push_back(std::to_string(failures.load()) +
                                  " overload clients saw hard failures");
    }
  }

  // --- pipelined overload: one burst of frames past the cap on one
  // connection. Closed-loop clients keep at most one request each in
  // flight, so only a pipelined burst is sure to reach the cap. ---
  {
    server::DrliClient client;
    if (client.Connect("127.0.0.1", port, 5.0).ok()) {
      std::vector<std::uint8_t> burst;
      for (std::uint32_t id = 1; id <= kPipelinedFrames; ++id) {
        const std::vector<std::uint8_t> frame = MakeQueryFrame(weights, 5, id);
        burst.insert(burst.end(), frame.begin(), frame.end());
      }
      (void)client.SendRaw(burst);
      std::vector<int> replies(kPipelinedFrames + 1, 0);
      for (std::uint32_t i = 0; i < kPipelinedFrames; ++i) {
        ++report.cases;
        auto frame = client.ReadFrame();
        std::vector<wire::WireResult> results;
        if (!frame.ok() ||
            !wire::DecodeResultReply(frame.value().payload, &results).ok() ||
            results.size() != 1 || frame.value().request_id < 1 ||
            frame.value().request_id > kPipelinedFrames) {
          report.violations.push_back(
              "pipelined burst: missing or ill-formed reply");
          break;
        }
        ++replies[frame.value().request_id];
        const wire::WireResult& r = results[0];
        if (r.status == wire::ReplyStatus::kOverloaded) {
          ++report.sheds;
          if (r.retry_after_ms == 0) {
            report.violations.push_back(
                "pipelined burst: kOverloaded reply without a retry hint");
          }
        } else if (r.status != wire::ReplyStatus::kOk) {
          report.violations.push_back(
              std::string("pipelined burst: reply neither ok nor shed: ") +
              wire::ReplyStatusName(r.status));
        }
      }
      for (std::uint32_t id = 1; id <= kPipelinedFrames; ++id) {
        if (replies[id] > 1) {
          report.violations.push_back("pipelined burst: request " +
                                      std::to_string(id) + " answered twice");
        }
      }
    } else {
      report.violations.push_back("connect failed for pipelined burst");
    }
  }

  probe_alive("final");
  topk_server.Shutdown();
  std::error_code ec;
  fs::remove_all(scratch_dir, ec);
  return report;
}

}  // namespace testing
}  // namespace drli
