// Serving front end (DESIGN.md §10): wire protocol units, the server
// end to end over a loopback socket, overload shedding, graceful
// drain, and the headline hot-reload soak -- >= 10k queries across
// >= 20 generation bumps with zero errors, every answer exactly the
// one its generation's snapshot produces.

#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "gtest/gtest.h"

#include "core/dual_layer.h"
#include "core/serialization.h"
#include "data/generator.h"
#include "scenarios/scenario_box.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "test_util.h"

namespace drli {
namespace {

using server::DrliClient;
using server::ServerOptions;
using server::TopKServer;

// --- protocol units ---

TEST(WireProtocolTest, FrameRoundTrip) {
  wire::Request request;
  request.verb = wire::Verb::kQuery;
  wire::WireQuery query;
  query.weights = {0.25, 0.75};
  query.k = 7;
  query.deadline_ms = 1.5;
  query.max_evals = 123;
  request.queries.push_back(query);

  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(wire::AppendFrame(42, wire::EncodeRequest(request), &buf));

  std::size_t pos = 0;
  wire::Frame frame;
  std::string error;
  ASSERT_EQ(wire::ScanFrame(buf, &pos, &frame, &error),
            wire::FrameScan::kFrame);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(pos, buf.size());

  wire::Request decoded;
  ASSERT_TRUE(wire::DecodeRequest(frame.payload, &decoded).ok());
  EXPECT_EQ(decoded.verb, wire::Verb::kQuery);
  ASSERT_EQ(decoded.queries.size(), 1u);
  EXPECT_EQ(decoded.queries[0].weights, query.weights);
  EXPECT_EQ(decoded.queries[0].k, 7u);
  EXPECT_EQ(decoded.queries[0].deadline_ms, 1.5);
  EXPECT_EQ(decoded.queries[0].max_evals, 123u);
}

TEST(WireProtocolTest, PartialFrameNeedsMore) {
  wire::Request request;
  request.queries.emplace_back();
  request.queries[0].weights = {1.0};
  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(wire::AppendFrame(1, wire::EncodeRequest(request), &buf));
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(buf.begin(), buf.begin() + cut);
    std::size_t pos = 0;
    wire::Frame frame;
    std::string error;
    EXPECT_EQ(wire::ScanFrame(prefix, &pos, &frame, &error),
              wire::FrameScan::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(pos, 0u);
  }
}

TEST(WireProtocolTest, CorruptionIsDetectedNotTrusted) {
  wire::Request request;
  request.queries.emplace_back();
  request.queries[0].weights = {0.5, 0.5};
  std::vector<std::uint8_t> good;
  ASSERT_TRUE(wire::AppendFrame(9, wire::EncodeRequest(request), &good));

  // Bad magic.
  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xff;
  std::size_t pos = 0;
  wire::Frame frame;
  std::string error;
  EXPECT_EQ(wire::ScanFrame(bad, &pos, &frame, &error),
            wire::FrameScan::kCorrupt);
  EXPECT_NE(error.find("magic"), std::string::npos);

  // Payload bit flip breaks the CRC.
  bad = good;
  bad[wire::kFrameHeaderBytes + 3] ^= 0x10;
  pos = 0;
  EXPECT_EQ(wire::ScanFrame(bad, &pos, &frame, &error),
            wire::FrameScan::kCorrupt);
  EXPECT_NE(error.find("CRC"), std::string::npos);

  // A hostile length can never drive an allocation.
  bad = good;
  const std::uint32_t huge = 0x7fffffff;
  std::memcpy(bad.data() + 4, &huge, sizeof(huge));
  pos = 0;
  EXPECT_EQ(wire::ScanFrame(bad, &pos, &frame, &error),
            wire::FrameScan::kCorrupt);
}

TEST(WireProtocolTest, ResultReplyRoundTrip) {
  std::vector<wire::WireResult> results(2);
  results[0].status = wire::ReplyStatus::kOk;
  results[0].termination = 1;  // kDeadline
  results[0].certified_prefix = 2;
  results[0].frontier_bound = 0.125;
  results[0].items = {{7, 0.5, 0.5}, {9, 0.625, 0.625}, {4, 0.75, 0.75}};
  results[0].tuples_evaluated = 31;
  results[0].generation = 5;
  results[1].status = wire::ReplyStatus::kOverloaded;
  results[1].retry_after_ms = 40;
  results[1].message = "shed";

  std::vector<wire::WireResult> decoded;
  ASSERT_TRUE(
      wire::DecodeResultReply(wire::EncodeResultReply(results), &decoded)
          .ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].termination, 1);
  EXPECT_EQ(decoded[0].certified_prefix, 2u);
  EXPECT_EQ(decoded[0].frontier_bound, 0.125);
  ASSERT_EQ(decoded[0].items.size(), 3u);
  EXPECT_EQ(decoded[0].items[1].id, 9u);
  EXPECT_EQ(decoded[0].items[1].score, 0.625);
  EXPECT_EQ(decoded[0].generation, 5u);
  EXPECT_EQ(decoded[1].status, wire::ReplyStatus::kOverloaded);
  EXPECT_EQ(decoded[1].retry_after_ms, 40u);
  EXPECT_EQ(decoded[1].message, "shed");
}

TEST(WireProtocolTest, TruncatedPayloadsDecodeToErrorsNotOverReads) {
  wire::Request request;
  request.verb = wire::Verb::kBatch;
  request.queries.resize(3);
  for (auto& query : request.queries) query.weights = {0.3, 0.3, 0.4};
  const std::vector<std::uint8_t> payload = wire::EncodeRequest(request);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(payload.begin(),
                                           payload.begin() + cut);
    wire::Request decoded;
    EXPECT_FALSE(wire::DecodeRequest(prefix, &decoded).ok())
        << "cut at " << cut;
  }
}

TEST(WireProtocolTest, AppendFrameRefusesOversizedPayloadsNotAborts) {
  std::vector<std::uint8_t> payload(wire::kMaxFramePayload + 1, 0xab);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(wire::AppendFrame(1, payload, &out));
  EXPECT_TRUE(out.empty());  // a refused frame appends nothing

  payload.resize(wire::kMaxFramePayload);
  ASSERT_TRUE(wire::AppendFrame(2, payload, &out));
  std::size_t pos = 0;
  wire::Frame frame;
  std::string error;
  ASSERT_EQ(wire::ScanFrame(out, &pos, &frame, &error),
            wire::FrameScan::kFrame);
  EXPECT_EQ(frame.request_id, 2u);
  EXPECT_EQ(frame.payload.size(), wire::kMaxFramePayload);
}

TEST(WireProtocolTest, ReplyBudgetCoversEveryAdmissibleShape) {
  // The admission predicate and the wire constants stay consistent:
  // the largest single result and the largest full batch both fit.
  EXPECT_TRUE(wire::ReplyFits(1, wire::kMaxWireItems));
  EXPECT_TRUE(wire::ReplyFits(wire::kMaxBatchQueries, wire::kMaxWireItems));
  EXPECT_FALSE(wire::ReplyFits(1, wire::kMaxWireItems + 1));
  EXPECT_FALSE(wire::ReplyFits(wire::kMaxBatchQueries + 1, 0));

  // Messages are truncated at encode time, so one worst-case result
  // really does encode within the overhead + items budget.
  wire::WireResult result;
  result.message = std::string(10 * wire::kMaxWireMessageBytes, 'x');
  result.items.resize(wire::kMaxWireItems);
  const std::vector<std::uint8_t> payload = wire::EncodeResultReply({result});
  EXPECT_LE(payload.size(), wire::kMaxFramePayload);
  std::vector<wire::WireResult> decoded;
  ASSERT_TRUE(wire::DecodeResultReply(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].items.size(), wire::kMaxWireItems);
  EXPECT_EQ(decoded[0].message.size(), wire::kMaxWireMessageBytes);
}

// --- server end to end ---

struct ServingDir {
  std::string dir;
  explicit ServingDir(const std::string& name) {
    dir = (std::filesystem::temp_directory_path() /
           (name + "_" + std::to_string(::getpid())))
              .string();
    std::filesystem::create_directories(dir);
  }
  ~ServingDir() { std::filesystem::remove_all(dir); }
};

DualLayerIndex BuildAndPublish(const ServingDir& serving,
                               const std::string& name, std::uint64_t seed) {
  DualLayerIndex index =
      DualLayerIndex::Build(GenerateAnticorrelated(300, 3, seed));
  EXPECT_TRUE(SaveDualLayerIndex(index, serving.dir + "/" + name).ok());
  EXPECT_TRUE(server::PublishSnapshot(serving.dir, name).ok());
  return index;
}

TEST(ServerTest, AnswersMatchTheLocalIndexExactly) {
  ServingDir serving("drli_server_e2e");
  const DualLayerIndex local = BuildAndPublish(serving, "gen-1.v2", 11);

  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, ServerOptions{}).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  for (const TopKQuery& query :
       testing_util::RandomQueries(3, /*k=*/6, /*count=*/32, /*seed=*/3)) {
    wire::WireQuery wq;
    wq.weights = query.weights;
    wq.k = query.k;
    auto result = client.Query(wq);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().status, wire::ReplyStatus::kOk);
    const TopKResult expected = local.Query(query);
    ASSERT_EQ(result.value().items.size(), expected.items.size());
    for (std::size_t r = 0; r < expected.items.size(); ++r) {
      EXPECT_EQ(result.value().items[r].id, expected.items[r].id);
      EXPECT_EQ(result.value().items[r].score, expected.items[r].score);
    }
    EXPECT_EQ(result.value().tuples_evaluated,
              expected.stats.tuples_evaluated);
  }

  // Batch over one connection matches too, slot for slot.
  std::vector<wire::WireQuery> batch;
  const auto queries = testing_util::RandomQueries(3, 4, 16, 5);
  for (const TopKQuery& query : queries) {
    wire::WireQuery wq;
    wq.weights = query.weights;
    wq.k = query.k;
    batch.push_back(wq);
  }
  auto results = client.Batch(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const TopKResult expected = local.Query(queries[i]);
    ASSERT_EQ(results.value()[i].items.size(), expected.items.size()) << i;
    for (std::size_t r = 0; r < expected.items.size(); ++r) {
      EXPECT_EQ(results.value()[i].items[r].id, expected.items[r].id);
    }
  }

  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().generation, 1u);
  EXPECT_GE(health.value().queries_served, 32u);
  EXPECT_EQ(health.value().draining, 0);

  auto inspect = client.Inspect();
  ASSERT_TRUE(inspect.ok());
  EXPECT_EQ(inspect.value().snapshot, "gen-1.v2");
  EXPECT_EQ(inspect.value().num_points, 300u);
  EXPECT_EQ(inspect.value().dim, 3u);
  server.Shutdown();
}

TEST(ServerTest, MalformedPayloadUnderIntactFrameKeepsConnection) {
  ServingDir serving("drli_server_malformed");
  BuildAndPublish(serving, "gen-1.v2", 13);
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, ServerOptions{}).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // A well-framed payload with an out-of-range verb decodes to a
  // kMalformed reply -- and the connection survives for the next query.
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(wire::AppendFrame(77, {0xee, 0x01, 0x02}, &frame));
  ASSERT_TRUE(client.SendRaw(frame).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().request_id, 77u);
  std::vector<wire::WireResult> results;
  ASSERT_TRUE(wire::DecodeResultReply(reply.value().payload, &results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, wire::ReplyStatus::kMalformed);

  wire::WireQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 3;
  auto answer = client.Query(query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().status, wire::ReplyStatus::kOk);
  EXPECT_EQ(server.counters().malformed_frames, 1u);
  server.Shutdown();
}

TEST(ServerTest, OverloadShedsWithRetryAfterNotCollapse) {
  ServingDir serving("drli_server_shed");
  BuildAndPublish(serving, "gen-1.v2", 17);
  ServerOptions options;
  options.max_in_flight = 1;
  options.num_workers = 1;
  options.test_worker_delay_ms = 40.0;  // park the one admitted query
  options.retry_after_ms = 35;
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, options).ok());

  constexpr std::size_t kClients = 6;
  std::atomic<std::size_t> ok_count{0}, shed_count{0}, errors{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      DrliClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      wire::WireQuery query;
      query.weights = {0.2 + 0.1 * static_cast<double>(c % 3), 0.3, 0.5};
      query.k = 4;
      auto result = client.Query(query);
      if (!result.ok()) {
        errors.fetch_add(1);
      } else if (result.value().status == wire::ReplyStatus::kOk) {
        ok_count.fetch_add(1);
      } else if (result.value().status == wire::ReplyStatus::kOverloaded) {
        // The shed is explicit and actionable, not a dropped socket.
        if (result.value().retry_after_ms != 35) errors.fetch_add(1);
        shed_count.fetch_add(1);
      } else {
        errors.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(ok_count.load() + shed_count.load(), kClients);
  EXPECT_GE(ok_count.load(), 1u);   // the admitted query completed
  EXPECT_GE(shed_count.load(), 1u); // and overload was actually hit
  EXPECT_EQ(server.counters().queries_shed, shed_count.load());
  server.Shutdown();
}

// The high-severity DoS pin: a well-formed request whose reply could
// not fit one frame used to CHECK-abort the whole process inside
// AppendFrame; it must come back as an explicit kInvalidQuery instead,
// with the connection (and the server) intact.
TEST(ServerTest, RepliesThatCannotFitOneFrameAreRejectedUpFront) {
  ServingDir serving("drli_server_replycap");
  BuildAndPublish(serving, "gen-1.v2", 23);
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, ServerOptions{}).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Single query with k over the per-frame item bound.
  wire::WireQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = wire::kMaxWireItems + 1;
  auto huge = client.Query(query);
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ(huge.value().status, wire::ReplyStatus::kInvalidQuery);

  // A batch whose combined worst case overflows the frame cap even
  // though every per-query k is individually modest.
  std::vector<wire::WireQuery> batch(256);
  for (auto& wq : batch) {
    wq.weights = {0.2, 0.3, 0.5};
    wq.k = 1000;
  }
  auto results = client.Batch(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), batch.size());
  for (const wire::WireResult& r : results.value()) {
    EXPECT_EQ(r.status, wire::ReplyStatus::kInvalidQuery);
  }

  // The largest admissible k still answers on the same connection --
  // the server shrugged off both rejections.
  query.k = wire::kMaxWireItems;
  auto legal = client.Query(query);
  ASSERT_TRUE(legal.ok()) << legal.status().ToString();
  EXPECT_EQ(legal.value().status, wire::ReplyStatus::kOk);
  EXPECT_EQ(legal.value().items.size(), 300u);  // clamped by the dataset
  server.Shutdown();
}

// A constrained k = 0 query is legal and routes to the single-index
// ConstrainedTopK overload: it must answer kOk with no items, and the
// server must stay up to answer the next request.
TEST(ServerTest, ConstrainedKZeroAnswersEmptyOnADlPlusGeneration) {
  ServingDir serving("drli_server_kzero");
  DualLayerOptions options;
  options.build_zero_layer = true;
  const DualLayerIndex index =
      DualLayerIndex::Build(GenerateIndependent(200, 3, 29), options);
  ASSERT_TRUE(SaveDualLayerIndex(index, serving.dir + "/gen-1.v2").ok());
  ASSERT_TRUE(server::PublishSnapshot(serving.dir, "gen-1.v2").ok());
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, ServerOptions{}).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  wire::WireQuery query;
  query.scenario = wire::Scenario::kConstrained;
  query.weights = {0.3, 0.3, 0.4};
  query.k = 0;
  query.box = AttributeBox::All(3);
  auto result = client.Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().status, wire::ReplyStatus::kOk);
  EXPECT_TRUE(result.value().items.empty());
  EXPECT_TRUE(client.Health().ok());
  server.Shutdown();
}

// Validate before shedding: with the only in-flight slot taken, a query
// whose k exceeds the wire bound is still refused as kInvalidQuery,
// never answered kOverloaded.
TEST(ServerTest, OversizedKIsRefusedBeforeAdmission) {
  ServingDir serving("drli_server_validate_first");
  BuildAndPublish(serving, "gen-1.v2", 31);
  ServerOptions options;
  options.max_in_flight = 1;
  options.num_workers = 1;
  options.test_worker_delay_ms = 300.0;  // park the admitted query
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, options).ok());

  DrliClient parked;
  ASSERT_TRUE(parked.Connect("127.0.0.1", server.port()).ok());
  wire::Request request;
  wire::WireQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 3;
  request.queries.push_back(query);
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(wire::AppendFrame(1, wire::EncodeRequest(request), &frame));
  ASSERT_TRUE(parked.SendRaw(frame).ok());

  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  bool admitted = false;
  for (int i = 0; i < 200 && !admitted; ++i) {
    auto health = client.Health();
    ASSERT_TRUE(health.ok());
    admitted = health.value().queries_in_flight == 1;
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(admitted);

  query.k = wire::kMaxWireItems + 1;
  auto refused = client.Query(query);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused.value().status, wire::ReplyStatus::kInvalidQuery);
  EXPECT_EQ(server.counters().queries_shed, 0u);
  ASSERT_TRUE(parked.ReadFrame().ok());
  server.Shutdown();
}

std::vector<std::uint8_t> QueryFrame(std::uint32_t request_id,
                                     const wire::WireQuery& query) {
  wire::Request request;
  request.verb = wire::Verb::kQuery;
  request.queries.push_back(query);
  std::vector<std::uint8_t> frame;
  EXPECT_TRUE(
      wire::AppendFrame(request_id, wire::EncodeRequest(request), &frame));
  return frame;
}

// Admission is decided per frame at decode time, so frames pipelined on
// one connection are admitted up to the cap and the rest shed at once:
// one burst past the cap can never queue more than the cap allows.
TEST(ServerTest, PipelinedBurstPastTheCapShedsTheExcess) {
  ServingDir serving("drli_server_pipelined_shed");
  BuildAndPublish(serving, "gen-1.v2", 37);
  ServerOptions options;
  options.max_in_flight = 4;
  options.num_workers = 1;
  options.test_worker_delay_ms = 20.0;
  options.retry_after_ms = 35;
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, options).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  constexpr std::uint32_t kFrames = 32;
  constexpr std::uint32_t kCap = 4;
  wire::WireQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 3;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t id = 1; id <= kFrames; ++id) {
    const std::vector<std::uint8_t> frame = QueryFrame(id, query);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());

  std::vector<wire::ReplyStatus> status(kFrames + 1, wire::ReplyStatus::kError);
  std::vector<int> replies(kFrames + 1, 0);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    const std::uint32_t id = frame.value().request_id;
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, kFrames);
    std::vector<wire::WireResult> results;
    ASSERT_TRUE(
        wire::DecodeResultReply(frame.value().payload, &results).ok());
    ASSERT_EQ(results.size(), 1u);
    ++replies[id];
    status[id] = results[0].status;
    if (results[0].status == wire::ReplyStatus::kOverloaded) {
      EXPECT_EQ(results[0].retry_after_ms, 35u) << "id " << id;
    }
  }
  for (std::uint32_t id = 1; id <= kFrames; ++id) {
    EXPECT_EQ(replies[id], 1) << "id " << id;
    EXPECT_EQ(status[id], id <= kCap ? wire::ReplyStatus::kOk
                                     : wire::ReplyStatus::kOverloaded)
        << "id " << id;
  }
  EXPECT_EQ(server.counters().queries_shed, kFrames - kCap);
  server.Shutdown();
}

// A wire deadline runs from frame decode: a frame pipelined behind a
// slower one spends its budget while it waits.
TEST(ServerTest, DeadlineCountsTheWaitBehindAnEarlierFrame) {
  ServingDir serving("drli_server_deadline_wait");
  BuildAndPublish(serving, "gen-1.v2", 41);
  ServerOptions options;
  options.num_workers = 1;
  options.test_worker_delay_ms = 20.0;
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, options).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  wire::WireQuery first;
  first.weights = {0.2, 0.3, 0.5};
  // The traversal reads its clock every 64 steps; k = 100 takes more.
  first.k = 100;
  wire::WireQuery second = first;
  second.deadline_ms = 30.0;  // under the two 20 ms delays ahead of it
  std::vector<std::uint8_t> burst = QueryFrame(1, first);
  const std::vector<std::uint8_t> frame = QueryFrame(2, second);
  burst.insert(burst.end(), frame.begin(), frame.end());
  ASSERT_TRUE(client.SendRaw(burst).ok());

  for (int i = 0; i < 2; ++i) {
    auto reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    std::vector<wire::WireResult> results;
    ASSERT_TRUE(
        wire::DecodeResultReply(reply.value().payload, &results).ok());
    ASSERT_EQ(results.size(), 1u);
    const wire::WireResult& r = results[0];
    ASSERT_EQ(r.status, wire::ReplyStatus::kOk);
    if (reply.value().request_id == 1) {
      EXPECT_EQ(r.termination,
                static_cast<std::uint8_t>(Termination::kComplete));
      EXPECT_EQ(r.items.size(), 100u);
    } else {
      ASSERT_EQ(reply.value().request_id, 2u);
      EXPECT_EQ(r.termination,
                static_cast<std::uint8_t>(Termination::kDeadline));
      EXPECT_LE(r.certified_prefix, r.items.size());
    }
  }
  server.Shutdown();
}

TEST(ServerTest, GracefulDrainAnswersInFlightWork) {
  ServingDir serving("drli_server_drain");
  BuildAndPublish(serving, "gen-1.v2", 19);
  ServerOptions options;
  options.test_worker_delay_ms = 30.0;  // widen the drain window
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, options).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  wire::WireQuery query;
  query.weights = {0.2, 0.3, 0.5};
  query.k = 4;
  std::uint32_t id = 0;
  {
    wire::Request request;
    request.verb = wire::Verb::kQuery;
    request.queries.push_back(query);
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(wire::AppendFrame(5, wire::EncodeRequest(request), &frame));
    id = 5;
    ASSERT_TRUE(client.SendRaw(frame).ok());
  }
  // Shut down only once the loop has admitted the query; an earlier
  // drain would refuse it with kShuttingDown instead.
  const auto admit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.counters().queries_in_flight < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), admit_deadline)
        << "query never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread shutdown([&] { server.Shutdown(); });
  // The in-flight query is answered, not dropped, while the server
  // drains underneath it.
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().request_id, id);
  std::vector<wire::WireResult> results;
  ASSERT_TRUE(wire::DecodeResultReply(reply.value().payload, &results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, wire::ReplyStatus::kOk);
  EXPECT_EQ(results[0].items.size(), 4u);
  shutdown.join();
  EXPECT_TRUE(server.draining());

  // New work after the drain is refused explicitly or the socket is
  // gone -- never a hang.
  DrliClient late;
  if (late.Connect("127.0.0.1", server.port(), 0.5).ok()) {
    auto refused = late.Query(query);
    if (refused.ok()) {
      EXPECT_EQ(refused.value().status, wire::ReplyStatus::kShuttingDown);
    }
  }
}

// The headline soak: >= 20 generation bumps under a live query load of
// >= 10k queries, every reply kOk and exactly equal to what the
// snapshot of its generation answers locally. Generation sequence s
// serves snapshot gen-(s-1).v2 because publishes are acknowledged (via
// the reloads counter) before the next one goes out.
TEST(ServerSoakTest, HotReloadServesTenThousandQueriesAcrossTwentyBumps) {
  constexpr std::size_t kGenerations = 21;  // initial + 20 bumps
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kQueriesPerReader = 2600;  // 10400 total

  ServingDir serving("drli_server_soak");
  const std::vector<TopKQuery> queries =
      testing_util::RandomQueries(3, /*k=*/5, /*count=*/8, /*seed=*/29);

  // Build every generation up front and precompute its exact answers.
  std::vector<std::vector<TopKResult>> expected(kGenerations);
  for (std::size_t g = 0; g < kGenerations; ++g) {
    const DualLayerIndex index = DualLayerIndex::Build(
        GenerateAnticorrelated(250, 3, 1000 + g));
    ASSERT_TRUE(SaveDualLayerIndex(index, serving.dir + "/gen-" +
                                              std::to_string(g) + ".v2")
                    .ok());
    for (const TopKQuery& query : queries) {
      expected[g].push_back(index.Query(query));
    }
  }
  ASSERT_TRUE(server::PublishSnapshot(serving.dir, "gen-0.v2").ok());

  ServerOptions options;
  options.reload_poll_seconds = 0.002;
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, options).ok());

  std::atomic<bool> published_all{false};
  std::atomic<std::size_t> soak_errors{0};
  std::atomic<std::size_t> queries_answered{0};

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      DrliClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        soak_errors.fetch_add(1);
        return;
      }
      std::uint64_t last_generation = 0;
      // The load outlives the publisher: at least kQueriesPerReader
      // round trips, and never stopping while bumps are still landing.
      for (std::size_t q = 0;
           q < kQueriesPerReader || !published_all.load(); ++q) {
        const std::size_t slot = (q + r) % queries.size();
        wire::WireQuery wq;
        wq.weights = queries[slot].weights;
        wq.k = queries[slot].k;
        auto result = client.Query(wq);
        if (!result.ok() ||
            result.value().status != wire::ReplyStatus::kOk) {
          soak_errors.fetch_add(1);
          continue;
        }
        const wire::WireResult& got = result.value();
        // Generations only move forward under a sequential client.
        if (got.generation < last_generation ||
            got.generation < 1 || got.generation > kGenerations) {
          soak_errors.fetch_add(1);
          continue;
        }
        last_generation = got.generation;
        const TopKResult& want = expected[got.generation - 1][slot];
        bool match = got.items.size() == want.items.size();
        for (std::size_t i = 0; match && i < want.items.size(); ++i) {
          match = got.items[i].id == want.items[i].id &&
                  got.items[i].score == want.items[i].score;
        }
        if (!match) soak_errors.fetch_add(1);
        queries_answered.fetch_add(1);
      }
    });
  }

  // Publisher: bump CURRENT through every generation under the load,
  // waiting for each swap to be observed before the next publish so
  // the sequence -> snapshot mapping stays exact.
  std::thread publisher([&] {
    for (std::size_t g = 1; g < kGenerations; ++g) {
      ASSERT_TRUE(server::PublishSnapshot(serving.dir,
                                          "gen-" + std::to_string(g) + ".v2")
                      .ok());
      while (server.counters().reloads < g) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  publisher.join();
  published_all.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(soak_errors.load(), 0u);
  EXPECT_GE(queries_answered.load(), 10000u);
  EXPECT_EQ(server.counters().reloads, kGenerations - 1);
  // Every generation really served: the last reply of each reader came
  // from the final generation only after all 20 swaps happened live.
  DrliClient inspect_client;
  ASSERT_TRUE(inspect_client.Connect("127.0.0.1", server.port()).ok());
  auto inspect = inspect_client.Inspect();
  ASSERT_TRUE(inspect.ok());
  EXPECT_EQ(inspect.value().snapshot,
            "gen-" + std::to_string(kGenerations - 1) + ".v2");
  server.Shutdown();
}

// --- the poll window (DESIGN.md §10) ---

bool SameAnswer(const wire::WireResult& got, const TopKResult& expected) {
  if (got.status != wire::ReplyStatus::kOk ||
      got.items.size() != expected.items.size()) {
    return false;
  }
  for (std::size_t r = 0; r < expected.items.size(); ++r) {
    if (got.items[r].id != expected.items[r].id ||
        got.items[r].score != expected.items[r].score) {
      return false;
    }
  }
  return true;
}

// The number of CPUs the calling thread may run on.
int AffinityCpuCount() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  return ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus)
                                                          : 0;
}

// More closed-loop connections than pool threads: the one thread that
// polls must not keep events from the threads that block, so every
// connection finishes its run and every reply is exact.
TEST(ServerTest, PollingServesMoreConnectionsThanThreads) {
  ServingDir serving("drli_server_polling");
  const DualLayerIndex local = BuildAndPublish(serving, "gen-1.v2", 43);
  ServerOptions options;
  options.num_loops = 1;
  options.num_workers = 1;
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, options).ok());

  constexpr std::size_t kConnections = 6;
  constexpr std::size_t kQueries = 200;
  std::vector<std::vector<TopKQuery>> queries(kConnections);
  std::vector<std::vector<TopKResult>> expected(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    queries[c] = testing_util::RandomQueries(3, 5, kQueries, 100 + c);
    for (const TopKQuery& query : queries[c]) {
      expected[c].push_back(local.Query(query));
    }
  }
  std::vector<std::size_t> exact(kConnections, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      DrliClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      for (std::size_t i = 0; i < kQueries; ++i) {
        wire::WireQuery wq;
        wq.weights = queries[c][i].weights;
        wq.k = queries[c][i].k;
        auto result = client.Query(wq);
        if (!result.ok() || !SameAnswer(result.value(), expected[c][i])) {
          return;
        }
        ++exact[c];
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::size_t c = 0; c < kConnections; ++c) {
    EXPECT_EQ(exact[c], kQueries) << "connection " << c;
  }
  // Six connections keep an event ready after almost every cycle.
  if (AffinityCpuCount() >= 2) {
    EXPECT_GT(server.counters().polled_events, 0u);
  }
  server.Shutdown();
}

// Restores the calling thread's CPU mask on scope exit.
class AffinityGuard {
 public:
  AffinityGuard() {
    CPU_ZERO(&saved_);
    ok_ = ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
  }
  ~AffinityGuard() {
    if (ok_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  bool ok() const { return ok_; }
  // Pins the calling thread to the first CPU of the saved mask.
  bool PinToOneCpu() const {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return ::sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    return false;
  }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

// On one CPU the pool does not poll: there polling raised the tail
// (DESIGN.md §10). The pool threads inherit the test thread's mask at
// Start.
TEST(ServerTest, OneCpuNeverPolls) {
  AffinityGuard affinity;
  ASSERT_TRUE(affinity.ok());
  ASSERT_TRUE(affinity.PinToOneCpu());
  ASSERT_EQ(AffinityCpuCount(), 1);

  ServingDir serving("drli_server_one_cpu");
  const DualLayerIndex local = BuildAndPublish(serving, "gen-1.v2", 47);
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, ServerOptions{}).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (const TopKQuery& query :
       testing_util::RandomQueries(3, /*k=*/6, /*count=*/64, /*seed=*/9)) {
    wire::WireQuery wq;
    wq.weights = query.weights;
    wq.k = query.k;
    auto result = client.Query(wq);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(SameAnswer(result.value(), local.Query(query)));
  }
  EXPECT_EQ(server.counters().polled_events, 0u);
  server.Shutdown();
}

double ProcessCpuSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// A server that has gone quiet stops polling within one window: its
// threads block, so an idle wait costs the process almost no CPU.
TEST(ServerTest, IdleServerStopsPolling) {
  ServingDir serving("drli_server_idle");
  BuildAndPublish(serving, "gen-1.v2", 53);
  TopKServer server;
  ASSERT_TRUE(server.Start(serving.dir, ServerOptions{}).ok());
  DrliClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (const TopKQuery& query :
       testing_util::RandomQueries(3, /*k=*/5, /*count=*/200, /*seed=*/13)) {
    wire::WireQuery wq;
    wq.weights = query.weights;
    wq.k = query.k;
    auto result = client.Query(wq);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const double before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(ProcessCpuSeconds() - before, 0.040);
  server.Shutdown();
}

}  // namespace
}  // namespace drli
