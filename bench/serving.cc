// Serving front end under load: closed-loop capacity, then open-loop
// latency at 1x and 2x the measured capacity. The point of the 2x run
// is the robustness headline -- admission control sheds the excess
// with explicit kOverloaded replies while the latency of the answers
// it does serve stays bounded (shed, don't collapse).
//
// Closed loop: N synchronous connections issue queries back to back;
// capacity is their aggregate QPS. Open loop: paced senders push
// frames at the offered rate regardless of reply progress (requests
// pipeline on the connection), a reader per connection matches replies
// by request id, and every reply is either kOk (latency sample) or
// kOverloaded (shed sample).
//
// Emits BENCH_serving.json (or argv[1] / DRLI_BENCH_OUT), with the
// run's provenance on every row. DRLI_BENCH_N scales the relation,
// DRLI_BENCH_SECONDS each timed window.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "common/check.h"
#include "core/dual_layer.h"
#include "core/serialization.h"
#include "data/generator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/serving_engine.h"

namespace {

using namespace drli;
using Clock = std::chrono::steady_clock;

using bench_util::EnvSize;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct LoadResult {
  double offered_qps = 0;   // 0 for the closed-loop run
  double achieved_qps = 0;  // kOk replies per second
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;  // sent but no reply within the grace window
  double p50_us = 0, p99_us = 0, p999_us = 0;
};

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t i = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_us.size())));
  return sorted_us[i];
}

wire::WireQuery MakeQuery(std::size_t variant) {
  wire::WireQuery query;
  const double w = 0.1 + 0.05 * static_cast<double>(variant % 8);
  query.weights = {w, 0.3, 0.7 - w};
  query.k = 5;
  return query;
}

// N synchronous connections, each issuing queries back to back for
// `seconds`: aggregate QPS is the serving capacity of this machine.
LoadResult RunClosedLoop(std::uint16_t port, std::size_t threads,
                         double seconds) {
  std::atomic<std::uint64_t> ok{0}, errors{0};
  std::mutex latencies_mu;
  std::vector<double> latencies_us;
  std::vector<std::thread> pool;
  const Clock::time_point start = Clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      server::DrliClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        errors.fetch_add(1);
        return;
      }
      std::vector<double> local_us;
      std::size_t i = t;
      while (Seconds(start, Clock::now()) < seconds) {
        const Clock::time_point sent_at = Clock::now();
        auto result = client.Query(MakeQuery(i++));
        if (result.ok() &&
            result.value().status == wire::ReplyStatus::kOk) {
          ok.fetch_add(1);
          local_us.push_back(Seconds(sent_at, Clock::now()) * 1e6);
        } else {
          errors.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(latencies_mu);
      latencies_us.insert(latencies_us.end(), local_us.begin(),
                          local_us.end());
    });
  }
  for (std::thread& thread : pool) thread.join();
  const double elapsed = Seconds(start, Clock::now());

  LoadResult result;
  result.sent = ok.load() + errors.load();
  result.ok = ok.load();
  result.errors = errors.load();
  result.achieved_qps = static_cast<double>(result.ok) / elapsed;
  std::sort(latencies_us.begin(), latencies_us.end());
  result.p50_us = Percentile(latencies_us, 0.50);
  result.p99_us = Percentile(latencies_us, 0.99);
  result.p999_us = Percentile(latencies_us, 0.999);
  return result;
}

// One open-loop connection: a sender pushes frames on the offered
// schedule whether or not replies have come back (burst pacing, so the
// rate holds even when the server queues), and a reader matches
// replies to send times by request id.
void RunOpenLoopConnection(std::uint16_t port, double rate, double seconds,
                           std::uint64_t id_base,
                           std::atomic<std::uint64_t>* sent,
                           std::atomic<std::uint64_t>* ok,
                           std::atomic<std::uint64_t>* shed,
                           std::atomic<std::uint64_t>* errors,
                           std::atomic<std::uint64_t>* unanswered,
                           std::mutex* latencies_mu,
                           std::vector<double>* latencies_us) {
  // Short socket timeout so the reader's recv() wakes often enough to
  // notice "sender finished and everything is drained"; the grace loop
  // below gives straggler replies ~1s before declaring them lost.
  server::DrliClient client;
  if (!client.Connect("127.0.0.1", port, /*timeout_seconds=*/0.25).ok()) {
    errors->fetch_add(1);
    return;
  }
  std::mutex inflight_mu;
  std::unordered_map<std::uint32_t, Clock::time_point> inflight;
  std::atomic<bool> sender_done{false};

  std::thread reader([&] {
    std::vector<double> local_us;
    int idle_after_done = 0;
    while (true) {
      auto frame = client.ReadFrame();
      if (!frame.ok()) {
        bool drained;
        {
          std::lock_guard<std::mutex> lock(inflight_mu);
          drained = inflight.empty();
        }
        const bool timeout =
            frame.status().message().find("timeout") != std::string::npos;
        if (!timeout) break;  // server closed or stream corrupt: give up
        if (!sender_done.load()) continue;  // mid-run lull, keep waiting
        if (drained) break;
        if (++idle_after_done >= 4) break;  // ~1s of grace, then lost
        continue;
      }
      idle_after_done = 0;
      Clock::time_point sent_at;
      {
        std::lock_guard<std::mutex> lock(inflight_mu);
        auto it = inflight.find(frame.value().request_id);
        if (it == inflight.end()) continue;
        sent_at = it->second;
        inflight.erase(it);
      }
      std::vector<wire::WireResult> results;
      if (!wire::DecodeResultReply(frame.value().payload, &results).ok() ||
          results.size() != 1) {
        errors->fetch_add(1);
      } else if (results[0].status == wire::ReplyStatus::kOk) {
        ok->fetch_add(1);
        local_us.push_back(Seconds(sent_at, Clock::now()) * 1e6);
      } else if (results[0].status == wire::ReplyStatus::kOverloaded) {
        shed->fetch_add(1);
      } else {
        errors->fetch_add(1);
      }
      bool drained;
      {
        std::lock_guard<std::mutex> lock(inflight_mu);
        drained = inflight.empty();
      }
      if (sender_done.load() && drained) break;
    }
    {
      std::lock_guard<std::mutex> lock(inflight_mu);
      unanswered->fetch_add(inflight.size());
    }
    std::lock_guard<std::mutex> lock(*latencies_mu);
    latencies_us->insert(latencies_us->end(), local_us.begin(),
                         local_us.end());
  });

  const Clock::time_point start = Clock::now();
  std::uint64_t dispatched = 0;
  std::uint32_t next_id = static_cast<std::uint32_t>(id_base);
  while (true) {
    const double elapsed = Seconds(start, Clock::now());
    if (elapsed >= seconds) break;
    // Burst pacing: send whatever the schedule says should already be
    // out the door (sleep granularity is far coarser than the gap).
    const auto due = static_cast<std::uint64_t>(rate * elapsed);
    while (dispatched < due) {
      wire::Request request;
      request.verb = wire::Verb::kQuery;
      request.queries.push_back(MakeQuery(dispatched));
      std::vector<std::uint8_t> frame;
      const std::uint32_t id = next_id++;
      if (next_id == 0) next_id = 1;
      {
        std::lock_guard<std::mutex> lock(inflight_mu);
        inflight.emplace(id, Clock::now());
      }
      (void)wire::AppendFrame(id, wire::EncodeRequest(request), &frame);
      if (!client.SendRaw(frame).ok()) {
        errors->fetch_add(1);
        std::lock_guard<std::mutex> lock(inflight_mu);
        inflight.erase(id);
      }
      ++dispatched;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sent->fetch_add(dispatched);
  sender_done.store(true);
  reader.join();
}

LoadResult RunOpenLoop(std::uint16_t port, double offered_qps,
                       double seconds, std::size_t connections) {
  std::atomic<std::uint64_t> sent{0}, ok{0}, shed{0}, errors{0};
  std::atomic<std::uint64_t> unanswered{0};
  std::mutex latencies_mu;
  std::vector<double> latencies_us;
  std::vector<std::thread> pool;
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    pool.emplace_back([&, c] {
      RunOpenLoopConnection(port,
                            offered_qps / static_cast<double>(connections),
                            seconds, (c + 1) * 40'000'000ull, &sent, &ok,
                            &shed, &errors, &unanswered, &latencies_mu,
                            &latencies_us);
    });
  }
  for (std::thread& thread : pool) thread.join();
  const double elapsed = Seconds(start, Clock::now());

  LoadResult result;
  result.offered_qps = offered_qps;
  result.sent = sent.load();
  result.ok = ok.load();
  result.shed = shed.load();
  result.errors = errors.load();
  result.unanswered = unanswered.load();
  result.achieved_qps = static_cast<double>(result.ok) / elapsed;
  std::sort(latencies_us.begin(), latencies_us.end());
  result.p50_us = Percentile(latencies_us, 0.50);
  result.p99_us = Percentile(latencies_us, 0.99);
  result.p999_us = Percentile(latencies_us, 0.999);
  return result;
}

void PrintRow(const char* mode, const LoadResult& r) {
  std::printf(
      "%-10s offered=%-9.0f achieved=%-9.0f ok=%-8llu shed=%-7llu "
      "err=%-3llu lost=%-3llu p50=%.0fus p99=%.0fus p999=%.0fus\n",
      mode, r.offered_qps, r.achieved_qps,
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.unanswered), r.p50_us, r.p99_us,
      r.p999_us);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = EnvSize("DRLI_BENCH_N", 10000);
  const double seconds =
      static_cast<double>(EnvSize("DRLI_BENCH_SECONDS", 2));
  const std::size_t closed_threads = 4;
  const std::size_t open_connections = 4;

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("drli_bench_serving_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  const DualLayerIndex index =
      DualLayerIndex::Build(GenerateAnticorrelated(n, 3, 77));
  DRLI_CHECK(SaveDualLayerIndex(index, dir + "/gen-1.v2").ok());
  DRLI_CHECK(server::PublishSnapshot(dir, "gen-1.v2").ok());

  server::TopKServer server;
  server::ServerOptions options;
  DRLI_CHECK(server.Start(dir, options).ok());
  std::printf("serving n=%zu d=3 on port %u, %.0fs per window\n", n,
              server.port(), seconds);

  // Closed loop first: its aggregate QPS calibrates the open loop.
  const LoadResult closed =
      RunClosedLoop(server.port(), closed_threads, seconds);
  PrintRow("closed", closed);

  const LoadResult open_1x =
      RunOpenLoop(server.port(), closed.achieved_qps, seconds,
                  open_connections);
  PrintRow("open-1x", open_1x);
  const LoadResult open_2x =
      RunOpenLoop(server.port(), 2.0 * closed.achieved_qps, seconds,
                  open_connections);
  PrintRow("open-2x", open_2x);

  server.Shutdown();
  std::filesystem::remove_all(dir);

  const std::string out_path =
      bench_util::OutputPath(argc, argv, "BENCH_serving.json");
  const bench_util::Provenance& p = bench_util::RunProvenance();
  std::ofstream out(out_path);
  out << "[\n";
  const LoadResult* rows[] = {&closed, &open_1x, &open_2x};
  const char* modes[] = {"closed", "open-1x", "open-2x"};
  for (std::size_t i = 0; i < 3; ++i) {
    const LoadResult& r = *rows[i];
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"mode\": \"%s\", \"n\": %zu, \"connections\": %zu, "
        "\"hardware_threads\": %u, \"kernel\": \"%s\", "
        "\"commit\": \"%s\", "
        "\"offered_qps\": %.1f, \"achieved_qps\": %.1f, \"sent\": %llu, "
        "\"ok\": %llu, \"shed\": %llu, \"errors\": %llu, "
        "\"unanswered\": %llu, "
        "\"shed_fraction\": %.4f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"p999_us\": %.1f}%s\n",
        modes[i], n, i == 0 ? closed_threads : open_connections,
        p.hardware_threads, p.kernel.c_str(), p.commit.c_str(),
        r.offered_qps, r.achieved_qps,
        static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.errors),
        static_cast<unsigned long long>(r.unanswered),
        r.sent > 0 ? static_cast<double>(r.shed) /
                         static_cast<double>(r.sent)
                   : 0.0,
        r.p50_us, r.p99_us, r.p999_us, i + 1 < 3 ? "," : "");
    out << buffer;
  }
  out << "]\n";
  DRLI_CHECK(bool(out)) << "failed to write " << out_path;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
