#include "load.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include <sys/prctl.h>

#include "report.h"
#include "server/client.h"

namespace drli {
namespace bench {

namespace {

constexpr const char* kHost = "127.0.0.1";

void Classify(const wire::WireResult& reply, LoadResult* out) {
  if (reply.status == wire::ReplyStatus::kOk) {
    ++out->ok;
  } else if (reply.status == wire::ReplyStatus::kOverloaded) {
    ++out->shed;
  } else {
    ++out->errors;
  }
}

void MergeInto(LoadResult&& part, LoadResult* total) {
  total->sent += part.sent;
  total->ok += part.ok;
  total->shed += part.shed;
  total->errors += part.errors;
  total->unanswered += part.unanswered;
  total->tuples_evaluated += part.tuples_evaluated;
  total->latency_us.insert(total->latency_us.end(), part.latency_us.begin(),
                           part.latency_us.end());
  total->late_us.insert(total->late_us.end(), part.late_us.begin(),
                        part.late_us.end());
  for (CheckedReply& c : part.checked) total->checked.push_back(std::move(c));
}

}  // namespace

void TightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL); }

LoadResult RunClosedLoop(std::uint16_t port, std::size_t connections,
                         double seconds, const StreamFactory& factory,
                         std::uint64_t first_stream) {
  std::vector<LoadResult> parts(connections);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& part = parts[c];
      QueryStream next = factory(first_stream + c);
      server::DrliClient client;
      if (!client.Connect(kHost, port).ok()) {
        ++part.errors;
        return;
      }
      for (std::uint64_t i = 0; Seconds(start, Clock::now()) < seconds; ++i) {
        wire::WireQuery query = next();
        const Clock::time_point sent_at = Clock::now();
        auto reply = client.Query(query);
        const Clock::time_point done = Clock::now();
        ++part.sent;
        if (!reply.ok()) {
          ++part.errors;  // the connection is gone; stop this caller
          break;
        }
        Classify(reply.value(), &part);
        if (reply.value().status == wire::ReplyStatus::kOk) {
          part.latency_us.push_back(Micros(sent_at, done));
          part.tuples_evaluated += reply.value().tuples_evaluated;
        }
        if (i % kCheckEvery == 0) {
          part.checked.push_back({std::move(query), std::move(reply).value()});
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoadResult total;
  total.elapsed_s = Seconds(start, Clock::now());
  for (LoadResult& part : parts) MergeInto(std::move(part), &total);
  return total;
}

LoadResult RunOpenLoop(std::uint16_t port, double rate, double seconds,
                       QueryStream stream) {
  LoadResult result;
  // A short receive timeout lets the reader notice the end of the run;
  // replies still missing after a grace period count as unanswered.
  server::DrliClient client;
  if (!client.Connect(kHost, port, /*timeout_seconds=*/0.25).ok()) {
    ++result.errors;
    return result;
  }

  struct Pending {
    Clock::time_point due;
    bool checked = false;
    wire::WireQuery query;  // kept only when checked
  };
  std::mutex mu;  // guards pending
  std::unordered_map<std::uint32_t, Pending> pending;
  std::atomic<bool> sender_done{false};
  LoadResult replies;  // the reader's alone until it is joined

  std::thread reader([&] {
    int idle_rounds = 0;
    for (;;) {
      auto frame = client.ReadFrame();
      if (!frame.ok()) {
        const bool timeout =
            frame.status().message().find("timeout") != std::string::npos;
        bool drained;
        {
          std::lock_guard<std::mutex> lock(mu);
          drained = pending.empty();
        }
        if (!timeout) break;  // connection lost
        if (!sender_done.load()) continue;
        if (drained || ++idle_rounds >= 4) break;  // ~1 s of grace
        continue;
      }
      idle_rounds = 0;
      const Clock::time_point now = Clock::now();
      Pending entry;
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = pending.find(frame.value().request_id);
        if (it == pending.end()) continue;
        entry = std::move(it->second);
        pending.erase(it);
      }
      std::vector<wire::WireResult> results;
      if (!wire::DecodeResultReply(frame.value().payload, &results).ok() ||
          results.size() != 1) {
        ++replies.errors;
        continue;
      }
      Classify(results[0], &replies);
      if (results[0].status == wire::ReplyStatus::kOk) {
        replies.latency_us.push_back(Micros(entry.due, now));
      }
      if (entry.checked) {
        replies.checked.push_back(
            {std::move(entry.query), std::move(results[0])});
      }
      if (sender_done.load()) {
        std::lock_guard<std::mutex> lock(mu);
        if (pending.empty()) break;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    replies.unanswered += pending.size();
  });

  TightenTimerSlack();
  const Clock::time_point start = Clock::now();
  const auto gap = std::chrono::duration<double>(1.0 / rate);
  std::uint32_t next_id = 1;
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    gap * static_cast<double>(i));
    if (Seconds(start, due) >= seconds) break;
    std::this_thread::sleep_until(due);
    wire::Request request;
    request.verb = wire::Verb::kQuery;
    request.queries.push_back(stream());
    const std::uint32_t id = next_id++;
    std::vector<std::uint8_t> frame;
    if (!wire::AppendFrame(id, wire::EncodeRequest(request), &frame)) {
      ++result.errors;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      Pending& entry = pending[id];
      entry.due = due;
      entry.checked = i % kCheckEvery == 0;
      if (entry.checked) entry.query = request.queries[0];
    }
    const Clock::time_point sent_at = Clock::now();
    ++result.sent;
    result.late_us.push_back(Micros(due, sent_at));
    if (!client.SendRaw(frame).ok()) {
      ++result.errors;
      std::lock_guard<std::mutex> lock(mu);
      pending.erase(id);
      break;
    }
  }
  sender_done.store(true);
  reader.join();
  result.elapsed_s = Seconds(start, Clock::now());
  MergeInto(std::move(replies), &result);
  return result;
}

}  // namespace bench
}  // namespace drli
