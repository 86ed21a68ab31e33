#include "server/serving_engine.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/stat.h>

#include "core/serialization.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "scenarios/reverse_topk.h"
#include "shard/shard_io.h"
#include "storage/file_io.h"
#include "storage/mmap_file.h"
#include "storage/tiered_io.h"

namespace drli {
namespace server {

namespace {

constexpr char kCurrentName[] = "CURRENT";

struct FileIdentity {
  std::uint64_t ino = 0;
  std::int64_t mtime_ns = 0;
  std::int64_t size = 0;
};

Status StatIdentity(const std::string& path, FileIdentity* out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IoError("stat(" + path + "): " + std::strerror(errno));
  }
  out->ino = static_cast<std::uint64_t>(st.st_ino);
  out->mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                  st.st_mtim.tv_nsec;
  out->size = static_cast<std::int64_t>(st.st_size);
  return Status::Ok();
}

// The reply to an answer that ended with `termination`: rejections map
// to their own statuses, and every other ending -- complete or
// certified partial -- is kOk. The caller adds items and certification.
wire::WireResult ReplyOf(Termination termination,
                         std::size_t tuples_evaluated,
                         const std::string& message, std::uint64_t sequence) {
  wire::WireResult out;
  switch (termination) {
    case Termination::kShed:
      out.status = wire::ReplyStatus::kOverloaded;
      break;
    case Termination::kInvalidQuery:
      out.status = wire::ReplyStatus::kInvalidQuery;
      break;
    case Termination::kError:
      out.status = wire::ReplyStatus::kError;
      break;
    default:
      out.status = wire::ReplyStatus::kOk;
  }
  out.termination = static_cast<std::uint8_t>(termination);
  out.tuples_evaluated = tuples_evaluated;
  out.generation = sequence;
  out.message = message;
  return out;
}

wire::WireResult FromTopKResult(const TopKResult& result,
                                std::uint64_t sequence) {
  wire::WireResult out = ReplyOf(result.termination,
                                 result.stats.tuples_evaluated, result.error,
                                 sequence);
  out.certified_prefix = result.certified_prefix;
  out.frontier_bound = result.frontier_bound;
  out.items.reserve(result.items.size());
  for (const ScoredTuple& item : result.items) {
    out.items.push_back({item.id, item.score, item.score});
  }
  return out;
}

wire::WireResult InvalidWireQuery(std::uint64_t sequence,
                                  const std::string& message) {
  return ReplyOf(Termination::kInvalidQuery, 0, message, sequence);
}

}  // namespace

Status ServingEngine::Open(const std::string& dir) {
  dir_ = dir;
  auto name = ReadCurrent();
  if (!name.ok()) return name.status();
  FileIdentity id;
  Status stat_status = StatIdentity(dir_ + "/" + kCurrentName, &id);
  if (!stat_status.ok()) return stat_status;
  std::shared_ptr<const ServingGeneration> loaded;
  Status status = LoadGeneration(name.value(), &loaded);
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(mu_);
  generation_ = std::move(loaded);
  current_ino_ = id.ino;
  current_mtime_ns_ = id.mtime_ns;
  current_size_ = id.size;
  return Status::Ok();
}

std::shared_ptr<const ServingGeneration> ServingEngine::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

StatusOr<bool> ServingEngine::PollReload() {
  // One reload at a time; concurrent pollers (the watcher thread and
  // kReload verbs from any worker) queue here, readers never do.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  FileIdentity id;
  Status stat_status = StatIdentity(dir_ + "/" + kCurrentName, &id);
  if (!stat_status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    last_reload_error_ = stat_status.message();
    return stat_status;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id.ino == current_ino_ && id.mtime_ns == current_mtime_ns_ &&
        id.size == current_size_) {
      return false;  // pointer unchanged
    }
  }
  auto name = ReadCurrent();
  if (!name.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    last_reload_error_ = name.status().message();
    return name.status();
  }
  {
    // A rewritten pointer naming the same snapshot (touch, re-publish)
    // refreshes the stat cache without a reload.
    std::lock_guard<std::mutex> lock(mu_);
    if (generation_ != nullptr && name.value() == generation_->snapshot) {
      current_ino_ = id.ino;
      current_mtime_ns_ = id.mtime_ns;
      current_size_ = id.size;
      return false;
    }
  }
  std::shared_ptr<const ServingGeneration> loaded;
  Status status = LoadGeneration(name.value(), &loaded);
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok()) {
    // Keep the old generation serving; the pointer stays "dirty" so
    // the next poll retries the load.
    last_reload_error_ = status.message();
    return status;
  }
  generation_ = std::move(loaded);
  current_ino_ = id.ino;
  current_mtime_ns_ = id.mtime_ns;
  current_size_ = id.size;
  ++reload_count_;
  last_reload_error_.clear();
  return true;
}

std::uint64_t ServingEngine::reload_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reload_count_;
}

std::string ServingEngine::last_reload_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_reload_error_;
}

StatusOr<std::string> ServingEngine::ReadCurrent() const {
  const std::string path = dir_ + "/" + kCurrentName;
  auto bytes = MmapFile::ReadFileContents(path);
  if (!bytes.ok()) return bytes.status();
  std::string name(bytes.value().begin(), bytes.value().end());
  const std::size_t eol = name.find('\n');
  if (eol != std::string::npos) name.resize(eol);
  while (!name.empty() && (name.back() == '\r' || name.back() == ' ')) {
    name.pop_back();
  }
  if (name.empty()) {
    return Status::Corruption("empty CURRENT pointer in " + dir_);
  }
  // The pointer names a file inside the serving directory; a
  // path-escaping name in a tampered CURRENT must not be followed.
  if (name.front() == '/' || name.find("..") != std::string::npos) {
    return Status::Corruption("CURRENT pointer escapes serving dir: " + name);
  }
  return name;
}

Status ServingEngine::LoadGeneration(
    const std::string& name, std::shared_ptr<const ServingGeneration>* out) {
  const std::string path = dir_ + "/" + name;
  auto generation = std::make_shared<ServingGeneration>();
  generation->snapshot = name;
  if (IsShardManifest(path)) {
    auto loaded = LoadShardedIndex(path);
    if (!loaded.ok()) return loaded.status();
    generation->sharded.emplace(std::move(loaded).value());
    generation->index = &*generation->sharded;
    generation->dim = generation->sharded->dim();
  } else if (IsTieredManifest(path)) {
    auto loaded = LoadTieredIndex(path);
    if (!loaded.ok()) return loaded.status();
    generation->tiered.emplace(std::move(loaded).value());
    generation->index = &*generation->tiered;
    generation->dim = generation->tiered->dim();
  } else {
    auto loaded = LoadDualLayerIndex(path);  // prefer_mmap: read-only map
    if (!loaded.ok()) return loaded.status();
    generation->dl.emplace(std::move(loaded).value());
    generation->index = &*generation->dl;
    generation->dim = generation->dl->points().dim();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation->sequence = next_sequence_++;
  }
  *out = std::move(generation);
  return Status::Ok();
}

Status PublishSnapshot(const std::string& dir,
                       const std::string& snapshot_name) {
  std::vector<std::uint8_t> contents(snapshot_name.begin(),
                                     snapshot_name.end());
  contents.push_back('\n');
  const ByteSpan parts[] = {contents};
  return WriteFileAtomic(dir + "/" + kCurrentName, parts);
}

wire::WireResult ExecuteWireQuery(const ServingGeneration& generation,
                                  const wire::WireQuery& query,
                                  const ExecBudget& budget) {
  if (query.k > wire::kMaxWireItems) {
    return InvalidWireQuery(
        generation.sequence,
        "k exceeds the wire reply bound (" +
            std::to_string(wire::kMaxWireItems) + ")");
  }
  const std::size_t k = static_cast<std::size_t>(query.k);
  switch (query.scenario) {
    case wire::Scenario::kPlain: {
      TopKQuery q;
      q.weights = query.weights;
      q.k = k;
      q.budget = budget;
      return FromTopKResult(generation.index->Query(q),
                            generation.sequence);
    }
    case wire::Scenario::kConstrained: {
      ConstrainedQuery q;
      q.weights = query.weights;
      q.k = k;
      q.box = query.box;
      q.budget = budget;
      TopKResult result;
      if (generation.dl.has_value()) {
        result = ConstrainedTopK(*generation.dl, q);
      } else if (generation.sharded.has_value()) {
        result = ConstrainedTopK(*generation.sharded, q);
      } else {
        result = ConstrainedTopK(*generation.tiered, q);
      }
      return FromTopKResult(result, generation.sequence);
    }
    case wire::Scenario::kDiversified: {
      if (!generation.dl.has_value()) {
        return InvalidWireQuery(generation.sequence,
                                "diversified queries need a single dl+ "
                                "generation (engine is " +
                                    generation.index->name() + ")");
      }
      DiversifiedQuery q;
      q.weights = query.weights;
      q.k = k;
      q.lambda = query.lambda;
      q.pool_factor = static_cast<std::size_t>(query.pool_factor);
      q.budget = budget;
      DiversifiedResult result =
          DiversifiedTopK(*generation.dl, generation.dl->points(), q);
      wire::WireResult out =
          ReplyOf(result.termination, result.stats.tuples_evaluated,
                  result.error, generation.sequence);
      out.certified_prefix = result.certified_prefix;
      out.frontier_bound = result.pool_bound;
      out.items.reserve(result.picks.size());
      for (const DiversifiedPick& pick : result.picks) {
        out.items.push_back({pick.id, pick.score, pick.utility});
      }
      return out;
    }
    case wire::Scenario::kReverse: {
      if (!generation.dl.has_value()) {
        return InvalidWireQuery(generation.sequence,
                                "reverse top-k needs a single dl+ "
                                "generation (engine is " +
                                    generation.index->name() + ")");
      }
      ReverseTopKQuery q;
      q.target = query.reverse_target;
      q.k = k;
      q.budget = budget;
      ReverseTopKResult result = ReverseTopK2D(*generation.dl, q);
      if (result.intervals.size() > wire::kMaxWireItems) {
        // Interval count is bounded by the data, not by k, so it is
        // only checkable here; an explicit error beats a reply that
        // cannot fit one frame.
        return ReplyOf(Termination::kError, result.stats.tuples_evaluated,
                       "reverse result carries " +
                           std::to_string(result.intervals.size()) +
                           " intervals, over the wire bound (" +
                           std::to_string(wire::kMaxWireItems) + ")",
                       generation.sequence);
      }
      wire::WireResult out =
          ReplyOf(result.termination, result.stats.tuples_evaluated,
                  result.error, generation.sequence);
      // Every returned interval of a complete sweep is exact.
      out.certified_prefix =
          result.complete() ? result.intervals.size() : 0;
      out.intervals.reserve(result.intervals.size());
      for (const WeightInterval& iv : result.intervals) {
        out.intervals.push_back({iv.lo, iv.hi});
      }
      return out;
    }
  }
  return InvalidWireQuery(generation.sequence, "unknown scenario");
}

std::vector<wire::WireResult> ExecuteWireBatch(
    const ServingGeneration& generation,
    const std::vector<wire::WireQuery>& queries,
    const std::vector<ExecBudget>& budgets) {
  std::vector<wire::WireResult> out(queries.size());
  std::vector<std::size_t> plain;
  plain.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].scenario != wire::Scenario::kPlain) {
      out[i] = InvalidWireQuery(
          generation.sequence,
          "kBatch carries plain top-k queries only; use kQuery for "
          "scenario routing");
    } else if (queries[i].k > wire::kMaxWireItems) {
      out[i] = InvalidWireQuery(
          generation.sequence,
          "k exceeds the wire reply bound (" +
              std::to_string(wire::kMaxWireItems) + ")");
    } else {
      plain.push_back(i);
    }
  }
  std::vector<TopKQuery> batch;
  batch.reserve(plain.size());
  for (std::size_t i : plain) {
    TopKQuery q;
    q.weights = queries[i].weights;
    q.k = static_cast<std::size_t>(queries[i].k);
    q.budget = budgets[i];
    batch.push_back(std::move(q));
  }
  std::vector<TopKResult> results = generation.index->QueryBatch(batch);
  for (std::size_t j = 0; j < plain.size(); ++j) {
    out[plain[j]] = FromTopKResult(results[j], generation.sequence);
  }
  return out;
}

}  // namespace server
}  // namespace drli
