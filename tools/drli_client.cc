// drli_client — wire client for the drli serving front end.
//
//   drli_client query   --port=7071 --weights=0.3,0.3,0.4 --k=10
//                       [--host=127.0.0.1]
//                       [--deadline-ms=5] [--max-evals=2000]
//                       [--box=0.2:0.8,:,:] [--lambda=0.7]
//                       [--pool-factor=4] [--reverse=42]
//   drli_client health  --port=7071
//   drli_client inspect --port=7071
//   drli_client reload  --port=7071      # force a CURRENT poll now
//
// Every reply carries the generation sequence it was served from, so
// `query` in a loop across a `drli publish` shows the hot swap. A
// kOverloaded reply prints the server's retry-after hint and exits 3;
// certified partials print like `drli query` partials and exit 0.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "server/client.h"
#include "server/protocol.h"

#include "flags.h"

namespace drli {
namespace {

using cli::Flags;
using cli::GetFlag;
using cli::GetSizeFlag;
using server::DrliClient;

int Usage() {
  std::fprintf(stderr,
               "usage: drli_client <query|health|inspect|reload> "
               "--port=N [--flags]\n"
               "see the header of tools/drli_client.cc for examples\n");
  return 2;
}

int ConnectOrDie(const Flags& flags, DrliClient* client) {
  const std::string host = GetFlag(flags, "host", "127.0.0.1");
  if (flags.count("port") == 0) {
    std::fprintf(stderr, "--port=N is required\n");
    return 2;
  }
  const auto port =
      static_cast<std::uint16_t>(GetSizeFlag(flags, "port", 0, 65535));
  const Status status = client->Connect(host, port);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdQuery(const Flags& flags) {
  wire::WireQuery query;
  query.weights = cli::GetWeightsFlag(flags);
  query.k = GetSizeFlag(flags, "k", 10);
  query.deadline_ms = cli::GetDoubleFlag(flags, "deadline-ms", 0.0);
  query.max_evals = GetSizeFlag(flags, "max-evals", 0);
  if (flags.count("box") != 0) {
    query.scenario = wire::Scenario::kConstrained;
    query.box = cli::GetBoxFlag(flags);
  } else if (flags.count("lambda") != 0) {
    query.scenario = wire::Scenario::kDiversified;
    query.lambda = cli::GetDoubleFlag(flags, "lambda", 0.0);
    query.pool_factor = GetSizeFlag(flags, "pool-factor", 4);
  } else if (flags.count("reverse") != 0) {
    query.scenario = wire::Scenario::kReverse;
    query.reverse_target = static_cast<std::uint32_t>(
        GetSizeFlag(flags, "reverse", 0, kInvalidTupleId - 1));
  }

  DrliClient client;
  if (const int rc = ConnectOrDie(flags, &client); rc != 0) return rc;
  Stopwatch timer;
  auto result = client.Query(query);
  const double ms = timer.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const wire::WireResult& r = result.value();
  if (r.status == wire::ReplyStatus::kOverloaded) {
    std::fprintf(stderr, "overloaded: %s (retry after %u ms)\n",
                 r.message.c_str(), r.retry_after_ms);
    return 3;
  }
  if (r.status != wire::ReplyStatus::kOk) {
    std::fprintf(stderr, "%s: %s\n", wire::ReplyStatusName(r.status),
                 r.message.c_str());
    return 1;
  }
  std::printf("generation %llu, %.3f ms round trip, %llu tuples "
              "evaluated\n",
              static_cast<unsigned long long>(r.generation), ms,
              static_cast<unsigned long long>(r.tuples_evaluated));
  if (query.scenario == wire::Scenario::kReverse) {
    std::printf("reverse top-%u of tuple %u:",
                static_cast<unsigned>(query.k), query.reverse_target);
    if (r.intervals.empty()) std::printf(" never in the top-k");
    for (const wire::WireInterval& iv : r.intervals) {
      std::printf(" [%.5f, %.5f]", iv.lo, iv.hi);
    }
    std::printf("\n");
    return 0;
  }
  for (std::size_t i = 0; i < r.items.size(); ++i) {
    std::printf("  %2zu. tuple %-8u score %.6f%s\n", i + 1, r.items[i].id,
                r.items[i].score,
                r.termination != 0 && i >= r.certified_prefix
                    ? "  (uncertified)"
                    : "");
  }
  if (r.termination != 0) {
    std::printf("partial result: first %llu of %zu items certified exact\n",
                static_cast<unsigned long long>(r.certified_prefix),
                r.items.size());
  }
  return 0;
}

int CmdHealth(const Flags& flags) {
  DrliClient client;
  if (const int rc = ConnectOrDie(flags, &client); rc != 0) return rc;
  auto health = client.Health();
  if (!health.ok()) {
    std::fprintf(stderr, "%s\n", health.status().ToString().c_str());
    return 1;
  }
  const wire::HealthInfo& info = health.value();
  std::printf("%s generation=%llu in_flight=%llu served=%llu shed=%llu\n",
              info.draining ? "draining" : "serving",
              static_cast<unsigned long long>(info.generation),
              static_cast<unsigned long long>(info.queries_in_flight),
              static_cast<unsigned long long>(info.queries_served),
              static_cast<unsigned long long>(info.queries_shed));
  return 0;
}

int CmdInspect(const Flags& flags) {
  DrliClient client;
  if (const int rc = ConnectOrDie(flags, &client); rc != 0) return rc;
  auto inspect = client.Inspect();
  if (!inspect.ok()) {
    std::fprintf(stderr, "%s\n", inspect.status().ToString().c_str());
    return 1;
  }
  const wire::InspectInfo& info = inspect.value();
  std::printf("snapshot %s (generation %llu): %s, n=%llu d=%u\n",
              info.snapshot.c_str(),
              static_cast<unsigned long long>(info.generation),
              info.engine.c_str(),
              static_cast<unsigned long long>(info.num_points), info.dim);
  if (!info.last_reload_error.empty()) {
    std::printf("last_reload_error=%s\n", info.last_reload_error.c_str());
  }
  return 0;
}

int CmdReload(const Flags& flags) {
  DrliClient client;
  if (const int rc = ConnectOrDie(flags, &client); rc != 0) return rc;
  auto reload = client.Reload();
  if (!reload.ok()) {
    std::fprintf(stderr, "%s\n", reload.status().ToString().c_str());
    return 1;
  }
  const wire::ReloadInfo& info = reload.value();
  if (!info.error.empty()) {
    std::fprintf(stderr,
                 "reload failed: %s (old generation %llu kept serving)\n",
                 info.error.c_str(),
                 static_cast<unsigned long long>(info.generation));
    return 1;
  }
  std::printf("%s: generation %llu\n",
              info.reloaded ? "swapped" : "unchanged",
              static_cast<unsigned long long>(info.generation));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // Every command reads --host and --port; query reads the rest.
  std::vector<std::string> accepted = {"host", "port"};
  if (command == "query") {
    accepted.insert(accepted.end(),
                    {"weights", "k", "deadline-ms", "max-evals", "box",
                     "lambda", "pool-factor", "reverse"});
  }
  const Flags flags = cli::ParseFlags(argc, argv, 2, argv[1], accepted);
  if (command == "query") return CmdQuery(flags);
  if (command == "health") return CmdHealth(flags);
  if (command == "inspect") return CmdInspect(flags);
  if (command == "reload") return CmdReload(flags);
  return Usage();
}

}  // namespace
}  // namespace drli

int main(int argc, char** argv) { return drli::Main(argc, argv); }
