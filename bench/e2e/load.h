// Load generators that drive the serving front end over its socket:
// a closed loop (callers that each wait for their reply) and an open
// loop (independent arrivals on a fixed schedule). Both run inside the
// drli_bench process, with at most two client threads.

#ifndef DRLI_BENCH_E2E_LOAD_H_
#define DRLI_BENCH_E2E_LOAD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "server/protocol.h"

namespace drli {
namespace bench {

// Every kCheckEvery-th reply of a stream is kept and compared against
// the brute-force reference once its timed phase is over.
inline constexpr std::size_t kCheckEvery = 64;

// Produces the next request of one deterministic request stream.
using QueryStream = std::function<wire::WireQuery()>;
using StreamFactory = std::function<QueryStream(std::uint64_t stream)>;

struct CheckedReply {
  wire::WireQuery query;
  wire::WireResult reply;
};

struct LoadResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t tuples_evaluated = 0;  // summed over kOk replies
  std::vector<double> latency_us;  // kOk replies only
  std::vector<double> late_us;     // open loop: send time minus due time
  std::vector<CheckedReply> checked;
  double elapsed_s = 0.0;

  std::uint64_t failed() const { return shed + errors + unanswered; }
};

// `connections` threads for `seconds`, each on its own connection with
// its own stream factory(first_stream + c), each sending its next
// request only after the previous reply.
LoadResult RunClosedLoop(std::uint16_t port, std::size_t connections,
                         double seconds, const StreamFactory& factory,
                         std::uint64_t first_stream);

// Cuts the calling thread's timer slack (50 us by default) to the
// minimum, so an open-loop sender wakes when its next request is due
// instead of charging its own oversleep to the system under test.
void TightenTimerSlack();

// One connection; request i is due at start + i / rate and is sent then,
// or at once when the sender is behind. Latency counts from the due
// time, so a stall is charged to every request it delays. A reader
// thread matches replies to requests by id.
LoadResult RunOpenLoop(std::uint16_t port, double rate, double seconds,
                       QueryStream stream);

}  // namespace bench
}  // namespace drli

#endif  // DRLI_BENCH_E2E_LOAD_H_
