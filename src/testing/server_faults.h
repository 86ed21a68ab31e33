// Server fault injection: stands up a real TopKServer on a loopback
// socket and attacks it the way a hostile or unlucky network would,
// asserting the robustness contract of DESIGN.md §10 -- the process
// never crashes, every reply that arrives is a well-formed frame, and
// degradation is always explicit (kMalformed / kOverloaded / certified
// partial), never silent.
//
// Fault families:
//  * corrupt frames: seeded single-byte flips over a valid query
//    frame, truncated prefixes, and raw garbage bytes -- each followed
//    by a liveness probe on a fresh connection;
//  * mid-request disconnects: the client vanishes after a partial
//    frame, after a full request, and before draining the reply;
//  * reload-during-query races: a publisher thread flips CURRENT
//    between two generations under a live query stream; every answer
//    must exactly match the generation it claims to come from;
//  * deadline storms: bursts of near-zero deadlines and tiny step
//    budgets -- every reply must be a well-formed certified partial or
//    complete answer;
//  * overload: concurrent clients past the in-flight cap, and one
//    connection pipelining a burst of frames past it -- every request
//    is answered once, and sheds must be explicit kOverloaded replies
//    carrying a retry hint.

#ifndef DRLI_TESTING_SERVER_FAULTS_H_
#define DRLI_TESTING_SERVER_FAULTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace drli {
namespace testing {

struct ServerFaultOptions {
  std::uint64_t seed = 1;
};

struct ServerFaultReport {
  std::size_t cases = 0;             // fault injections attempted
  std::size_t malformed_replies = 0; // explicit kMalformed rejections
  std::size_t disconnects = 0;       // abandoned-connection cases
  std::size_t partials = 0;          // certified partials under storms
  std::size_t sheds = 0;             // explicit kOverloaded replies
  std::size_t reload_swaps = 0;      // generation swaps observed
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// Runs the sweep inside `scratch_dir` (created if missing; contents
// removed at the end). Builds its own snapshots, serves them from an
// ephemeral loopback port, and tears the server down gracefully.
ServerFaultReport RunServerFaultSweep(const std::string& scratch_dir,
                                      const ServerFaultOptions& options = {});

}  // namespace testing
}  // namespace drli

#endif  // DRLI_TESTING_SERVER_FAULTS_H_
