// Wire protocol of the serving front end (DESIGN.md §10): a
// length-prefixed, CRC-framed binary protocol over TCP. Every message
// -- request or reply -- is one frame:
//
//   u32 magic "DRLW"       (0x574c5244 little-endian)
//   u32 payload_len        (bounded by kMaxFramePayload)
//   u32 payload crc32c
//   u32 request_id         (client-chosen, echoed verbatim in the reply)
//   payload_len bytes of payload
//
// The payload's first byte is the verb (requests) or the reply status
// (replies). Integers are little-endian, floats IEEE-754 bits; strings
// are u32 length + bytes. Decoding trusts nothing: every length is
// bounded against the remaining payload before any allocation, every
// enum is range-checked, and a malformed payload surfaces as a Status
// -- never a crash, throw, or over-read. A frame whose header or CRC
// is corrupt cannot be trusted for resynchronization, so the server
// answers it with one kMalformed reply (request_id 0) and closes the
// connection; a payload that fails to decode under an intact frame is
// answered with kMalformed and the connection stays open.
//
// Request verbs:
//   kQuery    one scenario-routed top-k query (plain / constrained box
//             / diversified / reverse), with an optional deadline and
//             step budget that propagate into the ExecBudget;
//   kBatch    several query bodies answered in one reply frame through
//             TopKIndex::QueryBatch, admitted as one unit by the
//             server's in-flight cap;
//   kInspect  engine metadata (snapshot name, generation, n, d);
//   kHealth   liveness + serving counters;
//   kReload   force a generation-pointer check right now.
//
// Reply statuses carry the wire-level degradation ladder: kOk with a
// complete result, kOk with a certified partial (termination +
// certified_prefix say why and how much is exact), kOverloaded with a
// retry-after hint when admission control sheds the query, and
// kShuttingDown while the server drains.

#ifndef DRLI_SERVER_PROTOCOL_H_
#define DRLI_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "scenarios/scenario_box.h"
#include "topk/query.h"

namespace drli {
namespace wire {

inline constexpr std::uint32_t kFrameMagic = 0x574c5244;  // "DRLW" LE
inline constexpr std::size_t kFrameHeaderBytes = 16;
// Upper bound on one frame's payload. Every reply the server can emit
// must fit it, so request admission validates the worst-case encoded
// reply against this cap (see ReplyFits) instead of discovering the
// overflow at encode time.
inline constexpr std::size_t kMaxFramePayload = 4u << 20;
// Queries per kBatch frame.
inline constexpr std::size_t kMaxBatchQueries = 512;
// Weight-vector arity bound (the library tops out far below this; the
// bound exists so a hostile dim can never drive an allocation).
inline constexpr std::size_t kMaxWireDim = 4096;
// Items/intervals one result may carry, sized so a single full reply
// always fits kMaxFramePayload (bounds hostile reply decodes in the
// client the same way request decodes are bounded in the server).
inline constexpr std::size_t kMaxWireItems = 200000;

// Encoded sizes of one reply's parts, used by ReplyFits: a reply is a
// status byte + u32 result count, then per result ~50 fixed bytes plus
// a message (truncated at encode time to kMaxWireMessageBytes) plus
// 20 bytes per item / 16 per interval.
inline constexpr std::size_t kResultReplyHeaderBytes = 5;
inline constexpr std::size_t kWireItemBytes = 20;
inline constexpr std::size_t kWireIntervalBytes = 16;
inline constexpr std::size_t kMaxWireMessageBytes = 206;
inline constexpr std::size_t kWireResultOverheadBytes =
    50 + kMaxWireMessageBytes;  // == 256

// True when a reply of `results` result slots carrying `items` total
// items-or-intervals is guaranteed to encode within kMaxFramePayload.
// The server evaluates this per request before admitting it, with
// `items` the saturated worst case across the request's queries.
inline constexpr bool ReplyFits(std::uint64_t results, std::uint64_t items) {
  return results <= kMaxBatchQueries && items <= kMaxWireItems &&
         kResultReplyHeaderBytes + results * kWireResultOverheadBytes +
                 items * kWireItemBytes <=
             kMaxFramePayload;
}

// The bounds above must be mutually consistent: the largest admissible
// single result and the largest admissible batch both fit one frame.
static_assert(ReplyFits(1, kMaxWireItems),
              "one full result must fit a frame");
static_assert(ReplyFits(kMaxBatchQueries, kMaxWireItems),
              "a full batch reply must fit a frame");
static_assert(kWireIntervalBytes <= kWireItemBytes,
              "ReplyFits budgets intervals at the item rate");

enum class Verb : std::uint8_t {
  kQuery = 1,
  kBatch = 2,
  kInspect = 3,
  kHealth = 4,
  kReload = 5,
};

enum class ReplyStatus : std::uint8_t {
  kOk = 0,           // result follows (complete or certified partial)
  kOverloaded = 1,   // shed by admission control; retry_after_ms set
  kInvalidQuery = 2, // recoverable rejection; message set
  kError = 3,        // worker error; message set
  kMalformed = 4,    // undecodable frame or payload; message set
  kShuttingDown = 5, // server is draining; retry elsewhere
};

const char* ReplyStatusName(ReplyStatus status);

enum class Scenario : std::uint8_t {
  kPlain = 0,
  kConstrained = 1,
  kDiversified = 2,
  kReverse = 3,
};

// One scenario-routed query as it travels on the wire.
struct WireQuery {
  Scenario scenario = Scenario::kPlain;
  Point weights;               // unused for kReverse
  std::uint64_t k = 1;
  // Total wall-clock allowance measured from the frame's arrival at
  // the server (queue wait included -- the deadline the CLIENT cares
  // about). 0 = none. The server subtracts the queue wait and hands
  // the remainder to ExecBudget::deadline_seconds.
  double deadline_ms = 0.0;
  std::uint64_t max_evals = 0;  // ExecBudget::max_evals; 0 = unlimited
  // kConstrained:
  AttributeBox box;
  // kDiversified:
  double lambda = 0.5;
  std::uint64_t pool_factor = 4;
  // kReverse:
  std::uint32_t reverse_target = 0;
};

struct Request {
  Verb verb = Verb::kQuery;
  std::uint32_t request_id = 0;
  std::vector<WireQuery> queries;  // 1 for kQuery, n for kBatch
};

struct WireItem {
  std::uint32_t id = 0;
  double score = 0.0;
  double utility = 0.0;  // diversified only; == score otherwise
};

struct WireInterval {
  double lo = 0.0;
  double hi = 0.0;
};

// One query's answer as it travels on the wire. For kBatch replies the
// frame carries one of these per query, in request order.
struct WireResult {
  ReplyStatus status = ReplyStatus::kOk;
  std::uint8_t termination = 0;  // drli::Termination
  std::uint64_t certified_prefix = 0;
  double frontier_bound = 0.0;
  std::vector<WireItem> items;          // plain/constrained/diversified
  std::vector<WireInterval> intervals;  // reverse
  std::uint64_t tuples_evaluated = 0;
  // Generation sequence number that served the query (monotone per
  // server process; bumps on every hot reload).
  std::uint64_t generation = 0;
  std::uint32_t retry_after_ms = 0;  // kOverloaded only
  std::string message;               // rejection / error detail
};

struct HealthInfo {
  std::uint64_t generation = 0;
  std::uint64_t queries_served = 0;
  std::uint64_t queries_shed = 0;
  std::uint64_t queries_in_flight = 0;
  std::uint64_t reloads = 0;
  std::uint64_t malformed_frames = 0;
  std::uint8_t draining = 0;
};

struct InspectInfo {
  std::string engine;         // index family name, e.g. "DL+"
  std::string snapshot;       // value of the CURRENT pointer file
  std::uint64_t generation = 0;
  std::uint64_t num_points = 0;
  std::uint32_t dim = 0;
  std::string last_reload_error;  // empty when the last reload was clean
};

struct ReloadInfo {
  std::uint8_t reloaded = 0;  // 1 when this check swapped generations
  std::uint64_t generation = 0;
  std::string error;  // reload failure detail (old generation kept)
};

// --- framing ---

// Appends one complete frame (header + payload) to `out`. Returns
// false -- appending nothing -- when the payload exceeds
// kMaxFramePayload; the caller degrades (e.g. to a bare kError reply)
// instead of ever putting an untransmittable frame on the wire.
[[nodiscard]] bool AppendFrame(std::uint32_t request_id,
                               const std::vector<std::uint8_t>& payload,
                               std::vector<std::uint8_t>* out);

// Result of scanning a receive buffer for one frame.
enum class FrameScan : std::uint8_t {
  kNeedMore = 0,  // incomplete header or payload; read more bytes
  kFrame = 1,     // a well-formed frame was extracted
  kCorrupt = 2,   // bad magic, oversized length, or CRC mismatch
};

struct Frame {
  std::uint32_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

// Scans `buf[pos..]` for one frame. On kFrame fills `*frame` and
// advances `*pos` past it; on kCorrupt fills `*error` and leaves the
// buffer untrustworthy (the connection should be closed after one
// best-effort kMalformed reply); on kNeedMore leaves `*pos` unchanged.
FrameScan ScanFrame(const std::vector<std::uint8_t>& buf, std::size_t* pos,
                    Frame* frame, std::string* error);

// --- request payloads ---

std::vector<std::uint8_t> EncodeRequest(const Request& request);
Status DecodeRequest(const std::vector<std::uint8_t>& payload,
                     Request* request);

// --- reply payloads ---

std::vector<std::uint8_t> EncodeResultReply(
    const std::vector<WireResult>& results);
std::vector<std::uint8_t> EncodeHealthReply(const HealthInfo& info);
std::vector<std::uint8_t> EncodeInspectReply(const InspectInfo& info);
std::vector<std::uint8_t> EncodeReloadReply(const ReloadInfo& info);
// A bare-status reply (kMalformed / kShuttingDown / kOverloaded for
// non-query verbs) with an optional detail message.
std::vector<std::uint8_t> EncodeStatusReply(ReplyStatus status,
                                            const std::string& message,
                                            std::uint32_t retry_after_ms = 0);

// Decodes any reply payload. Exactly one of the optional outputs is
// filled, according to the leading status byte and the verb the caller
// sent: result replies fill `results`, health/inspect/reload fill
// their structs, bare-status replies fill results with one
// status-carrying WireResult.
Status DecodeResultReply(const std::vector<std::uint8_t>& payload,
                         std::vector<WireResult>* results);
Status DecodeHealthReply(const std::vector<std::uint8_t>& payload,
                         HealthInfo* info);
Status DecodeInspectReply(const std::vector<std::uint8_t>& payload,
                          InspectInfo* info);
Status DecodeReloadReply(const std::vector<std::uint8_t>& payload,
                         ReloadInfo* info);

}  // namespace wire
}  // namespace drli

#endif  // DRLI_SERVER_PROTOCOL_H_
