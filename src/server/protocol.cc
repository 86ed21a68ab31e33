#include "server/protocol.h"

#include <limits>

#include "common/check.h"
#include "common/crc32c.h"
#include "storage/file_io.h"

namespace drli {
namespace wire {
namespace {

// Fields use the bounds-checked little-endian codec of
// storage/file_io.h, so a hostile payload can make a read fail, never
// over-read or trigger an unbounded allocation. Strings carry a u32
// length prefix.
void AppendStr(std::vector<std::uint8_t>* out, const std::string& s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

bool ReadStr(ByteReader* r, std::string* s) {
  std::uint32_t len = 0;
  return r->ReadU32(&len) && len <= kMaxFramePayload &&
         r->ReadString(len, s);
}

void EncodeQueryBody(const WireQuery& query, std::vector<std::uint8_t>* out) {
  out->push_back(static_cast<std::uint8_t>(query.scenario));
  AppendU64(out, query.k);
  AppendF64(out, query.deadline_ms);
  AppendU64(out, query.max_evals);
  AppendU32(out, static_cast<std::uint32_t>(query.weights.size()));
  for (double v : query.weights) AppendF64(out, v);
  switch (query.scenario) {
    case Scenario::kPlain:
      break;
    case Scenario::kConstrained:
      AppendU32(out, static_cast<std::uint32_t>(query.box.dim()));
      for (std::size_t a = 0; a < query.box.dim(); ++a) {
        AppendF64(out, query.box.lo[a]);
        AppendF64(out, query.box.hi[a]);
      }
      break;
    case Scenario::kDiversified:
      AppendF64(out, query.lambda);
      AppendU64(out, query.pool_factor);
      break;
    case Scenario::kReverse:
      AppendU32(out, query.reverse_target);
      break;
  }
}

bool DecodeQueryBody(ByteReader* r, WireQuery* query) {
  std::uint8_t scenario = 0;
  if (!r->ReadU8(&scenario) || scenario > 3) return false;
  query->scenario = static_cast<Scenario>(scenario);
  if (!r->ReadU64(&query->k) || !r->ReadF64(&query->deadline_ms) ||
      !r->ReadU64(&query->max_evals)) {
    return false;
  }
  std::uint32_t dim = 0;
  if (!r->ReadU32(&dim) || dim > kMaxWireDim ||
      static_cast<std::size_t>(dim) * sizeof(double) > r->remaining()) {
    return false;
  }
  query->weights.resize(dim);
  for (double& v : query->weights) {
    if (!r->ReadF64(&v)) return false;
  }
  switch (query->scenario) {
    case Scenario::kPlain:
      break;
    case Scenario::kConstrained: {
      std::uint32_t box_dim = 0;
      if (!r->ReadU32(&box_dim) || box_dim > kMaxWireDim ||
          static_cast<std::size_t>(box_dim) * 2 * sizeof(double) >
              r->remaining()) {
        return false;
      }
      query->box.lo.resize(box_dim);
      query->box.hi.resize(box_dim);
      for (std::size_t a = 0; a < box_dim; ++a) {
        if (!r->ReadF64(&query->box.lo[a]) || !r->ReadF64(&query->box.hi[a])) {
          return false;
        }
      }
      break;
    }
    case Scenario::kDiversified:
      if (!r->ReadF64(&query->lambda) || !r->ReadU64(&query->pool_factor)) {
        return false;
      }
      break;
    case Scenario::kReverse:
      if (!r->ReadU32(&query->reverse_target)) return false;
      break;
  }
  return true;
}

void EncodeResultBody(const WireResult& result,
                      std::vector<std::uint8_t>* out) {
  out->push_back(static_cast<std::uint8_t>(result.status));
  out->push_back(result.termination);
  AppendU64(out, result.certified_prefix);
  AppendF64(out, result.frontier_bound);
  AppendU64(out, result.tuples_evaluated);
  AppendU64(out, result.generation);
  AppendU32(out, result.retry_after_ms);
  // Truncated so per-result encoded size never exceeds the
  // kWireResultOverheadBytes + items/intervals budget ReplyFits uses.
  AppendStr(out, result.message.substr(0, kMaxWireMessageBytes));
  AppendU32(out, static_cast<std::uint32_t>(result.items.size()));
  for (const WireItem& item : result.items) {
    AppendU32(out, item.id);
    AppendF64(out, item.score);
    AppendF64(out, item.utility);
  }
  AppendU32(out, static_cast<std::uint32_t>(result.intervals.size()));
  for (const WireInterval& iv : result.intervals) {
    AppendF64(out, iv.lo);
    AppendF64(out, iv.hi);
  }
}

bool DecodeResultBody(ByteReader* r, WireResult* result) {
  std::uint8_t status = 0;
  if (!r->ReadU8(&status) || status > 5) return false;
  result->status = static_cast<ReplyStatus>(status);
  if (!r->ReadU8(&result->termination) || result->termination > 6 ||
      !r->ReadU64(&result->certified_prefix) ||
      !r->ReadF64(&result->frontier_bound) ||
      !r->ReadU64(&result->tuples_evaluated) ||
      !r->ReadU64(&result->generation) ||
      !r->ReadU32(&result->retry_after_ms) || !ReadStr(r, &result->message)) {
    return false;
  }
  std::uint32_t count = 0;
  if (!r->ReadU32(&count) || count > kMaxWireItems ||
      static_cast<std::size_t>(count) * 20 > r->remaining()) {
    return false;
  }
  result->items.resize(count);
  for (WireItem& item : result->items) {
    if (!r->ReadU32(&item.id) || !r->ReadF64(&item.score) ||
        !r->ReadF64(&item.utility)) {
      return false;
    }
  }
  if (!r->ReadU32(&count) || count > kMaxWireItems ||
      static_cast<std::size_t>(count) * 16 > r->remaining()) {
    return false;
  }
  result->intervals.resize(count);
  for (WireInterval& iv : result->intervals) {
    if (!r->ReadF64(&iv.lo) || !r->ReadF64(&iv.hi)) return false;
  }
  return true;
}

}  // namespace

const char* ReplyStatusName(ReplyStatus status) {
  switch (status) {
    case ReplyStatus::kOk:
      return "ok";
    case ReplyStatus::kOverloaded:
      return "overloaded";
    case ReplyStatus::kInvalidQuery:
      return "invalid-query";
    case ReplyStatus::kError:
      return "error";
    case ReplyStatus::kMalformed:
      return "malformed";
    case ReplyStatus::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

bool AppendFrame(std::uint32_t request_id,
                 const std::vector<std::uint8_t>& payload,
                 std::vector<std::uint8_t>* out) {
  if (payload.size() > kMaxFramePayload) return false;
  AppendU32(out, kFrameMagic);
  AppendU32(out, static_cast<std::uint32_t>(payload.size()));
  AppendU32(out, Crc32c(payload.data(), payload.size()));
  AppendU32(out, request_id);
  out->insert(out->end(), payload.begin(), payload.end());
  return true;
}

FrameScan ScanFrame(const std::vector<std::uint8_t>& buf, std::size_t* pos,
                    Frame* frame, std::string* error) {
  const std::size_t avail = buf.size() - *pos;
  if (avail < kFrameHeaderBytes) return FrameScan::kNeedMore;
  const std::uint8_t* head = buf.data() + *pos;
  std::uint32_t magic = 0, len = 0, crc = 0, request_id = 0;
  ByteReader header(ByteSpan(head, kFrameHeaderBytes));
  header.ReadU32(&magic);
  header.ReadU32(&len);
  header.ReadU32(&crc);
  header.ReadU32(&request_id);
  if (magic != kFrameMagic) {
    *error = "bad frame magic";
    return FrameScan::kCorrupt;
  }
  if (len > kMaxFramePayload) {
    *error = "frame payload length " + std::to_string(len) +
             " exceeds the wire cap";
    return FrameScan::kCorrupt;
  }
  if (avail < kFrameHeaderBytes + len) return FrameScan::kNeedMore;
  const std::uint8_t* payload = head + kFrameHeaderBytes;
  if (Crc32c(payload, len) != crc) {
    *error = "frame payload CRC mismatch";
    return FrameScan::kCorrupt;
  }
  frame->request_id = request_id;
  frame->payload.assign(payload, payload + len);
  *pos += kFrameHeaderBytes + len;
  return FrameScan::kFrame;
}

std::vector<std::uint8_t> EncodeRequest(const Request& request) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(request.verb));
  switch (request.verb) {
    case Verb::kQuery:
      DRLI_CHECK(request.queries.size() == 1);
      EncodeQueryBody(request.queries[0], &payload);
      break;
    case Verb::kBatch:
      DRLI_CHECK(request.queries.size() <= kMaxBatchQueries);
      AppendU32(&payload, static_cast<std::uint32_t>(request.queries.size()));
      for (const WireQuery& query : request.queries) {
        EncodeQueryBody(query, &payload);
      }
      break;
    case Verb::kInspect:
    case Verb::kHealth:
    case Verb::kReload:
      break;
  }
  return payload;
}

Status DecodeRequest(const std::vector<std::uint8_t>& payload,
                     Request* request) {
  ByteReader r(payload);
  std::uint8_t verb = 0;
  if (!r.ReadU8(&verb) || verb < 1 || verb > 5) {
    return Status::Corruption("unknown request verb");
  }
  request->verb = static_cast<Verb>(verb);
  request->queries.clear();
  switch (request->verb) {
    case Verb::kQuery: {
      WireQuery query;
      if (!DecodeQueryBody(&r, &query)) {
        return Status::Corruption("undecodable query body");
      }
      request->queries.push_back(std::move(query));
      break;
    }
    case Verb::kBatch: {
      std::uint32_t count = 0;
      if (!r.ReadU32(&count) || count > kMaxBatchQueries) {
        return Status::Corruption("batch count out of range");
      }
      request->queries.resize(count);
      for (WireQuery& query : request->queries) {
        if (!DecodeQueryBody(&r, &query)) {
          return Status::Corruption("undecodable batch query body");
        }
      }
      break;
    }
    case Verb::kInspect:
    case Verb::kHealth:
    case Verb::kReload:
      break;
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after request body");
  }
  return Status::Ok();
}

std::vector<std::uint8_t> EncodeResultReply(
    const std::vector<WireResult>& results) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(ReplyStatus::kOk));
  AppendU32(&payload, static_cast<std::uint32_t>(results.size()));
  for (const WireResult& result : results) EncodeResultBody(result, &payload);
  return payload;
}

std::vector<std::uint8_t> EncodeHealthReply(const HealthInfo& info) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(ReplyStatus::kOk));
  AppendU64(&payload, info.generation);
  AppendU64(&payload, info.queries_served);
  AppendU64(&payload, info.queries_shed);
  AppendU64(&payload, info.queries_in_flight);
  AppendU64(&payload, info.reloads);
  AppendU64(&payload, info.malformed_frames);
  payload.push_back(info.draining);
  return payload;
}

std::vector<std::uint8_t> EncodeInspectReply(const InspectInfo& info) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(ReplyStatus::kOk));
  AppendStr(&payload, info.engine);
  AppendStr(&payload, info.snapshot);
  AppendU64(&payload, info.generation);
  AppendU64(&payload, info.num_points);
  AppendU32(&payload, info.dim);
  AppendStr(&payload, info.last_reload_error);
  return payload;
}

std::vector<std::uint8_t> EncodeReloadReply(const ReloadInfo& info) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(ReplyStatus::kOk));
  payload.push_back(info.reloaded);
  AppendU64(&payload, info.generation);
  AppendStr(&payload, info.error);
  return payload;
}

std::vector<std::uint8_t> EncodeStatusReply(ReplyStatus status,
                                            const std::string& message,
                                            std::uint32_t retry_after_ms) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(status));
  AppendU32(&payload, retry_after_ms);
  AppendStr(&payload, message);
  return payload;
}

namespace {

// Bare-status replies are legal wherever a typed reply is expected;
// this maps one onto a single WireResult so callers see a uniform
// (status, message, retry hint) surface.
bool DecodeBareStatus(ByteReader* r, ReplyStatus status, WireResult* result) {
  result->status = status;
  return r->ReadU32(&result->retry_after_ms) && ReadStr(r, &result->message) &&
         r->remaining() == 0;
}

}  // namespace

Status DecodeResultReply(const std::vector<std::uint8_t>& payload,
                         std::vector<WireResult>* results) {
  ByteReader r(payload);
  std::uint8_t status = 0;
  if (!r.ReadU8(&status) || status > 5) {
    return Status::Corruption("unknown reply status");
  }
  results->clear();
  if (static_cast<ReplyStatus>(status) != ReplyStatus::kOk) {
    WireResult result;
    if (!DecodeBareStatus(&r, static_cast<ReplyStatus>(status), &result)) {
      return Status::Corruption("undecodable status reply");
    }
    results->push_back(std::move(result));
    return Status::Ok();
  }
  std::uint32_t count = 0;
  if (!r.ReadU32(&count) || count > kMaxBatchQueries) {
    return Status::Corruption("reply result count out of range");
  }
  results->resize(count);
  for (WireResult& result : *results) {
    if (!DecodeResultBody(&r, &result)) {
      return Status::Corruption("undecodable result body");
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after reply");
  }
  return Status::Ok();
}

Status DecodeHealthReply(const std::vector<std::uint8_t>& payload,
                         HealthInfo* info) {
  ByteReader r(payload);
  std::uint8_t status = 0;
  if (!r.ReadU8(&status) ||
      static_cast<ReplyStatus>(status) != ReplyStatus::kOk) {
    return Status::Corruption("health reply carries a non-ok status");
  }
  if (!r.ReadU64(&info->generation) || !r.ReadU64(&info->queries_served) ||
      !r.ReadU64(&info->queries_shed) || !r.ReadU64(&info->queries_in_flight) ||
      !r.ReadU64(&info->reloads) || !r.ReadU64(&info->malformed_frames) ||
      !r.ReadU8(&info->draining) || r.remaining() != 0) {
    return Status::Corruption("undecodable health reply");
  }
  return Status::Ok();
}

Status DecodeInspectReply(const std::vector<std::uint8_t>& payload,
                          InspectInfo* info) {
  ByteReader r(payload);
  std::uint8_t status = 0;
  if (!r.ReadU8(&status) ||
      static_cast<ReplyStatus>(status) != ReplyStatus::kOk) {
    return Status::Corruption("inspect reply carries a non-ok status");
  }
  if (!ReadStr(&r, &info->engine) || !ReadStr(&r, &info->snapshot) ||
      !r.ReadU64(&info->generation) || !r.ReadU64(&info->num_points) ||
      !r.ReadU32(&info->dim) || !ReadStr(&r, &info->last_reload_error) ||
      r.remaining() != 0) {
    return Status::Corruption("undecodable inspect reply");
  }
  return Status::Ok();
}

Status DecodeReloadReply(const std::vector<std::uint8_t>& payload,
                         ReloadInfo* info) {
  ByteReader r(payload);
  std::uint8_t status = 0;
  if (!r.ReadU8(&status) ||
      static_cast<ReplyStatus>(status) != ReplyStatus::kOk) {
    return Status::Corruption("reload reply carries a non-ok status");
  }
  if (!r.ReadU8(&info->reloaded) || !r.ReadU64(&info->generation) ||
      !ReadStr(&r, &info->error) || r.remaining() != 0) {
    return Status::Corruption("undecodable reload reply");
  }
  return Status::Ok();
}

}  // namespace wire
}  // namespace drli
