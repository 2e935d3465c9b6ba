#include "serve/protocol.hpp"

#include <cstring>

namespace mda::serve {
namespace {

// ---- little-endian primitive writers (append) and readers (cursor) ----

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int s = 0; s < 32; s += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> s));
  }
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int s = 0; s < 64; s += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> s));
  }
}
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}
void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  // Raw bit pattern: NaN payloads and signed zeros survive the round trip.
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Bounds-checked little-endian reads off a payload span.  Every get_* call
/// after a failure keeps failing, so decoders can check ok once at the end.
struct Cursor {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || data.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data[pos++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        data[pos] | (static_cast<std::uint16_t>(data[pos + 1]) << 8));
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
};

void put_header(std::vector<std::uint8_t>& out, FrameType type,
                std::size_t payload_len) {
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, 0);  // flags
  put_u32(out, static_cast<std::uint32_t>(payload_len));
}

std::optional<DecodedRequest> fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return std::nullopt;
}

constexpr std::uint8_t kMaxKind = 5;     // dist::DistanceKind has 6 values.
constexpr std::uint8_t kMaxBackend = 2;  // Behavioral/Wavefront/FullSpice.
constexpr std::uint8_t kMaxStatus =
    static_cast<std::uint8_t>(core::QueryStatus::ShuttingDown);

}  // namespace

// Request payload:
//   id:u64 tenant:u64
//   has_kind:u8 kind:u8 has_backend:u8 backend:u8
//   fault_attempt:i32
//   threshold:f64 band:i32
//   deadline_s:f64
//   p_len:u32 q_len:u32 p:f64[p_len] q:f64[q_len]
std::vector<std::uint8_t> encode_request_frame(const core::QueryRequest& req,
                                               std::uint64_t id) {
  std::vector<std::uint8_t> payload;
  payload.reserve(64 + 8 * (req.p.size() + req.q.size()));
  put_u64(payload, id);
  put_u64(payload, req.tenant);
  put_u8(payload, req.kind.has_value() ? 1 : 0);
  put_u8(payload, req.kind ? static_cast<std::uint8_t>(*req.kind) : 0);
  put_u8(payload, req.backend.has_value() ? 1 : 0);
  put_u8(payload, req.backend ? static_cast<std::uint8_t>(*req.backend) : 0);
  put_i32(payload, req.fault_attempt);
  put_f64(payload, req.threshold);
  put_i32(payload, req.band);
  put_f64(payload, req.deadline_s);
  put_u32(payload, static_cast<std::uint32_t>(req.p.size()));
  put_u32(payload, static_cast<std::uint32_t>(req.q.size()));
  for (double v : req.p) put_f64(payload, v);
  for (double v : req.q) put_f64(payload, v);

  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  put_header(frame, FrameType::Request, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::optional<DecodedRequest> decode_request_payload(
    std::span<const std::uint8_t> payload, std::string* error) {
  Cursor c{payload};
  DecodedRequest out;
  out.id = c.u64();
  out.request.tenant = c.u64();
  const std::uint8_t has_kind = c.u8();
  const std::uint8_t kind = c.u8();
  const std::uint8_t has_backend = c.u8();
  const std::uint8_t backend = c.u8();
  out.request.fault_attempt = c.i32();
  out.request.threshold = c.f64();
  out.request.band = c.i32();
  out.request.deadline_s = c.f64();
  const std::uint32_t p_len = c.u32();
  const std::uint32_t q_len = c.u32();
  if (!c.ok) return fail(error, "request payload truncated");
  if (has_kind > 1 || has_backend > 1) {
    return fail(error, "request payload: bad presence flag");
  }
  if (has_kind != 0 && kind > kMaxKind) {
    return fail(error, "request payload: unknown distance kind");
  }
  if (has_backend != 0 && backend > kMaxBackend) {
    return fail(error, "request payload: unknown backend");
  }
  if (out.request.fault_attempt < 0) {
    return fail(error, "request payload: negative fault_attempt");
  }
  const std::size_t want =
      8 * (static_cast<std::size_t>(p_len) + static_cast<std::size_t>(q_len));
  if (payload.size() - c.pos != want) {
    return fail(error, payload.size() - c.pos < want
                           ? "request payload truncated"
                           : "request payload has trailing bytes");
  }
  std::vector<double> p(p_len);
  std::vector<double> q(q_len);
  for (auto& v : p) v = c.f64();
  for (auto& v : q) v = c.f64();

  const std::uint64_t tenant = out.request.tenant;
  const int fault_attempt = out.request.fault_attempt;
  const double threshold = out.request.threshold;
  const int band = out.request.band;
  const double deadline_s = out.request.deadline_s;
  out.request = core::QueryRequest::owning(std::move(p), std::move(q));
  out.request.tenant = tenant;
  out.request.fault_attempt = fault_attempt;
  out.request.threshold = threshold;
  out.request.band = band;
  out.request.deadline_s = deadline_s;
  if (has_kind != 0) {
    out.request.kind = static_cast<dist::DistanceKind>(kind);
  }
  if (has_backend != 0) {
    out.request.backend = static_cast<core::Backend>(backend);
  }
  return out;
}

void peek_request_ids(std::span<const std::uint8_t> payload,
                      std::uint64_t* id, std::uint64_t* tenant) {
  Cursor c{payload};
  const std::uint64_t got_id = c.u64();
  const std::uint64_t got_tenant = c.u64();
  if (!c.ok) return;
  if (id != nullptr) *id = got_id;
  if (tenant != nullptr) *tenant = got_tenant;
}

// Response payload:
//   id:u64 tenant:u64 status:u8 backend:u8 fault_detected:u8 replica:u8
//   Ok:  value volts reference relative_error convergence_time_s
//        input_scale : f64 x6
//        tiles:u64 attempts:i32 fallbacks:i32 newton_iterations:i64
//        solver_fallbacks:i64 quarantined_cells:u64
//   err: attempts:i32 newton_iterations:i64 retry_after_s:f64
//        msg_len:u32 msg:u8[msg_len]
std::vector<std::uint8_t> encode_response_frame(
    const core::QueryResponse& resp) {
  std::vector<std::uint8_t> payload;
  payload.reserve(128 + resp.message.size());
  put_u64(payload, resp.id);
  put_u64(payload, resp.tenant);
  put_u8(payload, static_cast<std::uint8_t>(resp.status));
  put_u8(payload, static_cast<std::uint8_t>(resp.ok() ? resp.result.backend_used
                                                      : resp.error_backend));
  put_u8(payload, resp.ok() && resp.result.fault_detected ? 1 : 0);
  put_u8(payload, static_cast<std::uint8_t>(
                      resp.replica < 255 ? resp.replica : 255));
  if (resp.ok()) {
    const core::ComputeResult& r = resp.result;
    put_f64(payload, r.value);
    put_f64(payload, r.volts);
    put_f64(payload, r.reference);
    put_f64(payload, r.relative_error);
    put_f64(payload, r.convergence_time_s);
    put_f64(payload, r.input_scale);
    put_u64(payload, static_cast<std::uint64_t>(r.tiles));
    put_i32(payload, r.attempts);
    put_i32(payload, r.fallbacks);
    put_i64(payload, r.newton_iterations);
    put_i64(payload, r.solver_fallbacks);
    put_u64(payload, static_cast<std::uint64_t>(r.quarantined_cells));
  } else {
    put_i32(payload, resp.error_attempts);
    put_i64(payload, resp.error_newton_iterations);
    put_f64(payload, resp.retry_after_s);
    put_u32(payload, static_cast<std::uint32_t>(resp.message.size()));
    payload.insert(payload.end(), resp.message.begin(), resp.message.end());
  }

  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  put_header(frame, FrameType::Response, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::optional<core::QueryResponse> decode_response_payload(
    std::span<const std::uint8_t> payload, std::string* error) {
  auto failr = [&](const char* why) -> std::optional<core::QueryResponse> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  Cursor c{payload};
  core::QueryResponse resp;
  resp.id = c.u64();
  resp.tenant = c.u64();
  const std::uint8_t status = c.u8();
  const std::uint8_t backend = c.u8();
  const std::uint8_t fault_detected = c.u8();
  resp.replica = c.u8();
  if (!c.ok) return failr("response payload truncated");
  if (status > kMaxStatus) return failr("response payload: unknown status");
  if (backend > kMaxBackend) return failr("response payload: unknown backend");
  resp.status = static_cast<core::QueryStatus>(status);
  if (resp.ok()) {
    core::ComputeResult& r = resp.result;
    r.value = c.f64();
    r.volts = c.f64();
    r.reference = c.f64();
    r.relative_error = c.f64();
    r.convergence_time_s = c.f64();
    r.input_scale = c.f64();
    r.tiles = static_cast<std::size_t>(c.u64());
    r.attempts = c.i32();
    r.fallbacks = c.i32();
    r.newton_iterations = static_cast<long>(c.i64());
    r.solver_fallbacks = static_cast<long>(c.i64());
    r.quarantined_cells = static_cast<std::size_t>(c.u64());
    r.backend_used = static_cast<core::Backend>(backend);
    r.fault_detected = fault_detected != 0;
    if (!c.ok) return failr("response payload truncated");
    if (c.pos != payload.size()) {
      return failr("response payload has trailing bytes");
    }
    return resp;
  }
  resp.error_backend = static_cast<core::Backend>(backend);
  resp.error_attempts = c.i32();
  resp.error_newton_iterations = static_cast<long>(c.i64());
  resp.retry_after_s = c.f64();
  const std::uint32_t msg_len = c.u32();
  if (!c.ok) return failr("response payload truncated");
  if (payload.size() - c.pos != msg_len) {
    return failr(payload.size() - c.pos < msg_len
                     ? "response payload truncated"
                     : "response payload has trailing bytes");
  }
  resp.message.assign(payload.begin() + static_cast<std::ptrdiff_t>(c.pos),
                      payload.end());
  return resp;
}

const char* replica_state_name(ReplicaState state) {
  switch (state) {
    case ReplicaState::Healthy: return "healthy";
    case ReplicaState::Degraded: return "degraded";
    case ReplicaState::Scrubbing: return "scrubbing";
    case ReplicaState::Down: return "down";
  }
  return "?";
}

std::vector<std::uint8_t> encode_health_poll_frame() {
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize);
  put_header(frame, FrameType::Health, 0);
  return frame;
}

// Health report payload:
//   failovers kills restarts : u64 x3
//   shard_count:u32
//   per shard: kind:u8 backend:u8 threshold:f64 band:i32 replica_count:u32
//   per replica: index:u32 state:u8 expected_error:f64
//                queries:u64 quarantines:u64 scrubs:u64 queue_depth:u32
constexpr std::size_t kShardHealthBytes = 1 + 1 + 8 + 4 + 4;
constexpr std::size_t kReplicaHealthBytes = 4 + 1 + 8 + 8 + 8 + 8 + 4;

std::vector<std::uint8_t> encode_health_frame(const HealthReport& report) {
  std::vector<std::uint8_t> payload;
  payload.reserve(64 + 64 * report.shards.size());
  put_u64(payload, report.failovers);
  put_u64(payload, report.kills);
  put_u64(payload, report.restarts);
  put_u32(payload, static_cast<std::uint32_t>(report.shards.size()));
  for (const ShardHealth& s : report.shards) {
    put_u8(payload, s.kind);
    put_u8(payload, s.backend);
    put_f64(payload, s.threshold);
    put_i32(payload, s.band);
    put_u32(payload, static_cast<std::uint32_t>(s.replicas.size()));
    for (const ReplicaHealth& r : s.replicas) {
      put_u32(payload, r.index);
      put_u8(payload, static_cast<std::uint8_t>(r.state));
      put_f64(payload, r.expected_error);
      put_u64(payload, r.queries);
      put_u64(payload, r.quarantines);
      put_u64(payload, r.scrubs);
      put_u32(payload, r.queue_depth);
    }
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  put_header(frame, FrameType::Health, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::optional<HealthReport> decode_health_payload(
    std::span<const std::uint8_t> payload, std::string* error) {
  auto failh = [&](const char* why) -> std::optional<HealthReport> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  Cursor c{payload};
  HealthReport report;
  report.failovers = c.u64();
  report.kills = c.u64();
  report.restarts = c.u64();
  const std::uint32_t shard_count = c.u32();
  if (!c.ok) return failh("health payload truncated");
  // Counts are checked against the bytes left before anything is sized by
  // them, so a lying count cannot allocate more than the payload carries.
  if (shard_count > (payload.size() - c.pos) / kShardHealthBytes) {
    return failh("health payload: shard count exceeds payload");
  }
  report.shards.resize(shard_count);
  for (ShardHealth& s : report.shards) {
    s.kind = c.u8();
    s.backend = c.u8();
    s.threshold = c.f64();
    s.band = c.i32();
    const std::uint32_t replica_count = c.u32();
    if (!c.ok) return failh("health payload truncated");
    if (s.kind > kMaxKind) return failh("health payload: unknown kind");
    if (s.backend > kMaxBackend) {
      return failh("health payload: unknown backend");
    }
    if (replica_count > (payload.size() - c.pos) / kReplicaHealthBytes) {
      return failh("health payload: replica count exceeds payload");
    }
    s.replicas.resize(replica_count);
    for (ReplicaHealth& r : s.replicas) {
      r.index = c.u32();
      const std::uint8_t state = c.u8();
      r.expected_error = c.f64();
      r.queries = c.u64();
      r.quarantines = c.u64();
      r.scrubs = c.u64();
      r.queue_depth = c.u32();
      if (!c.ok) return failh("health payload truncated");
      if (state > static_cast<std::uint8_t>(ReplicaState::Down)) {
        return failh("health payload: unknown replica state");
      }
      r.state = static_cast<ReplicaState>(state);
    }
  }
  if (c.pos != payload.size()) {
    return failh("health payload has trailing bytes");
  }
  return report;
}

void FrameReader::append(const std::uint8_t* data, std::size_t n) {
  // Compact the consumed prefix before growing (amortised O(1) per byte).
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

FrameReader::Result FrameReader::next() {
  Result res;
  if (!sticky_error_.empty()) {
    res.status = Status::Error;
    res.error = sticky_error_;
    return res;
  }
  if (buffered() < kHeaderSize) return res;
  const std::span<const std::uint8_t> hdr(buf_.data() + pos_, kHeaderSize);
  Cursor c{hdr};
  const std::uint32_t magic = c.u32();
  const std::uint8_t version = c.u8();
  const std::uint8_t type = c.u8();
  const std::uint16_t flags = c.u16();
  const std::uint32_t payload_len = c.u32();
  auto failf = [&](const char* why) {
    sticky_error_ = why;
    res.status = Status::Error;
    res.error = sticky_error_;
    return res;
  };
  if (magic != kMagic) return failf("bad frame magic");
  if (version != kVersion) return failf("unsupported protocol version");
  if (type != static_cast<std::uint8_t>(FrameType::Request) &&
      type != static_cast<std::uint8_t>(FrameType::Response) &&
      type != static_cast<std::uint8_t>(FrameType::Health)) {
    return failf("unknown frame type");
  }
  if (flags != 0) return failf("nonzero frame flags");
  if (payload_len > max_frame_bytes_) return failf("frame exceeds size limit");
  if (buffered() < kHeaderSize + payload_len) return res;  // NeedMore
  res.status = Status::Frame;
  res.type = static_cast<FrameType>(type);
  res.payload.assign(
      buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kHeaderSize),
      buf_.begin() +
          static_cast<std::ptrdiff_t>(pos_ + kHeaderSize + payload_len));
  pos_ += kHeaderSize + payload_len;
  return res;
}

}  // namespace mda::serve
