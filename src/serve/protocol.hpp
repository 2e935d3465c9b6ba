#pragma once
// Wire protocol of `mda serve` (DESIGN.md §13): a minimal length-prefixed
// binary framing over TCP, little-endian throughout.
//
//   frame  := header payload
//   header := magic:u32 version:u8 type:u8 flags:u16 payload_len:u32
//
// magic is the bytes "MDAQ" on the wire; version is 3; type distinguishes
// request and response frames; flags are reserved (must be 0).  The payload
// serialises core::QueryRequest / core::QueryResponse field-for-field —
// doubles travel as raw IEEE-754 bit patterns (memcpy, never printf), which
// is what makes the served ≡ direct bit-identity contract checkable over
// the socket: a NaN payload or a negative zero survives the round trip.
//
// Error handling is two-tier, mirroring what a connection can survive:
//  * framing errors (bad magic/version/type, flags != 0, payload_len over
//    the limit) mean the byte stream itself is unsynchronised — FrameReader
//    reports Status::Error and the server closes the connection after a
//    best-effort error response;
//  * payload decode errors (truncated/overlong payload, bad enum values)
//    are per-request — decode_request_payload returns nullopt, the server
//    answers QueryStatus::BadRequest (with the request id when the prefix
//    was readable), and the connection keeps serving.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/query.hpp"

namespace mda::serve {

/// "MDAQ" read as a little-endian u32 (bytes 4D 44 41 51 on the wire).
inline constexpr std::uint32_t kMagic = 0x5141444Du;
/// Bumped whenever a payload layout changes, so a peer on the old layout
/// gets a framing error instead of misreading the new one.
inline constexpr std::uint8_t kVersion = 3;
inline constexpr std::size_t kHeaderSize = 12;
/// Default frame-size ceiling: 4 MiB ≈ 260k-sample sequences, far beyond a
/// 128x128 fabric's useful tiling range.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;

enum class FrameType : std::uint8_t {
  Request = 1,
  Response = 2,
  /// Health poll / report (DESIGN.md §14).  Client -> server: empty payload
  /// (a poll).  Server -> client: the serialised HealthReport below.
  Health = 3,
};

// ---- health frame (DESIGN.md §14) ---------------------------------------

/// Replica lifecycle state as routed by admission (see server.cpp).
enum class ReplicaState : std::uint8_t {
  Healthy = 0,    ///< Serving, score below the unhealthy threshold.
  Degraded = 1,   ///< Serving, but routed around when a sibling is healthy.
  Scrubbing = 2,  ///< Checked out for re-tune; receives no new requests.
  Down = 3,       ///< Killed / not running; receives no requests.
};
[[nodiscard]] const char* replica_state_name(ReplicaState state);

struct ReplicaHealth {
  std::uint32_t index = 0;
  ReplicaState state = ReplicaState::Healthy;
  double expected_error = 0.0;  ///< Scoreboard MemSE-style estimate.
  std::uint64_t queries = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t scrubs = 0;  ///< Scoreboard generation (resets survived).
  std::uint32_t queue_depth = 0;
};

struct ShardHealth {
  std::uint8_t kind = 0;  ///< dist::DistanceKind of the shard config.
  std::uint8_t backend = 0;
  double threshold = 0.0;
  std::int32_t band = -1;
  std::vector<ReplicaHealth> replicas;
};

/// One consistent fleet snapshot answered to a Health poll.
struct HealthReport {
  std::uint64_t failovers = 0;
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
  std::vector<ShardHealth> shards;
};

/// An empty-payload Health frame (the client's poll).
[[nodiscard]] std::vector<std::uint8_t> encode_health_poll_frame();
[[nodiscard]] std::vector<std::uint8_t> encode_health_frame(
    const HealthReport& report);
[[nodiscard]] std::optional<HealthReport> decode_health_payload(
    std::span<const std::uint8_t> payload, std::string* error = nullptr);

/// A request frame's payload: the wire id (echoed in the response) plus the
/// unified request itself, materialised with owned storage
/// (QueryRequest::owning) so it outlives the socket buffer.
struct DecodedRequest {
  std::uint64_t id = 0;
  core::QueryRequest request;
};

/// Serialise a complete frame (header + payload).
[[nodiscard]] std::vector<std::uint8_t> encode_request_frame(
    const core::QueryRequest& req, std::uint64_t id);
[[nodiscard]] std::vector<std::uint8_t> encode_response_frame(
    const core::QueryResponse& resp);

/// Decode a request/response payload (the bytes after the header).  On
/// failure returns nullopt and, when `error` is non-null, a one-line reason.
[[nodiscard]] std::optional<DecodedRequest> decode_request_payload(
    std::span<const std::uint8_t> payload, std::string* error = nullptr);
[[nodiscard]] std::optional<core::QueryResponse> decode_response_payload(
    std::span<const std::uint8_t> payload, std::string* error = nullptr);

/// Best-effort id/tenant extraction from a request payload that failed to
/// decode, so the BadRequest response can still be correlated by the client.
/// Leaves the outputs untouched when even the fixed prefix is truncated.
void peek_request_ids(std::span<const std::uint8_t> payload,
                      std::uint64_t* id, std::uint64_t* tenant);

/// Incremental frame assembler for a byte stream: feed whatever the socket
/// produced, pull complete frames out.  Tolerates arbitrary fragmentation
/// (byte-by-byte delivery included); a framing violation is sticky — the
/// stream cannot be resynchronised, so every next() after an Error keeps
/// returning it.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Status : std::uint8_t {
    NeedMore,  ///< No complete frame buffered yet.
    Frame,     ///< One frame extracted into `type` + `payload`.
    Error,     ///< Framing violation; the connection must be torn down.
  };
  struct Result {
    Status status = Status::NeedMore;
    FrameType type = FrameType::Request;
    std::vector<std::uint8_t> payload;
    std::string error;
  };

  void append(const std::uint8_t* data, std::size_t n);
  [[nodiscard]] Result next();

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< Consumed prefix of buf_ (compacted lazily).
  std::size_t max_frame_bytes_;
  std::string sticky_error_;
};

}  // namespace mda::serve
