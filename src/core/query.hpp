#pragma once
// The unified public query API (DESIGN.md §13): one QueryRequest /
// QueryResponse pair shared verbatim by every layer that evaluates
// distances — the wire codec (serve/protocol.hpp), Accelerator::try_compute,
// BatchEngine::try_compute_batch and fault campaigns.  The serving path is
// provably the same code path as the direct API because there is only one
// request type to route: a request decoded off a socket is byte-for-byte the
// request a direct caller would have constructed.
//
// A QueryRequest carries the (P, Q) payload plus every per-call knob that
// used to live in ad-hoc places (a per-call backend override, the internal
// AcceleratorConfig::fault_attempt) and the serving envelope (tenant id,
// relative deadline):
//
//   core::QueryRequest req{p, q};          // views; BatchQuery-compatible
//   req.backend = core::Backend::FullSpice;  // chain-start override
//   auto outcome = acc.try_compute(req);
//
// Payload ownership: the two spans are the payload; by default they view
// caller-owned storage (the hot mining path — no copies).  The wire path
// decodes into owned buffers via QueryRequest::owning(), which parks the
// vectors behind a shared_ptr so copies of the request stay valid and cheap.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "distance/registry.hpp"

namespace mda::core {

/// One distance query plus its per-call knobs.  Aggregate: `{p, q}` builds a
/// plain view request with default knobs, so legacy BatchQuery call sites
/// compile unchanged.
struct QueryRequest {
  /// The payload, by view.  Must outlive the call (or be backed by
  /// `storage`, see owning()).
  std::span<const double> p{};
  std::span<const double> q{};

  /// Requested distance function.  nullopt = whatever the target accelerator
  /// is configured for (the direct-call default); when set, the accelerator
  /// validates it (plus threshold/band) against its configured spec and the
  /// server routes the request to the matching shard.
  std::optional<dist::DistanceKind> kind{};
  double threshold = 0.0;  ///< Spec threshold; meaningful only with `kind`.
  int band = -1;           ///< Spec band; meaningful only with `kind`.

  /// Execution-backend override: the recovery chain starts here instead of
  /// the accelerator's configured backend (absorbs the old per-call
  /// compute(p, q, backend) overload).
  std::optional<Backend> backend{};

  /// Starting recovery-attempt index (DESIGN.md §9): attempt k of the chain
  /// runs with AcceleratorConfig::fault_attempt = fault_attempt + k, so a
  /// caller can replay a specific re-tune attempt.  0 = normal first try.
  int fault_attempt = 0;

  /// Serving envelope: tenant for quota accounting, and a relative deadline
  /// (seconds from arrival; 0 = none) after which a still-queued request is
  /// rejected instead of solved.  The direct path is synchronous and never
  /// queues, so it ignores the deadline.
  std::uint64_t tenant = 0;
  double deadline_s = 0.0;

  /// Payload owners for requests materialised off the wire; null for view
  /// requests.  Copies share the buffers.
  std::shared_ptr<const std::vector<double>> p_storage{};
  std::shared_ptr<const std::vector<double>> q_storage{};

  /// Build a request that owns its payload (wire decode, stored traces).
  static QueryRequest owning(std::vector<double> p_vals,
                             std::vector<double> q_vals) {
    QueryRequest req;
    req.p_storage =
        std::make_shared<const std::vector<double>>(std::move(p_vals));
    req.q_storage =
        std::make_shared<const std::vector<double>>(std::move(q_vals));
    req.p = std::span<const double>(*req.p_storage);
    req.q = std::span<const double>(*req.q_storage);
    return req;
  }
};

/// Response status.  The first three mirror the direct API (Ok /
/// ComputeErrorCode); the rest are serving-layer rejections that never reach
/// the accelerator.
enum class QueryStatus : std::uint8_t {
  Ok = 0,
  InvalidInput = 1,     ///< ComputeErrorCode::InvalidInput.
  BackendFailure = 2,   ///< ComputeErrorCode::BackendFailure.
  Overloaded = 3,       ///< Admission control: shard queue full / no shard.
  QuotaExceeded = 4,    ///< Tenant over its in-flight quota.
  DeadlineExpired = 5,  ///< Queued past the request deadline.
  BadRequest = 6,       ///< Undecodable frame payload.
  ShuttingDown = 7,     ///< Server stopping; request not accepted.
};

[[nodiscard]] const char* query_status_name(QueryStatus status);

/// The single response type of the unified API: the full ComputeResult
/// provenance on success (so bit-identity served ≡ direct is checkable over
/// the wire), the error provenance otherwise.
struct QueryResponse {
  std::uint64_t id = 0;      ///< Echoes the wire request id (0 directly).
  std::uint64_t tenant = 0;  ///< Echoes QueryRequest::tenant.
  QueryStatus status = QueryStatus::BackendFailure;

  ComputeResult result{};  ///< Valid only when status == Ok.

  // Failure provenance (status != Ok); mirrors ComputeError.
  std::string message;
  Backend error_backend = Backend::Wavefront;
  int error_attempts = 0;
  long error_newton_iterations = 0;

  // Serving envelope (DESIGN.md §14) — NOT part of the bit-identity
  // contract (which replica answered and when to retry are properties of
  // the serving fleet, not of the solve).
  /// Index of the shard replica that produced this response (0 directly).
  std::uint32_t replica = 0;
  /// Rejection hint: seconds the client should back off before retrying
  /// (Overloaded / ShuttingDown; 0 = no hint).
  double retry_after_s = 0.0;

  [[nodiscard]] bool ok() const { return status == QueryStatus::Ok; }

  /// Wrap a direct-API outcome (the one conversion point between the two
  /// result types — servers and benches both go through here).
  static QueryResponse from(std::uint64_t id, std::uint64_t tenant,
                            ComputeOutcome outcome);
  /// A serving-layer rejection that never reached the accelerator.
  static QueryResponse reject(std::uint64_t id, std::uint64_t tenant,
                              QueryStatus status, std::string message);
};

/// The bit-identity predicate of the serving contract (DESIGN.md §13): every
/// field a solve determines, compared bitwise (doubles by bit pattern, so
/// NaN == NaN and -0.0 != +0.0).
[[nodiscard]] bool bitwise_equal(const ComputeResult& a,
                                 const ComputeResult& b);
[[nodiscard]] bool bitwise_equal(const QueryResponse& a,
                                 const QueryResponse& b);

}  // namespace mda::core
