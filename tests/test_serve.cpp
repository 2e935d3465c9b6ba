// Serving-layer tests (DESIGN.md §13): wire-codec round trips (including
// the IEEE-754 corner cases the bit-identity contract hinges on), framing
// robustness against malformed/truncated/oversized input, and loopback
// server behaviour — served ≡ direct bit identity, per-request BadRequest
// recovery, connection teardown on framing errors, and the admission-control
// rejections (quota, queue overload, deadline).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/query.hpp"
#include "distance/registry.hpp"
#include "fault/plan.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace mda;
using core::QueryRequest;
using core::QueryResponse;
using core::QueryStatus;

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

/// Round-trip a request frame through FrameReader + decode.
serve::DecodedRequest round_trip(const QueryRequest& req, std::uint64_t id) {
  const std::vector<std::uint8_t> frame = serve::encode_request_frame(req, id);
  serve::FrameReader reader;
  reader.append(frame.data(), frame.size());
  const serve::FrameReader::Result r = reader.next();
  EXPECT_EQ(r.status, serve::FrameReader::Status::Frame);
  EXPECT_EQ(r.type, serve::FrameType::Request);
  std::string error;
  const auto decoded = serve::decode_request_payload(r.payload, &error);
  EXPECT_TRUE(decoded.has_value()) << error;
  return *decoded;
}

// ------------------------------------------------------------ codec tests --

TEST(ServeProtocol, RequestRoundTripDefaults) {
  const std::vector<double> p{0.25, -0.5}, q{1.0, 0.125};
  const QueryRequest req{p, q};
  const serve::DecodedRequest d = round_trip(req, 7);
  EXPECT_EQ(d.id, 7u);
  ASSERT_EQ(d.request.p.size(), p.size());
  ASSERT_EQ(d.request.q.size(), q.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_TRUE(bits_equal(d.request.p[i], p[i]));
    EXPECT_TRUE(bits_equal(d.request.q[i], q[i]));
  }
  EXPECT_FALSE(d.request.kind.has_value());
  EXPECT_FALSE(d.request.backend.has_value());
  EXPECT_EQ(d.request.fault_attempt, 0);
  EXPECT_EQ(d.request.retry_budget, 0u);
  EXPECT_EQ(d.request.tenant, 0u);
  EXPECT_EQ(d.request.deadline_s, 0.0);
}

TEST(ServeProtocol, RequestRoundTripAllKnobsAndSpecialDoubles) {
  // NaN, -0.0, infinities and a denormal must survive bit-for-bit: the wire
  // carries raw IEEE-754 patterns, never a decimal rendering.
  const std::vector<double> p{std::numeric_limits<double>::quiet_NaN(), -0.0,
                              std::numeric_limits<double>::infinity()};
  const std::vector<double> q{-std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::denorm_min(), 0.0};
  QueryRequest req{p, q};
  req.kind = dist::DistanceKind::Hamming;
  req.threshold = 0.25;
  req.band = 3;
  req.backend = core::Backend::Behavioral;
  req.fault_attempt = 2;
  req.retry_budget = 5;
  req.tenant = 0xDEADBEEFCAFEull;
  req.deadline_s = 1.5;
  const serve::DecodedRequest d = round_trip(req, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(d.id, 0xFFFFFFFFFFFFFFFFull);
  ASSERT_EQ(d.request.p.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(bits_equal(d.request.p[i], p[i])) << "p[" << i << "]";
    EXPECT_TRUE(bits_equal(d.request.q[i], q[i])) << "q[" << i << "]";
  }
  ASSERT_TRUE(d.request.kind.has_value());
  EXPECT_EQ(*d.request.kind, dist::DistanceKind::Hamming);
  EXPECT_EQ(d.request.threshold, 0.25);
  EXPECT_EQ(d.request.band, 3);
  ASSERT_TRUE(d.request.backend.has_value());
  EXPECT_EQ(*d.request.backend, core::Backend::Behavioral);
  EXPECT_EQ(d.request.fault_attempt, 2);
  EXPECT_EQ(d.request.retry_budget, 5u);
  EXPECT_EQ(d.request.tenant, 0xDEADBEEFCAFEull);
  EXPECT_EQ(d.request.deadline_s, 1.5);
}

TEST(ServeProtocol, ResponseRoundTripOk) {
  core::ComputeResult result;
  result.value = std::numeric_limits<double>::quiet_NaN();
  result.volts = -0.0;
  result.reference = 1.75;
  result.relative_error = 0.001;
  result.convergence_time_s = 3.5e-9;
  result.input_scale = 0.8;
  result.tiles = 4;
  result.backend_used = core::Backend::FullSpice;
  result.attempts = 2;
  result.fallbacks = 1;
  result.fault_detected = true;
  result.newton_iterations = 123;
  result.solver_fallbacks = 7;
  result.quarantined_cells = 9;

  QueryResponse resp;
  resp.id = 42;
  resp.tenant = 11;
  resp.status = QueryStatus::Ok;
  resp.result = result;
  resp.replica = 3;  // Serving envelope rides along without affecting bits.

  const std::vector<std::uint8_t> frame = serve::encode_response_frame(resp);
  serve::FrameReader reader;
  reader.append(frame.data(), frame.size());
  const auto r = reader.next();
  ASSERT_EQ(r.status, serve::FrameReader::Status::Frame);
  ASSERT_EQ(r.type, serve::FrameType::Response);
  std::string error;
  const auto decoded = serve::decode_response_payload(r.payload, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->tenant, 11u);
  EXPECT_TRUE(decoded->ok());
  EXPECT_EQ(decoded->replica, 3u);
  EXPECT_EQ(decoded->retry_after_s, 0.0);
  EXPECT_TRUE(core::bitwise_equal(decoded->result, result));
  EXPECT_TRUE(core::bitwise_equal(*decoded, resp));
}

TEST(ServeProtocol, ResponseRoundTripError) {
  QueryResponse resp = QueryResponse::reject(
      9, 3, QueryStatus::QuotaExceeded, "tenant 3 over in-flight quota");
  resp.error_backend = core::Backend::FullSpice;
  resp.error_attempts = 4;
  resp.error_newton_iterations = 77;
  resp.replica = 1;
  resp.retry_after_s = 0.25;  // Back-off hint survives the wire.
  const std::vector<std::uint8_t> frame = serve::encode_response_frame(resp);
  serve::FrameReader reader;
  reader.append(frame.data(), frame.size());
  const auto r = reader.next();
  ASSERT_EQ(r.status, serve::FrameReader::Status::Frame);
  const auto decoded = serve::decode_response_payload(r.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, QueryStatus::QuotaExceeded);
  EXPECT_EQ(decoded->message, "tenant 3 over in-flight quota");
  EXPECT_EQ(decoded->error_backend, core::Backend::FullSpice);
  EXPECT_EQ(decoded->error_attempts, 4);
  EXPECT_EQ(decoded->error_newton_iterations, 77);
  EXPECT_EQ(decoded->replica, 1u);
  EXPECT_EQ(decoded->retry_after_s, 0.25);
  EXPECT_TRUE(core::bitwise_equal(*decoded, resp));
}

TEST(ServeProtocol, FrameReaderByteByByteDelivery) {
  const std::vector<double> p{1.0}, q{2.0};
  const auto frame = serve::encode_request_frame(QueryRequest{p, q}, 5);
  serve::FrameReader reader;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.append(&frame[i], 1);
    EXPECT_EQ(reader.next().status, serve::FrameReader::Status::NeedMore);
  }
  reader.append(&frame.back(), 1);
  const auto r = reader.next();
  ASSERT_EQ(r.status, serve::FrameReader::Status::Frame);
  const auto decoded = serve::decode_request_payload(r.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 5u);
}

TEST(ServeProtocol, FrameReaderTwoFramesOneAppend) {
  const std::vector<double> p{1.0}, q{2.0};
  auto bytes = serve::encode_request_frame(QueryRequest{p, q}, 1);
  const auto second = serve::encode_request_frame(QueryRequest{p, q}, 2);
  bytes.insert(bytes.end(), second.begin(), second.end());
  serve::FrameReader reader;
  reader.append(bytes.data(), bytes.size());
  EXPECT_EQ(serve::decode_request_payload(reader.next().payload)->id, 1u);
  EXPECT_EQ(serve::decode_request_payload(reader.next().payload)->id, 2u);
  EXPECT_EQ(reader.next().status, serve::FrameReader::Status::NeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ServeProtocol, FrameReaderRejectsBadMagicSticky) {
  std::vector<std::uint8_t> junk(serve::kHeaderSize, 0xAB);
  serve::FrameReader reader;
  reader.append(junk.data(), junk.size());
  EXPECT_EQ(reader.next().status, serve::FrameReader::Status::Error);
  // Sticky: even after more (valid) bytes the stream stays dead.
  const std::vector<double> p{1.0}, q{1.0};
  const auto frame = serve::encode_request_frame(QueryRequest{p, q}, 1);
  reader.append(frame.data(), frame.size());
  EXPECT_EQ(reader.next().status, serve::FrameReader::Status::Error);
}

TEST(ServeProtocol, FrameReaderRejectsOversizedFrame) {
  const std::vector<double> p(64, 1.0), q(64, 2.0);
  const auto frame = serve::encode_request_frame(QueryRequest{p, q}, 1);
  serve::FrameReader small(/*max_frame_bytes=*/128);
  small.append(frame.data(), frame.size());
  const auto r = small.next();
  EXPECT_EQ(r.status, serve::FrameReader::Status::Error);
  EXPECT_NE(r.error.find("frame"), std::string::npos);
}

TEST(ServeProtocol, FrameReaderRejectsBadVersionAndType) {
  const std::vector<double> p{1.0}, q{1.0};
  auto frame = serve::encode_request_frame(QueryRequest{p, q}, 1);
  auto bad_version = frame;
  bad_version[4] = 99;  // version byte
  serve::FrameReader r1;
  r1.append(bad_version.data(), bad_version.size());
  EXPECT_EQ(r1.next().status, serve::FrameReader::Status::Error);

  auto bad_type = frame;
  bad_type[5] = 0;  // type byte: neither Request nor Response
  serve::FrameReader r2;
  r2.append(bad_type.data(), bad_type.size());
  EXPECT_EQ(r2.next().status, serve::FrameReader::Status::Error);
}

TEST(ServeProtocol, TruncatedPayloadRejectedCleanly) {
  const std::vector<double> p{1.0, 2.0}, q{3.0, 4.0};
  const auto frame = serve::encode_request_frame(QueryRequest{p, q}, 17);
  const std::span<const std::uint8_t> payload(frame.data() + serve::kHeaderSize,
                                              frame.size() -
                                                  serve::kHeaderSize);
  // Every strict prefix of the payload must be rejected without crashing.
  for (std::size_t n = 0; n < payload.size(); ++n) {
    std::string error;
    EXPECT_FALSE(
        serve::decode_request_payload(payload.subspan(0, n), &error).has_value())
        << "prefix length " << n;
    EXPECT_FALSE(error.empty());
  }
  // And the id is still recoverable once the prefix is readable.
  std::uint64_t id = 0, tenant = 0;
  serve::peek_request_ids(payload.subspan(0, 16), &id, &tenant);
  EXPECT_EQ(id, 17u);
}

TEST(ServeProtocol, TrailingBytesRejected) {
  const std::vector<double> p{1.0}, q{2.0};
  auto frame = serve::encode_request_frame(QueryRequest{p, q}, 1);
  std::vector<std::uint8_t> payload(frame.begin() + serve::kHeaderSize,
                                    frame.end());
  payload.push_back(0x00);
  std::string error;
  EXPECT_FALSE(serve::decode_request_payload(payload, &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(ServeProtocol, BadEnumValuesRejected) {
  const std::vector<double> p{1.0}, q{2.0};
  QueryRequest req{p, q};
  req.kind = dist::DistanceKind::Dtw;
  auto frame = serve::encode_request_frame(req, 1);
  // Payload layout: id:u64 tenant:u64 has_kind:u8 kind:u8 ...
  frame[serve::kHeaderSize + 17] = 99;  // kind out of range
  const std::span<const std::uint8_t> payload(frame.data() + serve::kHeaderSize,
                                              frame.size() -
                                                  serve::kHeaderSize);
  EXPECT_FALSE(serve::decode_request_payload(payload).has_value());
}

// --------------------------------------------------------- loopback tests --

serve::ServeOptions fast_options() {
  serve::ServeOptions opts;
  opts.accelerator.backend = core::Backend::Behavioral;
  opts.default_spec.kind = dist::DistanceKind::Manhattan;
  return opts;
}

TEST(ServeLoopback, ServedEqualsDirectBitwise) {
  serve::Server server(fast_options());
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  const std::vector<double> p{0.2, -0.7, 1.1}, q{-0.4, 0.9, 0.3};

  // Two explicit shard configurations plus the default-spec shard.
  QueryRequest manhattan{p, q};
  manhattan.kind = dist::DistanceKind::Manhattan;
  QueryRequest hamming{p, q};
  hamming.kind = dist::DistanceKind::Hamming;
  hamming.threshold = 0.3;
  const QueryRequest plain{p, q};  // routed to default_spec (Manhattan)

  const auto r1 = client.call(manhattan, 1);
  const auto r2 = client.call(hamming, 2);
  const auto r3 = client.call(plain, 3);
  ASSERT_TRUE(r1 && r2 && r3);
  ASSERT_TRUE(r1->ok()) << r1->message;
  ASSERT_TRUE(r2->ok()) << r2->message;
  ASSERT_TRUE(r3->ok()) << r3->message;
  EXPECT_EQ(r1->id, 1u);
  EXPECT_EQ(r2->id, 2u);

  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::Behavioral;
  {
    core::Accelerator acc(cfg);
    core::DistanceSpec spec;
    spec.kind = dist::DistanceKind::Manhattan;
    acc.configure(spec);
    const core::ComputeResult direct = acc.try_compute(p, q).unwrap();
    EXPECT_TRUE(core::bitwise_equal(r1->result, direct));
    EXPECT_TRUE(core::bitwise_equal(r3->result, direct));
  }
  {
    core::Accelerator acc(cfg);
    core::DistanceSpec spec;
    spec.kind = dist::DistanceKind::Hamming;
    spec.threshold = 0.3;
    acc.configure(spec);
    EXPECT_TRUE(core::bitwise_equal(r2->result, acc.try_compute(p, q).unwrap()));
  }
  server.stop();
}

TEST(ServeLoopback, MalformedPayloadGetsBadRequestConnectionSurvives) {
  serve::Server server(fast_options());
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  const std::vector<double> p{0.5, 0.5}, q{0.25, 0.75};
  QueryRequest req{p, q};
  req.kind = dist::DistanceKind::Manhattan;
  auto frame = serve::encode_request_frame(req, 42);
  frame[serve::kHeaderSize + 17] = 99;  // corrupt the kind enum in place
  client.send_raw(frame.data(), frame.size());

  const auto bad = client.recv(10000);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, QueryStatus::BadRequest);
  EXPECT_EQ(bad->id, 42u);  // correlated via peek_request_ids

  // The connection keeps serving after the per-request failure.
  const auto ok = client.call(req, 43, 10000);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok()) << ok->message;
  EXPECT_EQ(ok->id, 43u);
  server.stop();
}

TEST(ServeLoopback, FramingErrorClosesConnection) {
  serve::Server server(fast_options());
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  std::vector<std::uint8_t> junk(64, 0xEE);
  client.send_raw(junk.data(), junk.size());

  // Best-effort BadRequest, then the server tears the connection down —
  // either way recv() must terminate with "closed", not hang.
  for (int i = 0; i < 3; ++i) {
    const auto r = client.recv(10000);
    if (!r.has_value()) break;
    EXPECT_EQ(r->status, QueryStatus::BadRequest);
  }
  EXPECT_FALSE(client.recv(10000).has_value());
  server.stop();
}

TEST(ServeLoopback, TenantQuotaRejectsPipelinedSecondRequest) {
  // Quota of one in-flight request per tenant, on a deliberately slow
  // FullSpice shard: while the first request is solving (~100 ms), the
  // pipelined second one from the same tenant must be admitted-checked and
  // rejected QuotaExceeded.
  serve::ServeOptions opts;
  opts.accelerator.backend = core::Backend::FullSpice;
  opts.tenant_inflight_quota = 1;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  const std::vector<double> p{0.2, -0.7, 1.1, 0.4}, q{-0.4, 0.9, 0.3, -0.2};
  QueryRequest req{p, q};
  req.kind = dist::DistanceKind::Dtw;
  req.tenant = 5;
  client.send(req, 1);
  client.send(req, 2);

  bool saw_ok = false, saw_quota = false;
  for (int i = 0; i < 2; ++i) {
    const auto r = client.recv(60000);
    ASSERT_TRUE(r.has_value());
    if (r->ok()) saw_ok = true;
    if (r->status == QueryStatus::QuotaExceeded) saw_quota = true;
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_quota);
  server.stop();
}

TEST(ServeLoopback, FullQueueAnswersOverloaded) {
  serve::ServeOptions opts;
  opts.accelerator.backend = core::Backend::FullSpice;
  opts.shard_queue_depth = 1;
  opts.coalesce_window = 1;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  const std::vector<double> p{0.2, -0.7, 1.1, 0.4}, q{-0.4, 0.9, 0.3, -0.2};
  QueryRequest req{p, q};
  req.kind = dist::DistanceKind::Dtw;
  for (std::uint64_t id = 1; id <= 4; ++id) client.send(req, id);

  int ok = 0, overloaded = 0;
  for (int i = 0; i < 4; ++i) {
    const auto r = client.recv(60000);
    ASSERT_TRUE(r.has_value());
    if (r->ok()) ++ok;
    if (r->status == QueryStatus::Overloaded) ++overloaded;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  server.stop();
}

TEST(ServeLoopback, ExpiredDeadlineRejectedAtDequeue) {
  serve::Server server(fast_options());
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  const std::vector<double> p{0.1, 0.2}, q{0.3, 0.4};
  QueryRequest req{p, q};
  req.deadline_s = 1e-9;  // lapses before any worker can dequeue it
  const auto r = client.call(req, 1, 10000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, QueryStatus::DeadlineExpired);
  server.stop();
}

TEST(ServeLoopback, WireRetryBudgetIsClampedAtAdmission) {
  // A hostile peer sets retry_budget to u32 max against a shard whose every
  // solve fails: without the ServeOptions::max_retry_budget clamp the worker
  // would re-solve ~4e9 times (this test would hang and stop() would never
  // join); with it the request fails fast and the server shuts down cleanly.
  fault::FaultConfig fc;
  fc.force_nonconvergence = true;
  serve::ServeOptions opts;
  opts.accelerator.backend = core::Backend::FullSpice;
  opts.accelerator.faults = std::make_shared<const fault::FaultPlan>(fc);
  opts.accelerator.fault_handling.degrade = false;
  opts.accelerator.fault_handling.max_retries = 0;
  opts.max_retry_budget = 2;
  serve::Server server(opts);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());

  const std::vector<double> p{0.2, -0.7, 1.1}, q{-0.4, 0.9, 0.3};
  QueryRequest req{p, q};
  req.kind = dist::DistanceKind::Manhattan;
  req.retry_budget = 0xFFFFFFFFu;
  const auto r = client.call(req, 1, 60000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, QueryStatus::BackendFailure);
  server.stop();
}

TEST(ServeLoopback, RestartAfterStopServesFreshShards) {
  // stop() clears the shard table (its workers have exited); a restarted
  // server must rebuild shards on demand instead of enqueueing onto dead
  // ones, so this second call would hang unanswered without the clear.
  serve::Server server(fast_options());
  const std::vector<double> p{0.1, 0.2}, q{0.3, 0.4};
  const QueryRequest req{p, q};
  for (int round = 0; round < 2; ++round) {
    server.start();
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    const auto r = client.call(req, static_cast<std::uint64_t>(round), 10000);
    ASSERT_TRUE(r.has_value()) << "round " << round;
    EXPECT_TRUE(r->ok()) << r->message;
    client.close();
    server.stop();
  }
  // ServerStats::shards counts shards instantiated, monotonically.
  EXPECT_EQ(server.stats().shards, 2u);
}

TEST(ServeLoopback, StatsCountTraffic) {
  serve::Server server(fast_options());
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const std::vector<double> p{0.1, 0.2}, q{0.3, 0.4};
  const QueryRequest req{p, q};
  for (std::uint64_t id = 0; id < 3; ++id) {
    const auto r = client.call(req, id, 10000);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->ok());
  }
  client.close();
  server.stop();
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_GE(stats.solves, 1u);
  EXPECT_EQ(stats.shards, 1u);
}

}  // namespace
