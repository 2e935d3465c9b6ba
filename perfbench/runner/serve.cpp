// serve_mixed: an in-process serve::Server on loopback, driven from this
// process over a few connections.  The trace has Zipf popularity over
// (config, pair, tenant); the configs are MD and HamD at two thresholds on
// FullSpice plus a DTW shard whose requests override the backend to
// Wavefront.  Pairs come in many (|p|, |q|) shapes, so each shard's instance
// cache builds and evicts besides hitting.
//
//  * Phase A — open loop at a fixed offered rate (exponential inter-arrival
//    gaps); each request is timed from its due time, and the generator's own
//    lateness (send - due) is recorded.
//  * Phase B — closed loop: every connection keeps a fixed number of
//    requests in flight; a fixed request list is replayed round after round
//    and each round is timed.  The end-to-end latency percentiles come from
//    this phase.
//
// Every Ok response is checked bitwise against try_compute on a fresh
// accelerator with the shard's configuration.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/query.hpp"
#include "distance/registry.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

using namespace mda;

struct ShardConfig {
  dist::DistanceKind kind;
  double threshold;
  bool wavefront;  ///< Per-request backend override to Wavefront.
};

constexpr ShardConfig kConfigs[] = {
    {dist::DistanceKind::Manhattan, 0.0, false},
    {dist::DistanceKind::Hamming, 0.25, false},
    {dist::DistanceKind::Hamming, 0.5, false},
    {dist::DistanceKind::Dtw, 0.0, true},
};
constexpr std::size_t kNumConfigs = std::size(kConfigs);

/// Sizes of one run.  Full: 24 pairs per config; phase A offers 1000
/// requests (6.7 s at kRate, 10 samples beyond p99); phase B replays a
/// 240-request list, about 0.7 s a round on a 4-vCPU Xeon virtual machine,
/// for the rest of the run, with a throwaway set-up timed after every third
/// round.  Tiny: the self-test.
struct Sizes {
  std::size_t pairs_per_config;
  std::size_t phase_a_requests;
  std::size_t round_requests;
  std::size_t rounds_per_setup;  ///< Phase-B rounds per throwaway set-up.
  std::size_t min_rounds;
  std::size_t max_rounds;
};
constexpr Sizes kFull{.pairs_per_config = 24, .phase_a_requests = 1000,
                      .round_requests = 240, .rounds_per_setup = 3,
                      .min_rounds = 3, .max_rounds = 500};
constexpr Sizes kTiny{.pairs_per_config = 4, .phase_a_requests = 8,
                      .round_requests = 8, .rounds_per_setup = 0, .min_rounds = 1,
                      .max_rounds = 1};

/// Client connections (at most nproc).
constexpr std::size_t kConnections = 4;
/// Tenants in the trace.
constexpr std::size_t kTenants = 32;
/// Zipf exponent over configs, pairs and tenants.
constexpr double kZipf = 1.1;
/// Phase-A offered rate (requests/s): below the capacity phase B measures
/// (about 350/s), so the open loop does not build a standing queue.
constexpr double kRate = 150.0;
/// Phase-B requests in flight per connection.
constexpr std::size_t kInflight = 8;
/// Phase-A latency limit counted by slo_miss_rate.
constexpr double kSloP99Ms = 100.0;
/// Row kinds (MD, HamD) use |p| = |q| in kRowMinLen .. +kRowShapes-1.
constexpr std::size_t kRowMinLen = 3;
constexpr std::size_t kRowShapes = 5;
/// DTW pairs use |p|, |q| in kDtwMinLen .. +kDtwLenSpan-1 each.
constexpr std::size_t kDtwMinLen = 3;
constexpr std::size_t kDtwLenSpan = 4;
/// Sigma of the seeded perturbation.
constexpr double kJitter = 0.05;
/// Lanes per replayed FullSpice group: the default lockstep width.
constexpr std::size_t kReplayWidth = 8;

/// Inverse-CDF Zipf sampler over ranks [0, n): P(k) ~ 1 / (k+1)^s.
struct Zipf {
  std::vector<double> cdf;
  Zipf(std::size_t n, double s) : cdf(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf[k] = total;
    }
    for (double& v : cdf) v /= total;
  }
  std::size_t sample(util::Rng& rng) const {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                 cdf.size() - 1);
  }
};

struct Entry {
  std::size_t config;
  std::size_t pair;
  std::uint64_t tenant;
};

struct Universe {
  /// pairs[c][j] = {p, q}.  Row kinds (MD/HamD) need |p| == |q|; DTW pairs
  /// mix lengths.  Shapes cycle with j so popular and rare pairs both span
  /// several cache keys.
  std::vector<std::vector<std::pair<std::vector<double>, std::vector<double>>>>
      pairs;
  /// Unperturbed copy of each config's first pair: the set-up's warm query,
  /// so set-up does the same work on every seed.
  std::vector<std::pair<std::vector<double>, std::vector<double>>> warm;

  core::QueryRequest request(const Entry& e) const {
    return request(e, pairs[e.config][e.pair]);
  }
  core::QueryRequest warm_request(std::size_t config) const {
    return request({config, 0, 0}, warm[config]);
  }

 private:
  static core::QueryRequest request(
      const Entry& e,
      const std::pair<std::vector<double>, std::vector<double>>& pq) {
    core::QueryRequest req{pq.first, pq.second};
    req.kind = kConfigs[e.config].kind;
    req.threshold = kConfigs[e.config].threshold;
    if (kConfigs[e.config].wavefront) req.backend = core::Backend::Wavefront;
    req.tenant = e.tenant;
    return req;
  }
};

std::vector<double> values(util::Rng& rng, std::size_t n) {
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-1.5, 1.5);
  return s;
}

/// Fixed base universe plus a seeded perturbation of every value (see
/// knn.cpp): the seed changes every payload, not the shapes or the traffic.
Universe make_universe(std::uint64_t seed, std::size_t pairs_per_config) {
  util::Rng rng(9000);
  Universe u;
  u.pairs.resize(kNumConfigs);
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    for (std::size_t j = 0; j < pairs_per_config; ++j) {
      if (kConfigs[c].wavefront) {
        const std::size_t m = kDtwMinLen + j % kDtwLenSpan;
        const std::size_t n = kDtwMinLen + (j / kDtwLenSpan) % kDtwLenSpan;
        u.pairs[c].push_back({values(rng, m), values(rng, n)});
      } else {
        const std::size_t n = kRowMinLen + j % kRowShapes;
        u.pairs[c].push_back({values(rng, n), values(rng, n)});
      }
    }
  }
  for (const auto& per_config : u.pairs) u.warm.push_back(per_config.front());
  util::Rng noise(seed);
  for (auto& per_config : u.pairs) {
    for (auto& [p, q] : per_config) {
      for (double& v : p) v += noise.normal(0.0, kJitter);
      for (double& v : q) v += noise.normal(0.0, kJitter);
    }
  }
  return u;
}

std::vector<Entry> make_trace(util::Rng& rng, std::size_t n,
                              std::size_t pairs_per_config) {
  const Zipf zc(kNumConfigs, kZipf);
  const Zipf zp(pairs_per_config, kZipf);
  const Zipf zt(kTenants, kZipf);
  std::vector<Entry> trace(n);
  for (Entry& e : trace) {
    e.config = zc.sample(rng);
    e.pair = zp.sample(rng);
    e.tenant = zt.sample(rng);
  }
  return trace;
}

/// One request's client-side record.
struct Record {
  double due = 0.0;
  double sent = 0.0;
  double recv = 0.0;
  bool got = false;
  core::QueryResponse resp;
};

/// Open loop: request i goes out on connection i % C at due[i], whatever
/// the server is doing.  One sender thread walks the schedule (so requests
/// leave in due order); one receiver thread per connection collects replies.
void open_loop(std::vector<serve::Client>& conns, const Universe& u,
               const std::vector<Entry>& trace, const std::vector<double>& due,
               std::vector<Record>& rec) {
  const std::size_t nc = conns.size();
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(due[i]))));
      rec[i].due = due[i];
      rec[i].sent = now_s();
      conns[i % nc].send(u.request(trace[i]), i);
    }
  });
  for (std::size_t c = 0; c < nc; ++c) {
    threads.emplace_back([&, c] {
      std::size_t expected = 0;
      for (std::size_t i = c; i < trace.size(); i += nc) ++expected;
      for (std::size_t k = 0; k < expected; ++k) {
        const auto resp = conns[c].recv(/*timeout_ms=*/30000);
        if (!resp || resp->id >= trace.size()) return;
        Record& r = rec[resp->id];
        r.recv = now_s();
        r.resp = *resp;
        r.got = true;
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// Closed loop: each connection keeps `inflight` requests outstanding over
/// its share (i % C) of the list.
void closed_loop(std::vector<serve::Client>& conns, const Universe& u,
                 const std::vector<Entry>& list, std::size_t inflight,
                 std::vector<Record>& rec, Tracer& tracer, std::int64_t parent) {
  const std::size_t nc = conns.size();
  std::vector<std::int64_t> span_ids(list.size(), -1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < nc; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::size_t> mine;
      for (std::size_t i = c; i < list.size(); i += nc) mine.push_back(i);
      std::size_t next = 0;
      const auto send_next = [&] {
        const std::size_t i = mine[next++];
        span_ids[i] = tracer.begin("serve.request", parent, i);
        rec[i].sent = now_s();
        rec[i].due = rec[i].sent;
        conns[c].send(u.request(list[i]), i);
      };
      while (next < mine.size() && next < inflight) send_next();
      for (std::size_t done = 0; done < mine.size(); ++done) {
        const auto resp = conns[c].recv(/*timeout_ms=*/30000);
        if (!resp || resp->id >= list.size()) return;
        Record& r = rec[resp->id];
        r.recv = now_s();
        tracer.end(span_ids[resp->id]);
        r.resp = *resp;
        r.got = true;
        if (next < mine.size()) send_next();
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

int run_serve(const Args& args, Tracer& tracer, Report& rep) {
  zero_fill_layers(rep);
  const Sizes& z = args.tiny ? kTiny : kFull;
  const std::size_t nconn = std::max<std::size_t>(
      1, std::min<std::size_t>(kConnections,
                               std::thread::hardware_concurrency()));
  const std::size_t ppc = z.pairs_per_config;
  const std::size_t a_requests = z.phase_a_requests;

  const Universe u = make_universe(args.seed, ppc);
  // The traffic (trace and arrival gaps) is fixed; only payloads vary.
  util::Rng rng(0xBEEF);
  const std::vector<Entry> trace_a = make_trace(rng, a_requests, ppc);
  std::vector<double> gaps(a_requests);
  for (double& g : gaps) g = rng.exponential(kRate);
  const std::vector<Entry> round = make_trace(rng, z.round_requests, ppc);

  // ---- set-up: server start, connect, one warm (cold-cache) query per
  // config.
  // Members are destroyed in reverse: the connections close, then the
  // server stops.
  struct Stack {
    std::unique_ptr<serve::Server> server;
    std::vector<serve::Client> conns;
  };
  std::vector<double> cold_ms;
  const auto make_stack = [&] {
    Stack st;
    serve::ServeOptions opts;
    opts.accelerator.backend = core::Backend::FullSpice;
    st.server = std::make_unique<serve::Server>(opts);
    st.server->start();
    st.conns.resize(nconn);
    for (auto& c : st.conns) c.connect("127.0.0.1", st.server->port());
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      const double t0 = now_s();
      const auto resp = st.conns[0].call(u.warm_request(c), c, 30000);
      cold_ms.push_back((now_s() - t0) * 1e3);
      if (!resp || !resp->ok()) {
        throw std::runtime_error("serve: warm query failed");
      }
    }
    return st;
  };
  std::optional<Stack> st(timed_setup(rep, make_stack));
  std::vector<serve::Client>& conns = st->conns;

  // ---- correctness oracle: fresh accelerator per config, one solve per
  // distinct pair, computed lazily.
  std::vector<std::unique_ptr<core::Accelerator>> fresh;
  for (const ShardConfig& sc : kConfigs) {
    core::AcceleratorConfig cfg;
    cfg.backend = core::Backend::FullSpice;
    auto acc = std::make_unique<core::Accelerator>(cfg);
    core::DistanceSpec spec;
    spec.kind = sc.kind;
    spec.threshold = sc.threshold;
    acc->configure(spec);
    fresh.push_back(std::move(acc));
  }
  std::map<std::pair<std::size_t, std::size_t>, core::ComputeOutcome> oracle;
  const auto reference = [&](const Entry& e) -> const core::ComputeOutcome& {
    const auto key = std::make_pair(e.config, e.pair);
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      core::QueryRequest req = u.request(e);
      req.tenant = 0;
      it = oracle.emplace(key, fresh[e.config]->try_compute(req)).first;
    }
    return it->second;
  };
  std::uint64_t wrong = 0;
  std::uint64_t refused = 0;
  std::vector<double> errs;
  std::vector<double> settle;
  const auto check = [&](const std::vector<Entry>& list,
                         const std::vector<Record>& rec) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      rep.attempted += 1;
      if (!rec[i].got || !rec[i].resp.ok()) {
        ++refused;
        continue;
      }
      const core::ComputeOutcome& want = reference(list[i]);
      if (!want.ok() || !core::bitwise_equal(rec[i].resp.result, want.value())) {
        ++wrong;
      }
    }
  };

  // Warm-up (untimed, unchecked): one closed-loop round, so phase A starts
  // on shards that have already built instances for the hot keys.
  {
    std::vector<Record> rec(round.size());
    Tracer off(false);
    closed_loop(conns, u, round, kInflight, rec, off, -1);
  }

  // ---- phase A: open loop.
  std::vector<Record> rec_a(a_requests);
  const Counters a0 = Counters::capture();
  {
    std::vector<double> due(a_requests);
    double t = now_s() + 0.05;
    for (std::size_t i = 0; i < a_requests; ++i) {
      t += gaps[i];
      due[i] = t;
    }
    open_loop(conns, u, trace_a, due, rec_a);
  }
  std::vector<double> lat_ms;
  std::vector<double> lag_ms;
  std::size_t slo_miss = 0;
  for (const Record& r : rec_a) {
    lag_ms.push_back((r.sent - r.due) * 1e3);
    if (!r.got || !r.resp.ok()) {
      ++slo_miss;
      continue;
    }
    lat_ms.push_back((r.recv - r.due) * 1e3);
    if (lat_ms.back() > kSloP99Ms) ++slo_miss;
  }
  // Open-loop percentiles, timed from due time.  Reported, not gated: on a
  // shared VM host their run-to-run spread exceeds any allowed bound (thread
  // wake-ups cost milliseconds, and the coalescing feedback amplifies them).
  rep.metrics["open_latency_p50_ms"] = median(lat_ms);
  rep.metrics["open_latency_p99_ms"] = percentile(lat_ms, 0.99);
  rep.info["open_latency_samples"] = static_cast<double>(lat_ms.size());
  rep.metrics["generator_lag_ms"] = percentile(lag_ms, 0.99);
  rep.metrics["slo_miss_rate"] =
      static_cast<double>(slo_miss) / static_cast<double>(a_requests);
  rep.info["offered_rate_qps"] = kRate;
  rep.info["slo_p99_limit_ms"] = kSloP99Ms;

  // ---- phase B: closed-loop rounds over one fixed request list.  Responses
  // are checked after the counters are read: the oracle's own solves must
  // not count as serving work.
  std::vector<std::vector<Record>> rec_b;
  std::vector<double> round_s;
  std::vector<double> round_qps;
  const std::size_t min_rounds = z.min_rounds;
  const std::size_t max_rounds = args.trace ? 1 : z.max_rounds;
  const double t_b = now_s();
  const double b_budget = std::max(0.0, args.seconds - (t_b - rec_a.front().due));
  while (round_s.size() < max_rounds &&
         (round_s.size() < min_rounds || now_s() - t_b < b_budget)) {
    std::vector<Record> rec(round.size());
    Tracer off(false);
    const double t0 = now_s();
    closed_loop(conns, u, round, kInflight, rec, off, -1);
    const double dt = now_s() - t0;
    std::size_t ok = 0;
    for (const Record& r : rec) ok += r.got && r.resp.ok();
    round_s.push_back(dt);
    round_qps.push_back(static_cast<double>(ok) / dt);
    rec_b.push_back(std::move(rec));
    // Not in the traced run: its counter deltas must hold serving work only.
    if (!args.trace && z.rounds_per_setup > 0 &&
        round_s.size() % z.rounds_per_setup == 0) {
      (void)timed_setup(rep, make_stack);
    }
  }
  const Counters b1 = Counters::capture();
  {
    std::vector<double> b_ms;
    for (const auto& rec : rec_b) {
      for (const Record& r : rec) {
        if (r.got && r.resp.ok()) b_ms.push_back((r.recv - r.sent) * 1e3);
      }
    }
    // The gated latencies: phase-B requests, sent to received, at a fixed
    // number in flight per connection.
    rep.metrics["latency_p50_ms"] = median(b_ms);
    rep.metrics["latency_p99_ms"] = percentile(b_ms, 0.99);
    rep.info["latency_samples"] = static_cast<double>(b_ms.size());
  }
  check(trace_a, rec_a);
  for (const auto& rec : rec_b) check(round, rec);

  // Phase B figures are aggregates over every round (mean round time, total
  // Ok responses over total time): a round's cost depends on how arrivals
  // happened to coalesce, so single rounds scatter widely.
  double b_time = 0.0;
  double b_ok = 0.0;
  for (std::size_t r = 0; r < round_s.size(); ++r) {
    b_time += round_s[r];
    b_ok += round_qps[r] * round_s[r];
  }
  const double wall = b_time / static_cast<double>(round_s.size());
  rep.samples["wall_s"] = round_s;
  rep.samples["throughput_qps"] = round_qps;
  rep.metrics["wall_s"] = wall;
  rep.metrics["throughput_qps"] = b_ok / b_time;
  for (const auto& [key, o] : oracle) {
    if (!o.ok()) continue;
    errs.push_back(o.value().relative_error);
    settle.push_back(o.value().convergence_time_s);
  }
  rep.metrics["accelerator.rel_error_mean"] = mean(errs);
  rep.metrics["accelerator.hw_settle_ns"] = mean(settle) * 1e9;

  // Per-layer counts over phases A + B (quiescent: every response is in).
  const double requests = delta(a0, b1, "mda.serve.requests");
  const double solves = delta(a0, b1, "mda.serve.solves");
  const double collapsed = delta(a0, b1, "mda.serve.collapsed_requests");
  rep.metrics["serve.requests"] = requests;
  rep.metrics["serve.solves"] = solves;
  rep.metrics["serve.collapsed"] = collapsed;
  rep.metrics["serve.rejected"] = delta(a0, b1, "mda.serve.rejects");
  rep.metrics["serve.solves_per_request"] =
      requests > 0 ? solves / requests : 0.0;
  const double windows = delta(a0, b1, "mda.serve.windows");
  rep.metrics["serve.window_mean"] =
      windows > 0 ? (solves + collapsed) / windows : 0.0;
  const double lat_n = delta(a0, b1, "mda.serve.request_latency_s");
  const double server_mean_ms =
      lat_n > 0 ? delta_sum(a0, b1, "mda.serve.request_latency_s") / lat_n * 1e3
                : 0.0;
  rep.metrics["serve.server_latency_mean_ms"] = server_mean_ms;
  cache_layer(a0, b1, rep);
  rep.metrics["array_cache.bytes"] = b1.gauge("mda.cache.bytes");
  rep.metrics["array_cache.cold_query_ms"] = mean(cold_ms);
  rep.metrics["backend.wavefront_cell_solves"] =
      delta(a0, b1, "mda.backend.wavefront_cell_solves");
  rep.metrics["backend.wavefront_cold_restarts"] =
      delta(a0, b1, "mda.backend.wavefront_cold_restarts");
  spice_layer(a0, b1, rep);

  if (args.trace) {
    // Warm repeat of each config's set-up query.
    std::vector<double> warm_ms;
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      const double t0 = now_s();
      const auto resp = conns[0].call(u.warm_request(c), c, 30000);
      warm_ms.push_back((now_s() - t0) * 1e3);
      if (!resp || !resp->ok()) ++rep.failed;
    }
    rep.metrics["array_cache.warm_query_ms"] = mean(warm_ms);

    // One traced closed-loop round: client spans per request.
    std::vector<Record> rec(round.size());
    const Counters r0 = Counters::capture();
    const double t0 = now_s();
    std::int64_t root = tracer.begin("pass", -1);
    closed_loop(conns, u, round, kInflight, rec, tracer, root);
    tracer.end(root);
    const double traced = now_s() - t0;
    const Counters r1 = Counters::capture();
    check(round, rec);
    rep.metrics["trace.overhead_ratio"] = traced / wall;
    std::vector<double> client_ms;
    for (const Record& r : rec) {
      if (r.got) client_ms.push_back((r.recv - r.sent) * 1e3);
    }
    const double n = delta(r0, r1, "mda.serve.request_latency_s");
    const double server_ms =
        n > 0 ? delta_sum(r0, r1, "mda.serve.request_latency_s") / n * 1e3
              : 0.0;
    rep.metrics["serve.client_overhead_mean_ms"] = mean(client_ms) - server_ms;

    // Backend replays on the oracle's accelerators: DTW through
    // eval_wavefront, MD/HamD groups through replay_fullspice; decoded
    // values bitwise against the oracle outcomes.
    bool same = true;
    std::size_t replayed = 0;
    std::int64_t replay = tracer.begin("replay", -1);
    std::map<std::string, std::pair<double, double>> fs;  // lanes, iterations
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      const core::Accelerator& acc = *fresh[c];
      std::vector<core::QueryRequest> reqs;
      std::vector<const core::ComputeOutcome*> want;
      for (const auto& [key, o] : oracle) {
        if (key.first != c || !o.ok()) continue;
        reqs.push_back(u.request({key.first, key.second, 0}));
        want.push_back(&o);
      }
      std::vector<LaneReplay> lanes;
      if (kConfigs[c].wavefront) {
        for (const core::QueryRequest& r : reqs) {
          core::EncodedInputs enc;
          {
            ScopedSpan s(tracer, "backend.encode", replay, c);
            enc = core::encode_inputs(acc.config(), acc.spec(), r.p, r.q);
          }
          LaneReplay l;
          {
            ScopedSpan s(tracer, "backend.wavefront", replay, c);
            l.eval = core::eval_wavefront(acc.config(), acc.spec(), enc);
          }
          ScopedSpan s(tracer, "backend.decode", replay, c);
          l.value = core::decode_output(acc.config(), acc.spec(),
                                        l.eval.out_volts, enc);
          lanes.push_back(std::move(l));
        }
      } else {
        const std::span<const core::QueryRequest> all(reqs);
        for (std::size_t b = 0; b < reqs.size(); b += kReplayWidth) {
          const std::size_t e = std::min(reqs.size(), b + kReplayWidth);
          for (LaneReplay& l :
               replay_fullspice(tracer, acc, all.subspan(b, e - b), replay, c)) {
            lanes.push_back(std::move(l));
          }
        }
        auto& [nlanes, iters] = fs[dist::kind_name(kConfigs[c].kind)];
        for (const LaneReplay& l : lanes) {
          nlanes += 1.0;
          iters += static_cast<double>(l.eval.newton_iterations);
        }
      }
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        same = same && lanes[i].eval.ok &&
               same_bits(lanes[i].value, want[i]->value().value);
      }
      replayed += lanes.size();
    }
    tracer.end(replay);
    rep.gate("replay_equals_direct", same);
    if (!same) ++rep.failed;
    rep.attempted += replayed;
    const std::vector<Span> spans = tracer.spans();
    rep.metrics["backend.wavefront_ms_per_query"] =
        mean_span(spans, "backend.wavefront") * 1e3;
    rep.metrics["backend.encode_us"] = mean_span(spans, "backend.encode") * 1e6;
    for (const auto& [kname, v] : fs) {
      fullspice_layer(kname, span_total(spans, "backend.fullspice." + kname),
                      v.first, v.second, rep);
    }
  }

  st.reset();
  rep.gate("served_equals_direct", wrong == 0);
  rep.gate("no_refusals", refused == 0);
  rep.failed += wrong + refused;
  rep.metrics["failed_ratio"] =
      static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);
  return 0;
}

}  // namespace pb
