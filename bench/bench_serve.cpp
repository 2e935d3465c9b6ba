// Multi-tenant serving benchmark for `mda serve` (DESIGN.md §13).  A Zipf
// load generator replays the same trace against two in-process servers:
//
//  * one_per_solve — duplicate collapse off: every admitted request costs
//    its own analog solve (the naive serving loop);
//  * coalesced — the production configuration: worker drains coalesce
//    windows, collapses bitwise-identical requests and solves only the
//    unique rest.
//
// Both modes solve each request on the same scalar FullSpice path, so they
// differ by duplicate collapse only.
//
// The trace is the paper's data-center shape (§1, §4.3): a small universe of
// hot (config, pair) queries under Zipf popularity, fanned across many
// tenants on a few pipelined connections.  Reported per mode: client-side
// QPS and exact p50/p99 latency, server solve/collapse counters; plus the
// headline coalesced_speedup (QPS ratio) and all_bit_identical — every
// served response compared bitwise against a direct try_compute on a fresh
// accelerator (the serving contract).  Exit code 2 on any mismatch.
//
// --json=<path> writes the machine-readable report with the host
// fingerprint (committed baseline: BENCH_serve.json).  Knobs: --queries=N
// --clients=N --window=N --pairs=N --tenants=N --length=L --zipf=S.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "host_fingerprint.hpp"
#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/query.hpp"
#include "distance/registry.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

using namespace mda;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> series(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-1.5, 1.5);
  return s;
}

/// Inverse-CDF Zipf sampler over ranks [0, n): P(k) ∝ 1 / (k+1)^s.
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
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
  }
};

/// The hot query universe: a few FullSpice shard configurations, each with
/// its own pool of (P, Q) pairs.
struct ShardConfig {
  dist::DistanceKind kind;
  double threshold;
};

constexpr ShardConfig kConfigs[] = {
    {dist::DistanceKind::Manhattan, 0.0},
    {dist::DistanceKind::Hamming, 0.25},
    {dist::DistanceKind::Hamming, 0.5},
};
constexpr std::size_t kNumConfigs = std::size(kConfigs);

struct Universe {
  // pairs[c][j] = {p, q} for configuration c.
  std::vector<std::vector<std::pair<std::vector<double>, std::vector<double>>>>
      pairs;
};

Universe make_universe(std::size_t pairs_per_config, std::size_t length) {
  Universe u;
  u.pairs.resize(kNumConfigs);
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    for (std::size_t j = 0; j < pairs_per_config; ++j) {
      const std::uint64_t seed = 9000 + 131 * c + 2 * j;
      u.pairs[c].push_back({series(seed, length), series(seed + 1, length)});
    }
  }
  return u;
}

struct TraceEntry {
  std::size_t config;
  std::size_t pair;
  std::uint64_t tenant;
};

std::vector<TraceEntry> make_trace(std::size_t n, std::size_t pairs_per_config,
                                   std::size_t tenants, double zipf_s) {
  util::Rng rng(0xBEEF);
  const Zipf zc(kNumConfigs, zipf_s);
  const Zipf zp(pairs_per_config, zipf_s);
  const Zipf zt(tenants, zipf_s);
  std::vector<TraceEntry> trace(n);
  for (auto& e : trace) {
    e.config = zc.sample(rng);
    e.pair = zp.sample(rng);
    e.tenant = zt.sample(rng);
  }
  return trace;
}

core::QueryRequest request_for(const Universe& u, const TraceEntry& e) {
  core::QueryRequest req{u.pairs[e.config][e.pair].first,
                         u.pairs[e.config][e.pair].second};
  req.kind = kConfigs[e.config].kind;
  req.threshold = kConfigs[e.config].threshold;
  req.tenant = e.tenant;
  return req;
}

struct ModeResult {
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t solves = 0;
  std::uint64_t collapsed = 0;
  std::uint64_t responses = 0;
  bool all_ok = true;
  std::vector<core::QueryResponse> replies;  ///< Indexed by trace id.
};

/// Replay the trace against a fresh in-process server.
ModeResult run_mode(const Universe& u, const std::vector<TraceEntry>& trace,
                    bool collapse, std::size_t clients, std::size_t window) {
  serve::ServeOptions opts;
  opts.accelerator.backend = core::Backend::FullSpice;
  opts.collapse_duplicates = collapse;
  serve::Server server(opts);
  server.start();

  // Round-robin trace partition; ids are global trace indices, so threads
  // write disjoint slots of the shared result arrays.
  std::vector<std::vector<std::size_t>> assigned(clients);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    assigned[i % clients].push_back(i);
  }

  ModeResult mode;
  mode.replies.resize(trace.size());
  std::vector<double> latency(trace.size(), 0.0);
  std::vector<char> got(trace.size(), 0);

  std::vector<serve::Client> conns(clients);
  for (auto& c : conns) c.connect("127.0.0.1", server.port());

  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      serve::Client& client = conns[t];
      const std::vector<std::size_t>& mine = assigned[t];
      std::vector<double> sent_at(trace.size(), 0.0);
      for (std::size_t begin = 0; begin < mine.size(); begin += window) {
        const std::size_t end = std::min(mine.size(), begin + window);
        for (std::size_t k = begin; k < end; ++k) {
          const std::size_t id = mine[k];
          sent_at[id] = now_s();
          client.send(request_for(u, trace[id]), id);
        }
        for (std::size_t k = begin; k < end; ++k) {
          const auto resp = client.recv(/*timeout_ms=*/60000);
          if (!resp) return;  // connection lost; got[] stays 0
          const double t_recv = now_s();
          if (resp->id >= trace.size()) return;
          latency[resp->id] = t_recv - sent_at[resp->id];
          mode.replies[resp->id] = *resp;
          got[resp->id] = 1;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  mode.wall_s = now_s() - t0;

  for (auto& c : conns) c.close();
  server.stop();  // quiesce the workers so the counters are final
  const serve::ServerStats stats = server.stats();
  mode.solves = stats.solves;
  mode.collapsed = stats.collapsed;
  mode.responses = stats.responses;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!got[i] || !mode.replies[i].ok()) mode.all_ok = false;
  }
  mode.qps =
      mode.wall_s > 0.0 ? static_cast<double>(trace.size()) / mode.wall_s : 0.0;
  std::sort(latency.begin(), latency.end());
  if (!latency.empty()) {
    const std::size_t n = latency.size();
    mode.p50_ms = latency[n / 2] * 1e3;
    mode.p99_ms = latency[(n - 1) - (n - 1) / 100] * 1e3;
  }
  return mode;
}

/// Direct-API reference: one fresh accelerator per configuration, one solve
/// per unique (config, pair) — the bit-identity oracle for every served
/// response derived from that pair.
std::vector<std::vector<core::ComputeResult>> make_reference(
    const Universe& u) {
  std::vector<std::vector<core::ComputeResult>> ref(kNumConfigs);
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    core::AcceleratorConfig cfg;
    cfg.backend = core::Backend::FullSpice;
    core::Accelerator acc(cfg);
    core::DistanceSpec spec;
    spec.kind = kConfigs[c].kind;
    spec.threshold = kConfigs[c].threshold;
    acc.configure(spec);
    for (const auto& pq : u.pairs[c]) {
      ref[c].push_back(acc.try_compute(pq.first, pq.second).unwrap());
    }
  }
  return ref;
}

bool check_identity(const std::vector<TraceEntry>& trace,
                    const ModeResult& mode,
                    const std::vector<std::vector<core::ComputeResult>>& ref) {
  bool all = true;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const core::QueryResponse& r = mode.replies[i];
    if (!r.ok() ||
        !core::bitwise_equal(r.result, ref[trace[i].config][trace[i].pair])) {
      all = false;
    }
  }
  return all;
}

void emit_mode(bench::JsonWriter& w, const std::string& name,
               const ModeResult& m, bool bit_identical) {
  w.begin_object(name, /*one_line=*/true);
  w.field("wall_seconds", m.wall_s);
  w.field("qps", m.qps);
  w.field("p50_ms", m.p50_ms);
  w.field("p99_ms", m.p99_ms);
  w.field("solves", m.solves);
  w.field("collapsed_requests", m.collapsed);
  w.field("responses", m.responses);
  w.field("bit_identical", bit_identical);
  w.end();
}

}  // namespace

int main(int argc, char** argv) {
  const auto queries =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "queries", 600));
  const auto pairs_per_config =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "pairs", 28));
  const auto tenants =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "tenants", 64));
  const auto clients =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "clients", 4));
  const auto window =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "window", 48));
  const auto length =
      static_cast<std::size_t>(bench::flag_value(argc, argv, "length", 4));
  const double zipf_s = bench::flag_value(argc, argv, "zipf", 1.1);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  const Universe u = make_universe(pairs_per_config, length);
  const std::vector<TraceEntry> trace =
      make_trace(queries, pairs_per_config, tenants, zipf_s);

  std::fprintf(stderr,
               "[bench_serve] %zu queries, %zu configs x %zu pairs, "
               "%zu tenants, %zu clients, window %zu, length %zu\n",
               queries, kNumConfigs, pairs_per_config, tenants, clients,
               window, length);

  std::fprintf(stderr, "[bench_serve] mode one_per_solve...\n");
  const ModeResult baseline =
      run_mode(u, trace, /*collapse=*/false, clients, window);
  std::fprintf(stderr,
               "[bench_serve]   %.2fs, %.1f qps, p50 %.1fms p99 %.1fms, "
               "%llu solves\n",
               baseline.wall_s, baseline.qps, baseline.p50_ms, baseline.p99_ms,
               static_cast<unsigned long long>(baseline.solves));

  std::fprintf(stderr, "[bench_serve] mode coalesced (collapse)...\n");
  const ModeResult coalesced =
      run_mode(u, trace, /*collapse=*/true, clients, window);
  std::fprintf(stderr,
               "[bench_serve]   %.2fs, %.1f qps, p50 %.1fms p99 %.1fms, "
               "%llu solves (%llu collapsed)\n",
               coalesced.wall_s, coalesced.qps, coalesced.p50_ms,
               coalesced.p99_ms,
               static_cast<unsigned long long>(coalesced.solves),
               static_cast<unsigned long long>(coalesced.collapsed));

  std::fprintf(stderr, "[bench_serve] direct-API bit-identity reference...\n");
  const auto ref = make_reference(u);
  const bool base_identical = check_identity(trace, baseline, ref);
  const bool coal_identical = check_identity(trace, coalesced, ref);
  const bool all_identical = base_identical && coal_identical;
  const double speedup =
      baseline.qps > 0.0 ? coalesced.qps / baseline.qps : 0.0;

  std::fprintf(stderr,
               "[bench_serve] coalesced speedup %.2fx, bit-identical %s\n",
               speedup, all_identical ? "yes" : "no");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "[bench_serve] cannot open %s\n",
                   json_path.c_str());
      return 1;
    }
    bench::JsonWriter w(out);
    w.begin_object();
    w.field("bench", "serve");
    w.raw("host", bench::host_fingerprint_json());
    w.begin_object("scenario");
    w.field("queries", queries);
    w.field("configs", kNumConfigs);
    w.field("pairs_per_config", pairs_per_config);
    w.field("tenants", tenants);
    w.field("clients", clients);
    w.field("window", window);
    w.field("length", length);
    w.field("zipf_exponent", zipf_s);
    w.field("backend", "fullspice");
    w.end();
    w.begin_object("modes");
    emit_mode(w, "one_per_solve", baseline, base_identical);
    emit_mode(w, "coalesced", coalesced, coal_identical);
    w.end();
    w.field("coalesced_speedup", speedup);
    w.field("all_bit_identical", all_identical);
    w.end();
    std::fprintf(stderr, "[bench_serve] wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 2;
}
