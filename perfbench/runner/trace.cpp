#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common.hpp"
#include "core/backend.hpp"
#include "distance/registry.hpp"

namespace pb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::begin(const std::string& name, std::int64_t parent,
                           std::uint64_t request) {
  if (!on_) return -1;
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, t, 0.0, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Span> all = spans();
  const double t0 = all.empty() ? 0.0 : all.front().start;
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %lld, \"request\": %llu}",
                  i, s.name.c_str(), s.start - t0, s.end - t0,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << "  " << buf << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> attribute(const std::vector<Span>& spans,
                                        std::int64_t root) {
  std::map<std::string, double> out;
  if (root < 0) return out;
  const Span& r = spans[static_cast<std::size_t>(root)];
  // Descendants of the root, by walking each span's parent chain.
  std::vector<std::size_t> desc;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::int64_t p = spans[i].parent;
    while (p >= 0 && p != root) p = spans[static_cast<std::size_t>(p)].parent;
    if (p == root && static_cast<std::int64_t>(i) != root) desc.push_back(i);
  }
  std::set<double> cuts{r.start, r.end};
  for (std::size_t i : desc) {
    cuts.insert(std::clamp(spans[i].start, r.start, r.end));
    cuts.insert(std::clamp(spans[i].end, r.start, r.end));
  }
  const std::vector<double> t(cuts.begin(), cuts.end());
  std::vector<char> active(spans.size(), 0);
  std::vector<char> has_active_child(spans.size(), 0);
  for (std::size_t k = 0; k + 1 < t.size(); ++k) {
    const double a = t[k];
    const double b = t[k + 1];
    std::fill(has_active_child.begin(), has_active_child.end(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i : desc) {
      active[i] = spans[i].start <= a && spans[i].end >= b;
      if (active[i]) open.push_back(i);
    }
    for (std::size_t i : open) {
      const std::int64_t p = spans[i].parent;
      if (p >= 0) has_active_child[static_cast<std::size_t>(p)] = 1;
    }
    std::vector<std::size_t> leaves;
    for (std::size_t i : open) {
      if (!has_active_child[i]) leaves.push_back(i);
    }
    if (leaves.empty()) {
      out["<root>"] += b - a;
      continue;
    }
    const double share = (b - a) / static_cast<double>(leaves.size());
    for (std::size_t i : leaves) out[spans[i].name] += share;
    for (std::size_t i : open) active[i] = 0;
  }
  return out;
}

double span_total(const std::vector<Span>& spans, const std::string& name,
                  std::size_t* count) {
  double total = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans) {
    if (s.name == name) {
      total += s.end - s.start;
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  return total;
}

double mean_span(const std::vector<Span>& spans, const std::string& name) {
  std::size_t n = 0;
  const double total = span_total(spans, name, &n);
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

Counters Counters::capture() {
  Counters c;
  for (mda::obs::MetricValue& v : mda::obs::collect()) {
    c.m_[v.name] = std::move(v);
  }
  return c;
}

double Counters::count(const std::string& name) const {
  const auto it = m_.find(name);
  return it == m_.end() ? 0.0 : static_cast<double>(it->second.count);
}

double Counters::sum(const std::string& name) const {
  const auto it = m_.find(name);
  return it == m_.end() ? 0.0 : it->second.sum;
}

double Counters::gauge(const std::string& name) const {
  const auto it = m_.find(name);
  return it == m_.end() ? 0.0 : it->second.value;
}

namespace {

const char* const kKinds[] = {"DTW", "LCS", "EdD", "HauD", "HamD", "MD"};

/// mda.spice.<name> counters reported as spice.<name>.
const char* const kSpiceCounts[] = {
    "newton_iterations",  "newton_solves",        "transient_steps",
    "transient_rejects",  "sparse_lu_factors",    "sparse_lu_refactors",
    "sparse_lu_solves",   "refactor_fallbacks",   "lu_stream_reuses",
    "mna_pattern_builds", "batch_lockstep_lanes", "batch_dense_lanes",
    "batch_scalar_evictions"};

}  // namespace

void zero_fill_layers(Report& rep) {
  const char* const plain[] = {
      "serve.requests", "serve.solves", "serve.collapsed", "serve.rejected",
      "serve.solves_per_request", "serve.window_mean",
      "serve.server_latency_mean_ms", "serve.client_overhead_mean_ms",
      "batch_engine.call_s", "batch_engine.tasks",
      "batch_engine.lockstep_groups", "batch_engine.busy_ratio",
      "batch_engine.queue_wait_mean_ms", "accelerator.lockstep_call_ms",
      "accelerator.self_s", "accelerator.lanes_batched_ratio",
      "accelerator.hw_settle_ns", "accelerator.rel_error_mean",
      "accelerator.knn_label_agreement", "array_cache.hits", "array_cache.misses",
      "array_cache.evictions", "array_cache.hit_ratio", "array_cache.bytes",
      "array_cache.cold_query_ms", "array_cache.warm_query_ms",
      "backend.encode_us", "backend.wavefront_ms_per_query",
      "backend.behavioral_us_per_query", "backend.wavefront_cell_solves",
      "backend.wavefront_cold_restarts", "spice.refactor_ratio",
      "matrix_profile.pairs", "matrix_profile.pruned_lb_kim",
      "matrix_profile.pruned_lb_keogh", "matrix_profile.abandoned",
      "matrix_profile.evaluated", "matrix_profile.prune_ratio",
      "trace.coverage", "trace.overhead_ratio"};
  for (const char* name : plain) rep.metrics[name] = 0.0;
  for (const char* c : kSpiceCounts) {
    rep.metrics[std::string("spice.") + c] = 0.0;
  }
  for (const char* k : kKinds) {
    rep.metrics[std::string("backend.fullspice_ms_per_lane.") + k] = 0.0;
    rep.metrics[std::string("spice.us_per_newton_iter.") + k] = 0.0;
    rep.metrics[std::string("matrix_profile.call_s.") + k] = 0.0;
    rep.metrics[std::string("distance.kernel_ns.") + k] = 0.0;
  }
}

void spice_layer(const Counters& a, const Counters& b, Report& rep) {
  for (const char* c : kSpiceCounts) {
    rep.metrics[std::string("spice.") + c] =
        delta(a, b, std::string("mda.spice.") + c);
  }
  const double factors = delta(a, b, "mda.spice.sparse_lu_factors");
  const double refactors = delta(a, b, "mda.spice.sparse_lu_refactors");
  rep.metrics["spice.refactor_ratio"] =
      factors + refactors > 0.0 ? refactors / (factors + refactors) : 0.0;
}

void cache_layer(const Counters& a, const Counters& b, Report& rep) {
  const double lanes = delta(a, b, "mda.accel.lockstep_lanes");
  const double scalar_lanes = delta(a, b, "mda.accel.lockstep_scalar_lanes");
  rep.metrics["accelerator.lanes_batched_ratio"] =
      lanes + scalar_lanes > 0 ? lanes / (lanes + scalar_lanes) : 0.0;
  const double hits = delta(a, b, "mda.cache.hits");
  const double misses = delta(a, b, "mda.cache.misses");
  rep.metrics["array_cache.hits"] = hits;
  rep.metrics["array_cache.misses"] = misses;
  rep.metrics["array_cache.evictions"] = delta(a, b, "mda.cache.evictions");
  rep.metrics["array_cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void engine_layer(const Counters& a, const Counters& b, std::size_t threads,
                  double call_s, Report& rep) {
  rep.metrics["batch_engine.call_s"] = call_s;
  rep.metrics["batch_engine.busy_ratio"] =
      call_s > 0 ? delta_sum(a, b, "mda.batch.chunk_time_s") /
                       (static_cast<double>(threads) * call_s)
                 : 0.0;
  const double waits = delta(a, b, "mda.batch.queue_wait_s");
  rep.metrics["batch_engine.queue_wait_mean_ms"] =
      waits > 0 ? delta_sum(a, b, "mda.batch.queue_wait_s") / waits * 1e3
                : 0.0;
}

std::vector<LaneReplay> replay_fullspice(
    Tracer& t, const mda::core::Accelerator& acc,
    std::span<const mda::core::QueryRequest> group, std::int64_t parent,
    std::uint64_t request) {
  namespace core = mda::core;
  std::vector<core::EncodedInputs> encs;
  for (const core::QueryRequest& q : group) {
    ScopedSpan s(t, "backend.encode", parent, request);
    encs.push_back(core::encode_inputs(acc.config(), acc.spec(), q.p, q.q));
  }
  std::vector<LaneReplay> out(group.size());
  {
    ScopedSpan s(t, "backend.fullspice." + mda::dist::kind_name(acc.spec().kind),
                 parent, request);
    std::vector<core::AnalogEval> evals =
        core::eval_full_spice_batch(acc.config(), acc.spec(), encs);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].eval = std::move(evals[i]);
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    ScopedSpan s(t, "backend.decode", parent, request);
    out[i].value = core::decode_output(acc.config(), acc.spec(),
                                       out[i].eval.out_volts, encs[i]);
  }
  return out;
}

void fullspice_layer(const std::string& kind, double seconds, double lanes,
                     double newton_iterations, Report& rep) {
  rep.metrics["backend.fullspice_ms_per_lane." + kind] =
      lanes > 0 ? seconds / lanes * 1e3 : 0.0;
  rep.metrics["spice.us_per_newton_iter." + kind] =
      newton_iterations > 0 ? seconds / newton_iterations * 1e6 : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace pb
