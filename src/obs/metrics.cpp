#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace mda::obs {
namespace {

// Fixed capacities keep shard storage stable for lock-free writes: a shard
// never reallocates, so a concurrent collect() can read its slots safely.
// Every thread's shard is value-initialised (histogram min/max start at
// +-inf), so all of it is resident: at 544 B a histogram slot, 32 slots keep
// a shard near 20 KB, with room over the 13 histograms src/ registers.
constexpr std::size_t kMaxMetrics = 256;
constexpr std::size_t kMaxHistograms = 32;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::atomic<bool> g_enabled{true};

void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

int bucket_of(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;
  return std::clamp(std::ilogb(v) - kHistMinExp, 0, kHistBuckets - 1);
}

/// Per-histogram accumulation cell.
struct HistSlot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{kInf};
  std::atomic<double> max{-kInf};
  std::atomic<std::uint64_t> buckets[kHistBuckets]{};

  void zero() {
    count.store(0, std::memory_order_relaxed);
    sum.store(0.0, std::memory_order_relaxed);
    min.store(kInf, std::memory_order_relaxed);
    max.store(-kInf, std::memory_order_relaxed);
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

/// One thread's private accumulation area.
struct Shard {
  std::atomic<std::uint64_t> counters[kMaxMetrics]{};
  HistSlot hists[kMaxHistograms];

  void zero() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : hists) h.zero();
  }
};

/// Plain (non-atomic) accumulation of exited threads' shards.
struct Retired {
  std::uint64_t counters[kMaxMetrics]{};
  struct {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = kInf;
    double max = -kInf;
    std::uint64_t buckets[kHistBuckets]{};
  } hists[kMaxHistograms];
};

struct MetricDef {
  std::string name;
  MetricKind kind;
  std::size_t hist_index = 0;  ///< Dense sub-index when kind == Histogram.
};

class Registry {
 public:
  std::size_t register_metric(const std::string& name, MetricKind kind) {
    std::lock_guard<std::mutex> lk(mutex_);
    return register_locked(name, kind);
  }

  std::size_t register_histogram(const std::string& name) {
    std::lock_guard<std::mutex> lk(mutex_);
    return defs_[register_locked(name, MetricKind::Histogram)].hist_index;
  }
 private:
  std::size_t register_locked(const std::string& name, MetricKind kind) {
    auto it = by_name_.find(name);
    if (it != by_name_.end()) {
      if (defs_[it->second].kind != kind) {
        throw std::logic_error("obs: metric '" + name +
                               "' re-registered with a different kind");
      }
      return it->second;
    }
    if (defs_.size() >= kMaxMetrics) {
      throw std::length_error("obs: metric capacity exhausted");
    }
    MetricDef def{name, kind, 0};
    if (kind == MetricKind::Histogram) {
      if (num_histograms_ >= kMaxHistograms) {
        throw std::length_error("obs: histogram capacity exhausted");
      }
      def.hist_index = num_histograms_++;
    }
    defs_.push_back(std::move(def));
    const std::size_t id = defs_.size() - 1;
    by_name_.emplace(name, id);
    return id;
  }

 public:

  Shard* acquire_shard() {
    auto shard = std::make_unique<Shard>();
    Shard* raw = shard.get();
    std::lock_guard<std::mutex> lk(mutex_);
    live_.push_back(std::move(shard));
    return raw;
  }

  void release_shard(Shard* shard) {
    std::lock_guard<std::mutex> lk(mutex_);
    merge_into_retired(*shard);
    auto it = std::find_if(live_.begin(), live_.end(),
                           [&](const auto& s) { return s.get() == shard; });
    if (it != live_.end()) live_.erase(it);
  }

  // Gauges are registry-global (a set is one relaxed store; gauges are
  // low-rate status values, and "last write wins" across threads is the
  // semantics we want — per-shard gauges would have no meaningful merge).
  void gauge_set(std::size_t id, double v) {
    gauges_[id].store(v, std::memory_order_relaxed);
  }

  std::vector<MetricValue> collect() {
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<MetricValue> out;
    out.reserve(defs_.size());
    for (std::size_t id = 0; id < defs_.size(); ++id) {
      const MetricDef& def = defs_[id];
      MetricValue mv;
      mv.name = def.name;
      mv.kind = def.kind;
      switch (def.kind) {
        case MetricKind::Counter: {
          std::uint64_t total = retired_.counters[id];
          for (const auto& s : live_) {
            total += s->counters[id].load(std::memory_order_relaxed);
          }
          mv.count = total;
          break;
        }
        case MetricKind::Gauge:
          mv.value = gauges_[id].load(std::memory_order_relaxed);
          break;
        case MetricKind::Histogram: {
          const std::size_t h = def.hist_index;
          mv.buckets.assign(static_cast<std::size_t>(kHistBuckets), 0);
          const auto& rh = retired_.hists[h];
          mv.count = rh.count;
          mv.sum = rh.sum;
          double mn = rh.min;
          double mx = rh.max;
          for (int b = 0; b < kHistBuckets; ++b) {
            mv.buckets[static_cast<std::size_t>(b)] += rh.buckets[b];
          }
          for (const auto& s : live_) {
            const HistSlot& hs = s->hists[h];
            mv.count += hs.count.load(std::memory_order_relaxed);
            mv.sum += hs.sum.load(std::memory_order_relaxed);
            mn = std::min(mn, hs.min.load(std::memory_order_relaxed));
            mx = std::max(mx, hs.max.load(std::memory_order_relaxed));
            for (int b = 0; b < kHistBuckets; ++b) {
              mv.buckets[static_cast<std::size_t>(b)] +=
                  hs.buckets[b].load(std::memory_order_relaxed);
            }
          }
          mv.min = mv.count > 0 ? mn : 0.0;
          mv.max = mv.count > 0 ? mx : 0.0;
          break;
        }
      }
      out.push_back(std::move(mv));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricValue& a, const MetricValue& b) {
                return a.name < b.name;
              });
    return out;
  }

  void reset() {
    std::lock_guard<std::mutex> lk(mutex_);
    retired_ = Retired{};
    for (auto& s : live_) s->zero();
    for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
  }

 private:
  void merge_into_retired(const Shard& s) {
    for (std::size_t id = 0; id < kMaxMetrics; ++id) {
      retired_.counters[id] += s.counters[id].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kMaxHistograms; ++h) {
      const HistSlot& hs = s.hists[h];
      auto& rh = retired_.hists[h];
      rh.count += hs.count.load(std::memory_order_relaxed);
      rh.sum += hs.sum.load(std::memory_order_relaxed);
      rh.min = std::min(rh.min, hs.min.load(std::memory_order_relaxed));
      rh.max = std::max(rh.max, hs.max.load(std::memory_order_relaxed));
      for (int b = 0; b < kHistBuckets; ++b) {
        rh.buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
      }
    }
  }

  std::mutex mutex_;
  std::vector<MetricDef> defs_;
  std::unordered_map<std::string, std::size_t> by_name_;
  std::size_t num_histograms_ = 0;
  std::vector<std::unique_ptr<Shard>> live_;
  Retired retired_;
  std::atomic<double> gauges_[kMaxMetrics]{};
};

// Leaked on purpose: instrumented code in static destructors and exiting
// thread-locals may still touch the registry during shutdown.
Registry& registry() {
  static Registry* g = new Registry;
  return *g;
}

/// Thread-local shard handle; retires its shard on thread exit.
struct ShardOwner {
  Shard* shard;
  ShardOwner() : shard(registry().acquire_shard()) {}
  ~ShardOwner() { registry().release_shard(shard); }
};

Shard& local_shard() {
  thread_local ShardOwner owner;
  return *owner.shard;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

namespace detail {

std::size_t register_metric(const std::string& name, MetricKind kind) {
  return registry().register_metric(name, kind);
}

void counter_add(std::size_t id, std::uint64_t n) {
  local_shard().counters[id].fetch_add(n, std::memory_order_relaxed);
}

void gauge_set(std::size_t id, double v) { registry().gauge_set(id, v); }

std::size_t register_histogram(const std::string& name) {
  return registry().register_histogram(name);
}

void histogram_observe(std::size_t hist_index, double v) {
  HistSlot& h = local_shard().hists[hist_index];
  h.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(h.sum, v);
  atomic_min_double(h.min, v);
  atomic_max_double(h.max, v);
  h.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace detail

std::vector<MetricValue> collect() { return registry().collect(); }
void reset() { registry().reset(); }

}  // namespace mda::obs
