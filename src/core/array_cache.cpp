#include "core/array_cache.hpp"

#include <bit>
#include <utility>

#include "core/dc_harness.hpp"
#include "obs/metrics.hpp"

namespace mda::core {
namespace {

// Process-wide mda.cache.* metrics; several caches (one per Accelerator,
// serve replica or campaign) aggregate into the same counters, and the
// gauges track the sum of all live caches via signed deltas.
const obs::Counter& hits_ctr() {
  static const obs::Counter c("mda.cache.hits");
  return c;
}
const obs::Counter& misses_ctr() {
  static const obs::Counter c("mda.cache.misses");
  return c;
}
const obs::Counter& evictions_ctr() {
  static const obs::Counter c("mda.cache.evictions");
  return c;
}

/// Sum of every live cache's resident bytes and entries, behind the
/// mda.cache.bytes / mda.cache.entries gauges.
struct GaugeTotals {
  std::mutex mu;
  std::size_t bytes = 0;
  std::size_t entries = 0;

  /// Replace one cache's share (`bytes_share`, `entries_share`) with its
  /// new values and publish the totals.
  void move_share(std::size_t& bytes_share, std::size_t bytes_now,
                  std::size_t& entries_share, std::size_t entries_now) {
    static const obs::Gauge bytes_gauge("mda.cache.bytes");
    static const obs::Gauge entries_gauge("mda.cache.entries");
    const std::lock_guard<std::mutex> lock(mu);
    bytes = bytes - bytes_share + bytes_now;
    entries = entries - entries_share + entries_now;
    bytes_share = bytes_now;
    entries_share = entries_now;
    bytes_gauge.set(static_cast<double>(bytes));
    entries_gauge.set(static_cast<double>(entries));
  }
};

GaugeTotals& gauge_totals() {
  static GaugeTotals totals;
  return totals;
}

/// splitmix64 avalanche.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct KeyFolder {
  std::uint64_t lo = 0x8f3ad1c2e96f104bULL;
  std::uint64_t hi = 0x42d7c9a5b31e88f7ULL;

  void fold(std::uint64_t v) {
    lo = mix64(lo ^ v);
    hi = mix64(hi ^ mix64(v));
  }
  void fold_double(double v) { fold(std::bit_cast<std::uint64_t>(v)); }
};

}  // namespace

InstanceKey make_instance_key(const AcceleratorConfig& cfg,
                              const DistanceSpec& spec,
                              const EncodedInputs& enc) {
  KeyFolder f;
  f.fold(static_cast<std::uint64_t>(spec.kind));
  f.fold(enc.q_volts.size());  // Row arrays are square: m == n.
  f.fold_double(spec.threshold * cfg.voltage_resolution);
  f.fold_double(enc.vstep_eff);
  f.fold(spec.elem_weights ? weights_digest(*spec.elem_weights) : 0);
  return InstanceKey{f.lo, f.hi};
}

void ArrayCache::Lease::release() {
  if (cache_ && inst_) {
    cache_->give_back(key_, std::move(inst_));
  }
  inst_.reset();
  cache_.reset();
}

ArrayCache::Lease ArrayCache::checkout(const std::shared_ptr<ArrayCache>& cache,
                                       const InstanceKey& key) {
  Lease lease;
  lease.key_ = key;
  if (cache && cache->capacity_ > 0) {
    lease.inst_ = cache->take(key);
    lease.cache_ = cache;
  }
  if (!lease.inst_) lease.inst_ = std::make_unique<RowWavefrontInstance>();
  return lease;
}

std::unique_ptr<RowWavefrontInstance> ArrayCache::take(
    const InstanceKey& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    it = entries_.emplace(key, Entry{}).first;
    it->second.last_use = ++tick_;
    evict_to_capacity_locked();
    ++stats_.misses;
    misses_ctr().add();
    publish_gauges_locked();
    return nullptr;
  }
  it->second.last_use = ++tick_;
  if (it->second.idle.empty()) {
    // Entry known, but every instance is checked out by another worker:
    // the pool grows by one build.
    ++stats_.misses;
    misses_ctr().add();
    return nullptr;
  }
  std::unique_ptr<RowWavefrontInstance> inst =
      std::move(it->second.idle.back());
  it->second.idle.pop_back();
  ++stats_.hits;
  hits_ctr().add();
  stats_.resident_bytes -= std::min(stats_.resident_bytes,
                                    inst->approx_bytes());
  publish_gauges_locked();
  return inst;
}

void ArrayCache::give_back(const InstanceKey& key,
                           std::unique_ptr<RowWavefrontInstance> inst) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;  // evicted while checked out: drop
  stats_.resident_bytes += inst->approx_bytes();
  it->second.idle.push_back(std::move(inst));
  publish_gauges_locked();
}

void ArrayCache::evict_to_capacity_locked() {
  while (capacity_ > 0 && entries_.size() > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;
    for (const auto& inst : victim->second.idle) {
      stats_.resident_bytes -=
          std::min(stats_.resident_bytes, inst->approx_bytes());
    }
    entries_.erase(victim);
    ++stats_.evictions;
    evictions_ctr().add();
  }
}

ArrayCache::~ArrayCache() {
  gauge_totals().move_share(published_bytes_, 0, published_entries_, 0);
}

void ArrayCache::publish_gauges_locked() {
  gauge_totals().move_share(published_bytes_, stats_.resident_bytes,
                            published_entries_, entries_.size());
}

ArrayCache::Stats ArrayCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

}  // namespace mda::core
