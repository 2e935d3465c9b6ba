#pragma once
// Cross-query instance cache (DESIGN.md §11).  The paper's configure-once,
// stream-many deployment (Fig. 1, §3.3) is modelled by
// Accelerator::configuration_time_s(); this pool is a simulator-side
// optimisation that keeps only what measurably pays: wavefront DcHarness
// pools (DTW/LCS/EdD) and whole row arrays (HamD/MD), keyed by the
// configuration that shaped them, so their netlists, MNA pattern tapes and
// cross-query LU carry survive between same-configuration queries.
// FullSpice arrays and HauD harnesses are built per query: every FullSpice
// query switches its MNA pattern from DC to transient, so pooling saved no
// solver structure there.
//
// Contract: a result computed through a cached instance is bitwise equal to
// a fresh-build result (enforced by tests/test_array_cache.cpp).  Instances
// therefore reset all *numeric* state between queries (device states,
// warm-start vectors, LU pivot memory) and keep only the *structural* work
// (netlists, MNA pattern tapes, allocations), which is input-independent.
// No pooled instance depends on the fault plan or the attempt (cell faults
// apply to measured values), so a scrub keeps the pool.
//
// Concurrency: checkout/return leases hand each batch worker its own
// instance — concurrent checkouts of one key grow a per-key pool, so no
// instance is ever shared between threads mid-query.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/array_builder.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/dc_harness.hpp"
#include "spice/transient.hpp"

namespace mda::core {

/// 128-bit configuration digest; folded from every configuration field the
/// built circuits depend on (see make_instance_key).
struct InstanceKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const InstanceKey& a, const InstanceKey& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator<(const InstanceKey& a, const InstanceKey& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// What kind of circuit an entry holds (folded into the key).
enum class InstanceType : std::uint8_t {
  MatrixWavefront = 1,  ///< Per-weight matrix-PE harness pool.
  RowWavefront = 2,     ///< Whole row array, DC operating point.
};

/// Fold the cache key for one (instance type, configuration, query shape).
/// Covers: kind, m, n, threshold, band, array geometry, voltage encoding
/// (voltage_resolution / vstep / v_max / effective vstep / range scale),
/// converter bits, quantisation flags and the weights digest.  `env` is not
/// folded: a cache never outlives the AcceleratorConfig that created it
/// with one fixed env.
InstanceKey make_instance_key(InstanceType type, const AcceleratorConfig& cfg,
                              const DistanceSpec& spec,
                              const EncodedInputs& enc, std::size_t m,
                              std::size_t n);

class ArrayCache {
 public:
  /// A cached circuit instance.  Concrete subtypes below.
  class Instance {
   public:
    virtual ~Instance() = default;
    /// Rough resident footprint (mda.cache.bytes gauge).
    [[nodiscard]] virtual std::size_t approx_bytes() const { return 0; }
  };

  using BuildFn = std::function<std::unique_ptr<Instance>()>;

  /// Exclusive hold on an instance; returns it to the cache on destruction
  /// (or deletes it when cache-less / the entry was evicted meanwhile).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] Instance* get() const { return inst_.get(); }

   private:
    friend class ArrayCache;
    void release();

    std::shared_ptr<ArrayCache> cache_;  ///< null = locally owned instance.
    InstanceKey key_{};
    std::unique_ptr<Instance> inst_;
  };

  explicit ArrayCache(std::size_t capacity) : capacity_(capacity) {}
  /// Withdraws this cache's share from the process-wide gauges.
  ~ArrayCache();

  /// Check an instance out of `cache` for `key`, building one with `build`
  /// on miss (outside the cache lock).  A null `cache` degrades to a
  /// fresh-build-per-query lease — callers use one code path either way.
  static Lease checkout(const std::shared_ptr<ArrayCache>& cache,
                        const InstanceKey& key, const BuildFn& build);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t builds_avoided = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t resident_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::vector<std::unique_ptr<Instance>> idle;
    std::uint64_t last_use = 0;
  };

  /// Pop an idle instance for `key` (hit), or register a miss.  Returns
  /// null when the caller must build.
  std::unique_ptr<Instance> take(const InstanceKey& key);
  void give_back(const InstanceKey& key, std::unique_ptr<Instance> inst);
  /// Pre: mu_ held.  Evict least-recently-used entries down to capacity.
  void evict_to_capacity_locked();
  /// Pre: mu_ held.  Move this cache's share of the process-wide
  /// mda.cache.bytes / mda.cache.entries totals to its current stats.
  void publish_gauges_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<InstanceKey, Entry> entries_;
  Stats stats_{};
  /// This cache's share of the gauges' process-wide totals.
  std::size_t published_bytes_ = 0;
  std::size_t published_entries_ = 0;
};

// ------------------------------------------------------------ instances --

/// Matrix wavefront (DTW/LCS/EdD): per-weight single-PE harness pool.
struct MatrixWavefrontInstance : ArrayCache::Instance {
  HarnessCache harnesses;

  void begin_query() { harnesses.reset_all(); }
  [[nodiscard]] std::size_t approx_bytes() const override {
    return harnesses.approx_bytes();
  }
};

/// Row wavefront (HamD/MD): the built row array plus a persistent simulator
/// whose MNA structure cache and LU carry survive queries.
struct RowWavefrontInstance : ArrayCache::Instance {
  ArrayCircuit array;
  std::unique_ptr<spice::TransientSimulator> sim;
  bool built = false;

  /// Discard cross-query solver state.  Device states are reset by the
  /// simulator itself at the start of every run()/dc_operating_point().
  void begin_query() {
    if (sim) sim->mna().reset_solver_state();
  }
  [[nodiscard]] std::size_t approx_bytes() const override {
    if (!built) return 0;
    return array.net->num_devices() * 256 +
           static_cast<std::size_t>(sim ? sim->mna().num_unknowns() : 0) * 64;
  }
};

}  // namespace mda::core
