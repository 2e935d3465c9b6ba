#pragma once
// DC harnesses for the wavefront backend (DESIGN.md §3, §11): a single PE
// (or auxiliary stage) circuit with source-driven inputs, DC-solved once per
// wavefront cell.  Every harness is built per query; within one query a
// harness is reused cell after cell, warm-starting from the last solution.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blocks/factory.hpp"
#include "core/config.hpp"
#include "spice/mna.hpp"
#include "spice/newton.hpp"
#include "spice/primitives.hpp"

namespace mda::core {

/// Warm-starts Newton from the previous cell's solution — neighbouring
/// cells sit at similar operating points.
class DcHarness {
 public:
  DcHarness() : factory_(nullptr) {}

  /// Finish construction after the builder populated the netlist.
  void finalize();

  double solve_out();

  spice::Netlist net_;
  std::unique_ptr<blocks::BlockFactory> factory_;
  std::vector<spice::VSource*> sources_;
  spice::NodeId out_ = spice::kGround;
  long newton_total = 0;    ///< Newton iterations across all solves.
  long fallback_total = 0;  ///< Solves that needed gmin/source stepping.

 private:
  std::unique_ptr<spice::MnaSystem> mna_;
  std::unique_ptr<spice::NewtonSolver> newton_;
  std::vector<double> x_;
  bool warm_ = false;
};

/// Add a source-driven input node.
spice::NodeId add_source(DcHarness& h, const std::string& name);

void set_sources(DcHarness& h, std::initializer_list<double> values);

/// Build a matrix-PE harness: sources are (p, q, left, up, diag).
std::unique_ptr<DcHarness> make_matrix_pe_harness(dist::DistanceKind kind,
                                                  const AcceleratorConfig& cfg,
                                                  double vthre_volts,
                                                  double vstep_volts,
                                                  double weight);

/// HauD column harness: m PE (p, q) source pairs feeding the shared column
/// diode-OR rail, followed by the converter — one DC solve per column.
/// Sources are ordered p_0, q_0, p_1, q_1, ...
std::unique_ptr<DcHarness> make_haud_column_harness(
    const AcceleratorConfig& cfg, std::size_t m,
    const std::vector<double>& weights);

/// HauD final stage: diode max over the n column outputs.
std::unique_ptr<DcHarness> make_haud_finmax_harness(
    const AcceleratorConfig& cfg, std::size_t n);

/// Weight canonicalisation shared by the harness cache and the ArrayCache
/// key: round the mantissa to 40 bits (normalising -0 to +0) so weights that
/// differ only by trailing rounding noise — e.g. re-derived from a tuned
/// memristance — land on the same key.  Harnesses are built from the
/// *quantized* value, keeping key <-> circuit bijective.
double quantize_weight(double w);

/// Bit pattern of quantize_weight(w): the exact per-weight cache key.
std::uint64_t weight_key(double w);

/// Digest of a whole weights vector (HauD columns, ArrayCache keys).
std::uint64_t weights_digest(const std::vector<double>& weights);

/// Per-query, per-weight harness pool (weights are usually all 1.0), keyed
/// by weight_key() so round-off-equal weights share one harness.
class HarnessCache {
 public:
  template <typename MakeFn>
  DcHarness& get(std::uint64_t key, MakeFn&& make) {
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, make()).first;
    }
    return *it->second;
  }

  [[nodiscard]] long total_newton() const {
    long total = 0;
    for (const auto& [k, h] : cache_) total += h->newton_total;
    return total;
  }

  [[nodiscard]] long total_fallbacks() const {
    long total = 0;
    for (const auto& [k, h] : cache_) total += h->fallback_total;
    return total;
  }

 private:
  std::map<std::uint64_t, std::unique_ptr<DcHarness>> cache_;
};

}  // namespace mda::core
