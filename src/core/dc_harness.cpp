#include "core/dc_harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "blocks/diode_select.hpp"
#include "blocks/subtractor.hpp"
#include "core/pe.hpp"
#include "obs/metrics.hpp"

namespace mda::core {

using spice::NodeId;

void DcHarness::finalize() {
  factory_->finalize_parasitics();
  mna_ = std::make_unique<spice::MnaSystem>(net_);
  newton_ = std::make_unique<spice::NewtonSolver>(*mna_);
  x_.assign(static_cast<std::size_t>(mna_->num_unknowns()), 0.0);
  warm_ = false;
}

double DcHarness::solve_out() {
  static const obs::Counter cell_solves("mda.backend.wavefront_cell_solves");
  static const obs::Counter restarts("mda.backend.wavefront_cold_restarts");
  cell_solves.add();
  if (!warm_) {
    for (auto& dev : net_.devices()) dev->reset_state();
  }
  spice::NewtonResult r = newton_->solve(x_, 0.0, 0.0, /*dc=*/true);
  newton_total += r.iterations;
  if (r.used_fallback) ++fallback_total;
  if (!r.converged) {
    // Cold restart once before giving up.
    restarts.add();
    std::fill(x_.begin(), x_.end(), 0.0);
    r = newton_->solve(x_, 0.0, 0.0, /*dc=*/true);
    newton_total += r.iterations;
    if (r.used_fallback) ++fallback_total;
    if (!r.converged) {
      warm_ = false;
      throw std::runtime_error("wavefront: DC solve failed to converge");
    }
  }
  warm_ = true;
  return x_[static_cast<std::size_t>(out_)];
}

NodeId add_source(DcHarness& h, const std::string& name) {
  const NodeId node = h.net_.node(name);
  h.sources_.push_back(&h.net_.add<spice::VSource>(node, spice::kGround,
                                                   spice::Waveform::dc(0.0)));
  return node;
}

void set_sources(DcHarness& h, std::initializer_list<double> values) {
  if (values.size() != h.sources_.size()) {
    throw std::logic_error("wavefront: source count mismatch");
  }
  std::size_t k = 0;
  for (double v : values) {
    h.sources_[k++]->set_waveform(spice::Waveform::dc(v));
  }
}

std::unique_ptr<DcHarness> make_matrix_pe_harness(dist::DistanceKind kind,
                                                  const AcceleratorConfig& cfg,
                                                  double vthre_volts,
                                                  double vstep_volts,
                                                  double weight) {
  auto h = std::make_unique<DcHarness>();
  h->factory_ = std::make_unique<blocks::BlockFactory>(h->net_, cfg.env);
  MatrixPeInputs in;
  in.p = add_source(*h, "in/p");
  in.q = add_source(*h, "in/q");
  in.left = add_source(*h, "in/left");
  in.up = add_source(*h, "in/up");
  in.diag = add_source(*h, "in/diag");
  PeBias bias;
  bias.vthre = h->factory_->bias(vthre_volts, "bias/vthre");
  bias.vstep = h->factory_->bias(vstep_volts, "bias/vstep");
  PeBuild pe;
  switch (kind) {
    case dist::DistanceKind::Dtw:
      pe = build_dtw_pe(*h->factory_, in, weight, "pe");
      break;
    case dist::DistanceKind::Lcs:
      pe = build_lcs_pe(*h->factory_, in, bias, weight, "pe");
      break;
    case dist::DistanceKind::Edit:
      pe = build_edit_pe(*h->factory_, in, bias, weight, "pe");
      break;
    default:
      throw std::logic_error("not a matrix PE kind");
  }
  h->out_ = pe.out;
  h->finalize();
  return h;
}

std::unique_ptr<DcHarness> make_haud_column_harness(
    const AcceleratorConfig& cfg, std::size_t m,
    const std::vector<double>& weights) {
  auto h = std::make_unique<DcHarness>();
  h->factory_ = std::make_unique<blocks::BlockFactory>(h->net_, cfg.env);
  std::vector<NodeId> comp_outs;
  comp_outs.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId p = add_source(*h, "in/p" + std::to_string(i));
    const NodeId q = add_source(*h, "in/q" + std::to_string(i));
    PeBuild pe = build_hausdorff_pe(*h->factory_, p, q, weights[i],
                                    "pe_" + std::to_string(i));
    comp_outs.push_back(pe.out);
  }
  blocks::DiodeMaxHandles col_max =
      blocks::make_diode_max(*h->factory_, comp_outs, "colmax");
  h->out_ = blocks::make_diff_amp(*h->factory_, h->factory_->rails().vcc,
                                  col_max.out, 1.0, "conv")
                .out;
  h->finalize();
  return h;
}

std::unique_ptr<DcHarness> make_haud_finmax_harness(
    const AcceleratorConfig& cfg, std::size_t n) {
  auto h = std::make_unique<DcHarness>();
  h->factory_ = std::make_unique<blocks::BlockFactory>(h->net_, cfg.env);
  std::vector<NodeId> fin_inputs;
  for (std::size_t j = 0; j < n; ++j) {
    fin_inputs.push_back(add_source(*h, "in/c" + std::to_string(j)));
  }
  h->out_ = blocks::make_diode_max(*h->factory_, fin_inputs, "max").out;
  h->finalize();
  return h;
}

double quantize_weight(double w) {
  if (w == 0.0) return 0.0;  // normalise -0 to +0
  if (!std::isfinite(w)) return w;
  // Round-to-nearest at mantissa bit 40 of 52: values already exact at that
  // precision (every hand-written weight) pass through unchanged, while
  // ~2^-40 relative round-off noise collapses onto one representative.
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 11;
  constexpr std::uint64_t kMask = ~((std::uint64_t{1} << 12) - 1);
  std::uint64_t bits = std::bit_cast<std::uint64_t>(w);
  bits = (bits + kHalf) & kMask;
  return std::bit_cast<double>(bits);
}

std::uint64_t weight_key(double w) {
  return std::bit_cast<std::uint64_t>(quantize_weight(w));
}

std::uint64_t weights_digest(const std::vector<double>& weights) {
  // splitmix64-style fold over the quantized bit patterns.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + weights.size();
  for (double w : weights) {
    std::uint64_t x = h ^ weight_key(w);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h = x ^ (x >> 31);
  }
  return h;
}

}  // namespace mda::core
