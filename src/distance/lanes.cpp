#include "distance/lanes.hpp"

#include <stdexcept>
#include <vector>

#include "distance/dtw.hpp"
#include "distance/lanes_simd.hpp"
#include "util/cpu_dispatch.hpp"

namespace mda::dist {

namespace {

// MD's one multiply-add per element runs faster as 8 scalar calls than
// behind the transpose into lanes (DESIGN.md §15).
bool vector_kind(DistanceKind kind) { return kind != DistanceKind::Manhattan; }

}  // namespace

namespace lanes {

bool run_group(DistanceKind kind, std::span<const LanePair> pairs,
               const DistanceParams& params, std::span<double> out,
               bool (*kernel)(const Job&)) {
  const std::size_t m = pairs[0].p.size();
  const std::size_t n = pairs[0].q.size();
  if (!vector_kind(kind) || m == 0 || n == 0 ||
      (!is_matrix_structure(kind) && m != n)) {
    return false;
  }
  Job job;
  job.kind = kind;
  job.lanes = pairs.size();
  job.m = m;
  job.n = n;
  for (std::size_t l = 0; l < pairs.size(); ++l) {
    job.p[l] = pairs[l].p.data();
    job.q[l] = pairs[l].q.data();
    job.cutoff[l] = pairs[l].abandon_above;
  }
  if (params.pair_weights) job.pair_w = params.pair_weights->data();
  if (params.elem_weights) job.elem_w = params.elem_weights->data();
  job.threshold = params.threshold;
  job.vstep = params.vstep;
  thread_local std::vector<std::size_t> band;
  if (kind == DistanceKind::Dtw) {
    band.resize(2 * (m + 1));
    std::size_t lo = 1;
    std::size_t hi = 0;
    for (std::size_t i = 1; i <= m; ++i) {
      if (!band_row(params, i, m, n, lo, hi)) {
        // dtw() returns +inf at the first empty row, whatever the cutoff.
        for (std::size_t l = 0; l < pairs.size(); ++l) out[l] = kInf;
        return true;
      }
      band[i] = lo;
      band[m + 1 + i] = hi;
    }
    job.band_lo = band.data();
    job.band_hi = band.data() + m + 1;
  }
  thread_local std::vector<double> scratch;
  scratch.resize(scratch_doubles(m, n));
  job.scratch = scratch.data();
  job.out = out.data();
  return kernel(job);
}

}  // namespace lanes

void compute_lanes(DistanceKind kind, std::span<const LanePair> pairs,
                   const DistanceParams& params, std::span<double> out) {
  if (pairs.size() > kMaxLanes) {
    throw std::invalid_argument("compute_lanes: more than kMaxLanes pairs");
  }
  if (out.size() < pairs.size()) {
    throw std::invalid_argument("compute_lanes: output shorter than pairs");
  }
  if (pairs.empty()) return;
  for (const LanePair& pair : pairs) {
    if (pair.p.size() != pairs[0].p.size() ||
        pair.q.size() != pairs[0].q.size()) {
      throw std::invalid_argument("compute_lanes: pairs must share one shape");
    }
  }
  // One pair gains nothing from a vector.
  if (pairs.size() > 1 &&
      ((util::use_avx512() &&
        lanes::run_group(kind, pairs, params, out, lanes::run_avx512)) ||
       (util::use_avx2() &&
        lanes::run_group(kind, pairs, params, out, lanes::run_avx2)))) {
    return;
  }
  for (std::size_t l = 0; l < pairs.size(); ++l) {
    out[l] = compute(kind, pairs[l].p, pairs[l].q, params,
                     pairs[l].abandon_above);
  }
}

}  // namespace mda::dist
