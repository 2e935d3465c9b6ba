// Exact early abandoning (DistanceParams::abandon_above, DESIGN.md §15).
// For every kind with a running bound, a cutoff either leaves the result
// bitwise unchanged or turns it into +inf, and +inf exactly when the
// kernel's running bound exceeded the cutoff at one of its check points.
// The bound trajectories are recomputed here from the full DP matrices and
// per-column minima, independently of the kernels' rolling loops, and the
// lane kernels must give each lane its scalar call's result at the same
// cutoffs.  LCS, a similarity, ignores the cutoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "distance/dtw.hpp"
#include "distance/edit.hpp"
#include "distance/lanes.hpp"
#include "distance/lanes_simd.hpp"
#include "distance/lcs.hpp"
#include "distance/registry.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::dist;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Same bits, except that any two NaNs match (payloads are not part of the
/// kernels' contract).
bool same(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Case {
  DistanceKind kind = DistanceKind::Dtw;
  DistanceParams params;
  std::vector<double> p;
  std::vector<double> q;
  bool specials = false;  ///< Some inputs are NaN or ±inf.
  bool negative = false;  ///< Some weights are negative.

  [[nodiscard]] std::string describe() const {
    return kind_name(kind) + " m=" + std::to_string(p.size()) +
           " n=" + std::to_string(q.size()) +
           " band=" + std::to_string(params.band) +
           (params.pair_weights ? " pair_w" : "") +
           (params.elem_weights ? " elem_w" : "") +
           (specials ? " specials" : "") + (negative ? " negative" : "");
  }
};

std::vector<double> random_series(util::Rng& rng, std::size_t len,
                                  bool specials) {
  std::vector<double> s(len);
  for (double& v : s) {
    v = rng.normal(0.0, 1.0);
    if (specials && rng.uniform() < 0.08) {
      const double pick = rng.uniform();
      v = pick < 0.4 ? kNaN : pick < 0.7 ? kInf : -kInf;
    }
  }
  return s;
}

/// Weights from [lo, 2), some of them zero.
std::vector<double> random_weights(util::Rng& rng, std::size_t len,
                                   double lo) {
  std::vector<double> w(len);
  for (double& v : w) v = rng.uniform() < 0.1 ? 0.0 : rng.uniform(lo, 2.0);
  return w;
}

Case random_case(util::Rng& rng, DistanceKind kind) {
  Case c;
  c.kind = kind;
  const std::size_t m = 1 + rng.index(40);
  const std::size_t n = is_matrix_structure(kind) ? 1 + rng.index(40) : m;
  c.specials = rng.uniform() < 0.2;
  const double thresholds[] = {0.0, 0.1, 0.5};
  c.params.threshold = thresholds[rng.index(3)];
  c.params.vstep = rng.uniform() < 0.5 ? 1.0 : 0.01;
  if (kind == DistanceKind::Dtw && rng.uniform() < 0.4) {
    c.params.band = static_cast<int>(rng.index(std::max(m, n) / 2 + 2));
  }
  // Negative weights let a bound fall, which the profile engine never
  // allows; the kernels must still stop exactly at their check points.
  const double w_lo = rng.uniform() < 0.15 ? -1.0 : 0.0;
  if (rng.uniform() < 0.35) {
    c.params.pair_weights = random_weights(rng, m * n, w_lo);
  }
  if (rng.uniform() < 0.35) {
    c.params.elem_weights = random_weights(rng, m, w_lo);
  }
  c.negative = w_lo < 0.0 && (c.params.pair_weights || c.params.elem_weights);
  // Correlated pairs, so that counting kinds see matches.
  const std::vector<double> base = random_series(rng, std::max(m, n), false);
  c.p = random_series(rng, m, c.specials);
  c.q = random_series(rng, n, c.specials);
  for (std::size_t i = 0; i < m; ++i) c.p[i] = 0.7 * base[i] + 0.3 * c.p[i];
  for (std::size_t j = 0; j < n; ++j) c.q[j] = 0.7 * base[j] + 0.3 * c.q[j];
  return c;
}

/// The kernel's running bound at each of its check points: DTW and EdD after
/// every DP row (the row minimum; EdD's includes column 0), HauD after every
/// column (the running max of column minima), HamD and MD after every
/// element (the running sum).
std::vector<double> bound_trajectory(const Case& c) {
  const std::vector<double>& p = c.p;
  const std::vector<double>& q = c.q;
  const DistanceParams& params = c.params;
  const std::size_t m = p.size();
  const std::size_t n = q.size();
  std::vector<double> out;
  switch (c.kind) {
    case DistanceKind::Dtw: {
      // Out-of-band cells hold +inf, which no row minimum picks up.
      const std::vector<double> d = dtw_matrix(p, q, params);
      for (std::size_t i = 1; i <= m; ++i) {
        double row_min = kInf;
        for (std::size_t j = 1; j <= n; ++j) {
          row_min = std::min(row_min, d[i * (n + 1) + j]);
        }
        out.push_back(row_min);
      }
      break;
    }
    case DistanceKind::Edit: {
      const std::vector<double> e = edit_matrix(p, q, params);
      for (std::size_t i = 1; i <= m; ++i) {
        double row_min = e[i * (n + 1)];
        for (std::size_t j = 1; j <= n; ++j) {
          row_min = std::min(row_min, e[i * (n + 1) + j]);
        }
        out.push_back(row_min);
      }
      break;
    }
    case DistanceKind::Hausdorff: {
      double worst = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        double best = kInf;
        for (std::size_t i = 0; i < m; ++i) {
          best = std::min(best, params.w(i, j, n) * std::abs(p[i] - q[j]));
        }
        worst = std::max(worst, best);
        out.push_back(worst);
      }
      break;
    }
    case DistanceKind::Hamming: {
      double h = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        if (std::abs(p[i] - q[i]) > params.threshold) {
          h += params.w(i) * params.vstep;
        }
        out.push_back(h);
      }
      break;
    }
    case DistanceKind::Manhattan: {
      double d = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        d += params.w(i) * std::abs(p[i] - q[i]);
        out.push_back(d);
      }
      break;
    }
    case DistanceKind::Lcs: break;  // no bound
  }
  return out;
}

/// Cutoffs on both sides of the true value `d`, exactly at and between
/// check points' bounds, and the odd ones (negative, zero, +inf, NaN).
std::vector<double> cutoffs_for(util::Rng& rng, double d,
                                const std::vector<double>& bounds) {
  std::vector<double> cuts = {-1.0, 0.0, kInf, kNaN, rng.uniform(0.0, 50.0)};
  if (std::isfinite(d)) {
    for (const double f : {0.5, 0.9, 1.0, 1.1, 2.0}) cuts.push_back(d * f);
    cuts.push_back(std::nextafter(d, -kInf));
    cuts.push_back(std::nextafter(d, kInf));
  }
  for (std::size_t k = 0; k < 3 && !bounds.empty(); ++k) {
    const std::size_t at = rng.index(bounds.size());
    cuts.push_back(bounds[at]);
    if (at + 1 < bounds.size()) {
      cuts.push_back(0.5 * bounds[at] + 0.5 * bounds[at + 1]);
    }
  }
  return cuts;
}

/// The pair in every lane, lane l under cuts[l], through the dispatched lane
/// kernel and each ISA's kernels directly; each lane must equal `want[l]`.
void expect_lanes_match(const Case& c, const std::vector<double>& cuts,
                        const std::vector<double>& want) {
  for (std::size_t base = 0; base < cuts.size(); base += kMaxLanes) {
    const std::size_t count = std::min(kMaxLanes, cuts.size() - base);
    std::vector<LanePair> lanes;
    for (std::size_t l = 0; l < count; ++l) {
      lanes.push_back({c.p, c.q, cuts[base + l]});
    }
    const auto check = [&](const std::vector<double>& got, const char* path) {
      for (std::size_t l = 0; l < count; ++l) {
        EXPECT_TRUE(same(got[l], want[base + l]))
            << path << " " << c.describe() << " cutoff " << cuts[base + l]
            << ": want " << want[base + l] << " got " << got[l];
      }
    };
    std::vector<double> got(count);
    compute_lanes(c.kind, lanes, c.params, got);
    check(got, "dispatched");
    const std::pair<bool, bool (*)(const lanes::Job&)> isas[] = {
        {util::avx512_available(), lanes::run_avx512},
        {util::avx2_available(), lanes::run_avx2}};
    for (const auto& [available, kernel] : isas) {
      if (available && lanes::run_group(c.kind, lanes, c.params, got, kernel)) {
        check(got, kernel == lanes::run_avx512 ? "avx512" : "avx2");
      }
    }
  }
}

/// Fuzz one kind against its bound trajectory, and check that both outcomes
/// occur: finite distances abandoned, and finite cutoffs that let the kernel
/// finish.  Every cutoff also runs through the lane kernels.
void fuzz_kind(DistanceKind kind, std::uint64_t seed) {
  util::Rng rng(seed);
  std::size_t abandoned = 0;
  std::size_t finished = 0;
  for (std::size_t iter = 0; iter < 400; ++iter) {
    const Case c = random_case(rng, kind);
    const double full = compute(kind, c.p, c.q, c.params);
    const std::vector<double> bounds = bound_trajectory(c);
    // Admissible: with no NaN or ±inf input and every weight >= 0, no bound
    // exceeds the final distance, so a cutoff at or above it never fires.
    if (!c.specials && !c.negative) {
      for (const double b : bounds) {
        ASSERT_FALSE(b > full) << c.describe() << ": bound " << b
                               << " above the distance " << full;
      }
    }
    const std::vector<double> cuts = cutoffs_for(rng, full, bounds);
    std::vector<double> results;
    for (const double cut : cuts) {
      const double got = compute(kind, c.p, c.q, c.params, cut);
      results.push_back(got);
      const bool crossed = std::any_of(bounds.begin(), bounds.end(),
                                       [cut](double b) { return b > cut; });
      if (crossed) {
        EXPECT_EQ(got, kInf) << c.describe() << " cutoff " << cut;
        if (full != kInf) ++abandoned;
      } else {
        EXPECT_TRUE(same(got, full)) << c.describe() << " cutoff " << cut
                                     << ": want " << full << " got " << got;
        if (cut < kInf) ++finished;
      }
      // params.abandon_above is the same cutoff.
      DistanceParams with_cut = c.params;
      with_cut.abandon_above = cut;
      EXPECT_TRUE(same(compute(kind, c.p, c.q, with_cut), got))
          << c.describe() << " cutoff " << cut;
    }
    expect_lanes_match(c, cuts, results);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(abandoned, 400u);
  EXPECT_GT(finished, 400u);
}

TEST(DistanceAbandon, DtwStopsExactlyWhenARowMinimumCrosses) {
  fuzz_kind(DistanceKind::Dtw, 181);
}

TEST(DistanceAbandon, EditStopsExactlyWhenARowMinimumCrosses) {
  fuzz_kind(DistanceKind::Edit, 182);
}

TEST(DistanceAbandon, HausdorffStopsExactlyWhenTheRunningMaxCrosses) {
  fuzz_kind(DistanceKind::Hausdorff, 183);
}

TEST(DistanceAbandon, HammingStopsExactlyWhenTheRunningSumCrosses) {
  fuzz_kind(DistanceKind::Hamming, 184);
}

TEST(DistanceAbandon, ManhattanStopsExactlyWhenTheRunningSumCrosses) {
  fuzz_kind(DistanceKind::Manhattan, 185);
}

TEST(DistanceAbandon, LcsIgnoresTheCutoff) {
  util::Rng rng(186);
  for (std::size_t iter = 0; iter < 200; ++iter) {
    const Case c = random_case(rng, DistanceKind::Lcs);
    const double full = lcs(c.p, c.q, c.params);
    for (const double cut : {-1.0, 0.0, 0.5 * full, full, kNaN}) {
      EXPECT_TRUE(same(compute(DistanceKind::Lcs, c.p, c.q, c.params, cut),
                       full))
          << c.describe() << " cutoff " << cut;
      DistanceParams with_cut = c.params;
      with_cut.abandon_above = cut;
      EXPECT_TRUE(same(lcs(c.p, c.q, with_cut), full))
          << c.describe() << " cutoff " << cut;
    }
  }
}

}  // namespace
