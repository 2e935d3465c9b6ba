// Lane-parallel distance kernels (distance/lanes.hpp, DESIGN.md §15): a
// seeded differential fuzz of compute_lanes against per-lane dist::compute,
// bitwise, through every kernel this CPU can run — the dispatched one, each
// ISA's kernels called directly, and the forced-scalar fallback.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "distance/lanes.hpp"
#include "distance/lanes_simd.hpp"
#include "distance/registry.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::dist;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Same bits, except that any two NaNs match: x86 keeps the first operand's
/// NaN payload and the compiler may commute an addition, so a NaN's payload
/// is not part of either kernel's contract.
bool same(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Group {
  DistanceKind kind = DistanceKind::Dtw;
  DistanceParams params;
  std::vector<std::vector<double>> p;
  std::vector<std::vector<double>> q;
  std::vector<double> cutoff;
  std::vector<double> full;  ///< Each lane's distance without a cutoff.

  [[nodiscard]] std::vector<LanePair> lanes() const {
    std::vector<LanePair> out;
    for (std::size_t l = 0; l < p.size(); ++l) {
      out.push_back({p[l], q[l], cutoff[l]});
    }
    return out;
  }
  [[nodiscard]] std::string describe() const {
    return kind_name(kind) + " m=" + std::to_string(p[0].size()) +
           " n=" + std::to_string(q[0].size()) +
           " lanes=" + std::to_string(p.size()) +
           " band=" + std::to_string(params.band) +
           (params.pair_weights ? " pair_w" : "") +
           (params.elem_weights ? " elem_w" : "");
  }
};

std::vector<double> series(util::Rng& rng, std::size_t len, bool specials) {
  std::vector<double> s(len);
  for (double& v : s) {
    v = rng.normal(0.0, 1.0);
    if (specials && rng.uniform() < 0.04) {
      const double pick = rng.uniform();
      v = pick < 0.4   ? std::numeric_limits<double>::quiet_NaN()
          : pick < 0.7 ? kInf
                       : -kInf;
    }
  }
  return s;
}

Group random_group(util::Rng& rng, std::size_t iter) {
  Group g;
  g.kind = kAllKinds[iter % std::size(kAllKinds)];
  const std::size_t m = 1 + rng.index(70);
  const std::size_t n = is_matrix_structure(g.kind) ? 1 + rng.index(70) : m;
  const std::size_t lanes = 1 + rng.index(kMaxLanes);
  const bool specials = rng.uniform() < 0.2;
  const double thresholds[] = {0.0, 0.1, 0.5};
  g.params.threshold = thresholds[rng.index(3)];
  g.params.vstep = rng.uniform() < 0.5 ? 1.0 : 0.01;
  if (g.kind == DistanceKind::Dtw && rng.uniform() < 0.4) {
    g.params.band = static_cast<int>(rng.index(std::max(m, n) / 2 + 2));
  }
  // Weights are mostly positive; some groups also draw negative ones, under
  // which the abandon bounds may fall, so that a lane must test its cutoff
  // at exactly the scalar kernel's check points to match it.
  const double w_lo = rng.uniform() < 0.2 ? -1.0 : 0.25;
  if (rng.uniform() < 0.3) {
    std::vector<double> w(m * n);
    for (double& v : w) v = rng.uniform(w_lo, 2.0);
    g.params.pair_weights = std::move(w);
  }
  if (rng.uniform() < 0.3) {
    std::vector<double> w(m);
    for (double& v : w) v = rng.uniform(w_lo, 2.0);
    g.params.elem_weights = std::move(w);
  }
  // Correlated lanes, so counting kinds see matches and DTW near cutoffs.
  const std::vector<double> base = series(rng, std::max(m, n), false);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<double> p = series(rng, m, specials);
    std::vector<double> q = series(rng, n, specials);
    for (std::size_t i = 0; i < m; ++i) p[i] = 0.7 * base[i] + 0.3 * p[i];
    for (std::size_t j = 0; j < n; ++j) q[j] = 0.7 * base[j] + 0.3 * q[j];
    g.p.push_back(std::move(p));
    g.q.push_back(std::move(q));
  }
  // Cutoffs: infinite, or around the lane's own distance so that some
  // lanes abandon and others finish.
  for (std::size_t l = 0; l < lanes; ++l) {
    const double d = compute(g.kind, g.p[l], g.q[l], g.params);
    double cut = kInf;
    if (rng.uniform() < 0.6) {
      cut = std::isfinite(d) ? d * rng.uniform(0.3, 1.5) : rng.uniform(0, 50);
    }
    g.full.push_back(d);
    g.cutoff.push_back(cut);
  }
  return g;
}

std::vector<double> expected(const Group& g) {
  std::vector<double> out;
  for (std::size_t l = 0; l < g.p.size(); ++l) {
    DistanceParams params = g.params;
    params.abandon_above = g.cutoff[l];
    out.push_back(compute(g.kind, g.p[l], g.q[l], params));
  }
  return out;
}

void expect_same(const Group& g, const std::vector<double>& want,
                 const std::vector<double>& got, const char* path) {
  for (std::size_t l = 0; l < want.size(); ++l) {
    EXPECT_TRUE(same(want[l], got[l]))
        << path << " " << g.describe() << " lane " << l << ": want "
        << want[l] << " got " << got[l];
  }
}

TEST(DistanceLanes, FuzzMatchesPerLaneComputeBitwise) {
  util::Rng rng(20261017);
  const bool prev_force = util::force_scalar();
  std::size_t vector_groups = 0;
  // Per kind: groups in which some lane abandons and another finishes
  // under a finite cutoff.
  std::size_t mixed[std::size(kAllKinds)] = {};
  for (std::size_t iter = 0; iter < 900; ++iter) {
    const Group g = random_group(rng, iter);
    const std::vector<LanePair> lanes = g.lanes();
    const std::vector<double> want = expected(g);
    std::vector<double> got(lanes.size(), -1.0);
    bool abandons = false;
    bool finishes = false;
    for (std::size_t l = 0; l < want.size(); ++l) {
      abandons = abandons || (want[l] == kInf && g.full[l] != kInf);
      finishes = finishes || (g.cutoff[l] < kInf && std::isfinite(want[l]));
    }
    if (abandons && finishes) ++mixed[static_cast<std::size_t>(g.kind)];

    compute_lanes(g.kind, lanes, g.params, got);
    expect_same(g, want, got, "dispatched");

    util::set_force_scalar(true);
    std::fill(got.begin(), got.end(), -1.0);
    compute_lanes(g.kind, lanes, g.params, got);
    expect_same(g, want, got, "forced scalar");
    util::set_force_scalar(prev_force);

    // Each ISA's kernels directly, whatever dispatch would pick.
    const std::pair<bool, bool (*)(const lanes::Job&)> isas[] = {
        {util::avx512_available(), lanes::run_avx512},
        {util::avx2_available(), lanes::run_avx2}};
    for (const auto& [available, kernel] : isas) {
      if (!available) continue;
      std::fill(got.begin(), got.end(), -1.0);
      if (lanes::run_group(g.kind, lanes, g.params, got, kernel)) {
        ++vector_groups;
        expect_same(g, want, got,
                    kernel == lanes::run_avx512 ? "avx512" : "avx2");
      }
    }
    if (HasFailure()) break;
  }
  if (util::avx2_available()) {
    EXPECT_GT(vector_groups, 900u);
  }
  for (const DistanceKind kind : kAllKinds) {
    if (kind == DistanceKind::Lcs) continue;  // ignores the cutoff
    EXPECT_GT(mixed[static_cast<std::size_t>(kind)], 0u) << kind_name(kind);
  }
}

TEST(DistanceLanes, EmptyBandRowGivesInfinityLikeDtw) {
  // m = 10, n = 2, band 0: the scaled diagonal skips rows 2..9.
  std::vector<std::vector<double>> p(3, std::vector<double>(10, 0.5));
  std::vector<std::vector<double>> q(3, std::vector<double>(2, 0.25));
  DistanceParams params;
  params.band = 0;
  std::vector<LanePair> lanes;
  for (std::size_t l = 0; l < 3; ++l) lanes.push_back({p[l], q[l], 1.0});
  std::vector<double> got(3);
  compute_lanes(DistanceKind::Dtw, lanes, params, got);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(got[l], kInf);
    EXPECT_EQ(compute(DistanceKind::Dtw, p[l], q[l], params), kInf);
  }
}

TEST(DistanceLanes, RejectsBadGroups) {
  const std::vector<double> a(4, 1.0);
  const std::vector<double> b(5, 1.0);
  std::vector<double> out(kMaxLanes + 1);
  const std::vector<LanePair> mixed = {{a, a}, {a, b}};
  EXPECT_THROW(compute_lanes(DistanceKind::Dtw, mixed, {}, out),
               std::invalid_argument);
  const std::vector<LanePair> many(kMaxLanes + 1, LanePair{a, a});
  EXPECT_THROW(compute_lanes(DistanceKind::Dtw, many, {}, out),
               std::invalid_argument);
  const std::vector<LanePair> two = {{a, a}, {a, a}};
  std::vector<double> short_out(1);
  EXPECT_THROW(compute_lanes(DistanceKind::Dtw, two, {}, short_out),
               std::invalid_argument);
  // Unequal HamD lengths and empty DTW inputs raise the scalar kernels' own
  // errors.
  const std::vector<LanePair> unequal = {{a, b}, {a, b}};
  EXPECT_THROW(compute_lanes(DistanceKind::Hamming, unequal, {}, out),
               std::invalid_argument);
  const std::vector<double> empty;
  const std::vector<LanePair> none = {{empty, a}, {empty, a}};
  EXPECT_THROW(compute_lanes(DistanceKind::Dtw, none, {}, out),
               std::invalid_argument);
}

}  // namespace
