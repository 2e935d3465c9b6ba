// Matrix-profile engine contracts (DESIGN.md §15): planted-structure
// recovery, cascade neutrality, thread-count bit-identity, streaming ≡
// batch, accelerator-backed joins through the unified QueryRequest path,
// and degenerate inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/batch_engine.hpp"
#include "data/synthetic.hpp"
#include "distance/registry.hpp"
#include "mining/matrix_profile.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::mining;

data::Series noisy_series(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  data::Series s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = std::sin(0.2 * static_cast<double>(i)) + rng.normal(0.0, 0.3);
  }
  return s;
}

/// Noisy series with a near-duplicate window planted at `a` and `b`.
data::Series with_planted_motif(std::size_t n, std::size_t window,
                                std::size_t a, std::size_t b,
                                std::uint64_t seed) {
  data::Series s = noisy_series(n, seed);
  util::Rng rng(seed + 1);
  for (std::size_t i = 0; i < window; ++i) {
    s[b + i] = s[a + i] + rng.normal(0.0, 0.005);
  }
  return s;
}

void expect_same(const ProfileResult& x, const ProfileResult& y) {
  ASSERT_EQ(x.profile.size(), y.profile.size());
  EXPECT_EQ(x.starts, y.starts);
  EXPECT_EQ(x.neighbor, y.neighbor);
  EXPECT_EQ(0, std::memcmp(x.profile.data(), y.profile.data(),
                           x.profile.size() * sizeof(double)));
}

TEST(MatrixProfile, FindsPlantedMotif) {
  const data::Series s = with_planted_motif(200, 16, 30, 150, 3);
  ProfileConfig cfg;
  cfg.window = 16;
  const ProfileResult r = matrix_profile(s, cfg);
  EXPECT_EQ(r.profile.size(), s.size() - cfg.window + 1);
  EXPECT_EQ(r.exclusion, cfg.window);
  const MotifResult m = profile_motif(r);
  EXPECT_EQ(m.first, 30u);
  EXPECT_EQ(m.second, 150u);
  // The planted rows must point at each other.
  EXPECT_EQ(r.neighbor[30], 150u);
  EXPECT_EQ(r.neighbor[150], 30u);
}

TEST(MatrixProfile, CascadeAndAbandonDoNotChangeTheAnswer) {
  const data::Series s = with_planted_motif(160, 12, 20, 120, 5);
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    SCOPED_TRACE(dist::kind_name(kind));
    ProfileConfig cfg;
    cfg.window = 12;
    cfg.kind = kind;
    cfg.params.threshold = 0.25;
    cfg.use_lower_bounds = false;
    cfg.early_abandon = false;
    const ProfileResult plain = matrix_profile(s, cfg);
    EXPECT_EQ(plain.stats.evaluated, plain.stats.pairs);
    cfg.use_lower_bounds = true;
    cfg.early_abandon = true;
    const ProfileResult cascaded = matrix_profile(s, cfg);
    expect_same(plain, cascaded);
    // Every bound must actually fire, not match vacuously.  LCS has none;
    // LB_Keogh is skipped without a band.
    const ProfileBounds bounds = profile_bounds(cfg);
    const bool lcs = kind == dist::DistanceKind::Lcs;
    EXPECT_EQ(bounds.early_abandon, !lcs);
    EXPECT_FALSE(bounds.lb_keogh);
    EXPECT_EQ(cascaded.stats.pruned_lb_keogh, 0u);
    if (lcs) {
      EXPECT_EQ(cascaded.stats.abandoned, 0u);
      EXPECT_EQ(cascaded.stats.evaluated, cascaded.stats.pairs);
    } else {
      EXPECT_GT(cascaded.stats.abandoned, 0u);
      EXPECT_LT(cascaded.stats.evaluated, plain.stats.evaluated);
    }
    EXPECT_EQ(cascaded.stats.pruned_lb_kim > 0,
              kind == dist::DistanceKind::Dtw);
  }
  // Banded DTW: the envelopes are narrower than the window, and LB_Keogh
  // must fire there.
  ProfileConfig cfg;
  cfg.window = 12;
  cfg.params.band = 2;
  cfg.use_lower_bounds = false;
  cfg.early_abandon = false;
  const ProfileResult plain = matrix_profile(s, cfg);
  cfg.use_lower_bounds = true;
  cfg.early_abandon = true;
  ASSERT_TRUE(profile_bounds(cfg).lb_keogh);
  const ProfileResult banded = matrix_profile(s, cfg);
  expect_same(plain, banded);
  EXPECT_GT(banded.stats.pruned_lb_keogh, 0u);
  // A band as wide as the window makes every envelope the global min/max.
  cfg.params.band = static_cast<int>(cfg.window) - 1;
  EXPECT_FALSE(profile_bounds(cfg).lb_keogh);
}

TEST(MatrixProfile, WeightedDtwCascadeStaysExact) {
  // LB_Kim and LB_Keogh bound unweighted DTW: with pair weights below 1 the
  // weighted distance can fall under them, so the cascade must stand down.
  const data::Series s = noisy_series(300, 41);
  for (const double w : {0.25, 0.5, 2.0}) {
    SCOPED_TRACE(w);
    ProfileConfig cfg;
    cfg.window = 16;
    cfg.params.pair_weights = std::vector<double>(16 * 16, w);
    cfg.use_lower_bounds = false;
    cfg.early_abandon = false;
    const ProfileResult plain = matrix_profile(s, cfg);
    cfg.use_lower_bounds = true;
    cfg.early_abandon = true;
    const ProfileResult cascaded = matrix_profile(s, cfg);
    expect_same(plain, cascaded);
    EXPECT_EQ(profile_bounds(cfg).lb_kim, w >= 1.0);
    EXPECT_GT(cascaded.stats.abandoned, 0u);
    core::BatchOptions opts;
    opts.num_threads = 2;
    const core::BatchEngine engine(opts);
    cfg.engine = &engine;
    expect_same(plain, matrix_profile(s, cfg));
  }
}

TEST(MatrixProfile, AbandonGateChecksOnlyWhatTheKindReads) {
  // A negative parameter turns the abandon off only for the kinds whose
  // running bound it can lower; the others keep abandoning, exactly.
  using K = dist::DistanceKind;
  const data::Series s = noisy_series(120, 29);
  const std::size_t window = 10;
  struct Gate {
    const char* what;
    void (*set)(dist::DistanceParams&, std::size_t);
    std::vector<K> still_on;
  };
  const Gate gates[] = {
      {"vstep", [](dist::DistanceParams& p, std::size_t) { p.vstep = -1.0; },
       {K::Dtw, K::Hausdorff, K::Manhattan}},
      {"elem_weights",
       [](dist::DistanceParams& p, std::size_t w) {
         p.elem_weights = std::vector<double>(w, 1.0);
         (*p.elem_weights)[w / 2] = -0.5;
       },
       {K::Dtw, K::Edit, K::Hausdorff}},
      {"pair_weights",
       [](dist::DistanceParams& p, std::size_t w) {
         p.pair_weights = std::vector<double>(w * w, 1.0);
         (*p.pair_weights)[w + 3] = -0.5;
       },
       {K::Hausdorff, K::Hamming, K::Manhattan}},
  };
  for (const Gate& g : gates) {
    for (const K kind : dist::kAllKinds) {
      SCOPED_TRACE(std::string(g.what) + " " + dist::kind_name(kind));
      ProfileConfig cfg;
      cfg.window = window;
      cfg.kind = kind;
      cfg.params.threshold = 0.25;
      g.set(cfg.params, window);
      const bool on = std::find(g.still_on.begin(), g.still_on.end(),
                                kind) != g.still_on.end();
      EXPECT_EQ(profile_bounds(cfg).early_abandon, on);
      if (!on) continue;
      const ProfileResult bounded = matrix_profile(s, cfg);
      EXPECT_GT(bounded.stats.abandoned, 0u);
      cfg.use_lower_bounds = false;
      cfg.early_abandon = false;
      expect_same(matrix_profile(s, cfg), bounded);
    }
  }
}

void expect_same_stats(const ProfileStats& x, const ProfileStats& y) {
  EXPECT_EQ(x.pairs, y.pairs);
  EXPECT_EQ(x.pruned_lb_kim, y.pruned_lb_kim);
  EXPECT_EQ(x.pruned_lb_keogh, y.pruned_lb_keogh);
  EXPECT_EQ(x.abandoned, y.abandoned);
  EXPECT_EQ(x.evaluated, y.evaluated);
}

TEST(MatrixProfile, BitIdenticalAcrossThreadCounts) {
  const data::Series s = with_planted_motif(180, 12, 25, 130, 7);
  const bool prev_force = util::force_scalar();
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    SCOPED_TRACE(dist::kind_name(kind));
    ProfileConfig cfg;
    cfg.window = 12;
    cfg.kind = kind;
    cfg.params.threshold = 0.25;
    const ProfileResult serial = matrix_profile(s, cfg);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      core::BatchOptions opts;
      opts.num_threads = threads;
      const core::BatchEngine engine(opts);
      cfg.engine = &engine;
      const ProfileResult r = matrix_profile(s, cfg);
      // The serial scan runs the same stripes inline, so even the cascade
      // statistics match it at every thread count.
      expect_same(serial, r);
      expect_same_stats(serial.stats, r.stats);
      // The lane stage against the forced-scalar kernels, which evaluate
      // the same groups pair by pair: same bits and the same statistics.
      util::set_force_scalar(true);
      const ProfileResult scalar = matrix_profile(s, cfg);
      util::set_force_scalar(prev_force);
      expect_same(r, scalar);
      expect_same_stats(r.stats, scalar.stats);
    }
    cfg.engine = nullptr;
  }
}

TEST(MatrixProfile, AbJoinBitIdenticalAcrossThreadCounts) {
  const data::Series a = noisy_series(120, 29);
  data::Series b = noisy_series(90, 31);
  for (std::size_t i = 0; i < 10; ++i) b[50 + i] = a[17 + i];
  const bool prev_force = util::force_scalar();
  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  spec.band = 3;
  core::Accelerator acc;
  acc.configure(spec, core::Backend::Behavioral);
  std::vector<ProfileConfig> cfgs;
  for (const dist::DistanceKind kind : dist::kAllKinds) {
    ProfileConfig cfg;
    cfg.window = 10;
    cfg.kind = kind;
    cfg.params.threshold = 0.25;
    cfgs.push_back(cfg);
  }
  ProfileConfig accel_cfg;
  accel_cfg.window = 10;
  accel_cfg.kind = spec.kind;
  accel_cfg.params.band = spec.band;
  accel_cfg.accelerator = &acc;
  accel_cfg.lb_margin = 1.5;
  cfgs.push_back(accel_cfg);
  for (ProfileConfig& cfg : cfgs) {
    SCOPED_TRACE(dist::kind_name(cfg.kind) +
                 (cfg.accelerator ? " accelerator" : ""));
    const ProfileResult serial = matrix_profile_join(a, b, cfg);
    EXPECT_EQ(serial.stats.pairs, 111u * 81u);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      core::BatchOptions opts;
      opts.num_threads = threads;
      const core::BatchEngine engine(opts);
      cfg.engine = &engine;
      const ProfileResult r = matrix_profile_join(a, b, cfg);
      expect_same(serial, r);
      expect_same_stats(serial.stats, r.stats);
      util::set_force_scalar(true);
      const ProfileResult scalar = matrix_profile_join(a, b, cfg);
      util::set_force_scalar(prev_force);
      expect_same(r, scalar);
      expect_same_stats(r.stats, scalar.stats);
    }
    cfg.engine = nullptr;
  }
}

TEST(MatrixProfile, StreamingEqualsBatchBitwise) {
  const data::Series s = with_planted_motif(150, 10, 20, 110, 11);
  for (const dist::DistanceKind kind :
       {dist::DistanceKind::Dtw, dist::DistanceKind::Hausdorff,
        dist::DistanceKind::Manhattan}) {
    for (const bool weighted : {false, true}) {
      SCOPED_TRACE(dist::kind_name(kind) + (weighted ? " weighted" : ""));
      ProfileConfig cfg;
      cfg.window = 10;
      cfg.kind = kind;
      if (weighted) {
        cfg.params.pair_weights = std::vector<double>(10 * 10, 0.5);
        cfg.params.elem_weights = std::vector<double>(10, 0.5);
      }
      const ProfileResult batch = matrix_profile(s, cfg);
      StreamingProfile stream(cfg);
      for (const double v : s) stream.append(v);
      expect_same(batch, stream.profile());
      EXPECT_EQ(stream.offset(), 0u);
      EXPECT_GT(stream.profile().stats.abandoned, 0u);
    }
  }
}

TEST(MatrixProfile, StreamingEvictionEqualsBatchOnRetainedSeries) {
  const data::Series s = noisy_series(220, 13);
  ProfileConfig cfg;
  cfg.window = 10;
  cfg.stream_capacity = 128;
  StreamingProfile stream(cfg);
  stream.append(s);
  EXPECT_EQ(stream.series().size(), 128u);
  EXPECT_EQ(stream.offset(), s.size() - 128);
  // After evictions (and nearest-neighbour rebuilds) the retained profile
  // still equals a from-scratch batch run on the retained points.
  expect_same(matrix_profile(stream.series(), cfg), stream.profile());
}

TEST(MatrixProfile, AcceleratorBackedViaQueryRequestPath) {
  const data::Series s = with_planted_motif(96, 8, 12, 70, 17);
  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Dtw;
  spec.band = 3;
  core::Accelerator acc;
  acc.configure(spec, core::Backend::Behavioral);
  ProfileConfig cfg;
  cfg.window = 8;
  cfg.kind = spec.kind;
  cfg.params.band = spec.band;
  cfg.accelerator = &acc;
  cfg.lb_margin = 1.5;
  const ProfileResult serial = matrix_profile(s, cfg);
  EXPECT_EQ(profile_motif(serial).first, 12u);
  for (const std::size_t threads : {2u, 8u}) {
    core::BatchOptions opts;
    opts.num_threads = threads;
    const core::BatchEngine engine(opts);
    cfg.engine = &engine;
    expect_same(serial, matrix_profile(s, cfg));
  }
}

TEST(MatrixProfile, AbJoinMatchesPlantedCopy) {
  const data::Series a = noisy_series(80, 19);
  data::Series b = noisy_series(60, 23);
  // Plant a's window 10 into b at 40.
  for (std::size_t i = 0; i < 12; ++i) b[40 + i] = a[10 + i];
  ProfileConfig cfg;
  cfg.window = 12;
  const ProfileResult r = matrix_profile_join(a, b, cfg);
  EXPECT_EQ(r.exclusion, 0u);
  EXPECT_EQ(r.profile.size(), a.size() - cfg.window + 1);
  EXPECT_EQ(r.neighbor[10], 40u);
  EXPECT_EQ(r.profile[10], 0.0);
}

TEST(MatrixProfile, ConstantSeriesTiesBreakToLowestIndex) {
  // Every window z-normalises to all zeros: every admissible pair is an
  // exact tie, so each row's neighbour must be its lowest admissible index.
  const data::Series s(40, 3.5);
  ProfileConfig cfg;
  cfg.window = 8;
  const ProfileResult r = matrix_profile(s, cfg);
  for (std::size_t i = 0; i < r.profile.size(); ++i) {
    const std::size_t expect = i >= cfg.window ? 0 : i + cfg.window;
    EXPECT_EQ(r.neighbor[i], expect) << "row " << i;
    EXPECT_EQ(r.profile[i], 0.0);
  }
  // Discord ties also resolve by position: ascending, exclusion apart.
  const std::vector<Discord> d = profile_discords(r, 3);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].position, 0u);
  EXPECT_EQ(d[1].position, 8u);
  EXPECT_EQ(d[2].position, 16u);
}

TEST(MatrixProfile, DegenerateInputsThrow) {
  ProfileConfig cfg;
  cfg.window = 0;
  EXPECT_THROW(matrix_profile({1.0, 2.0, 3.0}, cfg), std::invalid_argument);
  cfg.window = 8;
  EXPECT_THROW(matrix_profile({1.0, 2.0, 3.0}, cfg), std::invalid_argument);
  cfg.lb_margin = 0.5;
  EXPECT_THROW(matrix_profile(data::Series(32, 1.0), cfg),
               std::invalid_argument);
  cfg.lb_margin = 1.0;
  cfg.stream_capacity = 4;  // < window
  EXPECT_THROW(StreamingProfile{cfg}, std::invalid_argument);
  // A window with no admissible neighbour (series shorter than window +
  // exclusion) yields an empty profile for motif purposes.
  cfg.stream_capacity = 0;
  const ProfileResult r = matrix_profile(data::Series(10, 1.0), cfg);
  EXPECT_EQ(r.neighbor[0], kNoNeighbor);
  EXPECT_THROW(profile_motif(r), std::invalid_argument);
  EXPECT_TRUE(profile_discords(r, 2).empty());
}

TEST(MatrixProfile, SimilarityKernelInvertsPolarity) {
  const data::Series s = with_planted_motif(120, 10, 15, 90, 29);
  ProfileConfig cfg;
  cfg.window = 10;
  cfg.kind = dist::DistanceKind::Lcs;
  // Tight threshold: only the planted near-copy aligns its full length.
  cfg.params.threshold = 0.05;
  const ProfileResult r = matrix_profile(s, cfg);
  ASSERT_TRUE(r.similarity);
  // The planted near-copy has the LARGEST match count of all pairs.
  const MotifResult m = profile_motif(r);
  EXPECT_EQ(m.first, 15u);
  EXPECT_EQ(m.second, 90u);
  // Discords rank by SMALLEST similarity first.
  const std::vector<Discord> d = profile_discords(r, 2);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_LE(d[0].nn_distance, d[1].nn_distance);
}

TEST(MatrixProfile, CustomCallableKernel) {
  const data::Series s = noisy_series(60, 31);
  ProfileConfig cfg;
  cfg.window = 6;
  cfg.znormalize = false;
  std::size_t calls = 0;
  cfg.fn = [&calls](std::span<const double> p, std::span<const double> q) {
    ++calls;
    double acc = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      acc += (p[i] - q[i]) * (p[i] - q[i]);
    }
    return acc;
  };
  const ProfileResult r = matrix_profile(s, cfg);
  EXPECT_EQ(calls, r.stats.evaluated);
  EXPECT_EQ(r.stats.pruned_lb_kim + r.stats.pruned_lb_keogh, 0u);
}

}  // namespace
