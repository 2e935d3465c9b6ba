#include "mining/matrix_profile.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/batch_engine.hpp"
#include "data/normalize.hpp"
#include "distance/lanes.hpp"
#include "distance/registry.hpp"
#include "obs/metrics.hpp"

namespace mda::mining {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sakoe-Chiba radius of the LB_Keogh envelopes: the DTW band, or the whole
/// window without one.
int envelope_radius(const ProfileConfig& cfg) {
  return cfg.params.band >= 0 ? cfg.params.band
                              : static_cast<int>(cfg.window);
}

/// Kernel properties resolved once per run (header precedence: fn >
/// accelerator > digital reference).
struct KernelTraits {
  bool custom = false;
  bool accel = false;
  bool similarity = false;  ///< Larger values mean nearer (LCS).
  bool symmetric = true;    ///< d(p,q) == d(q,p); false for directed HauD.
  ProfileBounds bounds;
};

/// True when `weights` is absent (unit weights) or every entry is >= floor
/// (false on NaN).
bool weights_at_least(const std::optional<std::vector<double>>& weights,
                      double floor) {
  return !weights || std::all_of(weights->begin(), weights->end(),
                                 [floor](double w) { return w >= floor; });
}

/// True when the digital kernel's running bound never falls under
/// cfg.params (DESIGN.md §15): only the parameters a kind reads are checked.
bool abandon_admissible(const ProfileConfig& cfg) {
  const dist::DistanceParams& p = cfg.params;
  switch (cfg.kind) {
    case dist::DistanceKind::Dtw:
      return weights_at_least(p.pair_weights, 0.0);
    case dist::DistanceKind::Edit:
      return p.vstep >= 0.0 && weights_at_least(p.pair_weights, 0.0);
    case dist::DistanceKind::Hausdorff:
      return true;  // a running max never falls, whatever the weights
    case dist::DistanceKind::Hamming:
      return p.vstep >= 0.0 && weights_at_least(p.elem_weights, 0.0);
    case dist::DistanceKind::Manhattan:
      return weights_at_least(p.elem_weights, 0.0);
    case dist::DistanceKind::Lcs:
      return false;  // a similarity: no bound
  }
  return false;
}

/// O(1) given `bounds` (profile_bounds(cfg), which scans the weights).
KernelTraits resolve_traits(const ProfileConfig& cfg, ProfileBounds bounds) {
  KernelTraits t;
  t.custom = static_cast<bool>(cfg.fn);
  t.accel = !t.custom && cfg.accelerator != nullptr;
  t.similarity = !t.custom && dist::is_similarity(cfg.kind);
  // The registry's Hausdorff is the DIRECTED variant (Sec. 2), so self-joins
  // must evaluate both orientations of every pair.  Custom callables are
  // assumed symmetric (documented in ProfileConfig::fn).
  t.symmetric = t.custom || cfg.kind != dist::DistanceKind::Hausdorff;
  t.bounds = bounds;
  return t;
}

void validate(const ProfileConfig& cfg) {
  if (cfg.window == 0) {
    throw std::invalid_argument("profile: window must be non-empty");
  }
  if (cfg.lb_margin < 1.0) {
    throw std::invalid_argument("profile: lb_margin must be >= 1");
  }
}

data::Series make_window(std::span<const double> raw, bool znorm) {
  return znorm ? data::znormalize(raw) : data::Series(raw.begin(), raw.end());
}

std::vector<data::Series> build_windows(const data::Series& s,
                                        const ProfileConfig& cfg) {
  if (s.size() < cfg.window) {
    throw std::invalid_argument("profile: window longer than series");
  }
  const std::size_t count = s.size() - cfg.window + 1;
  std::vector<data::Series> windows(count);
  core::run_indexed(cfg.engine, count, [&](std::size_t i) {
    windows[i] = make_window({s.data() + i, cfg.window}, cfg.znormalize);
  });
  return windows;
}

std::vector<dist::Envelope> build_envelopes(
    const std::vector<data::Series>& windows, const ProfileConfig& cfg) {
  std::vector<dist::Envelope> envs(windows.size());
  const int r = envelope_radius(cfg);
  core::run_indexed(cfg.engine, windows.size(), [&](std::size_t i) {
    envs[i] = dist::make_envelope(windows[i], r);
  });
  return envs;
}

bool better(double d, double cur, bool similarity) {
  return similarity ? d > cur : d < cur;
}

/// The deterministic merge rule: a candidate replaces the incumbent when it
/// is strictly nearer, or equally near with a LOWER window index (in which
/// case its value bits are adopted too).  Lexicographic-minimal over
/// (value, index), so the outcome — bits included — is independent of
/// candidate arrival order.
bool improves(double d, std::size_t j, double cur, std::size_t cur_nn,
              bool similarity) {
  if (better(d, cur, similarity)) return true;
  return d == cur && j < cur_nn;
}

core::QueryRequest make_request(const ProfileConfig& cfg,
                                std::span<const double> a,
                                std::span<const double> b) {
  core::QueryRequest req;
  req.p = a;
  req.q = b;
  // Pin the spec: a mismatch with the accelerator's configuration is an
  // InvalidInput error, not a silently different distance.
  req.kind = cfg.kind;
  req.threshold = cfg.params.threshold;
  req.band = cfg.params.band;
  return req;
}

enum class Outcome : std::uint8_t { Survive, KimPruned, KeoghPruned };

struct PairTask {
  std::uint32_t i;
  std::uint32_t j;
};

/// Everything run_stripe needs; wa/wb (and ea/eb) alias for self-joins.
/// With `self`, a pair updates both rows (symmetric self-joins); without,
/// only row i.
struct Ctx {
  const ProfileConfig& cfg;
  KernelTraits traits;
  const std::vector<data::Series>& wa;
  const std::vector<data::Series>& wb;
  const std::vector<dist::Envelope>& ea;
  const std::vector<dist::Envelope>& eb;
  bool self = false;
};

/// LB cascade for one pair against `threshold` (already margin-widened).
Outcome lb_check(const Ctx& c, const PairTask& t, double threshold) {
  if (!c.traits.bounds.lb_kim || !(threshold < kInf)) {
    return Outcome::Survive;
  }
  if (dist::lb_kim(c.wa[t.i], c.wb[t.j]) > threshold) {
    return Outcome::KimPruned;
  }
  if (!c.traits.bounds.lb_keogh) return Outcome::Survive;
  double lk = dist::lb_keogh(c.wa[t.i], c.eb[t.j]);
  if (c.self) lk = std::max(lk, dist::lb_keogh(c.wb[t.j], c.ea[t.i]));
  if (lk > threshold) return Outcome::KeoghPruned;
  return Outcome::Survive;
}

/// The one pair loop (DESIGN.md §15): walks `pairs` in order, pruning each
/// against the live bests it updates.  Digital survivors are buffered
/// dist::kMaxLanes at a time into one compute_lanes call (a scalar loop
/// where no vector kernel runs), so the statistics depend on the pair list
/// alone, never on the ISA; custom and accelerator kernels evaluate one
/// pair at a time.  A buffered pair prunes against the bests of its
/// cascade step, which only over-estimates its cutoff.
void run_stripe(const Ctx& c, std::span<const PairTask> pairs,
                std::vector<double>& best, std::vector<std::size_t>& nn,
                ProfileStats& stats) {
  const bool sim = c.traits.similarity;
  const bool abandon = c.traits.bounds.early_abandon;
  stats.pairs += pairs.size();

  auto merge = [&](const PairTask& t, double cutoff, double d) {
    if (abandon && cutoff < kInf && d == kInf) {
      ++stats.abandoned;
      return;
    }
    ++stats.evaluated;
    if (improves(d, t.j, best[t.i], nn[t.i], sim)) {
      best[t.i] = d;
      nn[t.i] = t.j;
    }
    if (c.self && improves(d, t.i, best[t.j], nn[t.j], sim)) {
      best[t.j] = d;
      nn[t.j] = t.i;
    }
  };

  PairTask held[dist::kMaxLanes];
  double held_cutoff[dist::kMaxLanes];
  dist::LanePair lanes[dist::kMaxLanes];
  std::size_t n = 0;
  auto flush = [&] {
    double d[dist::kMaxLanes];
    dist::compute_lanes(c.cfg.kind, {lanes, n}, c.cfg.params, {d, n});
    for (std::size_t l = 0; l < n; ++l) merge(held[l], held_cutoff[l], d[l]);
    n = 0;
  };

  for (const PairTask& t : pairs) {
    // Cutoff above which the pair can change nothing: for self-joins it
    // must beat BOTH rows, so the prune/abandon bar is the larger of the
    // two.  Similarity kernels have no admissible bounds.
    const double cutoff = sim      ? kInf
                          : c.self ? std::max(best[t.i], best[t.j])
                                   : best[t.i];
    switch (lb_check(c, t, cutoff * c.cfg.lb_margin)) {
      case Outcome::KimPruned: ++stats.pruned_lb_kim; continue;
      case Outcome::KeoghPruned: ++stats.pruned_lb_keogh; continue;
      case Outcome::Survive: break;
    }
    const std::span<const double> a = c.wa[t.i];
    const std::span<const double> b = c.wb[t.j];
    if (c.traits.custom) {
      merge(t, cutoff, c.cfg.fn(a, b));
    } else if (c.traits.accel) {
      merge(t, cutoff,
            c.cfg.accelerator->try_compute(make_request(c.cfg, a, b))
                .unwrap()
                .value);
    } else {
      held[n] = t;
      held_cutoff[n] = cutoff;
      lanes[n] = {a, b,
                  abandon && cutoff < kInf ? cutoff
                                           : c.cfg.params.abandon_above};
      if (++n == dist::kMaxLanes) flush();
    }
  }
  if (n > 0) flush();
}

/// Runs the kStripes stripes of a join — stripe s evaluates
/// `list(s)`, a pair list, against private bests — through cfg.engine
/// (inline without one), then folds them into `r` in stripe order.  The
/// fold is the lexicographic merge, so the profile does not depend on
/// which stripe found a neighbour; the statistics depend on kStripes alone.
template <typename ListPairs>
void run_stripes(const Ctx& c, const ListPairs& list, ProfileResult& r) {
  struct Stripe {
    std::vector<double> best;
    std::vector<std::size_t> nn;
    ProfileStats stats;
  };
  std::vector<Stripe> stripes(kStripes);
  core::run_indexed(c.cfg.engine, kStripes, [&](std::size_t s) {
    // Built on this task's stack and moved out at the end: stripes that
    // shared cache lines while counting would slow each other down.
    Stripe st{r.profile, r.neighbor, {}};
    run_stripe(c, list(s), st.best, st.nn, st.stats);
    stripes[s] = std::move(st);
  });
  for (const Stripe& st : stripes) {
    for (std::size_t i = 0; i < r.profile.size(); ++i) {
      if (improves(st.best[i], st.nn[i], r.profile[i], r.neighbor[i],
                   r.similarity)) {
        r.profile[i] = st.best[i];
        r.neighbor[i] = st.nn[i];
      }
    }
    r.stats.pairs += st.stats.pairs;
    r.stats.pruned_lb_kim += st.stats.pruned_lb_kim;
    r.stats.pruned_lb_keogh += st.stats.pruned_lb_keogh;
    r.stats.abandoned += st.stats.abandoned;
    r.stats.evaluated += st.stats.evaluated;
  }
}

void bump_pair_metrics(const ProfileStats& s) {
  static const obs::Counter pairs("mda.mining.profile.pairs");
  static const obs::Counter kim("mda.mining.profile.pruned_lb_kim");
  static const obs::Counter keogh("mda.mining.profile.pruned_lb_keogh");
  static const obs::Counter aband("mda.mining.profile.abandoned");
  static const obs::Counter evaluated("mda.mining.profile.evaluated");
  pairs.add(static_cast<std::uint64_t>(s.pairs));
  kim.add(static_cast<std::uint64_t>(s.pruned_lb_kim));
  keogh.add(static_cast<std::uint64_t>(s.pruned_lb_keogh));
  aband.add(static_cast<std::uint64_t>(s.abandoned));
  evaluated.add(static_cast<std::uint64_t>(s.evaluated));
}

ProfileStats stats_delta(const ProfileStats& now, const ProfileStats& then) {
  return {now.pairs - then.pairs, now.pruned_lb_kim - then.pruned_lb_kim,
          now.pruned_lb_keogh - then.pruned_lb_keogh,
          now.abandoned - then.abandoned, now.evaluated - then.evaluated};
}

ProfileResult make_result(std::size_t count, const ProfileConfig& cfg,
                          std::size_t exclusion, bool similarity) {
  ProfileResult r;
  r.window = cfg.window;
  r.exclusion = exclusion;
  r.similarity = similarity;
  r.starts.resize(count);
  std::iota(r.starts.begin(), r.starts.end(), std::size_t{0});
  r.profile.assign(count, similarity ? -kInf : kInf);
  r.neighbor.assign(count, kNoNeighbor);
  return r;
}

}  // namespace

ProfileBounds profile_bounds(const ProfileConfig& cfg) {
  const bool custom = static_cast<bool>(cfg.fn);
  const bool accel = !custom && cfg.accelerator != nullptr;
  ProfileBounds b;
  // LB_Kim and LB_Keogh bound UNWEIGHTED DTW; with every pair weight >= 1
  // each weighted term is at least its unweighted one, rounding included.
  b.lb_kim = cfg.use_lower_bounds && !custom &&
             cfg.kind == dist::DistanceKind::Dtw &&
             weights_at_least(cfg.params.pair_weights, 1.0);
  // Without a band narrower than the window every envelope is the window's
  // global min/max, and LB_Keogh all but never prunes (DESIGN.md §15).
  b.lb_keogh = b.lb_kim &&
               static_cast<std::size_t>(envelope_radius(cfg)) + 1 < cfg.window;
  b.early_abandon =
      cfg.early_abandon && !custom && !accel && abandon_admissible(cfg);
  return b;
}

ProfileResult matrix_profile(const data::Series& series, ProfileConfig cfg) {
  static const obs::Counter runs("mda.mining.profile.runs");
  validate(cfg);
  if (cfg.exclusion == 0) cfg.exclusion = cfg.window;
  runs.add();
  const KernelTraits traits = resolve_traits(cfg, profile_bounds(cfg));
  const std::vector<data::Series> windows = build_windows(series, cfg);
  const std::vector<dist::Envelope> envelopes =
      traits.bounds.lb_keogh ? build_envelopes(windows, cfg)
                             : std::vector<dist::Envelope>{};
  const std::size_t count = windows.size();

  // Stripe s holds the diagonals k = j - i with k mod kStripes == s, each
  // walked STOMP-style, diagonal-major.  Symmetric kernels evaluate each
  // unordered pair once and update both rows; the directed (asymmetric)
  // Hausdorff evaluates both orientations, in the same stripe, each
  // updating its own row.
  ProfileResult r = make_result(count, cfg, cfg.exclusion, traits.similarity);
  const Ctx c{cfg,       traits,    windows,
              windows,   envelopes, envelopes,
              traits.symmetric};
  run_stripes(c, [&](std::size_t s) {
    std::vector<PairTask> pairs;
    for (std::size_t k = cfg.exclusion; k < count; ++k) {
      if (k % kStripes != s) continue;
      for (std::size_t i = 0; i + k < count; ++i) {
        pairs.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(i + k)});
        if (!traits.symmetric) {
          pairs.push_back({static_cast<std::uint32_t>(i + k),
                           static_cast<std::uint32_t>(i)});
        }
      }
    }
    return pairs;
  }, r);
  bump_pair_metrics(r.stats);
  return r;
}

ProfileResult matrix_profile_join(const data::Series& a, const data::Series& b,
                                  ProfileConfig cfg) {
  static const obs::Counter runs("mda.mining.profile.runs");
  validate(cfg);
  runs.add();
  const KernelTraits traits = resolve_traits(cfg, profile_bounds(cfg));
  const std::vector<data::Series> wa = build_windows(a, cfg);
  const std::vector<data::Series> wb = build_windows(b, cfg);
  const std::vector<dist::Envelope> eb =
      traits.bounds.lb_keogh ? build_envelopes(wb, cfg)
                             : std::vector<dist::Envelope>{};
  const std::vector<dist::Envelope> none;

  // Stripe s holds the pairs with (j - i) mod kStripes == s, row-major.
  ProfileResult r = make_result(wa.size(), cfg, 0, traits.similarity);
  const Ctx c{cfg, traits, wa, wb, none, eb, false};
  run_stripes(c, [&](std::size_t s) {
    std::vector<PairTask> pairs;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      for (std::size_t j = (i + s) % kStripes; j < wb.size(); j += kStripes) {
        pairs.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j)});
      }
    }
    return pairs;
  }, r);
  bump_pair_metrics(r.stats);
  return r;
}

MotifResult profile_motif(const ProfileResult& r) {
  double best = r.similarity ? -kInf : kInf;
  std::size_t at = kNoNeighbor;
  for (std::size_t i = 0; i < r.profile.size(); ++i) {
    if (r.neighbor[i] == kNoNeighbor) continue;
    if (improves(r.profile[i], i, best, at, r.similarity)) {
      best = r.profile[i];
      at = i;
    }
  }
  if (at == kNoNeighbor) {
    throw std::invalid_argument("profile: no admissible window pair");
  }
  MotifResult m;
  const std::size_t a = r.starts[at];
  const std::size_t b = r.starts[r.neighbor[at]];
  m.first = std::min(a, b);
  m.second = std::max(a, b);
  m.distance = best;
  m.pairs_evaluated = r.stats.evaluated;
  return m;
}

std::vector<Discord> profile_discords(const ProfileResult& r, std::size_t k) {
  std::vector<Discord> all;
  for (std::size_t i = 0; i < r.profile.size(); ++i) {
    if (r.neighbor[i] == kNoNeighbor) continue;
    all.push_back({r.starts[i], r.profile[i]});
  }
  // Most anomalous first; position tie-break keeps the ranking independent
  // of sort internals (same rule as find_discords).
  std::sort(all.begin(), all.end(), [&](const Discord& a, const Discord& b) {
    if (a.nn_distance != b.nn_distance) {
      return r.similarity ? a.nn_distance < b.nn_distance
                          : a.nn_distance > b.nn_distance;
    }
    return a.position < b.position;
  });
  std::vector<Discord> top;
  for (const Discord& d : all) {
    if (top.size() >= k) break;
    bool overlaps = false;
    for (const Discord& kept : top) {
      const std::size_t gap = kept.position > d.position
                                  ? kept.position - d.position
                                  : d.position - kept.position;
      if (gap < r.exclusion) overlaps = true;
    }
    if (!overlaps) top.push_back(d);
  }
  return top;
}

StreamingProfile::StreamingProfile(ProfileConfig cfg) : cfg_(std::move(cfg)) {
  validate(cfg_);
  if (cfg_.exclusion == 0) cfg_.exclusion = cfg_.window;
  if (cfg_.stream_capacity != 0 && cfg_.stream_capacity < cfg_.window) {
    throw std::invalid_argument(
        "profile: stream_capacity must hold at least one window");
  }
  bounds_ = profile_bounds(cfg_);
}

void StreamingProfile::append(double value) {
  static const obs::Counter appends("mda.mining.profile.appends");
  appends.add();
  const ProfileStats before = stats_;
  if (cfg_.stream_capacity != 0 && raw_.size() == cfg_.stream_capacity) {
    evict_front();
  }
  raw_.push_back(value);
  if (raw_.size() >= cfg_.window) add_window();
  bump_pair_metrics(stats_delta(stats_, before));
}

void StreamingProfile::append(std::span<const double> values) {
  for (const double v : values) append(v);
}

ProfileResult StreamingProfile::profile() const {
  ProfileResult r = make_result(windows_.size(), cfg_, cfg_.exclusion,
                                resolve_traits(cfg_, bounds_).similarity);
  r.profile = best_;
  r.neighbor = nn_;
  r.stats = stats_;
  return r;
}

void StreamingProfile::add_window() {
  const KernelTraits traits = resolve_traits(cfg_, bounds_);
  const std::span<const double> raw{raw_.data() + raw_.size() - cfg_.window,
                                    cfg_.window};
  windows_.push_back(make_window(raw, cfg_.znormalize));
  if (traits.bounds.lb_keogh) {
    envelopes_.push_back(
        dist::make_envelope(windows_.back(), envelope_radius(cfg_)));
  }
  best_.push_back(traits.similarity ? -kInf : kInf);
  nn_.push_back(kNoNeighbor);

  // The admissible candidates of the new window w in ascending index
  // order; each evaluation may also improve the candidate's own row.
  // Asymmetric kernels (directed Hausdorff) evaluate each orientation
  // separately under its own row's cutoff.
  const std::size_t w = windows_.size() - 1;
  if (w < cfg_.exclusion) return;
  std::vector<PairTask> pairs;
  for (std::size_t j = 0; j + cfg_.exclusion <= w; ++j) {
    pairs.push_back({static_cast<std::uint32_t>(w),
                     static_cast<std::uint32_t>(j)});
    if (!traits.symmetric) {
      pairs.push_back({static_cast<std::uint32_t>(j),
                       static_cast<std::uint32_t>(w)});
    }
  }
  const Ctx c{cfg_,      traits,     windows_,
              windows_,  envelopes_, envelopes_,
              traits.symmetric};
  run_stripe(c, pairs, best_, nn_, stats_);
}

void StreamingProfile::evict_front() {
  static const obs::Counter rebuilds("mda.mining.profile.row_rebuilds");
  raw_.erase(raw_.begin());
  ++evicted_;
  if (windows_.empty()) return;
  // The front window retires with its first point; every surviving window
  // index shifts down by one.
  windows_.erase(windows_.begin());
  if (!envelopes_.empty()) envelopes_.erase(envelopes_.begin());
  best_.erase(best_.begin());
  nn_.erase(nn_.begin());
  std::vector<std::size_t> orphaned;
  for (std::size_t i = 0; i < nn_.size(); ++i) {
    if (nn_[i] == kNoNeighbor) continue;
    if (nn_[i] == 0) {
      orphaned.push_back(i);  // nearest neighbour was the retired window
    } else {
      --nn_[i];
    }
  }
  for (const std::size_t i : orphaned) {
    rebuilds.add();
    rebuild_row(i);
  }
}

void StreamingProfile::rebuild_row(std::size_t i) {
  const KernelTraits traits = resolve_traits(cfg_, bounds_);
  best_[i] = traits.similarity ? -kInf : kInf;
  nn_[i] = kNoNeighbor;
  std::vector<PairTask> pairs;
  for (std::size_t j = 0; j < windows_.size(); ++j) {
    const std::size_t gap = i > j ? i - j : j - i;
    if (gap < cfg_.exclusion) continue;
    pairs.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j)});
  }
  // self = false: only row i is rebuilt.
  const Ctx c{cfg_, traits, windows_, windows_, envelopes_, envelopes_, false};
  run_stripe(c, pairs, best_, nn_, stats_);
}

}  // namespace mda::mining
