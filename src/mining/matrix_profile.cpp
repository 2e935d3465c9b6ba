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

/// The abandon cutoff a digital kernel runs under for a pair whose frozen
/// cutoff is `cutoff`.
double lane_cutoff(const ProfileConfig& cfg, const KernelTraits& traits,
                   double cutoff) {
  return traits.bounds.early_abandon && cutoff < kInf
             ? cutoff
             : cfg.params.abandon_above;
}

/// Digital/custom kernel evaluation under an (optional) abandon cutoff.
double kernel_eval(const ProfileConfig& cfg, const KernelTraits& traits,
                   std::span<const double> a, std::span<const double> b,
                   double cutoff) {
  if (traits.custom) return cfg.fn(a, b);
  const dist::LanePair pair{a, b, lane_cutoff(cfg, traits, cutoff)};
  double d = 0.0;
  dist::compute_lanes(cfg.kind, {&pair, 1}, cfg.params, {&d, 1});
  return d;
}

enum class Outcome : std::uint8_t {
  Survive,    ///< Passed the cascade; evaluation still owed.
  KimPruned,
  KeoghPruned,
  Abandoned,
  Evaluated,
};

struct PairTask {
  std::uint32_t i;
  std::uint32_t j;
};

/// Everything run_pairs needs; wa/wb (and ea/eb) alias for self-joins.
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

/// Evaluate the admissible pairs, maintaining per-window bests/neighbours.
/// Engine mode runs fixed blocks with bests frozen at each barrier (the
/// subsequence_search pattern — thread-count invariant by construction);
/// serial mode prunes against live bests.  Both produce the same profile
/// bits: pruning is strict (only provably-worse candidates drop) and the
/// merge rule is order-independent.
void run_pairs(const Ctx& c, const std::vector<PairTask>& pairs,
               std::vector<double>& best, std::vector<std::size_t>& nn,
               ProfileStats& stats) {
  const bool sim = c.traits.similarity;
  stats.pairs += pairs.size();

  // Cutoff above which the pair can change nothing: for self-joins it must
  // beat BOTH rows, so the prune/abandon bar is the larger of the two.
  auto cutoff_of = [&](const PairTask& t, const std::vector<double>& b) {
    if (sim) return kInf;  // no admissible bounds for similarity kernels
    return c.self ? std::max(b[t.i], b[t.j]) : b[t.i];
  };
  auto merge = [&](const PairTask& t, double d) {
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
  auto abandoned = [&](double cutoff, double d) {
    return c.traits.bounds.early_abandon && cutoff < kInf && d == kInf;
  };

  if (c.cfg.engine != nullptr) {
    // Three stages per block: the LB cascade per pair, evaluation of the
    // survivors, and the in-order merge.  Kinds with a lane kernel evaluate
    // dist::kMaxLanes survivors per compute_lanes call, each lane
    // bit-identical to its scalar call, so the profile and the cascade
    // statistics do not depend on the grouping; custom callables and the
    // other kinds evaluate within the cascade stage.
    struct Eval {
      Outcome outcome;
      double d;
      double cutoff;
    };
    const std::size_t block = std::max<std::size_t>(1, c.cfg.engine_block);
    const bool lanes = !c.traits.custom && !c.traits.accel &&
                       dist::has_lane_kernel(c.cfg.kind);
    std::vector<Eval> evals(block);
    std::vector<double> frozen;
    std::vector<std::size_t> pending;
    std::vector<core::QueryRequest> requests;
    for (std::size_t base = 0; base < pairs.size(); base += block) {
      const std::size_t count = std::min(block, pairs.size() - base);
      frozen = best;
      c.cfg.engine->parallel_for(count, [&](std::size_t k) {
        const PairTask& t = pairs[base + k];
        const double cutoff = cutoff_of(t, frozen);
        const Outcome lb = lb_check(c, t, cutoff * c.cfg.lb_margin);
        if (lb != Outcome::Survive || c.traits.accel || lanes) {
          evals[k] = {lb, 0.0, cutoff};  // survivors evaluated below
          return;
        }
        const double d =
            kernel_eval(c.cfg, c.traits, c.wa[t.i], c.wb[t.j], cutoff);
        evals[k] = {abandoned(cutoff, d) ? Outcome::Abandoned
                                         : Outcome::Evaluated,
                    d, cutoff};
      });
      pending.clear();
      for (std::size_t k = 0; k < count; ++k) {
        if (evals[k].outcome == Outcome::Survive) pending.push_back(k);
      }
      if (c.traits.accel) {
        // Survivors of the digital front end, absorbed as one QueryRequest
        // batch through BatchEngine.
        requests.clear();
        for (const std::size_t k : pending) {
          const PairTask& t = pairs[base + k];
          requests.push_back(make_request(c.cfg, c.wa[t.i], c.wb[t.j]));
        }
        if (!requests.empty()) {
          const std::vector<core::ComputeOutcome> outcomes =
              c.cfg.engine->try_compute_batch(*c.cfg.accelerator, requests);
          for (std::size_t k = 0; k < outcomes.size(); ++k) {
            evals[pending[k]] = {Outcome::Evaluated,
                                 outcomes[k].unwrap().value, 0.0};
          }
        }
      } else if (lanes) {
        const std::size_t groups =
            (pending.size() + dist::kMaxLanes - 1) / dist::kMaxLanes;
        c.cfg.engine->parallel_for(groups, [&](std::size_t g) {
          const std::size_t first = g * dist::kMaxLanes;
          const std::size_t n =
              std::min(dist::kMaxLanes, pending.size() - first);
          dist::LanePair lane[dist::kMaxLanes];
          double d[dist::kMaxLanes];
          for (std::size_t l = 0; l < n; ++l) {
            const Eval& e = evals[pending[first + l]];
            const PairTask& t = pairs[base + pending[first + l]];
            lane[l] = {c.wa[t.i], c.wb[t.j],
                       lane_cutoff(c.cfg, c.traits, e.cutoff)};
          }
          dist::compute_lanes(c.cfg.kind, {lane, n}, c.cfg.params, {d, n});
          for (std::size_t l = 0; l < n; ++l) {
            Eval& e = evals[pending[first + l]];
            e = {abandoned(e.cutoff, d[l]) ? Outcome::Abandoned
                                           : Outcome::Evaluated,
                 d[l], e.cutoff};
          }
        });
      }
      for (std::size_t k = 0; k < count; ++k) {
        switch (evals[k].outcome) {
          case Outcome::KimPruned: ++stats.pruned_lb_kim; break;
          case Outcome::KeoghPruned: ++stats.pruned_lb_keogh; break;
          case Outcome::Abandoned: ++stats.abandoned; break;
          case Outcome::Evaluated: merge(pairs[base + k], evals[k].d); break;
          case Outcome::Survive: break;  // unreachable
        }
      }
    }
    return;
  }

  for (const PairTask& t : pairs) {
    const double cutoff = cutoff_of(t, best);
    switch (lb_check(c, t, cutoff * c.cfg.lb_margin)) {
      case Outcome::KimPruned: ++stats.pruned_lb_kim; continue;
      case Outcome::KeoghPruned: ++stats.pruned_lb_keogh; continue;
      default: break;
    }
    const double d =
        c.traits.accel
            ? c.cfg.accelerator
                  ->try_compute(make_request(c.cfg, c.wa[t.i], c.wb[t.j]))
                  .unwrap()
                  .value
            : kernel_eval(c.cfg, c.traits, c.wa[t.i], c.wb[t.j], cutoff);
    if (abandoned(cutoff, d)) {
      ++stats.abandoned;
      continue;
    }
    merge(t, d);
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

  // STOMP-style diagonal-major pair order: diagonal k holds the pairs at
  // start-offset distance k.  Symmetric kernels evaluate each unordered
  // pair once and update both rows; the directed (asymmetric) Hausdorff
  // evaluates both orientations, each updating its own row.
  std::vector<PairTask> pairs;
  for (std::size_t k = cfg.exclusion; k < count; ++k) {
    for (std::size_t i = 0; i + k < count; ++i) {
      pairs.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(i + k)});
      if (!traits.symmetric) {
        pairs.push_back({static_cast<std::uint32_t>(i + k),
                         static_cast<std::uint32_t>(i)});
      }
    }
  }

  ProfileResult r = make_result(count, cfg, cfg.exclusion, traits.similarity);
  const Ctx c{cfg,       traits,    windows,
              windows,   envelopes, envelopes,
              traits.symmetric};
  run_pairs(c, pairs, r.profile, r.neighbor, r.stats);
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

  std::vector<PairTask> pairs;
  pairs.reserve(wa.size() * wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    for (std::size_t j = 0; j < wb.size(); ++j) {
      pairs.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j)});
    }
  }

  ProfileResult r = make_result(wa.size(), cfg, 0, traits.similarity);
  const Ctx c{cfg, traits, wa, wb, none, eb, false};
  run_pairs(c, pairs, r.profile, r.neighbor, r.stats);
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

  // Scan the admissible candidates of the new window in ascending index
  // order; each evaluation may also improve the candidate's own row (the
  // new window's index is the largest, so ties never displace old rows).
  // Asymmetric kernels (directed Hausdorff) evaluate each orientation
  // separately under its own row's cutoff.
  const std::size_t w = windows_.size() - 1;
  if (w < cfg_.exclusion) return;
  for (std::size_t j = 0; j + cfg_.exclusion <= w; ++j) {
    if (traits.symmetric) {
      const double cutoff =
          traits.similarity ? kInf : std::max(best_[w], best_[j]);
      const Scan s = scan_pair(w, j, cutoff);
      if (!s.evaluated) continue;
      if (improves(s.d, j, best_[w], nn_[w], traits.similarity)) {
        best_[w] = s.d;
        nn_[w] = j;
      }
      if (improves(s.d, w, best_[j], nn_[j], traits.similarity)) {
        best_[j] = s.d;
        nn_[j] = w;
      }
    } else {
      const Scan fwd =
          scan_pair(w, j, traits.similarity ? kInf : best_[w]);
      if (fwd.evaluated &&
          improves(fwd.d, j, best_[w], nn_[w], traits.similarity)) {
        best_[w] = fwd.d;
        nn_[w] = j;
      }
      const Scan rev =
          scan_pair(j, w, traits.similarity ? kInf : best_[j]);
      if (rev.evaluated &&
          improves(rev.d, w, best_[j], nn_[j], traits.similarity)) {
        best_[j] = rev.d;
        nn_[j] = w;
      }
    }
  }
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
  for (std::size_t j = 0; j < windows_.size(); ++j) {
    const std::size_t gap = i > j ? i - j : j - i;
    if (gap < cfg_.exclusion) continue;
    const Scan s =
        scan_pair(i, j, traits.similarity ? kInf : best_[i]);
    if (!s.evaluated) continue;
    if (improves(s.d, j, best_[i], nn_[i], traits.similarity)) {
      best_[i] = s.d;
      nn_[i] = j;
    }
  }
}

StreamingProfile::Scan StreamingProfile::scan_pair(std::size_t i,
                                                   std::size_t j,
                                                   double cutoff) {
  const KernelTraits traits = resolve_traits(cfg_, bounds_);
  const Ctx c{cfg_,      traits,     windows_,
              windows_,  envelopes_, envelopes_,
              traits.symmetric};
  const PairTask t{static_cast<std::uint32_t>(i),
                   static_cast<std::uint32_t>(j)};
  ++stats_.pairs;
  switch (lb_check(c, t, cutoff * cfg_.lb_margin)) {
    case Outcome::KimPruned: ++stats_.pruned_lb_kim; return {};
    case Outcome::KeoghPruned: ++stats_.pruned_lb_keogh; return {};
    default: break;
  }
  const double d =
      traits.accel
          ? cfg_.accelerator
                ->try_compute(make_request(cfg_, windows_[i], windows_[j]))
                .unwrap()
                .value
          : kernel_eval(cfg_, traits, windows_[i], windows_[j], cutoff);
  if (traits.bounds.early_abandon && cutoff < kInf && d == kInf) {
    ++stats_.abandoned;
    return {};
  }
  ++stats_.evaluated;
  return {true, d};
}

}  // namespace mda::mining
