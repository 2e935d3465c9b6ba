#include "spice/newton.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace mda::spice {
namespace {

// Solver accounting (DESIGN.md §8): every solve point, every iteration, and
// every fallback escalation is visible in the metrics snapshot.
const obs::Counter& solves_counter() {
  static const obs::Counter c("mda.spice.newton_solves");
  return c;
}
const obs::Counter& iterations_counter() {
  static const obs::Counter c("mda.spice.newton_iterations");
  return c;
}

}  // namespace

NewtonResult NewtonSolver::iterate(std::vector<double>& x, double t, double dt,
                                   bool dc, Integration method,
                                   double gmin_extra, double source_scale) {
  const Tolerances& tol = mna_->tolerances();
  NewtonResult res;
  std::vector<double>& x_new = x_new_;
  StampContext ctx;
  ctx.t = t;
  ctx.dt = dt;
  ctx.dc = dc;
  ctx.method = method;
  ctx.x = &x;
  ctx.source_scale = source_scale;

  const bool needs_iterations = mna_->has_nonlinear_devices();
  // Damping applies only to nonlinear solves (a linear solve lands exactly);
  // the limit shrinks periodically to break saturation-induced oscillation
  // (high-gain op-amp stages flipping rail to rail between iterations).
  double step_limit = tol.v_step_limit;
  for (int it = 0; it < tol.max_newton_iters; ++it) {
    // Partial restamp (DESIGN.md §12): only the first iteration of the solve
    // point stamps every device.
    mna_->assemble_iterate(ctx, gmin_extra, it == 0);
    if (!mna_->solve_assembled(x_new)) {
      res.converged = false;
      res.iterations = it + 1;
      iterations_counter().add(static_cast<std::uint64_t>(res.iterations));
      return res;
    }
    if (needs_iterations && it > 0 && it % 25 == 0) {
      step_limit = std::max(step_limit * 0.5, 1e-4);
    }
    double max_delta = 0.0;
    bool converged = true;
    for (int i = 0; i < mna_->num_unknowns(); ++i) {
      const auto ui = static_cast<std::size_t>(i);
      double delta = x_new[ui] - x[ui];
      if (needs_iterations && mna_->is_voltage_unknown(i)) {
        delta = std::clamp(delta, -step_limit, step_limit);
      }
      const double updated = x[ui] + delta;
      const double atol = mna_->is_voltage_unknown(i) ? tol.vntol : tol.abstol;
      const double limit =
          atol + tol.reltol * std::max(std::abs(updated), std::abs(x[ui]));
      if (std::abs(delta) > limit) converged = false;
      max_delta = std::max(max_delta, std::abs(delta));
      x[ui] = updated;
    }
    res.iterations = it + 1;
    res.max_delta = max_delta;
    if (!needs_iterations || converged) {
      // Linear circuits converge in a single solve; nonlinear ones need the
      // stamp to have been evaluated at (numerically) the final iterate, so
      // require at least two passes.
      if (!needs_iterations || it >= 1) {
        res.converged = true;
        iterations_counter().add(static_cast<std::uint64_t>(res.iterations));
        return res;
      }
    }
  }
  res.converged = false;
  iterations_counter().add(static_cast<std::uint64_t>(res.iterations));
  return res;
}

NewtonResult NewtonSolver::solve(std::vector<double>& x, double t, double dt,
                                 bool dc, Integration method) {
  solves_counter().add();

  NewtonResult res = iterate(x, t, dt, dc, method, 0.0, 1.0);
  if (res.converged) return res;
  return fallback_solve(x, t, dt, dc, method, res);
}

NewtonResult NewtonSolver::fallback_solve(std::vector<double>& x, double t,
                                          double dt, bool dc,
                                          Integration method,
                                          NewtonResult res) {
  static const obs::Counter gmin_retries("mda.spice.gmin_retries");
  static const obs::Counter gmin_steps("mda.spice.gmin_steps");
  static const obs::Counter source_retries("mda.spice.source_retries");
  static const obs::Counter failures("mda.spice.newton_failures");

  // Every homotopy stage below spends real linearised solves; the returned
  // iteration count accumulates all of them so TransientResult /
  // ComputeResult provenance and the fault watchdog see the true cost.
  long total_iterations = res.iterations;

  // gmin stepping: solve with a large artificial conductance to ground and
  // progressively remove it.
  util::log_debug() << "Newton failed at t=" << t << "; trying gmin stepping";
  gmin_retries.add();
  std::vector<double> x_try = x;
  bool ok = true;
  for (double gmin = 1e-2; gmin >= 1e-13; gmin /= 10.0) {
    gmin_steps.add();
    NewtonResult r = iterate(x_try, t, dt, dc, method, gmin, 1.0);
    total_iterations += r.iterations;
    if (!r.converged) {
      ok = false;
      break;
    }
  }
  if (ok) {
    NewtonResult r = iterate(x_try, t, dt, dc, method, 0.0, 1.0);
    total_iterations += r.iterations;
    if (r.converged) {
      x = x_try;
      r.iterations = static_cast<int>(total_iterations);
      r.used_fallback = true;
      return r;
    }
  }

  // Source stepping homotopy as a last resort.
  util::log_debug() << "gmin stepping failed at t=" << t
                    << "; trying source stepping";
  source_retries.add();
  x_try.assign(x.size(), 0.0);
  ok = true;
  NewtonResult last;
  for (double scale = 0.1; scale <= 1.0001; scale += 0.1) {
    NewtonResult r =
        iterate(x_try, t, dt, dc, method, 0.0, std::min(scale, 1.0));
    total_iterations += r.iterations;
    last = r;
    if (!r.converged) {
      ok = false;
      break;
    }
  }
  if (ok) {
    x = x_try;
    last.iterations = static_cast<int>(total_iterations);
    last.used_fallback = true;
    return last;
  }
  failures.add();
  res.iterations = static_cast<int>(total_iterations);
  res.used_fallback = true;
  return res;
}

// ---------------------------------------------------------------------------
// BatchNewtonSolver (DESIGN.md §12)
//
// The lockstep driver replays the scalar solve()/iterate() control flow per
// lane while sharing the linear-solve work across lanes.  Parity with the
// scalar path is load-bearing: every counter bump below mirrors one in
// NewtonSolver::iterate or MnaSystem::solve_assembled (obs::register_metric
// is idempotent, so same-name counters share the scalar series), and every
// irregular lane is evicted to the genuine scalar code so its arithmetic and
// accounting are the serial ones.
// ---------------------------------------------------------------------------

bool BatchNewtonSolver::lane_structure_matches(std::size_t i,
                                               const NewtonLane& lane,
                                               const MnaSystem& ref) {
  if (lane.mna == &ref) return true;
  LaneMemoSet& ways = memo_[i];
  const std::uint64_t le = lane.mna->structure_epoch();
  const std::uint64_t lf = lane.mna->sparse_lu_.factor_epoch();
  const std::uint64_t re = ref.structure_epoch();
  const std::uint64_t rf = ref.sparse_lu_.factor_epoch();
  for (const LaneMemo& m : ways.way) {
    if (m.ref == &ref && m.mna_epoch == le && m.lu_epoch == lf &&
        m.ref_mna_epoch == re && m.ref_lu_epoch == rf) {
      return m.equal;
    }
  }
  const bool pattern_eq = lane.mna->csc_.n == ref.csc_.n &&
                          lane.mna->csc_.col_ptr == ref.csc_.col_ptr &&
                          lane.mna->csc_.row_idx == ref.csc_.row_idx;
  const bool eq = pattern_eq && BatchedSparseLu::structure_equal(
                                    lane.mna->sparse_lu_, ref.sparse_lu_);
  LaneMemo& m = ways.way[ways.next];
  ways.next = (ways.next + 1) % kLaneMemoWays;
  m.ref = &ref;
  m.mna_epoch = le;
  m.lu_epoch = lf;
  m.ref_mna_epoch = re;
  m.ref_lu_epoch = rf;
  m.equal = eq;
  return eq;
}

BatchNewtonSolver::SparseBatch* BatchNewtonSolver::acquire_sparse_batch(
    std::size_t rep_lane, const NewtonLane& lane, const MnaSystem& ref,
    std::size_t nlanes) {
  ++spool_clock_;
  const std::uint64_t me = ref.structure_epoch();
  const std::uint64_t fe = ref.sparse_lu_.factor_epoch();
  for (SparseBatch& e : spool_) {
    if (e.ref == &ref && e.mna_epoch == me && e.lu_epoch == fe) {
      if (e.lanes != nlanes) {
        e.lu.resize_lanes(nlanes);
        e.lanes = nlanes;
      }
      e.last_used = spool_clock_;
      return &e;
    }
  }
  // The class representative changed (its lane retired between solve
  // points), but some entry's buffers may already hold an equal structure:
  // compare against the entry's own stored copy — never through e.ref,
  // which may point at a destroyed instance — and retag on a match.
  for (SparseBatch& e : spool_) {
    if (e.ref != nullptr && e.lu.holds_structure_of(ref.sparse_lu_, ref.csc_)) {
      if (e.lanes != nlanes) {
        e.lu.resize_lanes(nlanes);
        e.lanes = nlanes;
      }
      e.ref = &ref;
      e.mna_epoch = me;
      e.lu_epoch = fe;
      e.last_used = spool_clock_;
      return &e;
    }
  }
  SparseBatch* slot = nullptr;
  if (spool_.size() < kMaxSparsePool) {
    slot = &spool_.emplace_back();
  } else {
    for (SparseBatch& e : spool_) {
      if (slot == nullptr || e.last_used < slot->last_used) slot = &e;
    }
  }
  if (!slot->lu.adopt(ref.sparse_lu_, ref.csc_, nlanes)) {
    slot->ref = nullptr;
    return nullptr;
  }
  slot->ref = &ref;
  slot->mna_epoch = me;
  slot->lu_epoch = fe;
  slot->lanes = nlanes;
  slot->last_used = spool_clock_;
  return slot;
}

void BatchNewtonSolver::solve_round(std::span<NewtonLane> lanes) {
  // Same-name counters as MnaSystem::solve_assembled — shared series.
  static const obs::Counter dense_solves("mda.spice.dense_lu_solves");
  static const obs::Counter sparse_refactors("mda.spice.sparse_lu_refactors");
  static const obs::Counter sparse_solves("mda.spice.sparse_lu_solves");
  static const obs::Counter singular("mda.spice.singular_systems");
  // Batch-path observability.
  static const obs::Counter batch_sparse_lanes("mda.spice.batch_sparse_lanes");
  static const obs::Counter batch_dense_lanes("mda.spice.batch_dense_lanes");
  static const obs::Counter batch_evictions(
      "mda.spice.batch_scalar_evictions");

  const std::size_t nlanes = lanes.size();

  // 1. Assemble every pending lane: full stamp on the first iteration,
  //    partial restamp (linear replay + nonlinear live restamp) after.
  for (std::size_t i = 0; i < nlanes; ++i) {
    if (!state_[i].pending) continue;
    NewtonLane& lane = lanes[i];
    StampContext ctx;
    ctx.t = lane.t;
    ctx.dt = lane.dt;
    ctx.dc = lane.dc;
    ctx.method = lane.method;
    ctx.x = lane.x;
    ctx.source_scale = 1.0;
    lane.mna->assemble_iterate(ctx, 0.0, state_[i].it == 0);
    solve_ok_[i] = 0;
  }

  scalar_.clear();

  // 2. Dense-path lanes (small systems): batch those sharing a dimension.
  group_.clear();
  for (std::size_t i = 0; i < nlanes; ++i) {
    if (!state_[i].pending) continue;
    if (lanes[i].mna->num_unknowns() <= MnaSystem::kDenseThreshold) {
      group_.push_back(i);
    }
  }
  if (group_.size() >= 2) {
    const int n = lanes[group_[0]].mna->num_unknowns();
    std::size_t w = 0;
    for (std::size_t g : group_) {
      if (lanes[g].mna->num_unknowns() == n) {
        group_[w++] = g;
      } else {
        scalar_.push_back(g);
      }
    }
    group_.resize(w);
    bdense_.resize(n, group_.size());
    for (std::size_t s = 0; s < group_.size(); ++s) {
      MnaSystem& mna = *lanes[group_[s]].mna;
      // Replicate the scalar dense accumulation (same triplet order).
      mna.dense_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                        0.0);
      for (std::size_t k = 0; k < mna.vals_.size(); ++k) {
        mna.dense_[static_cast<std::size_t>(mna.rows_[k]) *
                       static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(mna.cols_[k])] += mna.vals_[k];
      }
      bdense_.load_lane_matrix(s, mna.dense_);
      bdense_.load_lane_rhs(s, mna.rhs_);
    }
    batch_ok_.assign(group_.size(), 1);
    bdense_.factor(batch_ok_.data());
    bool any_ok = false;
    for (unsigned char ok : batch_ok_) any_ok |= (ok != 0);
    if (any_ok) bdense_.solve();
    for (std::size_t s = 0; s < group_.size(); ++s) {
      const std::size_t i = group_[s];
      if (batch_ok_[s] == 0) {
        singular.add();
        solve_ok_[i] = 0;
        continue;
      }
      bdense_.store_lane_solution(s, x_new_[i]);
      dense_solves.add();
      batch_dense_lanes.add();
      solve_ok_[i] = 1;
    }
  } else {
    for (std::size_t g : group_) scalar_.push_back(g);
  }

  // 3. Sparse-path lanes: prepare values, partition the refactor-ready
  //    lanes into structure classes (per-lane value streams steer threshold
  //    pivoting, so several pivot orders can coexist in one round), and
  //    batch each class through its own pooled SoA solver.
  group_.clear();
  for (std::size_t i = 0; i < nlanes; ++i) {
    if (!state_[i].pending) continue;
    NewtonLane& lane = lanes[i];
    if (lane.mna->num_unknowns() <= MnaSystem::kDenseThreshold) continue;
    MnaSystem& mna = *lane.mna;
    mna.prepare_sparse_values();
    // Irregular events run scalar: stream re-entry (cold-exact guard),
    // first/cold factor, refactoring disabled.
    if (mna.lu_stream_pending_ || !mna.lu_valid_ ||
        !mna.tol_.allow_lu_refactor) {
      scalar_.push_back(i);
      continue;
    }
    group_.push_back(i);
  }
  num_classes_ = 0;
  for (std::size_t g : group_) {
    bool placed = false;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      if (lane_structure_matches(g, lanes[g],
                                 *lanes[classes_[c].front()].mna)) {
        classes_[c].push_back(g);
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (num_classes_ == classes_.size()) classes_.emplace_back();
      classes_[num_classes_].clear();
      classes_[num_classes_].push_back(g);
      ++num_classes_;
    }
  }
  for (std::size_t c = 0; c < num_classes_; ++c) {
    std::vector<std::size_t>& cls = classes_[c];
    if (cls.size() < 2) {
      for (std::size_t g : cls) scalar_.push_back(g);
      continue;
    }
    const MnaSystem& ref = *lanes[cls.front()].mna;
    SparseBatch* batch =
        acquire_sparse_batch(cls.front(), lanes[cls.front()], ref, cls.size());
    if (batch == nullptr) {
      for (std::size_t g : cls) scalar_.push_back(g);
      continue;
    }
    BatchedSparseLu& bs = batch->lu;
    for (std::size_t s = 0; s < cls.size(); ++s) {
      MnaSystem& mna = *lanes[cls[s]].mna;
      bs.load_lane_values(s, mna.csc_);
      bs.load_lane_rhs(s, mna.permuted_rhs());
    }
    batch_ok_.assign(cls.size(), 1);
    bs.refactor(batch_ok_.data());
    bool any_ok = false;
    for (unsigned char ok : batch_ok_) any_ok |= (ok != 0);
    if (any_ok) bs.solve();
    for (std::size_t s = 0; s < cls.size(); ++s) {
      const std::size_t i = cls[s];
      if (batch_ok_[s] == 0) {
        // Pivot-guard failure: rerun the lane scalar.  Its own refactor
        // fails on the identical values, so solve_assembled takes the
        // refactor_fallbacks -> factor path with exact serial accounting.
        scalar_.push_back(i);
        continue;
      }
      sparse_refactors.add();
      MnaSystem& mna = *lanes[i].mna;
      bs.store_lane_solution(s, mna.lu_x_);
      mna.unpermute_solution(x_new_[i]);
      sparse_solves.add();
      batch_sparse_lanes.add();
      solve_ok_[i] = 1;
    }
  }

  // 4. Evicted lanes run the genuine scalar solver (deterministic order).
  std::sort(scalar_.begin(), scalar_.end());
  for (std::size_t i : scalar_) {
    batch_evictions.add();
    solve_ok_[i] = lanes[i].mna->solve_assembled(x_new_[i]) ? 1 : 0;
  }
}

void BatchNewtonSolver::solve(std::span<NewtonLane> lanes) {
  static const obs::Counter batch_rounds("mda.spice.batch_rounds");
  static const obs::Counter batch_lane_points("mda.spice.batch_lane_points");
  static const obs::Counter batch_fallback_lanes(
      "mda.spice.batch_fallback_lanes");

  const std::size_t nlanes = lanes.size();
  std::size_t nactive = 0;
  std::size_t only = 0;
  for (std::size_t i = 0; i < nlanes; ++i) {
    if (lanes[i].active) {
      ++nactive;
      only = i;
    }
  }
  if (nactive == 0) return;
  if (nactive == 1) {
    // A lone lane gains nothing from lockstep bookkeeping; the scalar solve
    // is bit-identical by the contract.
    NewtonLane& lane = lanes[only];
    lane.result =
        lane.newton->solve(*lane.x, lane.t, lane.dt, lane.dc, lane.method);
    return;
  }

  if (state_.size() != nlanes) {
    state_.assign(nlanes, LaneState{});
    memo_.assign(nlanes, LaneMemoSet{});
    x_new_.resize(nlanes);
    solve_ok_.assign(nlanes, 0);
  }

  for (std::size_t i = 0; i < nlanes; ++i) {
    LaneState& st = state_[i];
    if (!lanes[i].active) {
      st.pending = false;
      st.fallback = false;
      continue;
    }
    solves_counter().add();
    batch_lane_points.add();
    lanes[i].result = NewtonResult{};
    st.it = 0;
    st.step_limit = lanes[i].mna->tolerances().v_step_limit;
    st.pending = true;
    st.fallback = false;
  }

  // Plain lockstep Newton loop: the per-lane update below is a line-for-line
  // replay of NewtonSolver::iterate at gmin_extra=0, source_scale=1.
  for (;;) {
    bool any_pending = false;
    for (std::size_t i = 0; i < nlanes; ++i) any_pending |= state_[i].pending;
    if (!any_pending) break;
    batch_rounds.add();
    solve_round(lanes);
    for (std::size_t i = 0; i < nlanes; ++i) {
      LaneState& st = state_[i];
      if (!st.pending) continue;
      NewtonLane& lane = lanes[i];
      const Tolerances& tol = lane.mna->tolerances();
      const bool needs_iterations = lane.mna->has_nonlinear_devices();
      if (solve_ok_[i] == 0) {
        lane.result.converged = false;
        lane.result.iterations = st.it + 1;
        iterations_counter().add(
            static_cast<std::uint64_t>(lane.result.iterations));
        st.pending = false;
        st.fallback = true;
        continue;
      }
      if (needs_iterations && st.it > 0 && st.it % 25 == 0) {
        st.step_limit = std::max(st.step_limit * 0.5, 1e-4);
      }
      std::vector<double>& x = *lane.x;
      const std::vector<double>& x_new = x_new_[i];
      double max_delta = 0.0;
      bool converged = true;
      for (int u = 0; u < lane.mna->num_unknowns(); ++u) {
        const auto ui = static_cast<std::size_t>(u);
        double delta = x_new[ui] - x[ui];
        if (needs_iterations && lane.mna->is_voltage_unknown(u)) {
          delta = std::clamp(delta, -st.step_limit, st.step_limit);
        }
        const double updated = x[ui] + delta;
        const double atol =
            lane.mna->is_voltage_unknown(u) ? tol.vntol : tol.abstol;
        const double limit =
            atol + tol.reltol * std::max(std::abs(updated), std::abs(x[ui]));
        if (std::abs(delta) > limit) converged = false;
        max_delta = std::max(max_delta, std::abs(delta));
        x[ui] = updated;
      }
      lane.result.iterations = st.it + 1;
      lane.result.max_delta = max_delta;
      if ((!needs_iterations || converged) && (!needs_iterations || st.it >= 1)) {
        lane.result.converged = true;
        iterations_counter().add(
            static_cast<std::uint64_t>(lane.result.iterations));
        st.pending = false;
        continue;
      }
      ++st.it;
      if (st.it >= tol.max_newton_iters) {
        lane.result.converged = false;
        iterations_counter().add(
            static_cast<std::uint64_t>(lane.result.iterations));
        st.pending = false;
        st.fallback = true;
      }
    }
  }

  // Homotopy fallbacks run the unmodified scalar tail, in lane order.
  for (std::size_t i = 0; i < nlanes; ++i) {
    if (!state_[i].fallback) continue;
    batch_fallback_lanes.add();
    NewtonLane& lane = lanes[i];
    lane.result = lane.newton->fallback_solve(*lane.x, lane.t, lane.dt,
                                              lane.dc, lane.method,
                                              lane.result);
  }
}

}  // namespace mda::spice
