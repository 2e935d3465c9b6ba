#include "spice/mna.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "spice/ordering.hpp"

namespace mda::spice {

MnaSystem::MnaSystem(Netlist& netlist, Tolerances tol)
    : netlist_(&netlist), tol_(tol) {
  num_nodes_ = netlist.num_nodes();
  int branch = num_nodes_;
  dev_nonlinear_.reserve(netlist.devices().size());
  for (auto& dev : netlist.devices()) {
    const int nb = dev->num_branches();
    if (nb > 0) {
      dev->assign_branch_row(branch);
      if (dev->nonlinear()) {
        for (int b = 0; b < nb; ++b) guarded_branches_.push_back(branch + b);
      }
      branch += nb;
    }
    dev_nonlinear_.push_back(dev->nonlinear() ? 1 : 0);
    if (dev->nonlinear()) has_nonlinear_ = true;
  }
  num_unknowns_ = branch;
  sparse_lu_.set_bit_exact(tol_.lu_refactor_bit_exact);
}

void MnaSystem::reset_solver_state() {
  // Stream fast-path (DESIGN.md §11): when refactoring is enabled the
  // factorisation is kept across the query boundary.  The next linearised
  // solve re-enters it through refactor_cold_exact(), which either replays
  // a *cold* factor()'s exact arithmetic or rejects — and rejection drops
  // the LU together with the sticky pivot memory before the cold factor()
  // runs.  Either way the query is bit-identical to one on a freshly
  // constructed MnaSystem.
  lu_stream_pending_ = lu_valid_ && tol_.allow_lu_refactor;
  lu_valid_ = false;
  if (!lu_stream_pending_) sparse_lu_.reset();
}

void MnaSystem::rebuild_structure_cache() {
  static const obs::Counter pattern_builds("mda.spice.mna_pattern_builds");
  static const obs::Histogram ordering_time("mda.spice.ordering_time_s");
  pattern_builds.add();
  lu_valid_ = false;
  // A pattern change orphans any factorisation held across a query
  // boundary; drop it (and the pivot memory) so the next factor() is cold.
  if (lu_stream_pending_) {
    lu_stream_pending_ = false;
    sparse_lu_.reset();
  }
  pat_rows_ = rows_;
  pat_cols_ = cols_;

  const int n = num_unknowns_;
  const std::size_t nnz_in = pat_rows_.size();
  // The elimination order is a pure function of the pattern (and of the
  // netlist's guarded branches), so every instance over the same pattern —
  // any thread or cache generation — factors the same permuted
  // matrix.
  {
    obs::ScopedTimer timer(ordering_time);
    perm_ = pivot_stable_min_degree(n, pat_rows_, pat_cols_,
                                    guarded_branches_);
  }
  std::vector<int> iperm(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    iperm[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])] = k;
  }
  lu_x_.resize(static_cast<std::size_t>(n));
  // Bucket triplets per permuted column, preserving triplet order within a
  // column — the intermediate layout CscMatrix::from_triplets builds for
  // the permuted triplets.
  std::vector<int> col_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t k = 0; k < nnz_in; ++k) {
    ++col_ptr[static_cast<std::size_t>(
                  iperm[static_cast<std::size_t>(pat_cols_[k])]) +
              1];
  }
  for (int c = 0; c < n; ++c) {
    col_ptr[static_cast<std::size_t>(c) + 1] +=
        col_ptr[static_cast<std::size_t>(c)];
  }
  std::vector<int> pos_row(nnz_in);
  std::vector<int> pos_trip(nnz_in);
  std::vector<int> next(col_ptr.begin(), col_ptr.end() - 1);
  for (std::size_t k = 0; k < nnz_in; ++k) {
    const int c = iperm[static_cast<std::size_t>(pat_cols_[k])];
    const int dst = next[static_cast<std::size_t>(c)]++;
    pos_row[static_cast<std::size_t>(dst)] =
        iperm[static_cast<std::size_t>(pat_rows_[k])];
    pos_trip[static_cast<std::size_t>(dst)] = static_cast<int>(k);
  }
  // Sort each column by row with the same comparator from_triplets uses, so
  // the duplicate-accumulation order (and therefore every floating-point
  // sum) is reproduced bit for bit; record it as a replayable tape.
  csc_.n = n;
  csc_.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  csc_.row_idx.clear();
  accum_trip_.resize(nnz_in);
  accum_slot_.resize(nnz_in);
  std::vector<int> order;
  std::size_t tape = 0;
  for (int c = 0; c < n; ++c) {
    const int begin = col_ptr[static_cast<std::size_t>(c)];
    const int end = col_ptr[static_cast<std::size_t>(c) + 1];
    order.resize(static_cast<std::size_t>(end - begin));
    for (int k = begin; k < end; ++k) {
      order[static_cast<std::size_t>(k - begin)] = k;
    }
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      return pos_row[static_cast<std::size_t>(x)] <
             pos_row[static_cast<std::size_t>(y)];
    });
    int last_row = -1;
    for (int k : order) {
      const int r = pos_row[static_cast<std::size_t>(k)];
      if (r != last_row) {
        csc_.row_idx.push_back(r);
        last_row = r;
      }
      accum_trip_[tape] = pos_trip[static_cast<std::size_t>(k)];
      accum_slot_[tape] = static_cast<int>(csc_.row_idx.size()) - 1;
      ++tape;
    }
    csc_.col_ptr[static_cast<std::size_t>(c) + 1] =
        static_cast<int>(csc_.row_idx.size());
  }
  csc_.values.assign(csc_.row_idx.size(), 0.0);
}

void MnaSystem::permute_rhs() {
  for (std::size_t k = 0; k < lu_x_.size(); ++k) {
    lu_x_[k] = rhs_[static_cast<std::size_t>(perm_[k])];
  }
}

void MnaSystem::unpermute_solution(std::vector<double>& x_out) const {
  x_out.resize(lu_x_.size());
  for (std::size_t k = 0; k < lu_x_.size(); ++k) {
    x_out[static_cast<std::size_t>(perm_[k])] = lu_x_[k];
  }
}

bool MnaSystem::solve_linearized(const StampContext& ctx, double gmin_extra,
                                 std::vector<double>& x_out) {
  assemble_linearized(ctx, gmin_extra);
  return solve_assembled(x_out);
}

void MnaSystem::assemble_linearized(const StampContext& ctx,
                                    double gmin_extra) {
  rows_.clear();
  cols_.clear();
  vals_.clear();
  rhs_.assign(static_cast<std::size_t>(num_unknowns_), 0.0);
  Stamper stamper(rows_, cols_, vals_, rhs_);
  inject_log_.clear();
  dev_trip_end_.clear();
  dev_inj_end_.clear();
  stamper.set_inject_log(&inject_log_);
  for (auto& dev : netlist_->devices()) {
    dev->stamp(stamper, ctx);
    dev_trip_end_.push_back(static_cast<int>(rows_.size()));
    dev_inj_end_.push_back(static_cast<int>(inject_log_.size()));
  }
  // gmin to ground on every node keeps floating subcircuits solvable and
  // implements gmin stepping when gmin_extra > 0.
  const double g = tol_.gmin + gmin_extra;
  for (int n = 0; n < num_nodes_; ++n) stamper.add(n, n, g);
  rec_t_ = ctx.t;
  rec_dt_ = ctx.dt;
  rec_dc_ = ctx.dc;
  rec_method_ = ctx.method;
  rec_source_scale_ = ctx.source_scale;
  rec_gmin_extra_ = gmin_extra;
  replay_valid_ = true;
  // Split the recorded RHS accumulation into a per-slot prefix (linear
  // injections before the slot's first nonlinear one — precomputable) and
  // per-device linear tails (replayed in order by reassemble).  For most
  // circuits the tails are empty and a reassembly's RHS work is one copy.
  base_rhs_.assign(static_cast<std::size_t>(num_unknowns_), 0.0);
  slot_first_nl_.assign(static_cast<std::size_t>(num_unknowns_), -1);
  int inj = 0;
  for (std::size_t d = 0; d < dev_inj_end_.size(); ++d) {
    const int iend = dev_inj_end_[d];
    if (dev_nonlinear_[d] != 0) {
      for (; inj < iend; ++inj) {
        const auto row = static_cast<std::size_t>(
            inject_log_[static_cast<std::size_t>(inj)].first);
        if (slot_first_nl_[row] < 0) slot_first_nl_[row] = inj;
      }
    } else {
      inj = iend;
    }
  }
  lin_tail_.clear();
  dev_tail_end_.clear();
  inj = 0;
  for (std::size_t d = 0; d < dev_inj_end_.size(); ++d) {
    const int iend = dev_inj_end_[d];
    if (dev_nonlinear_[d] == 0) {
      for (; inj < iend; ++inj) {
        const auto& [row, val] = inject_log_[static_cast<std::size_t>(inj)];
        const int first_nl = slot_first_nl_[static_cast<std::size_t>(row)];
        if (first_nl < 0 || inj < first_nl) {
          base_rhs_[static_cast<std::size_t>(row)] += val;
        } else {
          lin_tail_.emplace_back(row, val);
        }
      }
    } else {
      inj = iend;
    }
    dev_tail_end_.push_back(static_cast<int>(lin_tail_.size()));
  }
  pattern_dirty_ = true;
}

bool MnaSystem::reassemble_linearized(const StampContext& ctx,
                                      double gmin_extra) {
  // The recording is only valid within the solve point it was made at:
  // device companion state is frozen between accept_step() calls, and the
  // fingerprint below pins every other stamp input.  (gmin_extra and
  // source_scale only differ during homotopy fallbacks, which run scalar.)
  if (!replay_valid_ || ctx.t != rec_t_ || ctx.dt != rec_dt_ ||
      ctx.dc != rec_dc_ || ctx.method != rec_method_ ||
      ctx.source_scale != rec_source_scale_ || gmin_extra != rec_gmin_extra_) {
    return false;
  }
  // Start from the precomputed per-slot RHS prefix, then walk the devices:
  // linear devices contribute only their (usually empty) tail injections —
  // their triplet values in vals_ are untouched and still correct — while
  // nonlinear devices restamp live at the current iterate, writing straight
  // onto their recorded triplet slots.  Replay mode checks every row/col
  // and injection row, so any pattern deviation (a zero-dropped or regrown
  // entry, a changed injection) falls back to a full assembly.
  auto& devs = netlist_->devices();
  rhs_ = base_rhs_;
  Stamper stamper(rows_, cols_, vals_, rhs_);
  int trip = 0;
  int inj = 0;
  int tail = 0;
  for (std::size_t d = 0; d < devs.size(); ++d) {
    const int tend = dev_trip_end_[d];
    const int iend = dev_inj_end_[d];
    const int tail_end = dev_tail_end_[d];
    if (dev_nonlinear_[d] != 0) {
      stamper.begin_replay(trip, tend, &inject_log_, inj, iend);
      devs[d]->stamp(stamper, ctx);
      if (!stamper.replay_matched()) return false;
    } else {
      for (; tail < tail_end; ++tail) {
        rhs_[static_cast<std::size_t>(
            lin_tail_[static_cast<std::size_t>(tail)].first)] +=
            lin_tail_[static_cast<std::size_t>(tail)].second;
      }
    }
    trip = tend;
    inj = iend;
    tail = tail_end;
  }
  // The gmin tail after the last device span is value-constant (gmin_extra
  // matched the recording), so rows_/cols_/vals_ are already correct.
  return true;
}

void MnaSystem::assemble_iterate(const StampContext& ctx, double gmin_extra,
                                 bool first_iteration) {
  if (first_iteration || !reassemble_linearized(ctx, gmin_extra)) {
    assemble_linearized(ctx, gmin_extra);
  }
}

bool MnaSystem::same_assembly(const MnaSystem& other) const {
  const auto same_bytes = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
  };
  return same_bytes(rows_, other.rows_) && same_bytes(cols_, other.cols_) &&
         same_bytes(vals_, other.vals_) && same_bytes(rhs_, other.rhs_);
}

bool MnaSystem::solve_assembled(std::vector<double>& x_out) {
  // Factor/solve accounting: the first linearised solve on a pattern pays a
  // full pivoting factorisation; later ones only refactor values, and
  // refactor_fallbacks counts pivot-degradation escapes back to a full
  // factor.  Singular systems stay the solver's hard-failure signal.
  static const obs::Counter sparse_factors("mda.spice.sparse_lu_factors");
  static const obs::Counter sparse_refactors("mda.spice.sparse_lu_refactors");
  static const obs::Counter refactor_fallbacks("mda.spice.refactor_fallbacks");
  static const obs::Counter sparse_solves("mda.spice.sparse_lu_solves");
  static const obs::Counter stream_reuses("mda.spice.lu_stream_reuses");
  static const obs::Counter singular("mda.spice.singular_systems");
  static const obs::Histogram lu_fill("mda.spice.lu_fill_nnz");

  prepare_sparse_values();
  permute_rhs();

  // Cross-query reuse (DESIGN.md §11): a factorisation carried over a
  // reset_solver_state() boundary may only be re-entered through the
  // cold-exact guard, which certifies the replay is bit-identical to the
  // cold factor() below.  On rejection the pivot memory is cleared too, so
  // the fallback factor() cannot see any state from the previous query.
  if (lu_stream_pending_) {
    lu_stream_pending_ = false;
    if (sparse_lu_.refactor_cold_exact(csc_)) {
      stream_reuses.add();
      lu_valid_ = true;
      sparse_lu_.solve(lu_x_);
      unpermute_solution(x_out);
      sparse_solves.add();
      return true;
    }
    sparse_lu_.reset();
  }

  if (lu_valid_ && tol_.allow_lu_refactor) {
    if (sparse_lu_.refactor(csc_)) {
      sparse_refactors.add();
      sparse_lu_.solve(lu_x_);
      unpermute_solution(x_out);
      sparse_solves.add();
      return true;
    }
    refactor_fallbacks.add();
    lu_valid_ = false;
  }
  sparse_factors.add();
  if (!sparse_lu_.factor(csc_)) {
    lu_valid_ = false;
    singular.add();
    return false;
  }
  lu_valid_ = true;
  lu_fill.observe(static_cast<double>(sparse_lu_.nnz()));
  sparse_lu_.solve(lu_x_);
  unpermute_solution(x_out);
  sparse_solves.add();
  return true;
}

void MnaSystem::prepare_sparse_values() {
  // Devices stamp a fixed pattern, so this comparison is an equality check
  // on identical vectors in steady state; any structural change (different
  // device operating regions, dc vs transient stamps) rebuilds the cache.
  // Replayed reassemblies cannot move triplets, so the compare is skipped
  // until the next full assembly dirties the pattern.
  if (pattern_dirty_) {
    if (rows_ != pat_rows_ || cols_ != pat_cols_) rebuild_structure_cache();
    pattern_dirty_ = false;
  }

  // Value-only assembly: replay the accumulation tape into the cached slots.
  std::fill(csc_.values.begin(), csc_.values.end(), 0.0);
  for (std::size_t i = 0; i < accum_trip_.size(); ++i) {
    csc_.values[static_cast<std::size_t>(accum_slot_[i])] +=
        vals_[static_cast<std::size_t>(accum_trip_[i])];
  }
}

}  // namespace mda::spice
