#pragma once
// Parallel batch query engine: evaluates many independent (P, Q) distance
// queries concurrently against a configured Accelerator on a chunked
// thread pool, with a determinism contract — results are bit-identical
// regardless of `num_threads`, because
//
//  (1) every task writes only its own slot, indexed by task id, and
//  (2) all stochastic draws are keyed by task index through counter-based
//      RNG derivation (task_rng), never by call order or thread id.
//
// This is the host-side orchestration layer for the data-center serving
// story (Sec. 4.3): the digital front end batches queries, the analog
// fabric (or its simulation backends here) absorbs the per-pair work.
//
// The pool is re-entrant by degradation: a parallel_for issued from inside
// a worker thread executes inline on that worker, so nested consumers
// (e.g. KnnClassifier::evaluate parallelised over queries, each query
// parallelised over the training set) compose without deadlock.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "util/rng.hpp"

namespace mda::core {

/// What the query-level batch APIs do with a query that still fails after
/// its retry budget: FailClosed surfaces the lowest-index failure as a typed
/// exception once the whole batch has completed (no other query is lost to
/// the throw); FailOpen records the failure and yields NaN for that slot.
enum class FailurePolicy { FailClosed, FailOpen };

struct BatchOptions {
  /// Worker count; 0 = std::thread::hardware_concurrency().
  std::size_t num_threads = 0;
  /// Tasks claimed per grab; 0 = auto (count / (4 * num_threads), min 1).
  /// The auto chunk adapts to the pool size, so stochastic consumers that
  /// key draws on chunk structure should set it explicitly — the engine
  /// itself keys nothing on chunks.
  std::size_t chunk_size = 0;
  /// Engine-wide backend override for compute_batch/compute_distances;
  /// nullopt uses the accelerator's configured backend.  A per-query
  /// QueryRequest::backend takes precedence over both.
  std::optional<Backend> backend;
  /// Base seed for counter-based per-task RNG derivation (task_rng).
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  /// Failure policy of compute_batch / compute_distances (DESIGN.md §9).
  FailurePolicy failure_policy = FailurePolicy::FailClosed;
  /// Extra try_compute attempts per failed query (backend failures only;
  /// per-task, not shared, so results stay bit-identical for any thread
  /// count).  Each query's effective budget is
  /// max(retry_budget, min(QueryRequest::retry_budget, max_retry_budget)).
  std::size_t retry_budget = 0;
  /// Ceiling on the per-query QueryRequest::retry_budget contribution.
  /// Request budgets can arrive off the wire (serve admission clamps them
  /// too), so an unvalidated u32 must never demand ~4e9 re-solves of a
  /// persistently failing query; the engine-level retry_budget above is
  /// owner-configured and is not clamped.
  std::size_t max_retry_budget = 8;
  /// Always 1: every query runs its own scalar FullSpice solve.  Exists
  /// only for the benchmark runner, which reads it to size its groups.
  static constexpr std::size_t solver_batch_width = 1;
};

/// One distance query — the unified request type (core/query.hpp).  Spans
/// must outlive the batch call (or be storage-backed, QueryRequest::owning).
/// `{p, q}` aggregate initialisation keeps pre-unification call sites
/// compiling unchanged; per-query knobs (backend override, retry budget,
/// starting fault attempt) ride along and are honoured per task.
using BatchQuery = QueryRequest;

class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions opts = {});
  ~BatchEngine();
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  [[nodiscard]] const BatchOptions& options() const { return opts_; }
  /// Resolved worker count (>= 1; the calling thread is worker 0).
  [[nodiscard]] std::size_t num_threads() const { return num_threads_; }

  /// Run task(i) for every i in [0, count), distributed over the pool in
  /// dynamically claimed chunks.  Blocks until all tasks finish.  A
  /// throwing task is isolated: its exception is recorded, the remaining
  /// tasks still run, and the recorded exception with the lowest task index
  /// is rethrown on the caller once the batch completes.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& task) const;

  /// parallel_for with results gathered in task order.
  template <typename T>
  [[nodiscard]] std::vector<T> map(
      std::size_t count, const std::function<T(std::size_t)>& task) const {
    std::vector<T> out(count);
    parallel_for(count, [&](std::size_t i) { out[i] = task(i); });
    return out;
  }

  /// Evaluate every query through `acc` (on options().backend when set,
  /// else the accelerator's configured backend).  Results are indexed like
  /// `queries` and bit-identical for any num_threads.
  [[nodiscard]] std::vector<ComputeResult> compute_batch(
      const Accelerator& acc, std::span<const BatchQuery> queries) const;

  /// Distance values only (ComputeResult::value), same contract.
  [[nodiscard]] std::vector<double> compute_distances(
      const Accelerator& acc, std::span<const BatchQuery> queries) const;

  /// Non-throwing batch evaluation: every query yields a ComputeOutcome —
  /// one poisoned query never sinks the batch.  Failed queries retry up to
  /// options().retry_budget times (backend failures only).  compute_batch /
  /// compute_distances are built on this plus the failure policy.
  [[nodiscard]] std::vector<ComputeOutcome> try_compute_batch(
      const Accelerator& acc, std::span<const BatchQuery> queries) const;

  /// Counter-based RNG derivation: an independent generator for task
  /// `task_index`, a pure function of (options().seed, task_index).  Monte
  /// Carlo consumers draw from this instead of a shared stream so their
  /// randomness is schedule-independent.
  [[nodiscard]] util::Rng task_rng(std::uint64_t task_index) const {
    return derive_rng(opts_.seed, task_index);
  }

  /// The derivation itself (splitmix64 finalizer over seed + index).
  static util::Rng derive_rng(std::uint64_t seed, std::uint64_t task_index);

 private:
  struct Job;

  void worker_loop();
  static void run_chunks(Job& job);

  BatchOptions opts_;
  std::size_t num_threads_ = 1;

  // Pool state: one job at a time (submissions serialise on submit_mutex_);
  // workers rendezvous on generation_ under mutex_.
  mutable std::mutex submit_mutex_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_worker_;
  mutable std::condition_variable cv_done_;
  mutable Job* job_ = nullptr;
  mutable std::uint64_t generation_ = 0;
  mutable std::size_t workers_active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Run task(i) for i in [0, count): through `engine` when non-null, as a
/// plain serial loop otherwise.  The shared idiom of the mining consumers,
/// whose configs carry an optional engine pointer.
void run_indexed(const BatchEngine* engine, std::size_t count,
                 const std::function<void(std::size_t)>& task);

}  // namespace mda::core
