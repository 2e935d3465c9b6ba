#pragma once
// Parallel batch query engine: evaluates many independent (P, Q) distance
// queries concurrently against a configured Accelerator on a chunked
// thread pool, with a determinism contract — results are bit-identical
// regardless of `num_threads`, because
//
//  (1) every task writes only its own slot, indexed by task id, and
//  (2) all stochastic draws are keyed by task index through counter-based
//      RNG derivation (derive_rng), never by call order or thread id.
//
// This is the host-side orchestration layer for the data-center serving
// story (Sec. 4.3): the digital front end batches queries, the analog
// fabric (or its simulation backends here) absorbs the per-pair work.
//
// Several threads may submit at once (one engine serves every `mda serve`
// shard): each parallel_for is a job on a FIFO of active jobs, pool workers
// take chunks from the oldest job that still has unclaimed tasks, and the
// submitting thread works through its own job's chunks alongside them, so
// a job always makes progress even when every worker is busy elsewhere.
// Jobs are independent — each has its own tasks, chunk size and error
// record — and nothing about a job's results depends on which thread ran
// which chunk.
//
// The pool is re-entrant by degradation: a parallel_for issued from inside
// a task (on a worker or on a submitter running its own job) executes
// inline on that thread, so nested consumers (e.g. KnnClassifier::evaluate
// parallelised over queries, each query parallelised over the training
// set) compose without deadlock.  A 1-thread engine and a count of 1 run
// inline too.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "util/rng.hpp"

namespace mda::core {

struct BatchOptions {
  /// Worker count; 0 = std::thread::hardware_concurrency().
  std::size_t num_threads = 0;
  /// Tasks claimed per grab; 0 = auto (count / (4 * num_threads), min 1).
  /// The auto chunk adapts to the pool size, so stochastic consumers that
  /// key draws on chunk structure should set it explicitly — the engine
  /// itself keys nothing on chunks.
  std::size_t chunk_size = 0;
  /// Always 1: every query runs its own scalar FullSpice solve.  Exists
  /// only for the benchmark runner, which reads it to size its groups.
  static constexpr std::size_t solver_batch_width = 1;
};

/// One distance query — the unified request type (core/query.hpp).  Spans
/// must outlive the batch call (or be storage-backed, QueryRequest::owning).
/// `{p, q}` aggregate initialisation keeps pre-unification call sites
/// compiling unchanged; per-query knobs (backend override, starting fault
/// attempt) ride along and are honoured per task.
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
  /// is rethrown on the caller once the batch completes.  Safe to call from
  /// several threads at once; concurrent jobs share the workers.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& task) const;

  /// Evaluate every query through `acc`.  Results are indexed like
  /// `queries` and bit-identical for any num_threads.  Fail-closed: the
  /// whole batch completes, then the lowest-index failure is thrown
  /// (std::invalid_argument for InvalidInput, else std::runtime_error).
  [[nodiscard]] std::vector<ComputeResult> compute_batch(
      const Accelerator& acc, std::span<const BatchQuery> queries) const;

  /// Distance values only (ComputeResult::value), same contract.
  [[nodiscard]] std::vector<double> compute_distances(
      const Accelerator& acc, std::span<const BatchQuery> queries) const;

  /// Non-throwing batch evaluation: every query yields a ComputeOutcome —
  /// one poisoned query never sinks the batch.  A failed query is not
  /// re-run: try_compute is deterministic, so a re-run returns the same
  /// bits (DESIGN.md §9).  compute_batch / compute_distances are built on
  /// this.
  [[nodiscard]] std::vector<ComputeOutcome> try_compute_batch(
      const Accelerator& acc, std::span<const BatchQuery> queries) const;

  /// Counter-based RNG derivation: an independent generator for task
  /// `task_index`, a pure function of (seed, task_index) (splitmix64
  /// finalizer over seed + index).  Stochastic consumers draw from this
  /// instead of a shared stream so their randomness is
  /// schedule-independent.
  static util::Rng derive_rng(std::uint64_t seed, std::uint64_t task_index);

 private:
  struct Job;

  void worker_loop();
  static void run_chunks(Job& job);

  BatchOptions opts_;
  std::size_t num_threads_ = 1;

  // Pool state, all under mutex_: the FIFO of jobs whose tasks are not all
  // claimed yet (each job lives on its submitter's stack), and the stop
  // flag.  cv_worker_ wakes workers for new jobs; cv_done_ wakes
  // submitters whose job's last helper has left.
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_worker_;
  mutable std::condition_variable cv_done_;
  mutable std::deque<Job*> jobs_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Run task(i) for i in [0, count): through `engine` when non-null, as a
/// plain serial loop otherwise.  The shared idiom of the mining consumers,
/// whose configs carry an optional engine pointer.
void run_indexed(const BatchEngine* engine, std::size_t count,
                 const std::function<void(std::size_t)>& task);

}  // namespace mda::core
