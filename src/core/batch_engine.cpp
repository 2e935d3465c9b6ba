#include "core/batch_engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace mda::core {
namespace {

/// Set while a pool worker (or the caller participating in a batch) is
/// executing tasks; nested parallel_for calls run inline instead of
/// re-submitting, which keeps composition deadlock-free.
thread_local bool t_inside_worker = false;

}  // namespace

struct BatchEngine::Job {
  std::size_t count = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* task = nullptr;
  // Submission timestamp (obs::detail::monotonic_seconds); 0 when metrics
  // are disabled.  Workers use it to report wake-up latency.
  double submit_s = 0.0;

  std::atomic<std::size_t> next{0};
  /// Pool workers currently running this job's chunks (under mutex_).
  std::size_t helpers = 0;

  std::mutex error_mutex;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
};

BatchEngine::BatchEngine(BatchOptions opts) : opts_(opts) {
  num_threads_ = opts_.num_threads != 0
                     ? opts_.num_threads
                     : std::max<std::size_t>(
                           1, std::thread::hardware_concurrency());
  threads_.reserve(num_threads_ - 1);
  for (std::size_t t = 0; t + 1 < num_threads_; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

BatchEngine::~BatchEngine() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  cv_worker_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BatchEngine::run_chunks(Job& job) {
  static const obs::Counter tasks("mda.batch.tasks");
  static const obs::Histogram chunk_time("mda.batch.chunk_time_s");
  for (;;) {
    const std::size_t begin = job.next.fetch_add(job.chunk);
    if (begin >= job.count) break;
    const std::size_t end = std::min(job.count, begin + job.chunk);
    tasks.add(static_cast<std::uint64_t>(end - begin));
    const obs::ScopedTimer timer(chunk_time);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*job.task)(i);
      } catch (...) {
        // Per-task fault isolation (DESIGN.md §9): record and keep going —
        // the rest of the chunk (and batch) still completes; parallel_for
        // rethrows the lowest-index failure once everything has run.
        static const obs::Counter task_errors("mda.batch.task_errors");
        task_errors.add();
        std::lock_guard<std::mutex> lk(job.error_mutex);
        job.errors.emplace_back(i, std::current_exception());
      }
    }
  }
}

void BatchEngine::worker_loop() {
  static const obs::Histogram queue_wait("mda.batch.queue_wait_s");
  t_inside_worker = true;
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    cv_worker_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
    if (stop_) return;
    // Help the oldest job that still has unclaimed tasks; a fully claimed
    // one leaves the FIFO (its submitter waits for its helpers, not for
    // the FIFO slot).
    Job* job = jobs_.front();
    if (job->next.load() >= job->count) {
      jobs_.pop_front();
      continue;
    }
    ++job->helpers;
    lk.unlock();
    if (job->submit_s != 0.0) {
      queue_wait.observe(obs::detail::monotonic_seconds() - job->submit_s);
    }
    run_chunks(*job);
    lk.lock();
    if (--job->helpers == 0) cv_done_.notify_all();
  }
}

void BatchEngine::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& task) const {
  static const obs::Counter jobs("mda.batch.jobs");
  static const obs::Counter inline_jobs("mda.batch.inline_jobs");
  static const obs::Gauge threads_gauge("mda.batch.threads");
  static const obs::Histogram job_time("mda.batch.job_time_s");
  if (count == 0) return;
  // Every job is timed, inline or pooled, so job_time_s means what it says
  // on a 1-thread engine too.
  const obs::ScopedTimer wall_timer(job_time);
  // Inline paths: nested call from a worker, a 1-thread engine, or a batch
  // too small to be worth a rendezvous.  Task-order execution gives the
  // same first-exception semantics as the pool path.
  if (t_inside_worker || threads_.empty() || count == 1) {
    inline_jobs.add();
    // Same isolation semantics as the pool path: every task runs; the
    // first (lowest-index) exception is rethrown afterwards.
    std::exception_ptr first;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        static const obs::Counter task_errors("mda.batch.task_errors");
        task_errors.add();
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  jobs.add();
  threads_gauge.set(static_cast<double>(num_threads_));

  Job job;
  job.count = count;
  job.chunk = opts_.chunk_size != 0
                  ? opts_.chunk_size
                  : std::max<std::size_t>(1, count / (4 * num_threads_));
  job.task = &task;
  if (obs::enabled()) job.submit_s = obs::detail::monotonic_seconds();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    jobs_.push_back(&job);
  }
  cv_worker_.notify_all();

  // The submitting thread works through its own job, so the job finishes
  // even if every pool worker is busy with older jobs.
  t_inside_worker = true;
  run_chunks(job);
  t_inside_worker = false;

  // Every task is claimed now.  Once the job is off the FIFO no worker can
  // join it, so waiting for its helpers to leave waits for the last task.
  {
    std::unique_lock<std::mutex> lk(mutex_);
    const auto it = std::find(jobs_.begin(), jobs_.end(), &job);
    if (it != jobs_.end()) jobs_.erase(it);
    cv_done_.wait(lk, [&] { return job.helpers == 0; });
  }

  if (!job.errors.empty()) {
    auto first = std::min_element(
        job.errors.begin(), job.errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
}

std::vector<ComputeOutcome> BatchEngine::try_compute_batch(
    const Accelerator& acc, std::span<const BatchQuery> queries) const {
  static const obs::Counter queries_total("mda.batch.queries");
  static const obs::Counter query_failures("mda.batch.query_failures");
  queries_total.add(static_cast<std::uint64_t>(queries.size()));
  // ComputeOutcome has no default constructor; gather into optional slots.
  std::vector<std::optional<ComputeOutcome>> slots(queries.size());
  parallel_for(queries.size(), [&](std::size_t i) {
    ComputeOutcome outcome = acc.try_compute(queries[i]);
    if (!outcome.ok()) query_failures.add();
    slots[i].emplace(std::move(outcome));
  });
  std::vector<ComputeOutcome> out;
  out.reserve(slots.size());
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

namespace {

[[noreturn]] void throw_compute_error(const ComputeError& e) {
  if (e.code == ComputeErrorCode::InvalidInput) {
    throw std::invalid_argument(e.message);
  }
  throw std::runtime_error(e.message);
}

}  // namespace

std::vector<ComputeResult> BatchEngine::compute_batch(
    const Accelerator& acc, std::span<const BatchQuery> queries) const {
  std::vector<ComputeOutcome> outcomes = try_compute_batch(acc, queries);
  std::vector<ComputeResult> out;
  out.reserve(outcomes.size());
  // Outcomes are walked in task order, so the first failure seen is the
  // lowest-index one — and the whole batch has already completed.
  for (ComputeOutcome& o : outcomes) {
    if (!o.ok()) throw_compute_error(o.error());
    out.push_back(std::move(o.value()));
  }
  return out;
}

std::vector<double> BatchEngine::compute_distances(
    const Accelerator& acc, std::span<const BatchQuery> queries) const {
  std::vector<ComputeOutcome> outcomes = try_compute_batch(acc, queries);
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const ComputeOutcome& o : outcomes) {
    if (!o.ok()) throw_compute_error(o.error());
    out.push_back(o.value().value);
  }
  return out;
}

util::Rng BatchEngine::derive_rng(std::uint64_t seed,
                                  std::uint64_t task_index) {
  // splitmix64 finalizer: decorrelates consecutive task indices so each
  // task gets an independent stream from one base seed.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return util::Rng(z);
}

void run_indexed(const BatchEngine* engine, std::size_t count,
                 const std::function<void(std::size_t)>& task) {
  if (engine != nullptr) {
    engine->parallel_for(count, task);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) task(i);
}

}  // namespace mda::core
