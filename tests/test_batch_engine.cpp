// Batch query engine: determinism across pool sizes (the bit-identity
// contract), edge cases, exception propagation and fail-closed batches,
// counter-based RNG derivation, and parity of the engine-backed mining
// paths with their serial counterparts.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "core/batch_engine.hpp"
#include "core/montecarlo.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "mining/kmedoids.hpp"
#include "mining/knn.hpp"
#include "mining/motifs.hpp"
#include "mining/subsequence_search.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda;
using namespace mda::core;

std::vector<double> random_series(util::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

BatchEngine make_engine(std::size_t threads) {
  BatchOptions opts;
  opts.num_threads = threads;
  return BatchEngine(opts);
}

/// Evaluate `queries` for `kind` at the given pool size.
std::vector<double> batch_values(dist::DistanceKind kind, Backend backend,
                                 const std::vector<BatchQuery>& queries,
                                 std::size_t threads) {
  DistanceSpec spec;
  spec.kind = kind;
  spec.threshold = 0.4;
  Accelerator acc;
  acc.configure(spec, backend);
  return make_engine(threads).compute_distances(acc, queries);
}

class AllKindsDeterminism
    : public ::testing::TestWithParam<dist::DistanceKind> {};

TEST_P(AllKindsDeterminism, BitIdenticalAcrossThreadCountsWavefront) {
  const dist::DistanceKind kind = GetParam();
  util::Rng rng(321 + static_cast<std::uint64_t>(kind));
  const std::size_t n = dist::is_matrix_structure(kind) ? 6 : 12;
  std::vector<std::vector<double>> storage;
  for (std::size_t i = 0; i < 8; ++i) storage.push_back(random_series(rng, n));
  std::vector<BatchQuery> queries;
  for (std::size_t i = 0; i < 4; ++i) {
    queries.push_back({storage[2 * i], storage[2 * i + 1]});
  }
  const std::vector<double> serial =
      batch_values(kind, Backend::Wavefront, queries, 1);
  for (std::size_t threads : {2u, 8u}) {
    const std::vector<double> parallel =
        batch_values(kind, Backend::Wavefront, queries, threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical, not merely close.
      EXPECT_EQ(serial[i], parallel[i])
          << dist::kind_name(kind) << " query " << i << " at " << threads
          << " threads";
    }
  }
}

TEST_P(AllKindsDeterminism, BitIdenticalAcrossThreadCountsBehavioral) {
  const dist::DistanceKind kind = GetParam();
  util::Rng rng(654 + static_cast<std::uint64_t>(kind));
  const std::size_t n = 14;
  std::vector<std::vector<double>> storage;
  for (std::size_t i = 0; i < 24; ++i) {
    storage.push_back(random_series(rng, n));
  }
  std::vector<BatchQuery> queries;
  for (std::size_t i = 0; i < 12; ++i) {
    queries.push_back({storage[2 * i], storage[2 * i + 1]});
  }
  const std::vector<double> serial =
      batch_values(kind, Backend::Behavioral, queries, 1);
  for (std::size_t threads : {2u, 8u}) {
    const std::vector<double> parallel =
        batch_values(kind, Backend::Behavioral, queries, threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i]) << dist::kind_name(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSix, AllKindsDeterminism,
                         ::testing::ValuesIn(dist::kAllKinds),
                         [](const auto& info) {
                           return dist::kind_name(info.param);
                         });

TEST(BatchEngine, EmptyBatch) {
  const BatchEngine engine = make_engine(4);
  DistanceSpec spec;
  Accelerator acc;
  acc.configure(spec, Backend::Behavioral);
  const std::vector<BatchQuery> none;
  EXPECT_TRUE(engine.compute_batch(acc, none).empty());
  EXPECT_TRUE(engine.compute_distances(acc, none).empty());
  int calls = 0;
  engine.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(BatchEngine, SingleElementBatch) {
  const BatchEngine engine = make_engine(4);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  Accelerator acc;
  acc.configure(spec, Backend::Behavioral);
  const std::vector<double> p = {1.0, 2.0, 0.5};
  const std::vector<double> q = {0.5, 1.5, 1.0};
  const std::vector<BatchQuery> one = {{p, q}};
  const auto results = engine.compute_batch(acc, one);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].value, acc.try_compute(p, q).unwrap().value);
}

TEST(BatchEngine, ExceptionFromFailingBackendTaskPropagates) {
  const BatchEngine engine = make_engine(4);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  Accelerator acc;
  acc.configure(spec, Backend::Behavioral);
  util::Rng rng(9);
  std::vector<double> good = random_series(rng, 8);
  std::vector<double> empty;  // compute() rejects empty sequences
  std::vector<BatchQuery> queries(64, BatchQuery{good, good});
  queries[37] = {good, empty};
  EXPECT_THROW((void)engine.compute_batch(acc, queries),
               std::invalid_argument);
}

TEST(BatchEngine, TryComputeBatchIsolatesPerTaskErrors) {
  // One poisoned query must not sink the batch: every other slot still
  // carries its result, and the bad slot carries a typed error.
  const BatchEngine engine = make_engine(4);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  Accelerator acc;
  acc.configure(spec, Backend::Behavioral);
  util::Rng rng(17);
  const std::vector<double> good = random_series(rng, 8);
  const std::vector<double> empty;
  std::vector<BatchQuery> queries(16, BatchQuery{good, good});
  queries[5] = {good, empty};
  const auto outcomes = engine.try_compute_batch(acc, queries);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 5) {
      ASSERT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error().code, ComputeErrorCode::InvalidInput);
    } else {
      ASSERT_TRUE(outcomes[i].ok()) << "query " << i;
      EXPECT_EQ(outcomes[i].value().value, outcomes[0].value().value);
    }
  }
}

TEST(BatchEngine, FailedQueriesFillTheirSlotsAndTheBatchCompletes) {
  // A plan that never lets FullSpice converge, with degradation off, makes
  // each query that starts on FullSpice a BackendFailure; an empty sequence
  // is InvalidInput.  Neither sinks the batch: try_compute_batch fills
  // every slot, and the fail-closed APIs throw the lowest-index failure
  // only after the whole batch has run.  A failed query is solved once.
  fault::FaultConfig fc;
  fc.force_nonconvergence = true;
  AcceleratorConfig cfg;
  cfg.backend = Backend::Behavioral;
  cfg.faults = std::make_shared<const fault::FaultPlan>(fc);
  cfg.fault_handling.degrade = false;
  cfg.fault_handling.max_retries = 0;
  Accelerator acc(cfg);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec);
  util::Rng rng(19);
  const std::vector<double> p = random_series(rng, 3);
  const std::vector<double> q = random_series(rng, 3);
  const std::vector<double> empty;
  std::vector<BatchQuery> queries(12, BatchQuery{p, q});
  queries[2].backend = Backend::FullSpice;
  queries[7].backend = Backend::FullSpice;
  queries[9] = {p, empty};

  const BatchEngine engine = make_engine(4);
  obs::reset();
  const auto outcomes = engine.try_compute_batch(acc, queries);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2 || i == 7) {
      ASSERT_FALSE(outcomes[i].ok()) << i;
      EXPECT_EQ(outcomes[i].error().code, ComputeErrorCode::BackendFailure);
      EXPECT_EQ(outcomes[i].error().backend, Backend::FullSpice);
      EXPECT_EQ(outcomes[i].error().attempts, 1);
    } else if (i == 9) {
      ASSERT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error().code, ComputeErrorCode::InvalidInput);
    } else {
      ASSERT_TRUE(outcomes[i].ok()) << i;
      EXPECT_EQ(outcomes[i].value().value, outcomes[0].value().value);
    }
  }
  std::uint64_t failures = 0;
  for (const obs::MetricValue& m : obs::collect()) {
    if (m.name == "mda.batch.query_failures") failures = m.count;
  }
  EXPECT_EQ(failures, 3u);
  obs::reset();

  // Slot 2 (BackendFailure) is the lowest failure...
  EXPECT_THROW((void)engine.compute_batch(acc, queries), std::runtime_error);
  // ...until an InvalidInput slot sits below it.
  queries[1] = {empty, q};
  EXPECT_THROW((void)engine.compute_distances(acc, queries),
               std::invalid_argument);
}

TEST(BatchEngine, FailOpenYieldsNaNSlotsAndCompletesTheBatch) {
  // try_compute_batch is the fail-open entry point: a failed query yields an
  // error slot (there is no NaN sentinel value any more), the batch
  // completes, and the healthy slots carry the same bits as the same
  // queries run without the poisoned ones.
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  Accelerator acc;
  acc.configure(spec, Backend::Behavioral);
  util::Rng rng(18);
  const std::vector<double> good = random_series(rng, 8);
  const std::vector<double> other = random_series(rng, 8);
  const std::vector<double> empty;
  std::vector<BatchQuery> clean;
  for (int i = 0; i < 12; ++i) {
    clean.push_back(i % 2 == 0 ? BatchQuery{good, other}
                               : BatchQuery{other, good});
  }
  std::vector<BatchQuery> queries = clean;
  queries[2] = {good, empty};
  queries[9] = {empty, good};

  const BatchEngine engine = make_engine(4);
  const auto reference = engine.try_compute_batch(acc, clean);
  const auto outcomes = engine.try_compute_batch(acc, queries);
  ASSERT_EQ(outcomes.size(), queries.size());
  ASSERT_EQ(reference.size(), clean.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(reference[i].ok()) << i;
    if (i == 2 || i == 9) {
      ASSERT_FALSE(outcomes[i].ok()) << i;
      EXPECT_EQ(outcomes[i].error().code, ComputeErrorCode::InvalidInput);
    } else {
      ASSERT_TRUE(outcomes[i].ok()) << i;
      EXPECT_TRUE(bitwise_equal(outcomes[i].value(), reference[i].value()))
          << i;
    }
  }
}

TEST(BatchEngine, RetryBudgetIsSpentOnBackendFailuresOnly) {
  // The one retry budget left is FaultHandling::max_retries: each attempt
  // of the recovery chain re-tunes at the next fault_attempt.  A query that
  // never converges spends all 1 + max_retries attempts; a query that
  // succeeds spends one; an invalid query spends none; and the batch engine
  // adds no retries of its own on top.
  fault::FaultConfig fc;
  fc.force_nonconvergence = true;
  AcceleratorConfig cfg;
  cfg.backend = Backend::FullSpice;
  cfg.faults = std::make_shared<const fault::FaultPlan>(fc);
  cfg.fault_handling.degrade = false;
  cfg.fault_handling.max_retries = 2;
  Accelerator acc(cfg);
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec);
  util::Rng rng(21);
  const std::vector<double> p = random_series(rng, 3);
  const std::vector<double> q = random_series(rng, 3);
  const std::vector<double> empty;
  std::vector<BatchQuery> queries(4, BatchQuery{p, q});
  queries[1].backend = Backend::Behavioral;
  queries[3] = {p, empty};

  const BatchEngine engine = make_engine(2);
  obs::reset();
  const auto outcomes = engine.try_compute_batch(acc, queries);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (const std::size_t i : {0u, 2u}) {
    ASSERT_FALSE(outcomes[i].ok()) << i;
    EXPECT_EQ(outcomes[i].error().code, ComputeErrorCode::BackendFailure);
    EXPECT_EQ(outcomes[i].error().backend, Backend::FullSpice);
    EXPECT_EQ(outcomes[i].error().attempts, 3) << i;
  }
  ASSERT_TRUE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].value().attempts, 1);
  ASSERT_FALSE(outcomes[3].ok());
  EXPECT_EQ(outcomes[3].error().code, ComputeErrorCode::InvalidInput);
  EXPECT_EQ(outcomes[3].error().attempts, 0);
  std::uint64_t retries = 0;
  for (const obs::MetricValue& m : obs::collect()) {
    if (m.name == "mda.fault.retries") retries = m.count;
  }
  EXPECT_EQ(retries, 4u);  // two failing queries x max_retries
  obs::reset();
}

TEST(BatchEngine, FailurePoliciesAgreeOnHealthyBatches) {
  // The two failure policies are the two entry points: fail-closed
  // compute_batch / compute_distances and the per-slot outcomes of
  // try_compute_batch.  On a healthy batch they return the same bits.
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  Accelerator acc;
  acc.configure(spec, Backend::Wavefront);
  util::Rng rng(20);
  std::vector<std::vector<double>> storage;
  for (int i = 0; i < 8; ++i) storage.push_back(random_series(rng, 6));
  std::vector<BatchQuery> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back({storage[2 * i], storage[2 * i + 1]});
  }
  const BatchEngine engine = make_engine(4);
  const std::vector<double> a = engine.compute_distances(acc, queries);
  const std::vector<ComputeResult> b = engine.compute_batch(acc, queries);
  const std::vector<ComputeOutcome> c = engine.try_compute_batch(acc, queries);
  ASSERT_EQ(a.size(), queries.size());
  ASSERT_EQ(b.size(), queries.size());
  ASSERT_EQ(c.size(), queries.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(c[i].ok()) << i;
    EXPECT_EQ(a[i], b[i].value);
    EXPECT_TRUE(bitwise_equal(b[i], c[i].value())) << i;
  }
}

TEST(BatchEngine, ExceptionWithLowestTaskIndexWins) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    const BatchEngine engine = make_engine(threads);
    try {
      engine.parallel_for(100, [](std::size_t i) {
        if (i == 3) throw std::runtime_error("task 3");
      });
      FAIL() << "expected exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
  }
}

TEST(BatchEngine, ParallelForCoversEveryIndexExactlyOnce) {
  const BatchEngine engine = make_engine(8);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  engine.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(BatchEngine, NestedParallelForRunsInline) {
  const BatchEngine engine = make_engine(4);
  std::vector<std::atomic<int>> hits(64);
  engine.parallel_for(8, [&](std::size_t outer) {
    engine.parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(BatchEngine, ConcurrentSubmittersInterleave) {
  // Four threads submit jobs of different sizes to one 4-thread engine at
  // the same moment, for several rounds: the jobs share the pool through
  // its FIFO, yet each one keeps its own coverage, its own lowest-index
  // exception and the inline rule for nested calls.
  const BatchEngine engine = make_engine(4);
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kCounts[kSubmitters] = {37, 250, 513, 1000};
  for (int round = 0; round < 8; ++round) {
    std::vector<std::vector<std::atomic<int>>> hits;
    for (const std::size_t c : kCounts) hits.emplace_back(c);
    std::vector<std::string> caught(kSubmitters);
    std::vector<int> nested_off_thread(kSubmitters, 0);
    std::latch go(kSubmitters);
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        std::atomic<int> off_thread{0};
        go.arrive_and_wait();
        try {
          engine.parallel_for(kCounts[t], [&](std::size_t i) {
            hits[t][i].fetch_add(1, std::memory_order_relaxed);
            if (i % 29 == 3) {
              // A nested call runs inline, on the thread running task i.
              const std::thread::id self = std::this_thread::get_id();
              engine.parallel_for(3, [&](std::size_t) {
                if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
              });
            }
            // Job t fails at tasks t + 7 and t + 20; the lower one wins.
            if (i == t + 20 || i == t + 7) {
              throw std::runtime_error("job " + std::to_string(t) + " task " +
                                       std::to_string(i));
            }
          });
        } catch (const std::runtime_error& e) {
          caught[t] = e.what();
        }
        nested_off_thread[t] = off_thread.load();
      });
    }
    for (std::thread& th : submitters) th.join();
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      for (std::size_t i = 0; i < kCounts[t]; ++i) {
        ASSERT_EQ(hits[t][i].load(), 1)
            << "round " << round << " job " << t << " task " << i;
      }
      EXPECT_EQ(caught[t], "job " + std::to_string(t) + " task " +
                               std::to_string(t + 7));
      EXPECT_EQ(nested_off_thread[t], 0) << "job " << t;
    }
  }
}

TEST(BatchEngine, ReusableAcrossBatches) {
  const BatchEngine engine = make_engine(4);
  for (int round = 0; round < 10; ++round) {
    std::vector<int> out(57, -1);
    engine.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<int>(i) + round;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) + round);
    }
  }
}

TEST(BatchEngine, TaskRngIsCounterBasedNotCallOrderBased) {
  constexpr std::uint64_t kSeed = 1234;
  // Same index -> same stream, however many times and in whatever order.
  util::Rng a = BatchEngine::derive_rng(kSeed, 7);
  util::Rng b = BatchEngine::derive_rng(kSeed, 3);
  util::Rng c = BatchEngine::derive_rng(kSeed, 7);
  (void)b.next_u64();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), c.next_u64());
  // Neighbouring indices decorrelate.
  util::Rng d = BatchEngine::derive_rng(kSeed, 8);
  int same = 0;
  util::Rng e = BatchEngine::derive_rng(kSeed, 7);
  for (int i = 0; i < 64; ++i) same += e.next_u64() == d.next_u64() ? 1 : 0;
  EXPECT_EQ(same, 0);
  // Distinct base seeds give distinct streams for the same index.
  util::Rng f = BatchEngine::derive_rng(1, 7);
  util::Rng g = BatchEngine::derive_rng(2, 7);
  EXPECT_NE(f.next_u64(), g.next_u64());
}

TEST(BatchEngine, MonteCarloIdenticalSerialVsParallel) {
  AcceleratorConfig config;
  DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  util::Rng rng(11);
  const std::vector<double> p = random_series(rng, 4);
  const std::vector<double> q = random_series(rng, 4);
  MonteCarloConfig mc;
  mc.trials = 6;
  mc.seed = 5;
  const MonteCarloResult serial = monte_carlo_distance(config, spec, p, q, mc);
  const BatchEngine engine = make_engine(8);
  mc.engine = &engine;
  const MonteCarloResult parallel =
      monte_carlo_distance(config, spec, p, q, mc);
  ASSERT_EQ(serial.errors.size(), parallel.errors.size());
  for (std::size_t i = 0; i < serial.errors.size(); ++i) {
    EXPECT_EQ(serial.errors[i], parallel.errors[i]);
  }
  EXPECT_EQ(serial.failed_solves, parallel.failed_solves);
  EXPECT_EQ(serial.yield, parallel.yield);
}

// ---- Parity of the engine-backed mining paths with the serial ones ----

TEST(BatchMining, KnnIdenticalSerialVsParallel) {
  util::Rng rng(31);
  data::Dataset train;
  for (int i = 0; i < 12; ++i) {
    train.items.push_back({i % 3, random_series(rng, 10)});
  }
  data::Dataset test;
  for (int i = 0; i < 6; ++i) {
    test.items.push_back({i % 3, random_series(rng, 10)});
  }
  mining::KnnConfig serial_cfg;
  serial_cfg.k = 3;
  auto serial = mining::KnnClassifier::with_reference(
      dist::DistanceKind::Dtw, {}, serial_cfg);
  serial.fit(train);

  const BatchEngine engine = make_engine(8);
  mining::KnnConfig par_cfg = serial_cfg;
  par_cfg.engine = &engine;
  auto parallel = mining::KnnClassifier::with_reference(
      dist::DistanceKind::Dtw, {}, par_cfg);
  parallel.fit(train);

  for (const auto& item : test.items) {
    EXPECT_EQ(serial.predict(item.values), parallel.predict(item.values));
  }
  EXPECT_EQ(serial.evaluate(test), parallel.evaluate(test));
  EXPECT_EQ(serial.loocv(), parallel.loocv());
}

TEST(BatchMining, KMedoidsIdenticalSerialVsParallel) {
  util::Rng rng(47);
  std::vector<data::Series> items;
  for (int i = 0; i < 14; ++i) items.push_back(random_series(rng, 12));
  const auto fn = [](std::span<const double> a, std::span<const double> b) {
    return dist::compute(dist::DistanceKind::Manhattan, a, b);
  };
  mining::KMedoidsConfig cfg;
  cfg.k = 3;
  const auto serial = mining::kmedoids(items, fn, cfg);
  const BatchEngine engine = make_engine(8);
  cfg.engine = &engine;
  const auto parallel = mining::kmedoids(items, fn, cfg);
  EXPECT_EQ(serial.medoids, parallel.medoids);
  EXPECT_EQ(serial.assignment, parallel.assignment);
  EXPECT_EQ(serial.total_cost, parallel.total_cost);
  EXPECT_EQ(serial.iterations, parallel.iterations);
}

TEST(BatchMining, MotifsAndDiscordsIdenticalSerialVsParallel) {
  util::Rng rng(53);
  data::Series series = random_series(rng, 160);
  // Plant a repeated pattern.
  for (std::size_t i = 0; i < 16; ++i) {
    series[20 + i] = std::sin(0.7 * static_cast<double>(i));
    series[120 + i] = std::sin(0.7 * static_cast<double>(i)) + 0.01;
  }
  const auto fn = [](std::span<const double> a, std::span<const double> b) {
    return dist::compute(dist::DistanceKind::Manhattan, a, b);
  };
  mining::MotifConfig cfg;
  cfg.window = 16;
  const auto serial_motif = mining::find_motif(series, fn, cfg);
  const auto serial_discords = mining::find_discords(series, fn, 3, cfg);
  const BatchEngine engine = make_engine(8);
  cfg.engine = &engine;
  const auto par_motif = mining::find_motif(series, fn, cfg);
  const auto par_discords = mining::find_discords(series, fn, 3, cfg);
  EXPECT_EQ(serial_motif.first, par_motif.first);
  EXPECT_EQ(serial_motif.second, par_motif.second);
  EXPECT_EQ(serial_motif.distance, par_motif.distance);
  EXPECT_EQ(serial_motif.pairs_evaluated, par_motif.pairs_evaluated);
  ASSERT_EQ(serial_discords.size(), par_discords.size());
  for (std::size_t i = 0; i < serial_discords.size(); ++i) {
    EXPECT_EQ(serial_discords[i].position, par_discords[i].position);
    EXPECT_EQ(serial_discords[i].nn_distance, par_discords[i].nn_distance);
  }
}

TEST(BatchMining, SubsequenceSearchSameOptimumAndThreadInvariantStats) {
  util::Rng rng(61);
  std::vector<double> haystack = random_series(rng, 400);
  std::vector<double> needle(16);
  for (std::size_t i = 0; i < needle.size(); ++i) {
    needle[i] = haystack[200 + i];
  }
  // A second exact copy at 300 (300 mod 8 = 4, 200 mod 8 = 0): the two
  // zero-distance windows fall in different stripes, and the lower
  // position must win however the stripes are scheduled.
  std::vector<double> twice = haystack;
  for (std::size_t i = 0; i < needle.size(); ++i) twice[300 + i] = needle[i];
  mining::SearchConfig cfg;
  cfg.band = 4;
  const auto serial = mining::dtw_subsequence_search(haystack, needle, cfg);
  const auto serial_twice = mining::dtw_subsequence_search(twice, needle, cfg);
  EXPECT_EQ(serial.position, 200u);
  EXPECT_EQ(serial_twice.position, 200u);
  EXPECT_EQ(serial_twice.distance, 0.0);

  for (std::size_t threads : {1u, 2u, 8u}) {
    const BatchEngine engine = make_engine(threads);
    mining::SearchConfig par_cfg = cfg;
    par_cfg.engine = &engine;
    for (const auto& [hay, ref] :
         {std::pair{&haystack, &serial}, std::pair{&twice, &serial_twice}}) {
      const auto par = mining::dtw_subsequence_search(*hay, needle, par_cfg);
      // The optimum matches the serial scan (admissible pruning), and the
      // serial scan runs the same stripes, so the cascade stats match too.
      EXPECT_EQ(par.position, ref->position);
      EXPECT_EQ(par.distance, ref->distance);
      EXPECT_EQ(par.windows, ref->windows);
      EXPECT_EQ(par.pruned_lb_kim, ref->pruned_lb_kim);
      EXPECT_EQ(par.pruned_lb_keogh, ref->pruned_lb_keogh);
      EXPECT_EQ(par.full_dtw_evals, ref->full_dtw_evals);
    }
  }
}

TEST(BatchMining, RunIndexedWithoutEngineIsPlainLoop) {
  std::vector<int> order;
  core::run_indexed(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
