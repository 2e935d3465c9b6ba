// Observability subsystem (src/obs): registry semantics, per-thread shard
// aggregation under the batch engine, snapshot JSON round-trip, and the
// runtime/compile-time disable paths, and the per-query accounting of the
// FullSpice time histograms.
//
// Each TEST runs as its own ctest process (gtest_discover_tests), so
// obs::reset() / obs::set_enabled() cannot leak across tests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/batch_engine.hpp"
#include "distance/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace {

using namespace mda;

TEST(ObsRegistry, CounterAggregates) {
  obs::reset();
  static const obs::Counter c("mda.obs.test_counter");
  c.add();
  c.add(41);
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* v = snap.find("mda.obs.test_counter");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, obs::MetricKind::Counter);
  EXPECT_EQ(v->count, 42u);
}

TEST(ObsRegistry, ReregistrationIsIdempotent) {
  obs::reset();
  const obs::Counter a("mda.obs.test_same");
  const obs::Counter b("mda.obs.test_same");
  a.add(2);
  b.add(3);
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* v = snap.find("mda.obs.test_same");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, 5u);
  // Exactly one metric carries the name.
  std::size_t hits = 0;
  for (const auto& m : snap.metrics) hits += m.name == "mda.obs.test_same";
  EXPECT_EQ(hits, 1u);
}

TEST(ObsRegistry, KindMismatchThrows) {
  const obs::Counter c("mda.obs.test_kind_clash");
  EXPECT_THROW(obs::Gauge("mda.obs.test_kind_clash"), std::exception);
  EXPECT_THROW(obs::Histogram("mda.obs.test_kind_clash"), std::exception);
}

// Shard storage holds a fixed 32 histogram slots, so registering past them
// must throw length_error instead of indexing out of the shard.  The child
// process keeps the exhausted registry away from the rest of the suite.
TEST(ObsRegistryDeathTest, HistogramCapacityExhaustionThrowsLengthError) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        int added = 0;
        try {
          for (; added <= 32; ++added) {
            const obs::Histogram h("mda.obs.test_capacity_" +
                                   std::to_string(added));
          }
        } catch (const std::length_error&) {
          std::_Exit(0);
        }
        std::_Exit(1);  // 33 new histograms fit: the capacity is not 32
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ObsRegistry, GaugeLastWriteWins) {
  obs::reset();
  static const obs::Gauge g("mda.obs.test_gauge");
  g.set(1.5);
  g.set(-3.25);
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* v = snap.find("mda.obs.test_gauge");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, obs::MetricKind::Gauge);
  EXPECT_DOUBLE_EQ(v->value, -3.25);
}

TEST(ObsRegistry, HistogramStatsAndBuckets) {
  obs::reset();
  static const obs::Histogram h("mda.obs.test_hist");
  h.observe(0.5);   // ilogb = -1
  h.observe(0.75);  // ilogb = -1
  h.observe(4.0);   // ilogb = 2
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* v = snap.find("mda.obs.test_hist");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, obs::MetricKind::Histogram);
  EXPECT_EQ(v->count, 3u);
  EXPECT_DOUBLE_EQ(v->sum, 5.25);
  EXPECT_DOUBLE_EQ(v->min, 0.5);
  EXPECT_DOUBLE_EQ(v->max, 4.0);
  EXPECT_DOUBLE_EQ(v->mean(), 1.75);
  ASSERT_EQ(static_cast<int>(v->buckets.size()), obs::kHistBuckets);
  EXPECT_EQ(v->buckets[static_cast<std::size_t>(-1 - obs::kHistMinExp)], 2u);
  EXPECT_EQ(v->buckets[static_cast<std::size_t>(2 - obs::kHistMinExp)], 1u);
}

TEST(ObsRegistry, ScopedTimerObservesElapsedSeconds) {
  obs::reset();
  static const obs::Histogram h("mda.obs.test_timer");
  {
    const obs::ScopedTimer t(h);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* v = snap.find("mda.obs.test_timer");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, 1u);
  EXPECT_GT(v->sum, 0.0);
  EXPECT_LT(v->sum, 60.0);
}

TEST(ObsRegistry, ResetZeroesEverything) {
  static const obs::Counter c("mda.obs.test_reset");
  c.add(7);
  obs::reset();
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* v = snap.find("mda.obs.test_reset");
  ASSERT_NE(v, nullptr);  // registration survives, the totals do not
  EXPECT_EQ(v->count, 0u);
}

TEST(ObsRegistry, RuntimeDisableDropsWrites) {
  obs::reset();
  static const obs::Counter c("mda.obs.test_disabled");
  static const obs::Histogram h("mda.obs.test_disabled_hist");
  obs::set_enabled(false);
  c.add(100);
  h.observe(1.0);
  { const obs::ScopedTimer t(h); }
  obs::set_enabled(true);
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  EXPECT_EQ(snap.find("mda.obs.test_disabled")->count, 0u);
  EXPECT_EQ(snap.find("mda.obs.test_disabled_hist")->count, 0u);
  c.add(1);
  EXPECT_EQ(obs::MetricsSnapshot::capture().find("mda.obs.test_disabled")
                ->count,
            1u);
}

// Writes from pool workers land in per-thread shards; collect() must see
// the exact totals whatever the thread count — including shards retired by
// worker threads that have already exited.
class ObsShards : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ObsShards, AggregatesAcrossThreads) {
  obs::reset();
  static const obs::Counter c("mda.obs.test_shard_counter");
  static const obs::Histogram h("mda.obs.test_shard_hist");
  constexpr std::size_t kTasks = 1000;
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    expected_sum += static_cast<double>(i + 1);
  }
  {
    core::BatchOptions opts;
    opts.num_threads = GetParam();
    const core::BatchEngine engine(opts);
    engine.parallel_for(kTasks, [&](std::size_t i) {
      c.add();
      h.observe(static_cast<double>(i + 1));
    });
  }  // engine destroyed: worker shards retired before capture
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const obs::MetricValue* cv = snap.find("mda.obs.test_shard_counter");
  const obs::MetricValue* hv = snap.find("mda.obs.test_shard_hist");
  ASSERT_NE(cv, nullptr);
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(cv->count, kTasks);
  EXPECT_EQ(hv->count, kTasks);
  EXPECT_DOUBLE_EQ(hv->sum, expected_sum);
  EXPECT_DOUBLE_EQ(hv->min, 1.0);
  EXPECT_DOUBLE_EQ(hv->max, static_cast<double>(kTasks));
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : hv->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kTasks);
}

INSTANTIATE_TEST_SUITE_P(Threads, ObsShards,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

// mda.batch.job_time_s records one sample per parallel_for job on every
// path: the pool, and each inline one — a 1-thread engine, a single-task
// batch and a call nested inside a running task.
TEST(ObsBatchEngine, JobTimeCoversInlineJobs) {
  const auto job_samples = [] {
    const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
    const obs::MetricValue* v = snap.find("mda.batch.job_time_s");
    return v == nullptr ? std::uint64_t{0} : v->count;
  };
  obs::reset();
  core::BatchOptions serial;
  serial.num_threads = 1;
  const core::BatchEngine one(serial);
  one.parallel_for(5, [](std::size_t) {});
  EXPECT_EQ(job_samples(), 1u);

  core::BatchOptions pooled;
  pooled.num_threads = 2;
  const core::BatchEngine two(pooled);
  two.parallel_for(1, [](std::size_t) {});
  EXPECT_EQ(job_samples(), 2u);
  two.parallel_for(4, [&](std::size_t) {
    two.parallel_for(3, [](std::size_t) {});
  });
  EXPECT_EQ(job_samples(), 2u + 1u + 4u);  // the pooled job plus 4 nested
}

// mda.backend.fullspice_time_s and mda.accel.compute_time_s are observed
// once per query, inside that query's own evaluation — also when the
// queries arrive as a group — so a query's compute time covers its
// FullSpice time.
TEST(ObsAccelerator, FullSpiceTimesObservedOncePerQuery) {
  const auto hist = [](const char* name) {
    const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
    const obs::MetricValue* v = snap.find(name);
    return v == nullptr ? obs::MetricValue{} : *v;
  };
  core::AcceleratorConfig cfg;
  cfg.backend = core::Backend::FullSpice;
  core::Accelerator acc(cfg);
  core::DistanceSpec spec;
  spec.kind = dist::DistanceKind::Manhattan;
  acc.configure(spec);
  const std::vector<double> p = {0.2, -0.4, 0.1};
  const std::vector<std::vector<double>> qs = {
      {0.3, 0.1, -0.2}, {-0.5, 0.4, 0.0}, {0.1, 0.1, 0.6}};
  std::vector<core::QueryRequest> group;
  for (const auto& q : qs) group.push_back({p, q});

  obs::reset();
  const obs::MetricValue fs0 = hist("mda.backend.fullspice_time_s");
  const obs::MetricValue ct0 = hist("mda.accel.compute_time_s");
  for (const core::ComputeOutcome& o : acc.try_compute_lockstep(group)) {
    ASSERT_TRUE(o.ok());
  }
  const obs::MetricValue fs1 = hist("mda.backend.fullspice_time_s");
  const obs::MetricValue ct1 = hist("mda.accel.compute_time_s");
  EXPECT_EQ(fs1.count - fs0.count, 3u);
  EXPECT_EQ(ct1.count - ct0.count, 3u);
  EXPECT_GT(fs1.sum - fs0.sum, 0.0);
  EXPECT_GE(ct1.sum - ct0.sum, fs1.sum - fs0.sum);
}

TEST(ObsSnapshot, JsonRoundTrip) {
  obs::reset();
  static const obs::Counter c("mda.obs.test_rt_counter");
  static const obs::Gauge g("mda.obs.test_rt_gauge");
  static const obs::Histogram h("mda.obs.test_rt_hist");
  c.add(17);
  g.set(2.5e-7);
  h.observe(1e-9);
  h.observe(3.5);
  h.observe(1024.0);
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  const auto back = obs::MetricsSnapshot::from_json(snap.to_json());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->metrics.size(), snap.metrics.size());
  for (std::size_t i = 0; i < snap.metrics.size(); ++i) {
    const obs::MetricValue& a = snap.metrics[i];
    const obs::MetricValue& b = back->metrics[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.count, b.count);
    EXPECT_DOUBLE_EQ(a.sum, b.sum);
    EXPECT_DOUBLE_EQ(a.min, b.min);
    EXPECT_DOUBLE_EQ(a.max, b.max);
    EXPECT_DOUBLE_EQ(a.value, b.value);
    EXPECT_EQ(a.buckets, b.buckets);
  }
}

TEST(ObsSnapshot, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("").has_value());
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("not json").has_value());
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("{\"metrics\": [{]}")
                   .has_value());
}

TEST(ObsSnapshot, FindAndPrefixLookups) {
  obs::reset();
  static const obs::Counter a("mda.obs.test_prefix_a");
  static const obs::Counter b("mda.obs.test_prefix_b");
  a.add();
  b.add();
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  EXPECT_EQ(snap.find("mda.obs.no_such_metric"), nullptr);
  const auto obs_metrics = snap.with_prefix("mda.obs.test_prefix_");
  EXPECT_EQ(obs_metrics.size(), 2u);
  EXPECT_TRUE(snap.with_prefix("mda.nope.").empty());
}

TEST(ObsSnapshot, TableMentionsEveryMetric) {
  obs::reset();
  static const obs::Counter c("mda.obs.test_table");
  c.add(3);
  const std::string table = obs::MetricsSnapshot::capture().to_table();
  EXPECT_NE(table.find("mda.obs.test_table"), std::string::npos);
}

}  // namespace
