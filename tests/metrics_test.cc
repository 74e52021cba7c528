// Unit + integration tests: src/metrics -- registry registration, sharded
// counter aggregation under concurrency, histogram bucket boundaries,
// JSON / Prometheus export goldens, and the cross-check the observability
// layer exists for: live metrics from a fleet run must agree exactly with
// the after-the-fact analysis of the same run's trace (FastIO shares,
// figure 13; cache hit ratio, section 9).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/cache_analysis.h"
#include "src/analysis/fastio.h"
#include "src/metrics/metrics.h"
#include "src/tracedb/instance_table.h"
#include "src/workload/fleet.h"

namespace ntrace {
namespace {

// --- Registry ----------------------------------------------------------------------

TEST(MetricsRegistry, SameNameSameObject) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("requests_total", "help text");
  Counter& b = registry.GetCounter("requests_total", "ignored on re-registration");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "requests_total");
  EXPECT_EQ(a.help(), "help text");

  Gauge& g1 = registry.GetGauge("backlog");
  Gauge& g2 = registry.GetGauge("backlog");
  EXPECT_EQ(&g1, &g2);

  Histogram& h1 = registry.GetHistogram("latency_us");
  Histogram& h2 = registry.GetHistogram("latency_us");
  EXPECT_EQ(&h1, &h2);

  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndLookupsWork) {
  MetricsRegistry registry;
  registry.GetCounter("zeta_total").Inc(2);
  registry.GetCounter("alpha_total").Inc(7);
  registry.GetGauge("mid_gauge").Set(-5);
  registry.GetHistogram("h").Observe(3);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha_total");
  EXPECT_EQ(snap.counters[1].name, "zeta_total");
  EXPECT_EQ(snap.CounterValue("alpha_total"), 7u);
  EXPECT_EQ(snap.CounterValue("zeta_total"), 2u);
  EXPECT_EQ(snap.CounterValue("missing_total"), 0u);
  EXPECT_EQ(snap.GaugeValue("mid_gauge"), -5);
  EXPECT_EQ(snap.GaugeValue("missing_gauge"), 0);
  ASSERT_NE(snap.FindHistogram("h"), nullptr);
  EXPECT_EQ(snap.FindHistogram("h")->count, 1u);
  EXPECT_EQ(snap.FindHistogram("missing"), nullptr);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// --- Counter sharding --------------------------------------------------------------

TEST(Counter, AggregatesAcrossConcurrentThreads) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("contended_total");
  Gauge& gauge = registry.GetGauge("contended_gauge");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter, &gauge] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.Inc();
        gauge.Add(1);
      }
      counter.Inc(2);  // Weighted increments land on the same shard path.
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * (kIncrements + 2));
  EXPECT_EQ(gauge.Value(), static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(Metrics, KillSwitchTurnsMutationsIntoNoOps) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("gated_total");
  Gauge& gauge = registry.GetGauge("gated_gauge");
  Histogram& hist = registry.GetHistogram("gated_hist");
  counter.Inc(3);
  SetMetricsEnabled(false);
  counter.Inc(100);
  gauge.Set(42);
  gauge.Add(7);
  hist.Observe(9);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter.Value(), 3u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(hist.Count(), 0u);
  counter.Inc();
  EXPECT_EQ(counter.Value(), 4u);
}

// --- Histogram buckets -------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreLog2Inclusive) {
  // Bucket i counts v with 2^(i-1) < v <= 2^i; powers of two land exactly
  // on their own bound.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11u);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 39), 39u);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 39) + 1), Histogram::kNumBounds);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()), Histogram::kNumBounds);
}

TEST(Histogram, ObserveFillsBucketsCountAndSum) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("sizes");
  hist.Observe(1);
  hist.Observe(3);
  hist.Observe(1024);
  hist.Observe((uint64_t{1} << 39) + 1);
  EXPECT_EQ(hist.Count(), 4u);
  EXPECT_EQ(hist.Sum(), 1u + 3u + 1024u + ((uint64_t{1} << 39) + 1));
  EXPECT_EQ(hist.BucketCount(0), 1u);
  EXPECT_EQ(hist.BucketCount(2), 1u);
  EXPECT_EQ(hist.BucketCount(10), 1u);
  EXPECT_EQ(hist.BucketCount(Histogram::kNumBounds), 1u);
  EXPECT_EQ(hist.BucketCount(1), 0u);
}

// --- Snapshot delta ----------------------------------------------------------------

TEST(MetricsSnapshot, DeltaSubtractsFlowsAndKeepsLevels) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("flow_total");
  Gauge& gauge = registry.GetGauge("level");
  Histogram& hist = registry.GetHistogram("h");
  counter.Inc(5);
  hist.Observe(2);
  const MetricsSnapshot base = registry.Snapshot();

  counter.Inc(3);
  gauge.Set(7);
  hist.Observe(2);
  hist.Observe(100);
  const MetricsSnapshot delta = registry.Snapshot().DeltaFrom(base);

  EXPECT_EQ(delta.CounterValue("flow_total"), 3u);
  EXPECT_EQ(delta.GaugeValue("level"), 7);  // A gauge is a level, not a flow.
  const HistogramSnapshot* h = delta.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 102u);
  EXPECT_EQ(h->buckets[1], 1u);  // One of the two Observe(2) was pre-base.
  EXPECT_EQ(h->buckets[7], 1u);  // 100 <= 128.
}

// --- Export goldens ----------------------------------------------------------------

MetricsRegistry& GoldenRegistry() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    r->GetCounter("t_total", "a counter").Inc(3);
    r->GetGauge("t_gauge").Set(-2);
    Histogram& h = r->GetHistogram("t_hist");
    h.Observe(1);
    h.Observe(3);
    h.Observe(1024);
    return r;
  }();
  return *registry;
}

TEST(MetricsSnapshot, JsonExportGolden) {
  const std::string json = GoldenRegistry().Snapshot().ToJson();
  EXPECT_EQ(json,
            "{\n"
            "  \"counters\": {\n"
            "    \"t_total\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"t_gauge\": -2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"t_hist\": {\"count\": 3, \"sum\": 1028, "
            "\"buckets\": [[1, 1], [4, 1], [1024, 1]]}\n"
            "  }\n"
            "}\n");
}

TEST(MetricsSnapshot, PrometheusExportGolden) {
  const std::string text = GoldenRegistry().Snapshot().ToPrometheusText();
  EXPECT_EQ(text,
            "# HELP t_total a counter\n"
            "# TYPE t_total counter\n"
            "t_total 3\n"
            "# TYPE t_gauge gauge\n"
            "t_gauge -2\n"
            "# TYPE t_hist histogram\n"
            "t_hist_bucket{le=\"1\"} 1\n"
            "t_hist_bucket{le=\"4\"} 2\n"
            "t_hist_bucket{le=\"1024\"} 3\n"
            "t_hist_bucket{le=\"+Inf\"} 3\n"
            "t_hist_sum 1028\n"
            "t_hist_count 3\n");
}

// --- Fleet cross-check -------------------------------------------------------------
//
// The acceptance test for the whole layer: run a clean fleet (no faults,
// no drops) and require the live counters to reproduce -- exactly, not
// approximately -- the figures the analysis layer computes from the merged
// trace of the same run.

FleetConfig CrossCheckConfig(int threads) {
  FleetConfig config;
  config.walk_up = 1;
  config.pool = 1;
  config.personal = 1;
  config.administrative = 1;
  config.scientific = 1;
  config.days = 1;
  config.seed = 7;
  config.activity_scale = 0.3;
  config.content_scale = 0.05;
  config.threads = threads;
  return config;
}

void ExpectMetricsMatchAnalysis(const FleetResult& result) {
  const MetricsSnapshot& m = result.metrics;

  // The cross-check is only exact on a clean run: every emitted record made
  // it into the collection.
  uint64_t emitted = 0;
  for (const SystemRunStats& s : result.systems) {
    ASSERT_EQ(s.trace_drops, 0u);
    ASSERT_EQ(s.trace_shed, 0u);
    ASSERT_EQ(s.trace_lost, 0u);
    emitted += s.trace_emitted;
  }
  EXPECT_EQ(m.CounterValue("ntrace_trace_records_emitted_total"), emitted);
  EXPECT_EQ(m.CounterValue("ntrace_trace_records_dropped_total"), 0u);
  EXPECT_EQ(m.CounterValue("ntrace_server_records_collected_total"), result.trace.records.size());
  EXPECT_EQ(m.CounterValue("ntrace_server_duplicate_shipments_total"), 0u);
  EXPECT_EQ(m.CounterValue("ntrace_server_sequence_gap_events_total"), 0u);

  // Figure 13 / section 10: the FastIO share the analyzer derives from
  // trace records equals the share the IoManager counted live. FastIO
  // accepts emit kFastIoRead/Write records; rejected attempts fall back to
  // an application IRP (non-paging kIrpRead/Write) and a NotPossible marker.
  const TraceScan scan = TraceScan::Run(result.trace);
  const FastIoResultAnalysis fastio = FastIoAnalyzer::Analyze(scan);
  const uint64_t fast_reads = m.CounterValue("ntrace_ntio_fastio_read_accepted_total");
  const uint64_t irp_reads = m.CounterValue("ntrace_ntio_app_read_irp_total");
  const uint64_t fast_writes = m.CounterValue("ntrace_ntio_fastio_write_accepted_total");
  const uint64_t irp_writes = m.CounterValue("ntrace_ntio_app_write_irp_total");
  ASSERT_GT(fast_reads + irp_reads, 0u);
  ASSERT_GT(fast_writes + irp_writes, 0u);
  EXPECT_DOUBLE_EQ(fastio.fastio_read_share,
                   static_cast<double>(fast_reads) / static_cast<double>(fast_reads + irp_reads));
  EXPECT_DOUBLE_EQ(
      fastio.fastio_write_share,
      static_cast<double>(fast_writes) / static_cast<double>(fast_writes + irp_writes));
  EXPECT_EQ(m.CounterValue("ntrace_ntio_fastio_read_rejected_total"), fastio.read_fallbacks);
  EXPECT_EQ(m.CounterValue("ntrace_ntio_fastio_write_rejected_total"), fastio.write_fallbacks);

  // Section 9: the cache hit ratio. The metrics mirror the same CacheStats
  // fields the analyzer consumes, so both the raw counts and the derived
  // fraction must agree.
  const CacheStats cache = result.TotalCache();
  EXPECT_EQ(m.CounterValue("ntrace_mm_copy_read_total"), cache.copy_reads);
  EXPECT_EQ(m.CounterValue("ntrace_mm_copy_read_hit_total"), cache.copy_read_hits);
  EXPECT_EQ(m.CounterValue("ntrace_mm_lazy_write_irp_total"), cache.lazy_write_irps);
  EXPECT_EQ(m.CounterValue("ntrace_mm_lazy_write_bytes_total"), cache.lazy_write_bytes);
  EXPECT_EQ(m.CounterValue("ntrace_mm_flush_op_total"), cache.flush_ops);
  EXPECT_EQ(m.CounterValue("ntrace_mm_flush_bytes_total"), cache.flush_bytes);
  const InstanceTable table = InstanceTable::Build(result.trace);
  const CacheAnalysisResult analysis = CacheAnalyzer::Analyze(scan, table, cache);
  ASSERT_GT(m.CounterValue("ntrace_mm_copy_read_total"), 0u);
  EXPECT_DOUBLE_EQ(analysis.cached_read_fraction,
                   static_cast<double>(m.CounterValue("ntrace_mm_copy_read_hit_total")) /
                       static_cast<double>(m.CounterValue("ntrace_mm_copy_read_total")));

  // Fleet-runner bookkeeping: one run, every system simulated and timed.
  EXPECT_EQ(m.CounterValue("ntrace_fleet_runs_total"), 1u);
  EXPECT_EQ(m.CounterValue("ntrace_fleet_systems_simulated_total"), result.systems.size());
  EXPECT_EQ(m.CounterValue("ntrace_fleet_system_records_total"), emitted);
  const HistogramSnapshot* wall = m.FindHistogram("ntrace_fleet_system_wall_us");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, result.systems.size());
}

TEST(MetricsFleetCrossCheck, SequentialRunMatchesAnalysis) {
  ExpectMetricsMatchAnalysis(RunFleet(CrossCheckConfig(1)));
}

TEST(MetricsFleetCrossCheck, ThreadedRunMatchesAnalysis) {
  // The sharded counters must aggregate correctly when the worker pool
  // increments them concurrently, and the delta-scoped snapshot must match
  // the analysis exactly even so.
  ExpectMetricsMatchAnalysis(RunFleet(CrossCheckConfig(3)));
}

TEST(MetricsFleetCrossCheck, SimDomainCountersAreThreadCountInvariant) {
  const FleetResult a = RunFleet(CrossCheckConfig(1));
  const FleetResult b = RunFleet(CrossCheckConfig(3));
  // Wall-clock metrics differ between runs by construction; everything in
  // the simulated domain is part of the bit-identical output contract.
  for (const char* name : {
           "ntrace_trace_records_emitted_total",
           "ntrace_trace_shipments_total",
           "ntrace_server_shipments_received_total",
           "ntrace_server_records_collected_total",
           "ntrace_ntio_irp_dispatch_total",
           "ntrace_ntio_fastio_read_accepted_total",
           "ntrace_ntio_fastio_write_accepted_total",
           "ntrace_mm_copy_read_total",
           "ntrace_mm_copy_read_hit_total",
           "ntrace_mm_lazy_write_irp_total",
       }) {
    EXPECT_EQ(a.metrics.CounterValue(name), b.metrics.CounterValue(name)) << name;
  }
}

}  // namespace
}  // namespace ntrace
