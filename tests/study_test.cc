// Tests: src/study -- the public facade, plus cross-cutting paper-shape
// assertions on a small but complete study run, and the facade's contract
// in columnar (out-of-core) mode.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "bench/bench_common.h"
#include "src/base/rng.h"
#include "src/stats/distributions.h"
#include "src/study/study.h"

namespace ntrace {
namespace {

StudyConfig SmallStudy() {
  StudyConfig config;
  config.fleet.walk_up = 1;
  config.fleet.pool = 1;
  config.fleet.personal = 1;
  config.fleet.administrative = 1;
  config.fleet.scientific = 1;
  config.fleet.days = 1;
  config.fleet.seed = 404;
  config.fleet.activity_scale = 0.3;
  config.fleet.content_scale = 0.06;
  return config;
}

class StudyTest : public ::testing::Test {
 protected:
  static Study& study() {
    static Study* instance = [] {
      auto* s = new Study(SmallStudy());
      s->Run();
      return s;
    }();
    return *instance;
  }
};

TEST_F(StudyTest, AccessorsAreConsistent) {
  EXPECT_TRUE(study().has_run());
  EXPECT_GT(study().trace().records.size(), 1000u);
  EXPECT_LT(study().app_trace().records.size(), study().trace().records.size());
  EXPECT_GT(study().instances().rows().size(), 100u);
  EXPECT_EQ(study().systems().size(), 5u);
}

TEST_F(StudyTest, MemoizationReturnsSameObject) {
  const UserActivityResult* a = &study().UserActivity();
  const UserActivityResult* b = &study().UserActivity();
  EXPECT_EQ(a, b);
}

TEST_F(StudyTest, Table2ShapeHolds) {
  const UserActivityResult& activity = study().UserActivity();
  EXPECT_GT(activity.ten_minutes.max_active_users, 0);
  EXPECT_GT(activity.ten_minutes.avg_user_throughput_kbs, 0.5);
  // Short intervals concentrate bursts: the 10-second peak dominates.
  EXPECT_GT(activity.ten_seconds.peak_user_throughput_kbs,
            activity.ten_minutes.peak_user_throughput_kbs);
}

TEST_F(StudyTest, Table3ShapeHolds) {
  const AccessPatternTable& patterns = study().AccessPatterns();
  EXPECT_GT(patterns.data_sessions, 100u);
  // Read-only dominates accesses; whole-file dominates read-only.
  EXPECT_GT(patterns.usage_totals[0].accesses_pct, 50.0);
  EXPECT_GT(patterns.cells[0][0].accesses_pct, patterns.cells[0][2].accesses_pct);
}

TEST_F(StudyTest, SessionShapeHolds) {
  const SessionResult& sessions = study().Sessions();
  // Most sessions are brief; 40% close within a few ms (paper: 1 ms).
  EXPECT_LT(sessions.session_p40_ms, 50.0);
  // Control sessions are shorter than data sessions at the median.
  EXPECT_LT(sessions.session_control_ms.Percentile(0.5),
            sessions.session_data_ms.Percentile(0.5));
  // Two-stage close: read gaps in microseconds, write gaps near seconds.
  if (!sessions.close_gap_read_us.empty() && !sessions.close_gap_write_us.empty()) {
    EXPECT_LT(sessions.close_gap_read_us.Percentile(0.5), 100.0);
    EXPECT_GT(sessions.close_gap_write_us.Percentile(0.5), 10000.0);
  }
}

TEST_F(StudyTest, ControlDominanceAndErrorsPresent) {
  const OperationResult& ops = study().Operations();
  EXPECT_GT(ops.control_only_open_fraction, 0.4);
  EXPECT_GT(ops.open_failure_fraction, 0.01);
  EXPECT_GT(ops.open_notfound_share, 0.3);
  EXPECT_EQ(ops.write_failures, 0u);
  EXPECT_GT(ops.non_interactive_access_fraction, 0.35);
  EXPECT_GT(ops.volume_mounted_checks, 100u);
}

TEST_F(StudyTest, CacheAndFastIoShapeHolds) {
  const CacheAnalysisResult& cache = study().Cache();
  EXPECT_GT(cache.cached_read_fraction, 0.3);
  EXPECT_GT(cache.single_prefetch_fraction, 0.6);
  const FastIoResultAnalysis& fastio = study().FastIo();
  EXPECT_GT(fastio.fastio_write_share, 0.5);
  // FastIO is the faster mechanism.
  EXPECT_LT(fastio.fastio_read_latency_us.Percentile(0.5),
            fastio.irp_read_latency_us.Percentile(0.5));
}

TEST_F(StudyTest, HeavyTailsEverywhere) {
  const std::vector<TailDiagnostics> sweep = study().TailSweep();
  ASSERT_GE(sweep.size(), 4u);
  for (const TailDiagnostics& d : sweep) {
    // Skip sparse samples and poor power-law fits (at this tiny test scale
    // the request-size tail has too few large draws to fit).
    if (d.samples < 100 || d.llcd.fit_r2 < 0.8) {
      continue;
    }
    const double alpha = d.llcd.alpha_hat > 0 ? d.llcd.alpha_hat : d.hill_alpha;
    EXPECT_GT(alpha, 0.0) << d.quantity;
    EXPECT_LT(alpha, 2.5) << d.quantity;  // Heavy (paper: 1.2-1.7).
  }
}

// Figures 8-11 read open arrivals from the instance rows. The oracle is the
// walk over the trace's create records they replaced; both must agree
// exactly.
TEST_F(StudyTest, OpenArrivalsMatchCreateRecordWalk) {
  const TraceSet& trace = study().trace();
  std::map<uint32_t, uint64_t> creates_by_system;
  for (const TraceRecord& r : trace.records) {
    if (r.Event() == TraceEvent::kIrpCreate) {
      ++creates_by_system[r.system_id];
    }
  }
  uint32_t busiest = 0;
  uint64_t busiest_count = 0;
  for (const auto& [id, n] : creates_by_system) {
    if (n > busiest_count) {
      busiest = id;
      busiest_count = n;
    }
  }
  std::vector<double> gaps_ms;
  std::vector<double> arrivals_s;
  int64_t last = -1;
  for (const TraceRecord& r : trace.records) {
    if (r.Event() != TraceEvent::kIrpCreate || r.system_id != busiest) {
      continue;
    }
    if (last >= 0 && r.start_ticks > last) {
      gaps_ms.push_back(SimDuration(r.start_ticks - last).ToMillisF());
    }
    last = r.start_ticks;
    arrivals_s.push_back(SimTime(r.start_ticks).ToSecondsF());
  }
  ASSERT_GT(arrivals_s.size(), 100u);

  // Figure 8.
  const double base = arrivals_s.front();
  const double span = arrivals_s.back() - base;
  Rng rng(99);
  const PoissonProcess poisson(static_cast<double>(arrivals_s.size()) / std::max(span, 1.0));
  std::vector<double> poisson_s;
  for (double t = poisson.NextGapSeconds(rng); t < span; t += poisson.NextGapSeconds(rng)) {
    poisson_s.push_back(t);
  }
  auto bucketize = [](const std::vector<double>& times, double offset, double interval) {
    IntervalSeries series(interval);
    for (double t : times) {
      series.AddEvent(t - offset);
    }
    return series.Dense();
  };
  const ArrivalViews views = study().Burstiness(0);
  EXPECT_EQ(views.trace_1s, bucketize(arrivals_s, base, 1.0));
  EXPECT_EQ(views.trace_10s, bucketize(arrivals_s, base, 10.0));
  EXPECT_EQ(views.trace_100s, bucketize(arrivals_s, base, 100.0));
  EXPECT_EQ(views.poisson_1s, bucketize(poisson_s, 0.0, 1.0));
  EXPECT_EQ(views.poisson_10s, bucketize(poisson_s, 0.0, 10.0));
  EXPECT_EQ(views.poisson_100s, bucketize(poisson_s, 0.0, 100.0));

  // Figures 9-10: the sweep's first quantity is the open inter-arrival.
  const TailDiagnostics oracle = BurstinessAnalyzer::Diagnose("oracle", gaps_ms);
  const TailDiagnostics swept = study().TailSweep()[0];
  EXPECT_EQ(swept.samples, oracle.samples);
  EXPECT_EQ(swept.hill_alpha, oracle.hill_alpha);
  EXPECT_EQ(swept.llcd.alpha_hat, oracle.llcd.alpha_hat);
  EXPECT_EQ(swept.qq_normal.sample_q, oracle.qq_normal.sample_q);
  EXPECT_EQ(swept.qq_pareto.theoretical_q, oracle.qq_pareto.theoretical_q);

  // Figure 11: per-system create-to-create gaps, split by whether the
  // opened instance moved data.
  std::unordered_map<uint64_t, bool> is_data_open;
  for (const Instance& s : study().instances().rows()) {
    is_data_open[s.file_object] = s.HasData();
  }
  WeightedCdf io_ms;
  WeightedCdf control_ms;
  std::map<uint32_t, int64_t> last_open_by_system;
  std::set<std::pair<uint32_t, int64_t>> seconds_with_open;
  for (const TraceRecord& r : trace.records) {
    if (r.Event() != TraceEvent::kIrpCreate) {
      continue;
    }
    seconds_with_open.insert({r.system_id, r.start_ticks / SimDuration::kTicksPerSecond});
    auto it = last_open_by_system.find(r.system_id);
    if (it != last_open_by_system.end()) {
      const double gap_ms = SimDuration(r.start_ticks - it->second).ToMillisF();
      (is_data_open.at(r.file_object) ? io_ms : control_ms).Add(gap_ms);
    }
    last_open_by_system[r.system_id] = r.start_ticks;
  }
  io_ms.Finalize();
  control_ms.Finalize();
  const SessionResult& sessions = study().Sessions();
  ASSERT_FALSE(io_ms.empty());
  ASSERT_FALSE(control_ms.empty());
  EXPECT_TRUE(sessions.open_interarrival_io_ms.samples() == io_ms.samples());
  EXPECT_TRUE(sessions.open_interarrival_control_ms.samples() == control_ms.samples());
  int64_t max_second = 0;
  for (const TraceRecord& r : trace.records) {
    max_second = std::max(max_second, r.complete_ticks / SimDuration::kTicksPerSecond);
  }
  EXPECT_EQ(sessions.seconds_with_opens_fraction,
            static_cast<double>(seconds_with_open.size()) /
                (static_cast<double>(max_second) * last_open_by_system.size()));
}

TEST_F(StudyTest, SnapshotsSupportSection5) {
  const std::vector<ContentSummary> contents = study().ContentSummaries();
  ASSERT_FALSE(contents.empty());
  for (const ContentSummary& c : contents) {
    EXPECT_GT(c.files, 100u);
    EXPECT_GT(c.fullness, 0.2);
    EXPECT_LT(c.fullness, 0.95);
  }
}

// A two-system fleet, in columnar mode when `columnar_dir` is non-empty.
// Columnar mode keeps the records in the disk-backed store and no row trace.
StudyConfig TwoSystemStudy(const std::string& columnar_dir) {
  StudyConfig config = SmallStudy();
  config.fleet.pool = 0;
  config.fleet.administrative = 0;
  config.fleet.scientific = 0;
  config.fleet.columnar_dir = columnar_dir;
  return config;
}

std::string ColumnarDir() {
  return testing::TempDir() + "/study_columnar_" + std::to_string(getpid());
}

// Every accessor that reads the row trace or the instance table must abort
// with a message in columnar mode instead of analyzing an empty trace.
TEST(StudyColumnarDeathTest, RowOnlyAccessorsFailLoudly) {
  const std::string dir = ColumnarDir();
  Study study(TwoSystemStudy(dir));
  study.Run();
  const char* kRefusal = "columnar mode keeps no row trace";
  EXPECT_DEATH(study.trace(), kRefusal);
  EXPECT_DEATH(study.app_trace(), kRefusal);
  EXPECT_DEATH(study.instances(), kRefusal);
  EXPECT_DEATH(study.UserActivity(), kRefusal);
  EXPECT_DEATH(study.AccessPatterns(), kRefusal);
  EXPECT_DEATH(study.RunLengths(), kRefusal);
  EXPECT_DEATH(study.FileSizes(), kRefusal);
  EXPECT_DEATH(study.Sessions(), kRefusal);
  EXPECT_DEATH(study.Lifetimes(), kRefusal);
  EXPECT_DEATH(study.Operations(), kRefusal);
  EXPECT_DEATH(study.Cache(), kRefusal);
  EXPECT_DEATH(study.Burstiness(), kRefusal);
  EXPECT_DEATH(study.TailSweep(), kRefusal);
  EXPECT_DEATH(study.ProcessProfiles(), kRefusal);
  EXPECT_DEATH(study.FileTypeProfiles(), kRefusal);
  std::filesystem::remove_all(dir);
}

// The scan-based accessors read the columnar store and must match a row
// mode run of the same fleet exactly.
TEST(StudyColumnar, ScanAndFastIoMatchRowMode) {
  const std::string dir = ColumnarDir();
  Study columnar(TwoSystemStudy(dir));
  columnar.Run();
  Study row(TwoSystemStudy(""));
  row.Run();

  const TraceScan& col_scan = columnar.Scan();
  const TraceScan& row_scan = row.Scan();
  ASSERT_GT(row_scan.records_scanned, 1000u);
  EXPECT_EQ(col_scan.records_scanned, row_scan.records_scanned);
  EXPECT_EQ(col_scan.records_lost_known, row_scan.records_lost_known);
  EXPECT_EQ(ScanFingerprint(col_scan), ScanFingerprint(row_scan));

  const FastIoResultAnalysis& a = columnar.FastIo();
  const FastIoResultAnalysis& b = row.FastIo();
  EXPECT_EQ(a.fastio_read_share, b.fastio_read_share);
  EXPECT_EQ(a.fastio_write_share, b.fastio_write_share);
  EXPECT_EQ(a.read_fallbacks, b.read_fallbacks);
  EXPECT_EQ(a.write_fallbacks, b.write_fallbacks);
  EXPECT_TRUE(a.fastio_read_latency_us.samples() == b.fastio_read_latency_us.samples());
  EXPECT_TRUE(a.fastio_write_latency_us.samples() == b.fastio_write_latency_us.samples());
  EXPECT_TRUE(a.irp_read_latency_us.samples() == b.irp_read_latency_us.samples());
  EXPECT_TRUE(a.irp_write_latency_us.samples() == b.irp_write_latency_us.samples());
  EXPECT_TRUE(a.fastio_read_size.samples() == b.fastio_read_size.samples());
  EXPECT_TRUE(a.fastio_write_size.samples() == b.fastio_write_size.samples());
  EXPECT_TRUE(a.irp_read_size.samples() == b.irp_read_size.samples());
  EXPECT_TRUE(a.irp_write_size.samples() == b.irp_write_size.samples());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ntrace
