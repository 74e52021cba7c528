// ntrace benchmark binary: one closed-loop batch workload per invocation.
//
//   perfbench_ntrace --workload study|outofcore|whatif --seed N --seconds S
//                    --trace 0|1 --work-dir DIR
//
// Each workload sets up, then repeats its timed section until S seconds
// have passed (at least once), checking the outputs of every repetition.
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with the
// span recorder and the allocation counter off. With --trace 1 repetitions
// alternate between untraced (the reference) and traced; the metrics are
// the per-layer ones (see README.md), and the spans go to
// DIR/spans-<workload>-<seed>.jsonl. The line before the result is the run
// descriptor (machine, compiler, build type, seed, records).

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/metrics/metrics.h"
#include "src/replay/policy_sweep.h"
#include "src/replay/trace_replayer.h"
#include "src/study/study.h"
#include "src/trace/extent_store.h"
#include "src/base/rng.h"
#include "src/workload/fleet.h"

namespace perfbench {
namespace {

using namespace ntrace;
namespace fs = std::filesystem;

// Output fingerprints of the default seed (1999) in this benchmark's
// configuration: the study's fingerprint over the trace and every accessor
// result, and the Scan() fingerprint, which the columnar rescans of
// `outofcore` must also reproduce.
constexpr uint64_t kPinnedSeed = 1999;
constexpr uint32_t kPinnedStudyFingerprint = 0x27f840b2;
constexpr uint32_t kPinnedScanFingerprint = 0x42e4ee08;

// Set-up of every workload records the replay fidelity envelope
// (EnvelopeFleet) this many times; `whatif` replays the recording.
constexpr int kSetupRepeats = 5;
constexpr int kRescans = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

// Failed/attempted accounting behind the result's `failed` field.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

bool SameRatio(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The standard study: the paper's 45 systems (10/12/14/5/4) for one day.
FleetConfig StandardFleet(uint64_t seed) {
  FleetConfig config;
  config.walk_up = 10;
  config.pool = 12;
  config.personal = 14;
  config.administrative = 5;
  config.scientific = 4;
  config.days = 1;
  config.seed = seed;
  config.activity_scale = 0.75;
  config.content_scale = 0.12;
  config.threads = 1;
  return config;
}

// The replay fidelity envelope: one system per category at low activity,
// recording seed 7 -- the configuration DESIGN.md §13 and bench_replay pin
// as replaying byte-exact. At this shape recordings of other seeds replay
// exactly only about half the time (README.md, known gaps), so it does not
// vary with the workload seed. `config` supplies how records travel.
FleetConfig EnvelopeFleet(FleetConfig config) {
  config.seed = 7;
  config.walk_up = 1;
  config.pool = 1;
  config.personal = 1;
  config.administrative = 1;
  config.scientific = 1;
  config.activity_scale = 0.3;
  config.content_scale = 0.05;
  return config;
}

void ResetDir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// Per-layer metrics of one run, in the order they are printed.
class Ledger {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (values_.find(name) == values_.end()) {
      order_.push_back(name);
    }
    values_[name] = {value, unit};
  }
  double Get(const std::string& name) const { return values_.at(name).first; }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < order_.size(); ++i) {
      const auto& [value, unit] = values_.at(order_[i]);
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", order_[i].c_str(), value, unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Every per-layer metric, as BENCHMARK.json lists them. A traced run
// reports all of them for every workload; 0 means the workload does not
// exercise that layer. A metric named `<span>_s` is the median duration of
// that span over the traced repetitions.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"workload.fleet_s", "s"},
    {"workload.merge_s", "s"},
    {"workload.system_cpu_s", "s"},
    {"workload.ns_per_record", "ns"},
    {"workload.allocs", "count"},
    {"workload.records", "count"},
    {"ntio.irps", "count"},
    {"ntio.fastio_read_share", "ratio"},
    {"ntio.fastio_write_share", "ratio"},
    {"mm.copy_reads", "count"},
    {"mm.copy_read_hit_ratio", "ratio"},
    {"mm.lazy_scans", "count"},
    {"mm.lazy_write_irps", "count"},
    {"mm.readahead_irps", "count"},
    {"mm.fault_irps", "count"},
    {"mm.flush_ops", "count"},
    {"mm.vm_fault_irps", "count"},
    {"fs.irps", "count"},
    {"fs.media_read_bytes", "bytes"},
    {"fs.media_write_bytes", "bytes"},
    {"mm.hit_ratio_cache_small", "ratio"},
    {"mm.hit_ratio_cache_large", "ratio"},
    {"ntio.cached_read_ns", "ns"},
    {"ntio.cached_read_p99_ns", "ns"},
    {"trace.filter_read_ns", "ns"},
    {"trace.traced_read_p99_ns", "ns"},
    {"ntio.open_close_ns", "ns"},
    {"ntio.open_close_p99_ns", "ns"},
    {"bench.probe_samples", "count"},
    {"trace.app_trace_s", "s"},
    {"trace.spool_bytes", "bytes"},
    {"trace.extent_bytes_written", "bytes"},
    {"trace.store_open_s", "s"},
    {"trace.rescan_s", "s"},
    {"trace.rescan_ns_per_record", "ns"},
    {"trace.store_bytes", "bytes"},
    {"net.transport_s", "s"},
    {"net.frames_delivered", "count"},
    {"net.records_per_frame", "count"},
    {"net.busy_signals", "count"},
    {"net.shed_signals", "count"},
    {"net.duplicate_frames", "count"},
    {"net.agent_reconnects", "count"},
    {"analysis.scan_s", "s"},
    {"tracedb.instances_s", "s"},
    {"analysis.user_activity_s", "s"},
    {"analysis.access_patterns_s", "s"},
    {"analysis.run_lengths_s", "s"},
    {"analysis.file_sizes_s", "s"},
    {"analysis.sessions_s", "s"},
    {"analysis.lifetimes_s", "s"},
    {"analysis.fastio_s", "s"},
    {"analysis.operations_s", "s"},
    {"analysis.cache_s", "s"},
    {"analysis.burstiness_s", "s"},
    {"analysis.tails_s", "s"},
    {"analysis.process_profiles_s", "s"},
    {"analysis.file_type_profiles_s", "s"},
    {"analysis.snapshot_s", "s"},
    {"study.analysis_s", "s"},
    {"study.analysis_rss_mb", "MB"},
    {"tracedb.instances", "count"},
    {"analysis.cdf_samples", "count"},
    {"replay.sweep_s", "s"},
    {"replay.baseline_s", "s"},
    {"replay.records_in", "count"},
    {"replay.ns_per_record", "ns"},
    {"replay.allocs", "count"},
    {"replay.divergence", "count"},
    {"bench.tracing_overhead_pct", "%"},
    {"bench.traced_wall_s", "s"},
    {"bench.peak_rss_mb", "MB"},
    {"bench.unattributed_share", "ratio"},
};

// Work counts of the simulated stack, summed over systems.
void AddStackCounts(const std::vector<SystemRunStats>& systems, Ledger* ledger) {
  uint64_t irps = 0, fastio_read_attempts = 0, fastio_read_hits = 0, fastio_write_attempts = 0,
           fastio_write_hits = 0, vm_fault_irps = 0, fs_irps = 0, media_read = 0,
           media_write = 0;
  CacheStats cache;
  for (const SystemRunStats& s : systems) {
    irps += s.irp_count;
    fastio_read_attempts += s.fastio_read_attempts;
    fastio_read_hits += s.fastio_read_hits;
    fastio_write_attempts += s.fastio_write_attempts;
    fastio_write_hits += s.fastio_write_hits;
    vm_fault_irps += s.vm.fault_irps;
    for (const FsStats* f : {&s.local_fs, &s.remote_fs}) {
      for (uint64_t n : f->irps_by_major) {
        fs_irps += n;
      }
      media_read += f->media_read_bytes;
      media_write += f->media_write_bytes;
    }
    cache.copy_reads += s.cache.copy_reads;
    cache.copy_read_hits += s.cache.copy_read_hits;
    cache.lazy_scans += s.cache.lazy_scans;
    cache.lazy_write_irps += s.cache.lazy_write_irps;
    cache.readahead_irps += s.cache.readahead_irps;
    cache.fault_irps += s.cache.fault_irps;
    cache.flush_ops += s.cache.flush_ops;
  }
  ledger->Set("ntio.irps", irps, "count");
  ledger->Set("ntio.fastio_read_share", Ratio(fastio_read_hits, fastio_read_attempts), "ratio");
  ledger->Set("ntio.fastio_write_share", Ratio(fastio_write_hits, fastio_write_attempts),
              "ratio");
  ledger->Set("mm.copy_reads", cache.copy_reads, "count");
  ledger->Set("mm.copy_read_hit_ratio", Ratio(cache.copy_read_hits, cache.copy_reads), "ratio");
  ledger->Set("mm.lazy_scans", cache.lazy_scans, "count");
  ledger->Set("mm.lazy_write_irps", cache.lazy_write_irps, "count");
  ledger->Set("mm.readahead_irps", cache.readahead_irps, "count");
  ledger->Set("mm.fault_irps", cache.fault_irps, "count");
  ledger->Set("mm.flush_ops", cache.flush_ops, "count");
  ledger->Set("mm.vm_fault_irps", vm_fault_irps, "count");
  ledger->Set("fs.irps", fs_irps, "count");
  ledger->Set("fs.media_read_bytes", media_read, "bytes");
  ledger->Set("fs.media_write_bytes", media_write, "bytes");
}

// Fleet-call figures every workload reports (for `whatif`, of the
// recording).
void AddFleetCounts(uint64_t records, uint64_t allocs, const MetricsSnapshot& m,
                    Ledger* ledger) {
  ledger->Set("workload.merge_s", m.GaugeValue("ntrace_fleet_last_merge_wall_us") * 1e-6, "s");
  ledger->Set("workload.system_cpu_s",
              m.CounterValue("ntrace_fleet_system_wall_us_total") * 1e-6, "s");
  ledger->Set("workload.allocs", allocs, "count");
  ledger->Set("workload.records", records, "count");
}

// Writes `trace` as a sealed NTCOLX01 store the way the fleet's merge does
// (default extent size, names and process names at the tail) and returns
// its size in bytes, or 0 on failure.
uint64_t StoreBytes(const TraceSet& trace, const std::string& path) {
  uint64_t bytes = 0;
  {
    ExtentStoreWriter writer;
    if (!writer.Open(path, kDefaultExtentRecords, /*config_fingerprint=*/0) ||
        !writer.AppendRecords(trace.records.data(), trace.records.size())) {
      return 0;
    }
    for (const NameRecord& name : trace.names) {
      writer.AddName(name);
    }
    std::vector<std::pair<uint32_t, std::string>> procs(trace.process_names.begin(),
                                                        trace.process_names.end());
    std::sort(procs.begin(), procs.end());
    for (const auto& [pid, name] : procs) {
      writer.AddProcessName(pid, name);
    }
    if (!writer.Seal()) {
      return 0;
    }
    bytes = writer.bytes_written();
  }
  fs::remove(path);
  return bytes;
}

// What one run measured, beyond the per-layer ledger.
struct RunTotals {
  std::vector<double> setup_s;
  std::vector<double> wall_s;  // Untraced repetitions (trace 0), or the reference (trace 1).
  std::vector<double> cpu_s;
  std::vector<double> traced_wall_s;
  double store_bytes_per_record = 0;
  uint64_t records = 0;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  int Run();

 private:
  // Repeats `iteration(traced)` until the run's seconds are spent, at
  // least once untraced and, with trace 1, at least once traced.
  void Repeat(const std::function<void(bool traced)>& iteration);
  void BeginTraced(bool traced) {
    tracer_.set_enabled(traced);
    SetAllocCounting(traced);
  }

  void RunStudy();
  void RunOutOfCore();
  void RunWhatIf();
  void AddProbe();
  std::string Descriptor() const;

  Args args_;
  Checks checks_;
  Tracer tracer_;
  Ledger ledger_;
  RunTotals totals_;
};

void Bench::Repeat(const std::function<void(bool traced)>& iteration) {
  const double start = NowSeconds();
  int done = 0;
  while (done < (args_.trace ? 2 : 1) || NowSeconds() - start < args_.seconds) {
    // Traced runs alternate untraced reference and traced repetitions, so
    // that both see the same drift of a shared machine.
    const bool traced = args_.trace && done % 2 == 1;
    BeginTraced(traced);
    const double t0 = NowSeconds();
    iteration(traced);
    BeginTraced(false);
    // Hand freed heap back so the next repetition starts from the same
    // footprint; otherwise peak RSS would grow with the repetition count.
    malloc_trim(0);
    std::fprintf(stderr, "repetition %d%s: %.3f s, peak rss %.1f MB\n", done,
                 traced ? " (traced)" : "", NowSeconds() - t0, PeakRssMb());
    ++done;
  }
}

// ---------------------------------------------------------------------------
// study: the standard study in row mode, then every Study accessor.

// Fingerprint over the trace and every accessor result of a study that has
// run all accessors (memoized ones are read back, the rest recomputed
// outside the timed section).
struct StudyOutputs {
  std::vector<ContentSummary> content;
  std::vector<ChurnSummary> churn;
  std::vector<ProcessProfile> processes;
  std::vector<FileTypeProfile> file_types;
  std::vector<TailDiagnostics> tails;
  ArrivalViews burstiness;
};

void MixCdfs(Fingerprint& fp, std::initializer_list<const WeightedCdf*> cdfs) {
  for (const WeightedCdf* cdf : cdfs) {
    fp.Cdf(*cdf);
  }
}

void MixStudy(Study& study, const StudyOutputs& out, Fingerprint& fp) {
  fp.Value(TraceFingerprint(study.trace()));
  fp.Value(ScanFingerprint(study.Scan()));
  fp.Value(TraceFingerprint(study.app_trace()));
  fp.Value(study.instances().rows().size());
  for (const Instance& row : study.instances().rows()) {
    fp.Value(row.file_object);
    fp.Value(row.system_id);
    fp.Value(row.process_id);
    fp.Str(row.path);
    fp.Value(row.open_start);
    fp.Value(row.close_time);
    fp.Value(row.bytes_read);
    fp.Value(row.bytes_written);
    fp.Value(row.irp_reads + row.irp_writes + row.fastio_reads + row.fastio_writes);
  }
  const UserActivityResult& ua = study.UserActivity();
  for (const UserActivityRow* r : {&ua.ten_minutes, &ua.ten_seconds}) {
    for (double v : {r->interval_seconds, r->avg_active_users, r->avg_active_users_sd,
                     r->avg_user_throughput_kbs, r->avg_user_throughput_sd,
                     r->peak_user_throughput_kbs, r->peak_system_wide_kbs}) {
      fp.Value(v);
    }
    fp.Value(r->max_active_users);
  }
  const AccessPatternTable& ap = study.AccessPatterns();
  auto mix_cell = [&](const PatternCell& c) {
    for (double v : {c.accesses_pct, c.accesses_min, c.accesses_max, c.bytes_pct, c.bytes_min,
                     c.bytes_max}) {
      fp.Value(v);
    }
  };
  for (const auto& row : ap.cells) {
    for (const PatternCell& c : row) {
      mix_cell(c);
    }
  }
  for (const PatternCell& c : ap.usage_totals) {
    mix_cell(c);
  }
  fp.Value(ap.data_sessions);
  const RunLengthResult& rl = study.RunLengths();
  MixCdfs(fp, {&rl.read_runs_by_count, &rl.write_runs_by_count, &rl.read_runs_by_bytes,
               &rl.write_runs_by_bytes});
  fp.Value(rl.read_p80_bytes);
  const FileSizeResult& fsz = study.FileSizes();
  for (size_t i = 0; i < fsz.size_by_opens.size(); ++i) {
    MixCdfs(fp, {&fsz.size_by_opens[i], &fsz.size_by_bytes[i]});
  }
  MixCdfs(fp, {&fsz.all_by_opens, &fsz.all_by_bytes});
  fp.Value(fsz.p80_size_by_opens);
  fp.Value(fsz.top20_size);
  const SessionResult& se = study.Sessions();
  MixCdfs(fp, {&se.open_time_all_ms, &se.open_time_local_ms, &se.open_time_network_ms,
               &se.open_interarrival_io_ms, &se.open_interarrival_control_ms,
               &se.session_all_ms, &se.session_control_ms, &se.session_data_ms,
               &se.close_gap_read_us, &se.close_gap_write_us});
  for (double v : {se.data_open_p75_ms, se.interarrival_p40_ms, se.interarrival_p90_ms,
                   se.session_p40_ms, se.session_p90_ms, se.readonly_reopen_fraction,
                   se.writeonly_reopened_for_read_fraction, se.seconds_with_opens_fraction}) {
    fp.Value(v);
  }
  const LifetimeResult& lt = study.Lifetimes();
  fp.Value(lt.deaths.size());
  for (const NewFileDeath& d : lt.deaths) {
    fp.Value(static_cast<int>(d.method));
    fp.Value(d.lifetime_ms);
    fp.Value(d.close_to_death_ms);
    fp.Value(d.size_at_death);
    fp.Value(d.same_process);
    fp.Value(d.opens_between);
  }
  MixCdfs(fp, {&lt.overwrite_lifetime_ms, &lt.delete_lifetime_ms});
  fp.Value(lt.new_files);
  for (double v : {lt.overwrite_share, lt.explicit_share, lt.temporary_share,
                   lt.died_within_4s_fraction, lt.died_within_30s_fraction,
                   lt.overwritten_within_4ms_fraction, lt.deleted_within_4s_fraction,
                   lt.overwrite_close_gap_p75_ms, lt.overwrite_same_process_fraction,
                   lt.delete_same_process_fraction, lt.delete_opened_between_fraction,
                   lt.size_lifetime_correlation, lt.overwrite_with_dirty_fraction}) {
    fp.Value(v);
  }
  const FastIoResultAnalysis& fio = study.FastIo();
  MixCdfs(fp, {&fio.fastio_read_latency_us, &fio.fastio_write_latency_us,
               &fio.irp_read_latency_us, &fio.irp_write_latency_us, &fio.fastio_read_size,
               &fio.fastio_write_size, &fio.irp_read_size, &fio.irp_write_size});
  fp.Value(fio.fastio_read_share);
  fp.Value(fio.fastio_write_share);
  fp.Value(fio.read_fallbacks);
  fp.Value(fio.write_fallbacks);
  const OperationResult& op = study.Operations();
  MixCdfs(fp, {&op.read_sizes, &op.write_sizes, &op.read_gap_us, &op.write_gap_us});
  for (uint64_t v : {op.reads, op.writes, op.control_ops, op.directory_ops,
                     op.volume_mounted_checks, op.seteof_ops, op.write_failures}) {
    fp.Value(v);
  }
  for (double v : {op.reads_512_or_4096_fraction, op.reads_small_fraction,
                   op.reads_48k_plus_fraction, op.read_gap_p80_us, op.write_gap_p80_us,
                   op.batch_session_fraction, op.control_only_open_fraction,
                   op.volume_checks_per_active_second, op.open_failure_fraction,
                   op.open_notfound_share, op.open_collision_share, op.control_failure_fraction,
                   op.read_failure_fraction, op.non_interactive_access_fraction}) {
    fp.Value(v);
  }
  const CacheAnalysisResult& ca = study.Cache();
  for (double v : {ca.cached_read_fraction, ca.single_io_session_fraction,
                   ca.single_prefetch_fraction, ca.sequential_hint_open_fraction,
                   ca.read_cache_disabled_fraction, ca.write_through_fraction,
                   ca.flush_user_fraction, ca.lazy_write_mean_run_bytes,
                   ca.overwrite_with_dirty_fraction, ca.temporary_benefit_fraction}) {
    fp.Value(v);
  }
  for (uint64_t v : {ca.lazy_write_irps, ca.lazy_write_bytes, ca.seteof_on_close,
                     ca.temporary_pages_skipped}) {
    fp.Value(v);
  }
  const ArrivalViews& av = out.burstiness;
  for (const std::vector<double>* v : {&av.trace_1s, &av.trace_10s, &av.trace_100s,
                                       &av.poisson_1s, &av.poisson_10s, &av.poisson_100s}) {
    fp.Doubles(*v);
  }
  for (int i = 0; i < 3; ++i) {
    fp.Value(av.trace_cv[i]);
    fp.Value(av.poisson_cv[i]);
  }
  fp.Value(out.tails.size());
  for (const TailDiagnostics& t : out.tails) {
    fp.Str(t.quantity);
    fp.Value(t.hill_alpha);
    fp.Doubles(t.llcd.log_x);
    fp.Doubles(t.llcd.log_ccdf);
    fp.Value(t.llcd.fitted_slope);
    fp.Value(t.llcd.alpha_hat);
    fp.Value(t.llcd.fit_r2);
    for (const QqSeries* q : {&t.qq_normal, &t.qq_pareto}) {
      fp.Doubles(q->sample_q);
      fp.Doubles(q->theoretical_q);
      fp.Value(q->deviation);
    }
    fp.Value(t.samples);
  }
  fp.Value(out.processes.size());
  for (const ProcessProfile& p : out.processes) {
    fp.Str(p.image_name);
    for (uint64_t v : {p.opens, p.failed_opens, p.data_sessions, p.control_only_sessions,
                       p.bytes_read, p.bytes_written, p.distinct_files}) {
      fp.Value(v);
    }
    fp.Stats(p.session_length_ms);
    fp.Value(p.control_only_fraction);
    fp.Value(p.session_p90_ms);
  }
  fp.Value(out.file_types.size());
  for (const FileTypeProfile& t : out.file_types) {
    fp.Value(static_cast<int>(t.category));
    fp.Value(t.opens);
    fp.Value(t.bytes);
    fp.Stats(t.file_size);
    fp.Stats(t.session_length_ms);
  }
  fp.Value(out.content.size());
  for (const ContentSummary& c : out.content) {
    fp.Value(c.files);
    fp.Value(c.directories);
    fp.Value(c.fullness);
    for (size_t i = 0; i < c.bytes_share.size(); ++i) {
      fp.Value(c.bytes_share[i]);
      fp.Value(c.count_share[i]);
    }
    fp.Value(c.profile_file_share);
    fp.Value(c.web_cache_files);
    fp.Value(c.web_cache_bytes);
    fp.Value(c.creation_after_access_fraction);
    fp.Cdf(c.file_sizes);
  }
  fp.Value(out.churn.size());
  for (const ChurnSummary& c : out.churn) {
    fp.Stats(c.files_changed_per_day);
    fp.Value(c.profile_change_share);
    fp.Value(c.web_cache_change_share);
    fp.Value(c.total_added);
    fp.Value(c.total_removed);
    fp.Value(c.total_modified);
  }
}

void Bench::RunStudy() {
  const FleetConfig config = StandardFleet(args_.seed);
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span(tracer_, "bench.setup");
    const double t0 = NowSeconds();
    const FleetResult warm = RunFleet(EnvelopeFleet(config));
    totals_.setup_s.push_back(NowSeconds() - t0);
    checks_.Expect(warm.integrity.AllAccounted(), "set-up fleet accounts for every record");
  }

  std::optional<uint32_t> first_fingerprint;
  Repeat([&](bool traced) {
    Study study(StudyConfig{config});
    StudyOutputs out;
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    const uint64_t allocs0 = AllocCount();
    double rss_after_fleet = 0;
    uint64_t fleet_allocs = 0;
    Meter meter;
    meter.Start();
    {
      ScopedSpan root(tracer_, "study.timed");
      {
        ScopedSpan span(tracer_, "workload.fleet");
        study.Run();
      }
      fleet_allocs = AllocCount() - allocs0;
      rss_after_fleet = PeakRssMb();
      ScopedSpan analysis(tracer_, "study.analysis");
      auto timed = [&](const char* name, const std::function<void()>& call) {
        ScopedSpan span(tracer_, name);
        call();
      };
      timed("analysis.scan", [&] { study.Scan(); });
      timed("trace.app_trace", [&] { study.app_trace(); });
      timed("tracedb.instances", [&] { study.instances(); });
      timed("analysis.user_activity", [&] { study.UserActivity(); });
      timed("analysis.access_patterns", [&] { study.AccessPatterns(); });
      timed("analysis.run_lengths", [&] { study.RunLengths(); });
      timed("analysis.file_sizes", [&] { study.FileSizes(); });
      timed("analysis.sessions", [&] { study.Sessions(); });
      timed("analysis.lifetimes", [&] { study.Lifetimes(); });
      timed("analysis.fastio", [&] { study.FastIo(); });
      timed("analysis.operations", [&] { study.Operations(); });
      timed("analysis.cache", [&] { study.Cache(); });
      timed("analysis.burstiness", [&] { out.burstiness = study.Burstiness(0); });
      timed("analysis.tails", [&] { out.tails = study.TailSweep(); });
      timed("analysis.process_profiles", [&] { out.processes = study.ProcessProfiles(); });
      timed("analysis.file_type_profiles", [&] { out.file_types = study.FileTypeProfiles(); });
      timed("analysis.snapshot", [&] {
        out.content = study.ContentSummaries();
        out.churn = study.ChurnSummaries();
      });
    }
    meter.Stop();
    const double rss_after_analysis = PeakRssMb();
    const MetricsSnapshot m = MetricsRegistry::Global().Snapshot().DeltaFrom(before);

    // Output checks.
    const TraceScan& scan = study.Scan();
    checks_.Expect(study.integrity().AllAccounted(), "study accounts for every record");
    const uint64_t fast_reads = m.CounterValue("ntrace_ntio_fastio_read_accepted_total");
    const uint64_t irp_reads = m.CounterValue("ntrace_ntio_app_read_irp_total");
    const uint64_t fast_writes = m.CounterValue("ntrace_ntio_fastio_write_accepted_total");
    const uint64_t irp_writes = m.CounterValue("ntrace_ntio_app_write_irp_total");
    // Records the pipeline knows it did not collect (unresolved at harvest,
    // dropped) are missing from the trace but were counted live.
    uint64_t shortfall = 0;
    bool within = true;
    for (const auto& [live, traced] : {std::pair{fast_reads, scan.fastio_reads},
                                       std::pair{irp_reads, scan.irp_reads},
                                       std::pair{fast_writes, scan.fastio_writes},
                                       std::pair{irp_writes, scan.irp_writes}}) {
      within = within && traced <= live;
      shortfall += live - std::min(live, traced);
    }
    checks_.Expect(within && shortfall <= scan.records_lost_known,
                   "trace FastIO/IRP counts equal the live counters less known-lost records");
    if (scan.records_lost_known == 0) {
      checks_.Expect(SameRatio(study.FastIo().fastio_read_share,
                               Ratio(fast_reads, fast_reads + irp_reads)) &&
                         SameRatio(study.FastIo().fastio_write_share,
                                   Ratio(fast_writes, fast_writes + irp_writes)),
                     "figure-13 FastIO shares equal the live counters");
    }
    checks_.Expect(SameRatio(study.Cache().cached_read_fraction,
                             Ratio(m.CounterValue("ntrace_mm_copy_read_hit_total"),
                                   m.CounterValue("ntrace_mm_copy_read_total"))),
                   "section-9 cache hit fraction equals the live counters");
    const bool opens = scan.opens > 0;
    const bool transfers = scan.reads + scan.writes > 0;
    checks_.Expect(opens && transfers, "Scan() sees opens and transfers");
    checks_.Expect(!opens || !study.app_trace().records.empty(), "app_trace() is non-empty");
    checks_.Expect(!opens || !study.instances().rows().empty(), "instances() is non-empty");
    checks_.Expect(!transfers || study.UserActivity().ten_minutes.max_active_users > 0,
                   "UserActivity() is non-empty");
    checks_.Expect(!opens || study.AccessPatterns().data_sessions > 0,
                   "AccessPatterns() is non-empty");
    checks_.Expect(!transfers || study.RunLengths().read_runs_by_count.size() > 0,
                   "RunLengths() is non-empty");
    checks_.Expect(!opens || study.FileSizes().all_by_opens.size() > 0,
                   "FileSizes() is non-empty");
    checks_.Expect(!opens || study.Sessions().session_all_ms.size() > 0,
                   "Sessions() is non-empty");
    checks_.Expect(!opens || study.Lifetimes().new_files > 0, "Lifetimes() is non-empty");
    checks_.Expect(scan.fastio_reads == 0 || study.FastIo().fastio_read_latency_us.size() > 0,
                   "FastIo() is non-empty");
    checks_.Expect(!transfers || study.Operations().reads + study.Operations().writes > 0,
                   "Operations() is non-empty");
    checks_.Expect(scan.paging_writes == 0 || study.Cache().lazy_write_irps > 0,
                   "Cache() is non-empty");
    checks_.Expect(!opens || !out.burstiness.trace_1s.empty(), "Burstiness(0) is non-empty");
    checks_.Expect(!opens || !out.tails.empty(), "TailSweep() is non-empty");
    checks_.Expect(!opens || !out.processes.empty(), "ProcessProfiles() is non-empty");
    checks_.Expect(!opens || !out.file_types.empty(), "FileTypeProfiles() is non-empty");
    size_t series = 0, series_with_churn = 0;
    for (const SystemRunStats& system : study.systems()) {
      for (const SnapshotSeries& s : system.snapshots) {
        series += s.snapshots.empty() ? 0 : 1;
        series_with_churn += s.snapshots.size() >= 2 ? 1 : 0;
      }
    }
    checks_.Expect(out.content.size() == series && series > 0,
                   "ContentSummaries() covers every snapshot series");
    checks_.Expect(out.churn.size() == series_with_churn,
                   "ChurnSummaries() covers every multi-day series");

    Fingerprint fp;
    MixStudy(study, out, fp);
    if (!first_fingerprint) {
      first_fingerprint = fp.value();
      std::fprintf(stderr, "study fingerprint %08x, scan fingerprint %08x\n", fp.value(),
                   ScanFingerprint(scan));
      if (args_.seed == kPinnedSeed) {
        checks_.Expect(fp.value() == kPinnedStudyFingerprint,
                       "study fingerprint equals the pinned default-seed value");
        checks_.Expect(ScanFingerprint(scan) == kPinnedScanFingerprint,
                       "scan fingerprint equals the pinned default-seed value");
      }
      totals_.records = study.trace().records.size();
      // Measured once per run, outside the timed section.
      totals_.store_bytes_per_record =
          Ratio(StoreBytes(study.trace(), args_.work_dir + "/study.ntx"), totals_.records);
    } else {
      checks_.Expect(fp.value() == *first_fingerprint, "study fingerprint repeats");
    }

    if (!traced) {
      totals_.wall_s.push_back(meter.wall_s());
      totals_.cpu_s.push_back(meter.cpu_s());
      return;
    }
    totals_.traced_wall_s.push_back(meter.wall_s());
    AddFleetCounts(totals_.records, fleet_allocs, m, &ledger_);
    AddStackCounts(study.systems(), &ledger_);
    ledger_.Set("study.analysis_rss_mb", rss_after_analysis - rss_after_fleet, "MB");
    ledger_.Set("tracedb.instances", study.instances().rows().size(), "count");
    ledger_.Set("analysis.cdf_samples", fp.cdf_samples(), "count");
  });
}

// ---------------------------------------------------------------------------
// outofcore: the same fleet collected over loopback TCP into a server spool,
// spilled to columnar segments, merged into one store, then rescanned.

void Bench::RunOutOfCore() {
  const std::string col_dir = args_.work_dir + "/columnar";
  const std::string spool_dir = args_.work_dir + "/spool";
  FleetConfig config = StandardFleet(args_.seed);
  config.columnar_dir = col_dir;
  config.durability.spool_dir = spool_dir;
  config.net.enabled = true;
  // One fleet worker and one ingest shard: two busy threads leave the rest
  // of a 4-vCPU machine free. With 2 + 2 threads the run was 18% slower
  // whenever two other CPU-bound processes shared the machine, and its
  // timings drifted with the host's load; with 1 + 1 it was not.
  config.net.shards = 1;
  config.threads = 1;

  for (int i = 0; i < kSetupRepeats; ++i) {
    ResetDir(col_dir);
    ResetDir(spool_dir);
    ScopedSpan span(tracer_, "bench.setup");
    const double t0 = NowSeconds();
    const FleetResult warm = RunFleet(EnvelopeFleet(config));
    totals_.setup_s.push_back(NowSeconds() - t0);
    checks_.Expect(warm.integrity.AllAccounted() && warm.records_on_disk > 0,
                   "set-up fleet stores every record");
  }

  std::optional<uint32_t> first_fingerprint;
  Repeat([&](bool traced) {
    ResetDir(col_dir);
    ResetDir(spool_dir);
    const uint64_t allocs0 = AllocCount();
    Meter meter;
    std::vector<uint32_t> fingerprints;
    std::vector<std::pair<uint64_t, uint64_t>> scanned;  // Records visited, known lost.
    std::optional<FleetResult> result;
    {
      meter.Start();
      ScopedSpan root(tracer_, "outofcore.timed");
      {
        ScopedSpan span(tracer_, "workload.fleet");
        result = RunFleet(config);
      }
      meter.Stop();
      const uint64_t fleet_allocs = AllocCount() - allocs0;
      const std::string store_path = result->columnar.spill_path();
      for (int k = 0; k < kRescans; ++k) {
        meter.Start();
        std::optional<TraceScan> scan;
        {
          ScopedSpan rescan(tracer_, "trace.rescan");
          std::optional<ColumnarTraceSet> store;
          {
            ScopedSpan span(tracer_, "trace.store_open");
            store = ColumnarTraceSet::FromFile(store_path);
          }
          {
            ScopedSpan span(tracer_, "analysis.scan");
            scan = TraceScan::Run(*store);
          }
          checks_.Expect(store->read_stats().frames_damaged == 0 && store->read_stats().sealed,
                         "merged store reads back sealed with no damaged frames");
        }
        meter.Stop();
        // Hashing the scan is not part of the timed section.
        ScopedSpan span(tracer_, "bench.fingerprint");
        fingerprints.push_back(ScanFingerprint(*scan));
        scanned.emplace_back(scan->records_scanned, scan->records_lost_known);
      }
      if (traced) {
        totals_.records = result->records_on_disk;
        AddFleetCounts(result->records_on_disk, fleet_allocs, result->metrics, &ledger_);
      }
    }

    const FleetResult& r = *result;
    const uint64_t collected = r.integrity.Totals().records_collected;
    checks_.Expect(r.columnar_mode && !r.columnar.spill_path().empty(),
                   "fleet wrote a merged columnar store");
    checks_.Expect(r.integrity.AllAccounted(), "out-of-core fleet accounts for every record");
    checks_.Expect(r.records_on_disk == collected, "records on disk equal records collected");
    checks_.Expect(r.net.used && r.net.records_delivered == collected,
                   "net records delivered equal records collected");
    for (size_t k = 0; k < fingerprints.size(); ++k) {
      checks_.Expect(scanned[k].first == collected && scanned[k].second == 0,
                     "rescan visits every stored record, none lost");
      checks_.Expect(fingerprints[k] == fingerprints.front(), "rescan fingerprint repeats");
    }
    if (!first_fingerprint) {
      first_fingerprint = fingerprints.front();
      std::fprintf(stderr, "outofcore scan fingerprint %08x\n", fingerprints.front());
      if (args_.seed == kPinnedSeed) {
        checks_.Expect(fingerprints.front() == kPinnedScanFingerprint,
                       "columnar scan equals the pinned row-mode scan");
      }
      totals_.records = r.records_on_disk;
      const uint64_t store_bytes = fs::file_size(r.columnar.spill_path());
      totals_.store_bytes_per_record = Ratio(store_bytes, r.records_on_disk);
      ledger_.Set("trace.store_bytes", store_bytes, "bytes");
    } else {
      checks_.Expect(fingerprints.front() == *first_fingerprint,
                     "scan fingerprint repeats across repetitions");
    }

    if (!traced) {
      totals_.wall_s.push_back(meter.wall_s());
      totals_.cpu_s.push_back(meter.cpu_s());
      return;
    }
    totals_.traced_wall_s.push_back(meter.wall_s());
    AddStackCounts(r.systems, &ledger_);
    ledger_.Set("trace.spool_bytes", r.metrics.CounterValue("ntrace_spool_bytes_written_total"),
                "bytes");
    ledger_.Set("trace.extent_bytes_written",
                r.metrics.CounterValue("ntrace_extent_bytes_written_total"), "bytes");
    ledger_.Set("net.frames_delivered", r.net.frames_delivered, "count");
    ledger_.Set("net.records_per_frame", Ratio(r.net.records_delivered, r.net.frames_delivered),
                "count");
    ledger_.Set("net.busy_signals", r.net.busy_signals, "count");
    ledger_.Set("net.shed_signals", r.net.shed_signals, "count");
    ledger_.Set("net.duplicate_frames", r.net.duplicate_frames, "count");
    ledger_.Set("net.agent_reconnects", r.net.agent_reconnects, "count");
  });

  if (args_.trace) {
    // The same fleet with the socket off: the difference is the transport.
    FleetConfig local = config;
    local.net.enabled = false;
    ResetDir(col_dir);
    ResetDir(spool_dir);
    double local_s = 0;
    {
      BeginTraced(true);
      ScopedSpan span(tracer_, "workload.fleet_net_off");
      const double t0 = NowSeconds();
      const FleetResult r = RunFleet(local);
      local_s = NowSeconds() - t0;
      checks_.Expect(r.records_on_disk == totals_.records,
                     "fleet without the socket stores the same records");
    }
    BeginTraced(false);
    ledger_.Set("net.transport_s", Median(tracer_.Durations("workload.fleet")) - local_s, "s");
  }
  fs::remove_all(col_dir);
  fs::remove_all(spool_dir);
}

// ---------------------------------------------------------------------------
// whatif: the fidelity-envelope recording replayed over a policy grid drawn
// from the seed.

// The DefaultPolicyGrid shape -- four knobs, each at a low setting, the
// recorded setting (the per-knob control) and a high setting -- with the
// low and high settings drawn from `seed`.
std::vector<PolicyPoint> SeededPolicyGrid(const PolicyConfig& base, uint64_t seed) {
  Rng rng(seed);
  std::vector<PolicyPoint> grid;
  auto add = [&](const std::string& knob, const std::string& value, const PolicyConfig& policy) {
    grid.push_back(PolicyPoint{knob, value, policy});
  };
  const uint64_t pages = base.cache.capacity_pages;
  // Factors of 3-5: replay cost grows with cache capacity, and a wider draw
  // would make the sweep's cost depend on the seed.
  const uint64_t small = std::max<uint64_t>(64, pages / rng.UniformInt(3, 5));
  const uint64_t large = pages * rng.UniformInt(3, 5);
  for (uint64_t p : {small, pages, large}) {
    PolicyConfig policy = base;
    policy.cache.capacity_pages = p;
    add("cache_pages", std::to_string(p), policy);
  }
  PolicyConfig no_read_ahead = base;
  no_read_ahead.cache.read_ahead_enabled = false;
  add("read_ahead", "off", no_read_ahead);
  add("read_ahead", "stock", base);
  const int window = 1 << rng.UniformInt(1, 3);
  PolicyConfig wide = base;
  wide.cache.read_ahead_granularity *= window;
  wide.cache.boosted_granularity *= window;
  add("read_ahead", std::to_string(window) + "x-window", wide);
  // The lazy writer's tick dominates replay cost, so its settings stay those
  // of DefaultPolicyGrid: drawing them would swing the sweep's cost by seed
  // far more than any other knob does.
  const int64_t recorded_ms =
      base.cache.lazy_write_period.ticks() / SimDuration::Millis(1).ticks();
  for (int64_t ms : {int64_t{250}, recorded_ms, int64_t{4000}}) {
    PolicyConfig policy = base;
    policy.cache.lazy_write_period = SimDuration::Millis(ms);
    add("lazy_write_period", std::to_string(ms) + "ms", policy);
  }
  PolicyConfig no_fastio = base;
  no_fastio.fastio.enabled = false;
  add("fastio", "off", no_fastio);
  const uint32_t cap = 1024u * static_cast<uint32_t>(rng.UniformInt(1, 16));
  PolicyConfig capped = base;
  capped.fastio.max_read_bytes = cap;
  capped.fastio.max_write_bytes = cap;
  add("fastio", "cap-" + std::to_string(cap), capped);
  add("fastio", "stock", base);
  return grid;
}

void Bench::RunWhatIf() {
  const FleetConfig config = EnvelopeFleet(StandardFleet(0));
  PolicyConfig base;
  base.cache = config.cache_config;
  PolicySweepOptions options;
  options.grid = SeededPolicyGrid(base, args_.seed);
  options.threads = 1;
  std::optional<FleetResult> recorded;
  std::optional<uint32_t> recorded_fingerprint;
  MetricsSnapshot record_metrics;
  uint64_t record_allocs = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span(tracer_, "bench.setup");
    SetAllocCounting(args_.trace);
    const uint64_t allocs0 = AllocCount();
    const double t0 = NowSeconds();
    std::optional<FleetResult> maybe;
    {
      ScopedSpan fleet(tracer_, "workload.fleet");
      maybe = RunFleet(config);
    }
    FleetResult& r = *maybe;
    totals_.setup_s.push_back(NowSeconds() - t0);
    SetAllocCounting(false);
    checks_.Expect(r.integrity.AllAccounted(), "recording accounts for every record");
    const uint32_t fp = TraceFingerprint(r.trace);
    if (!recorded) {
      recorded_fingerprint = fp;
      record_metrics = r.metrics;
      record_allocs = AllocCount() - allocs0;
      recorded = std::move(r);
    } else {
      checks_.Expect(fp == *recorded_fingerprint, "recording repeats byte for byte");
    }
  }
  const TraceSet& trace = recorded->trace;
  totals_.records = trace.records.size();
  totals_.store_bytes_per_record =
      Ratio(StoreBytes(trace, args_.work_dir + "/whatif.ntx"), totals_.records);

  std::optional<uint32_t> first_fingerprint;
  Repeat([&](bool traced) {
    const uint64_t allocs0 = AllocCount();
    Meter meter;
    std::optional<WhatIfReport> report;
    meter.Start();
    {
      ScopedSpan root(tracer_, "whatif.timed");
      ScopedSpan span(tracer_, "replay.sweep");
      report = PolicySweep(config).Run(trace, options);
    }
    meter.Stop();
    const uint64_t sweep_allocs = AllocCount() - allocs0;

    checks_.Expect(report->baseline_fidelity_exact,
                   "baseline replay reproduces the recording (" +
                       report->baseline_fidelity_detail + ")");
    checks_.Expect(report->baseline.divergence == 0, "baseline replay has no divergence");
    checks_.Expect(report->rows.size() == options.grid.size(), "sweep covers every grid point");
    Fingerprint fp;
    uint64_t divergence = report->baseline.divergence;
    for (const WhatIfRow& row : report->rows) {
      fp.Str(row.knob);
      fp.Str(row.value);
      fp.Value(row.fingerprint);
      fp.Value(row.cache_hit_ratio);
      fp.Value(row.fastio_read_share);
      fp.Value(row.fastio_write_share);
      divergence += row.divergence;
    }
    if (!first_fingerprint) {
      first_fingerprint = fp.value();
      std::fprintf(stderr, "whatif report fingerprint %08x, grid:", fp.value());
      for (const PolicyPoint& point : options.grid) {
        std::fprintf(stderr, " %s=%s", point.knob.c_str(), point.value.c_str());
      }
      std::fprintf(stderr, "\n");
    } else {
      checks_.Expect(fp.value() == *first_fingerprint, "sweep report repeats");
    }

    if (!traced) {
      totals_.wall_s.push_back(meter.wall_s());
      totals_.cpu_s.push_back(meter.cpu_s());
      return;
    }
    totals_.traced_wall_s.push_back(meter.wall_s());
    const std::vector<const WhatIfRow*> cache_rows = report->RowsForKnob("cache_pages");
    ledger_.Set("mm.hit_ratio_cache_small", cache_rows.front()->cache_hit_ratio, "ratio");
    ledger_.Set("mm.hit_ratio_cache_large", cache_rows.back()->cache_hit_ratio, "ratio");
    ledger_.Set("replay.allocs", sweep_allocs, "count");
    ledger_.Set("replay.divergence", divergence, "count");
  });

  if (args_.trace) {
    BeginTraced(true);
    std::optional<FleetReplayResult> replay;
    {
      ScopedSpan span(tracer_, "replay.baseline");
      replay = TraceReplayer(config).Replay(trace, ReplayOptions{}, 1);
    }
    BeginTraced(false);
    checks_.Expect(CheckFidelity(trace, replay->trace).exact(),
                   "baseline replay is byte-identical to the recording");
    ledger_.Set("replay.records_in", replay->records_in, "count");
    AddFleetCounts(totals_.records, record_allocs, record_metrics, &ledger_);
    AddStackCounts(recorded->systems, &ledger_);
  }
}

void Bench::AddProbe() {
  BeginTraced(true);
  ProbeResult p;
  {
    ScopedSpan span(tracer_, "ntio.probe");
    p = RunIoProbe();
  }
  BeginTraced(false);
  checks_.Expect(p.ok, "probe reads return 4 KB and probe opens succeed");
  ledger_.Set("ntio.cached_read_ns", p.cached_read_ns, "ns");
  ledger_.Set("ntio.cached_read_p99_ns", p.cached_read_p99_ns, "ns");
  ledger_.Set("trace.filter_read_ns", p.traced_read_ns - p.cached_read_ns, "ns");
  ledger_.Set("trace.traced_read_p99_ns", p.traced_read_p99_ns, "ns");
  ledger_.Set("ntio.open_close_ns", p.open_close_ns, "ns");
  ledger_.Set("ntio.open_close_p99_ns", p.open_close_p99_ns, "ns");
  ledger_.Set("bench.probe_samples", p.samples, "count");
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      std::string model = colon == std::string::npos ? line : line.substr(colon + 1);
      model.erase(0, model.find_first_not_of(' '));
      std::replace(model.begin(), model.end(), '"', '\'');
      return model;
    }
  }
  return "unknown";
}

std::string Bench::Descriptor() const {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"descriptor\": {\"nproc\": %ld, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
                "\"records\": %llu, \"seconds\": %g, \"trace\": %d}}",
                sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, args_.workload.c_str(),
                static_cast<unsigned long long>(args_.seed),
                static_cast<unsigned long long>(totals_.records), args_.seconds,
                args_.trace ? 1 : 0);
  return buf;
}

int Bench::Run() {
  fs::create_directories(args_.work_dir);
  tracer_.set_enabled(args_.trace);  // Set-up spans; Repeat() toggles per repetition.
  if (args_.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      ledger_.Set(name, 0, unit);
    }
  }
  if (args_.workload == "study") {
    RunStudy();
  } else if (args_.workload == "outofcore") {
    RunOutOfCore();
  } else if (args_.workload == "whatif") {
    RunWhatIf();
  } else {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args_.workload.c_str());
    return 2;
  }

  Ledger result;
  if (args_.trace) {
    AddProbe();
    for (const auto& [name, unit] : kPerLayer) {
      const std::string metric = name;
      if (metric.size() > 2 && metric.compare(metric.size() - 2, 2, "_s") == 0) {
        const std::vector<double> durations =
            tracer_.Durations(metric.substr(0, metric.size() - 2));
        if (!durations.empty()) {
          ledger_.Set(metric, Median(durations), unit);
        }
      }
    }
    ledger_.Set("workload.ns_per_record",
                Ratio(ledger_.Get("workload.fleet_s") * 1e9, ledger_.Get("workload.records")),
                "ns");
    ledger_.Set("trace.rescan_ns_per_record",
                Ratio(ledger_.Get("trace.rescan_s") * 1e9, ledger_.Get("workload.records")), "ns");
    ledger_.Set("replay.ns_per_record",
                Ratio(ledger_.Get("replay.baseline_s") * 1e9, ledger_.Get("replay.records_in")),
                "ns");
    const double traced = Median(totals_.traced_wall_s);
    const double reference = Median(totals_.wall_s);
    ledger_.Set("bench.traced_wall_s", traced, "s");
    ledger_.Set("bench.peak_rss_mb", PeakRssMb(), "MB");
    ledger_.Set("bench.tracing_overhead_pct", Ratio(traced - reference, reference) * 100, "%");
    // Share of the traced timed sections that no child span accounts for.
    double root_self = 0, root_total = 0;
    for (size_t i = 0; i < tracer_.spans().size(); ++i) {
      const Tracer::Span& s = tracer_.spans()[i];
      if (s.name == args_.workload + ".timed") {
        root_self += tracer_.SelfSeconds(i);
        root_total += s.end_s - s.start_s;
      }
    }
    ledger_.Set("bench.unattributed_share", Ratio(root_self, root_total), "ratio");
    const std::string spans_path =
        args_.work_dir + "/spans-" + args_.workload + "-" + std::to_string(args_.seed) + ".jsonl";
    if (!tracer_.WriteJsonLines(spans_path, Descriptor())) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans: %s\n", spans_path.c_str());
    result = ledger_;
  } else {
    // Per record of the workload's input, so that seeds whose fleets differ
    // in size compare: the records collected (study, outofcore) or recorded
    // and replayed (whatif).
    const double records = static_cast<double>(totals_.records);
    result.Set("setup_s", Median(totals_.setup_s), "s");
    result.Set("wall_ns_per_record", Ratio(Median(totals_.wall_s) * 1e9, records), "ns");
    result.Set("cpu_ns_per_record", Ratio(Median(totals_.cpu_s) * 1e9, records), "ns");
    result.Set("peak_rss_bytes_per_record", Ratio(PeakRssMb() * 1048576.0, records), "B");
    result.Set("store_bytes_per_record", totals_.store_bytes_per_record, "B");
  }
  std::printf("%s\n", Descriptor().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              checks_.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks_.attempted()),
              static_cast<unsigned long long>(checks_.failed()), result.Json().c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold keeps glibc from raising it after the first large
  // free, so every repetition allocates like a fresh process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to time a sanitizer build\n");
  return 2;
#endif
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload study|outofcore|whatif --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Bench(std::move(args)).Run();
}
