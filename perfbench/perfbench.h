// Shared pieces of the ntrace benchmark binary: clocks, the span recorder
// of the traced run, output fingerprints, the heap-allocation counter and
// the standalone I/O-stack probe.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/trace_scan.h"
#include "src/stats/descriptive.h"

namespace perfbench {

double NowSeconds();       // steady_clock, seconds since an arbitrary epoch.
double CpuSeconds();       // Process user + system CPU.
double PeakRssMb();        // Process high-water RSS (ru_maxrss).
double Median(std::vector<double> values);
// Value at quantile q in (0, 1] of `values` (nearest rank).
double Quantile(std::vector<double> values, double q);

// Heap allocations since process start. Counting is off until
// SetAllocCounting(true); the end-to-end runs leave it off.
uint64_t AllocCount();
void SetAllocCounting(bool on);

// Wall and CPU time accumulated over Start/Stop segments, so that output
// checks between segments stay out of the timed section.
class Meter {
 public:
  void Start();
  void Stop();
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }

 private:
  double wall0_ = 0, cpu0_ = 0, wall_s_ = 0, cpu_s_ = 0;
};

// Spans of the traced run: one per public call the benchmark times, kept
// in memory and written out at the end. Disabled recorders cost a branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  int Begin(const std::string& name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  double SelfSeconds(size_t id) const;
  // Durations of every span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  // One JSON object per line: name, id, parent, start/end (s), self (s).
  bool WriteJsonLines(const std::string& path, const std::string& descriptor) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// CRC-32C over values fed field by field (never whole structs: padding
// bytes are indeterminate). Also counts the CDF sample entries it sees.
class Fingerprint {
 public:
  void Bytes(const void* data, size_t size);
  template <typename T>
  void Value(T value) {
    Bytes(&value, sizeof(value));
  }
  void Str(const std::string& s);
  void Doubles(const std::vector<double>& v);
  void Cdf(const ntrace::WeightedCdf& cdf);
  void Stats(const ntrace::StreamingStats& s);
  uint32_t value() const { return crc_; }
  uint64_t cdf_samples() const { return cdf_samples_; }

 private:
  uint32_t crc_ = 0;
  uint64_t cdf_samples_ = 0;
};

// Every figure of a TraceScan, CDF samples included. The coverage fields
// (records_scanned, records_lost_known) are left out: Study fills the
// known loss from the fleet's integrity report, a store rescan cannot.
uint32_t ScanFingerprint(const ntrace::TraceScan& scan);

// Standalone I/O-stack probe: a one-volume IoManager stack, timed through
// its public calls, with and without a trace agent attached. Per call:
// median and p99 over 1,000 samples per variant (p99 is the highest
// percentile with at least ten samples beyond it), each sample one batch
// of 256 calls.
struct ProbeResult {
  bool ok = false;  // Every probed call succeeded.
  int samples = 0;  // Per variant.
  double cached_read_ns = 0, cached_read_p99_ns = 0;
  double traced_read_ns = 0, traced_read_p99_ns = 0;
  double open_close_ns = 0, open_close_p99_ns = 0;
};
ProbeResult RunIoProbe();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
