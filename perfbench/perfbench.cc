#include "perfbench/perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/base/crc32c.h"
#include "src/fs/fs_driver.h"
#include "src/mm/cache_manager.h"
#include "src/ntio/io_manager.h"
#include "src/sim/engine.h"
#include "src/trace/collection_server.h"
#include "src/trace/trace_agent.h"

// Counting replacements for the global allocation functions. The unaligned
// forms and their deletes all go through malloc/free so every pair matches;
// aligned allocations keep the library's functions and are not counted.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedMalloc(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedNew(std::size_t size) {
  if (void* p = CountedMalloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
void SetAllocCounting(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }

void Meter::Start() {
  wall0_ = NowSeconds();
  cpu0_ = CpuSeconds();
}

void Meter::Stop() {
  wall_s_ += NowSeconds() - wall0_;
  cpu_s_ += CpuSeconds() - cpu0_;
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), NowSeconds(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_s = NowSeconds();
  open_.pop_back();
}

double Tracer::SelfSeconds(size_t id) const {
  double self = spans_[id].end_s - spans_[id].start_s;
  for (const Span& child : spans_) {
    if (child.parent == static_cast<int>(id)) {
      self -= child.end_s - child.start_s;
    }
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path, const std::string& descriptor) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "%s\n", descriptor.c_str());
  const double epoch = spans_.empty() ? 0 : spans_.front().start_s;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"self_s\": %.9f}\n",
                 i, s.name.c_str(), s.parent, s.start_s - epoch, s.end_s - epoch,
                 SelfSeconds(i));
  }
  return std::fclose(f) == 0;
}

void Fingerprint::Bytes(const void* data, size_t size) {
  crc_ = ntrace::Crc32cExtend(crc_, data, size);
}

void Fingerprint::Str(const std::string& s) {
  Value(s.size());
  Bytes(s.data(), s.size());
}

void Fingerprint::Doubles(const std::vector<double>& v) {
  Value(v.size());
  Bytes(v.data(), v.size() * sizeof(double));
}

void Fingerprint::Cdf(const ntrace::WeightedCdf& cdf) {
  Value(cdf.size());
  Value(cdf.total_weight());
  for (const auto& [value, weight] : cdf.samples()) {
    Value(value);
    Value(weight);
  }
  cdf_samples_ += cdf.size();
}

void Fingerprint::Stats(const ntrace::StreamingStats& s) {
  Value(s.count());
  Value(s.total_weight());
  Value(s.mean());
  Value(s.variance());
  Value(s.min());
  Value(s.max());
  Value(s.sum());
}

uint32_t ScanFingerprint(const ntrace::TraceScan& s) {
  Fingerprint fp;
  for (uint64_t v :
       {s.reads, s.writes, s.reads_512_or_4096, s.reads_small, s.reads_48k_plus, s.read_failures,
        s.write_failures, s.opens, s.open_failures, s.open_notfound, s.open_collision,
        s.directory_ops, s.control_ops, s.control_total, s.control_failures,
        s.volume_mounted_checks, s.seteof_ops, s.attributed, s.non_interactive, s.active_seconds,
        s.fastio_reads, s.irp_reads, s.fastio_writes, s.irp_writes, s.read_fallbacks,
        s.write_fallbacks, s.paging_reads, s.paging_read_bytes, s.paging_writes,
        s.paging_write_bytes, s.readahead_records, s.readahead_bytes, s.lazywrite_records,
        s.lazywrite_bytes}) {
    fp.Value(v);
  }
  // flushed_files is a set whose iteration order is unspecified.
  std::vector<uint64_t> flushed;
  for (const auto& [file_object, unused] : s.flushed_files) {
    flushed.push_back(file_object);
  }
  std::sort(flushed.begin(), flushed.end());
  fp.Value(flushed.size());
  fp.Bytes(flushed.data(), flushed.size() * sizeof(uint64_t));
  for (const ntrace::WeightedCdf* cdf :
       {&s.read_sizes, &s.write_sizes, &s.fastio_read_latency_us, &s.fastio_write_latency_us,
        &s.irp_read_latency_us, &s.irp_write_latency_us, &s.fastio_read_size, &s.fastio_write_size,
        &s.irp_read_size, &s.irp_write_size, &s.read_runs_by_count, &s.read_runs_by_bytes,
        &s.write_runs_by_count, &s.write_runs_by_bytes}) {
    fp.Cdf(*cdf);
  }
  return fp.value();
}

namespace {

// One local volume behind an IoManager and a cache manager, optionally
// with the trace filter attached -- the smallest stack a cached read runs
// through.
struct ProbeStack {
  explicit ProbeStack(bool traced) {
    using namespace ntrace;
    io = std::make_unique<IoManager>(engine, processes);
    cache = std::make_unique<CacheManager>(engine, *io, CacheConfig{});
    cache->Start();
    fs = std::make_unique<FileSystemDriver>(engine, *cache,
                                            std::make_unique<Volume>("C:", 4ull << 30), "C:",
                                            DiskProfile::Ide());
    device = std::make_unique<DeviceObject>("fs:C:", fs.get());
    io->RegisterVolume("C:", device.get());
    if (traced) {
      agent = std::make_unique<TraceAgent>(engine, *io, server, 1);
      agent->AttachToVolume("C:", fs.get());
    }
  }

  ntrace::FileObject* Open(const char* path, ntrace::CreateDisposition disposition,
                           uint32_t access) {
    ntrace::CreateRequest request;
    request.path = path;
    request.disposition = disposition;
    request.desired_access = access;
    return io->Create(request).file;
  }

  ntrace::Engine engine;
  ntrace::ProcessTable processes;
  ntrace::CollectionServer server;
  std::unique_ptr<ntrace::IoManager> io;
  std::unique_ptr<ntrace::CacheManager> cache;
  std::unique_ptr<ntrace::FileSystemDriver> fs;
  std::unique_ptr<ntrace::DeviceObject> device;
  std::unique_ptr<ntrace::TraceAgent> agent;
};

}  // namespace

ProbeResult RunIoProbe() {
  using namespace ntrace;
  constexpr int kSamples = 1000;
  constexpr int kCallsPerSample = 256;
  constexpr double kTail = 0.99;  // 10 of 1,000 samples lie beyond it.
  ProbeStack plain(/*traced=*/false);
  ProbeStack traced(/*traced=*/true);
  FileObject* plain_file =
      plain.Open("C:\\probe.bin", CreateDisposition::kOpenIf, kAccessReadData | kAccessWriteData);
  FileObject* traced_file = traced.Open("C:\\probe.bin", CreateDisposition::kOpenIf,
                                        kAccessReadData | kAccessWriteData);
  ProbeResult r;
  if (plain_file == nullptr || traced_file == nullptr) {
    return r;
  }
  plain.io->Write(*plain_file, 0, 65536);
  traced.io->Write(*traced_file, 0, 65536);

  bool ok = true;  // Every read returns its 4 KB and every open succeeds.
  auto time_batch = [&](auto&& call) {
    const double t0 = NowSeconds();
    for (int i = 0; i < kCallsPerSample; ++i) {
      call();
    }
    return (NowSeconds() - t0) * 1e9 / kCallsPerSample;
  };
  auto plain_read = [&] { ok &= plain.io->Read(*plain_file, 0, 4096).bytes == 4096; };
  auto traced_read = [&] { ok &= traced.io->Read(*traced_file, 0, 4096).bytes == 4096; };
  auto open_close = [&] {
    FileObject* f = plain.Open("C:\\probe.bin", CreateDisposition::kOpen, kAccessReadAttributes);
    ok &= f != nullptr;
    if (f != nullptr) {
      FileBasicInfo info;
      ok &= NtSuccess(plain.io->QueryBasicInfo(*f, &info));
      plain.io->CloseHandle(*f);
    }
  };
  // Warm both stacks before the first sample.
  time_batch(plain_read);
  time_batch(traced_read);
  time_batch(open_close);

  std::vector<double> plain_ns, traced_ns, open_ns;
  for (int s = 0; s < kSamples; ++s) {
    // Interleaved so that drift on a shared machine hits every variant alike.
    plain_ns.push_back(time_batch(plain_read));
    traced_ns.push_back(time_batch(traced_read));
    open_ns.push_back(time_batch(open_close));
  }
  r.ok = ok;
  r.samples = kSamples;
  r.cached_read_ns = Median(plain_ns);
  r.cached_read_p99_ns = Quantile(plain_ns, kTail);
  r.traced_read_ns = Median(traced_ns);
  r.traced_read_p99_ns = Quantile(traced_ns, kTail);
  r.open_close_ns = Median(open_ns);
  r.open_close_p99_ns = Quantile(open_ns, kTail);
  return r;
}

}  // namespace perfbench
