#include "src/analysis/scan_kernels.h"

#include <unistd.h>

#include <algorithm>
#include <string>

#include "src/base/cpu.h"
#include "src/base/time.h"
#include "src/ntio/irp.h"
#include "src/tracedb/dimensions.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ntrace {
namespace {

// Dense last-second table cap: fleet system ids are small integers; a
// synthetic trace with wild ids falls back to the exact hash set.
constexpr uint32_t kDenseSystems = 1u << 20;

// Dense pid-classification cap, same rationale as kDenseSystems.
constexpr uint32_t kDensePids = 1u << 20;

constexpr size_t kTallyEvents = 64;
constexpr size_t kTallyStatuses = 64;

inline size_t TallyIndex(uint16_t event, uint16_t status) {
  const size_t ev = std::min<size_t>(event, kTallyEvents - 1);
  const size_t st = std::min<size_t>(status, kTallyStatuses - 1);
  return ev * kTallyStatuses + st;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cache-mix kernel
// ---------------------------------------------------------------------------

void CacheMixKernelPortable(const ColumnBatch& b, CacheMixTally* out) {
  uint64_t pr = 0, prb = 0, pw = 0, pwb = 0, ra = 0, rab = 0, lw = 0, lwb = 0;
  for (size_t i = 0; i < b.count; ++i) {
    const uint32_t flags = b.irp_flags[i];
    const uint16_t ev = b.event[i];
    const uint64_t len = b.length[i];
    // Branchless: every predicate is a 0/1 mask multiplied into the adds.
    const uint64_t paging = flags & kIrpPagingIo;  // Bit 0.
    const uint64_t is_read = paging & (ev == static_cast<uint16_t>(TraceEvent::kIrpRead) ? 1u : 0u);
    const uint64_t is_write =
        paging & (ev == static_cast<uint16_t>(TraceEvent::kIrpWrite) ? 1u : 0u);
    const uint64_t is_ra = is_read & ((flags & kIrpReadAhead) != 0 ? 1u : 0u);
    const uint64_t is_lw = is_write & ((flags & kIrpLazyWrite) != 0 ? 1u : 0u);
    pr += is_read;
    prb += is_read * len;
    pw += is_write;
    pwb += is_write * len;
    ra += is_ra;
    rab += is_ra * len;
    lw += is_lw;
    lwb += is_lw * len;
  }
  out->paging_reads += pr;
  out->paging_read_bytes += prb;
  out->paging_writes += pw;
  out->paging_write_bytes += pwb;
  out->readahead_records += ra;
  out->readahead_bytes += rab;
  out->lazywrite_records += lw;
  out->lazywrite_bytes += lwb;
}

#if defined(__x86_64__)

// Widened per-lane accumulation: counts come from movemask+popcount, byte
// sums from mask&length widened to 64-bit lanes. Tails fall to portable.
__attribute__((target("avx2"))) void CacheMixKernelAvx2(const ColumnBatch& b,
                                                        CacheMixTally* out) {
  const size_t n = b.count & ~size_t{7};
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i ev_read = _mm256_set1_epi32(static_cast<int>(TraceEvent::kIrpRead));
  const __m256i ev_write = _mm256_set1_epi32(static_cast<int>(TraceEvent::kIrpWrite));
  const __m256i ra_bit = _mm256_set1_epi32(static_cast<int>(kIrpReadAhead));
  const __m256i lw_bit = _mm256_set1_epi32(static_cast<int>(kIrpLazyWrite));
  __m256i prb = zero, pwb = zero, rab = zero, lwb = zero;
  uint64_t pr = 0, pw = 0, ra = 0, lw = 0;
  for (size_t i = 0; i < n; i += 8) {
    const __m256i flags =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.irp_flags + i));
    const __m256i len = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.length + i));
    const __m256i ev = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.event + i)));
    // paging mask: all-ones lanes where bit 0 of irp_flags is set.
    const __m256i paging = _mm256_cmpeq_epi32(_mm256_and_si256(flags, one), one);
    const __m256i rmask = _mm256_and_si256(paging, _mm256_cmpeq_epi32(ev, ev_read));
    const __m256i wmask = _mm256_and_si256(paging, _mm256_cmpeq_epi32(ev, ev_write));
    const __m256i ramask =
        _mm256_and_si256(rmask, _mm256_cmpeq_epi32(_mm256_and_si256(flags, ra_bit), ra_bit));
    const __m256i lwmask =
        _mm256_and_si256(wmask, _mm256_cmpeq_epi32(_mm256_and_si256(flags, lw_bit), lw_bit));
    pr += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(rmask)));
    pw += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(wmask)));
    ra += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(ramask)));
    lw += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(lwmask)));
    const __m256i rlen = _mm256_and_si256(rmask, len);
    const __m256i wlen = _mm256_and_si256(wmask, len);
    const __m256i ralen = _mm256_and_si256(ramask, len);
    const __m256i lwlen = _mm256_and_si256(lwmask, len);
    prb = _mm256_add_epi64(prb, _mm256_add_epi64(_mm256_unpacklo_epi32(rlen, zero),
                                                 _mm256_unpackhi_epi32(rlen, zero)));
    pwb = _mm256_add_epi64(pwb, _mm256_add_epi64(_mm256_unpacklo_epi32(wlen, zero),
                                                 _mm256_unpackhi_epi32(wlen, zero)));
    rab = _mm256_add_epi64(rab, _mm256_add_epi64(_mm256_unpacklo_epi32(ralen, zero),
                                                 _mm256_unpackhi_epi32(ralen, zero)));
    lwb = _mm256_add_epi64(lwb, _mm256_add_epi64(_mm256_unpacklo_epi32(lwlen, zero),
                                                 _mm256_unpackhi_epi32(lwlen, zero)));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), prb);
  out->paging_read_bytes += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), pwb);
  out->paging_write_bytes += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), rab);
  out->readahead_bytes += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), lwb);
  out->lazywrite_bytes += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  out->paging_reads += pr;
  out->paging_writes += pw;
  out->readahead_records += ra;
  out->lazywrite_records += lw;
  if (n < b.count) {
    ColumnBatch tail = b;
    tail.irp_flags += n;
    tail.event += n;
    tail.length += n;
    tail.count = b.count - n;
    CacheMixKernelPortable(tail, out);
  }
}

#endif  // __x86_64__

void CacheMixKernel(const ColumnBatch& b, CacheMixTally* out) {
#if defined(__x86_64__)
  if (CpuHasAvx2()) {
    CacheMixKernelAvx2(b, out);
    return;
  }
#endif
  CacheMixKernelPortable(b, out);
}

// ---------------------------------------------------------------------------
// Transfer pre-count kernel
// ---------------------------------------------------------------------------

void TransferPrecountKernelPortable(const ColumnBatch& b, TransferPrecountTally* out) {
  uint64_t ir = 0, iw = 0, fr = 0, fw = 0;
  for (size_t i = 0; i < b.count; ++i) {
    const uint64_t nonpaging = (b.irp_flags[i] & kIrpPagingIo) == 0 ? 1u : 0u;
    const uint16_t ev = b.event[i];
    ir += nonpaging & (ev == static_cast<uint16_t>(TraceEvent::kIrpRead) ? 1u : 0u);
    iw += nonpaging & (ev == static_cast<uint16_t>(TraceEvent::kIrpWrite) ? 1u : 0u);
    fr += nonpaging & (ev == static_cast<uint16_t>(TraceEvent::kFastIoRead) ? 1u : 0u);
    fw += nonpaging & (ev == static_cast<uint16_t>(TraceEvent::kFastIoWrite) ? 1u : 0u);
  }
  out->irp_reads += ir;
  out->irp_writes += iw;
  out->fastio_reads += fr;
  out->fastio_writes += fw;
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void TransferPrecountKernelAvx2(const ColumnBatch& b,
                                                                TransferPrecountTally* out) {
  const size_t n = b.count & ~size_t{7};
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i ev_iread = _mm256_set1_epi32(static_cast<int>(TraceEvent::kIrpRead));
  const __m256i ev_iwrite = _mm256_set1_epi32(static_cast<int>(TraceEvent::kIrpWrite));
  const __m256i ev_fread = _mm256_set1_epi32(static_cast<int>(TraceEvent::kFastIoRead));
  const __m256i ev_fwrite = _mm256_set1_epi32(static_cast<int>(TraceEvent::kFastIoWrite));
  uint64_t ir = 0, iw = 0, fr = 0, fw = 0;
  for (size_t i = 0; i < n; i += 8) {
    const __m256i flags =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.irp_flags + i));
    const __m256i ev = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.event + i)));
    const __m256i nonpaging =
        _mm256_cmpeq_epi32(_mm256_and_si256(flags, one), _mm256_setzero_si256());
    const __m256i irm = _mm256_and_si256(nonpaging, _mm256_cmpeq_epi32(ev, ev_iread));
    const __m256i iwm = _mm256_and_si256(nonpaging, _mm256_cmpeq_epi32(ev, ev_iwrite));
    const __m256i frm = _mm256_and_si256(nonpaging, _mm256_cmpeq_epi32(ev, ev_fread));
    const __m256i fwm = _mm256_and_si256(nonpaging, _mm256_cmpeq_epi32(ev, ev_fwrite));
    ir += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(irm)));
    iw += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(iwm)));
    fr += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(frm)));
    fw += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(fwm)));
  }
  out->irp_reads += ir;
  out->irp_writes += iw;
  out->fastio_reads += fr;
  out->fastio_writes += fw;
  if (n < b.count) {
    ColumnBatch tail = b;
    tail.irp_flags += n;
    tail.event += n;
    tail.count = b.count - n;
    TransferPrecountKernelPortable(tail, out);
  }
}

#endif  // __x86_64__

void TransferPrecountKernel(const ColumnBatch& b, TransferPrecountTally* out) {
#if defined(__x86_64__)
  if (CpuHasAvx2()) {
    TransferPrecountKernelAvx2(b, out);
    return;
  }
#endif
  TransferPrecountKernelPortable(b, out);
}

// ---------------------------------------------------------------------------
// Control-predicate kernel
// ---------------------------------------------------------------------------

void ControlPredicateKernelPortable(const ColumnBatch& b, ControlPredicateTally* out) {
  uint64_t vmc = 0, seteof = 0;
  for (size_t i = 0; i < b.count; ++i) {
    const uint64_t nonpaging = (b.irp_flags[i] & kIrpPagingIo) == 0 ? 1u : 0u;
    const uint16_t ev = b.event[i];
    const uint64_t is_control =
        (ev == static_cast<uint16_t>(TraceEvent::kIrpFileSystemControl) ||
         ev == static_cast<uint16_t>(TraceEvent::kIrpDeviceControl))
            ? 1u
            : 0u;
    const uint64_t is_setinfo =
        ev == static_cast<uint16_t>(TraceEvent::kIrpSetInformation) ? 1u : 0u;
    vmc += nonpaging & is_control &
           (b.fsctl[i] == static_cast<uint8_t>(FsctlCode::kIsVolumeMounted) ? 1u : 0u);
    seteof += nonpaging & is_setinfo &
              (b.info_class[i] == static_cast<uint8_t>(FileInfoClass::kEndOfFile) ? 1u : 0u);
  }
  out->volume_mounted_checks += vmc;
  out->seteof_ops += seteof;
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void ControlPredicateKernelAvx2(const ColumnBatch& b,
                                                                ControlPredicateTally* out) {
  const size_t n = b.count & ~size_t{7};
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i ev_fsctl = _mm256_set1_epi32(static_cast<int>(TraceEvent::kIrpFileSystemControl));
  const __m256i ev_devctl = _mm256_set1_epi32(static_cast<int>(TraceEvent::kIrpDeviceControl));
  const __m256i ev_setinfo = _mm256_set1_epi32(static_cast<int>(TraceEvent::kIrpSetInformation));
  const __m256i fsctl_vmc = _mm256_set1_epi32(static_cast<int>(FsctlCode::kIsVolumeMounted));
  const __m256i info_eof = _mm256_set1_epi32(static_cast<int>(FileInfoClass::kEndOfFile));
  uint64_t vmc = 0, seteof = 0;
  for (size_t i = 0; i < n; i += 8) {
    const __m256i flags =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.irp_flags + i));
    const __m256i ev = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.event + i)));
    // 8 bytes of each u8 column, widened to 32-bit lanes.
    const __m256i fsctl = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b.fsctl + i)));
    const __m256i info = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b.info_class + i)));
    const __m256i nonpaging =
        _mm256_cmpeq_epi32(_mm256_and_si256(flags, one), _mm256_setzero_si256());
    const __m256i is_control = _mm256_or_si256(_mm256_cmpeq_epi32(ev, ev_fsctl),
                                               _mm256_cmpeq_epi32(ev, ev_devctl));
    const __m256i vmask = _mm256_and_si256(
        nonpaging, _mm256_and_si256(is_control, _mm256_cmpeq_epi32(fsctl, fsctl_vmc)));
    const __m256i smask = _mm256_and_si256(
        nonpaging, _mm256_and_si256(_mm256_cmpeq_epi32(ev, ev_setinfo),
                                    _mm256_cmpeq_epi32(info, info_eof)));
    vmc += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(vmask)));
    seteof += __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(smask)));
  }
  out->volume_mounted_checks += vmc;
  out->seteof_ops += seteof;
  if (n < b.count) {
    ColumnBatch tail = b;
    tail.irp_flags += n;
    tail.event += n;
    tail.fsctl += n;
    tail.info_class += n;
    tail.count = b.count - n;
    ControlPredicateKernelPortable(tail, out);
  }
}

#endif  // __x86_64__

void ControlPredicateKernel(const ColumnBatch& b, ControlPredicateTally* out) {
#if defined(__x86_64__)
  if (CpuHasAvx2()) {
    ControlPredicateKernelAvx2(b, out);
    return;
  }
#endif
  ControlPredicateKernelPortable(b, out);
}

// ---------------------------------------------------------------------------
// ScanAccumulator
// ---------------------------------------------------------------------------

ScanAccumulator::ScanAccumulator() : tally_(kTallyEvents * kTallyStatuses, 0) {}

void ScanAccumulator::AddProcessName(uint32_t pid, std::string_view name) {
  const uint8_t cls =
      ProcessDimension::Classify(name) != ProcessClass::kInteractive ? uint8_t{2} : uint8_t{1};
  if (pid < kDensePids) {
    if (pid >= pid_class_dense_.size()) {
      pid_class_dense_.resize(static_cast<size_t>(pid) + 1, 0);
    }
    if (pid_class_dense_[pid] == 0) {
      pid_class_dense_[pid] = cls;
    }
  } else {
    pid_class_.emplace(pid, cls);
  }
}

void ScanAccumulator::SpillCdfsTo(const std::string& path_prefix) {
  out_.read_sizes.SpillTo(path_prefix + ".read_sizes");
  out_.write_sizes.SpillTo(path_prefix + ".write_sizes");
  out_.irp_read_latency_us.SpillTo(path_prefix + ".irp_read_lat");
  out_.irp_write_latency_us.SpillTo(path_prefix + ".irp_write_lat");
  out_.fastio_read_latency_us.SpillTo(path_prefix + ".fastio_read_lat");
  out_.fastio_write_latency_us.SpillTo(path_prefix + ".fastio_write_lat");
  out_.irp_read_size.SpillTo(path_prefix + ".irp_read_size");
  out_.irp_write_size.SpillTo(path_prefix + ".irp_write_size");
  out_.fastio_read_size.SpillTo(path_prefix + ".fastio_read_size");
  out_.fastio_write_size.SpillTo(path_prefix + ".fastio_write_size");
  out_.read_runs_by_count.SpillTo(path_prefix + ".read_runs_n");
  out_.read_runs_by_bytes.SpillTo(path_prefix + ".read_runs_b");
  out_.write_runs_by_count.SpillTo(path_prefix + ".write_runs_n");
  out_.write_runs_by_bytes.SpillTo(path_prefix + ".write_runs_b");
}

void ScanAccumulator::EmitRead(RunState& s) {
  if (s.read_ops > 0) {
    const double bytes = static_cast<double>(s.read_bytes);
    out_.read_runs_by_count.Add(bytes, 1.0);
    out_.read_runs_by_bytes.Add(bytes, bytes);
    s.read_ops = 0;
    s.read_bytes = 0;
  }
}

void ScanAccumulator::EmitWrite(RunState& s) {
  if (s.write_ops > 0) {
    const double bytes = static_cast<double>(s.write_bytes);
    out_.write_runs_by_count.Add(bytes, 1.0);
    out_.write_runs_by_bytes.Add(bytes, bytes);
    s.write_ops = 0;
    s.write_bytes = 0;
  }
}

void ScanAccumulator::Consume(const ColumnBatch& b) {
  out_.records_scanned += b.count;
  // Vector pass: paging transfer mix and the control predicates, whole
  // batch at a time.
  CacheMixKernel(b, &cache_mix_);
  ControlPredicateKernel(b, &control_predicates_);

  // Pre-count the batch's CDF appends so the scalar loop never grows a
  // sample vector mid-batch (ReserveAdditional keeps growth geometric
  // across batches, so this is not quadratic).
  TransferPrecountTally pre;
  TransferPrecountKernel(b, &pre);
  out_.irp_read_latency_us.ReserveAdditional(pre.irp_reads);
  out_.irp_read_size.ReserveAdditional(pre.irp_reads);
  out_.irp_write_latency_us.ReserveAdditional(pre.irp_writes);
  out_.irp_write_size.ReserveAdditional(pre.irp_writes);
  out_.fastio_read_latency_us.ReserveAdditional(pre.fastio_reads);
  out_.fastio_read_size.ReserveAdditional(pre.fastio_reads);
  out_.fastio_write_latency_us.ReserveAdditional(pre.fastio_writes);
  out_.fastio_write_size.ReserveAdditional(pre.fastio_writes);
  out_.read_sizes.ReserveAdditional(pre.irp_reads + pre.fastio_reads);
  out_.write_sizes.ReserveAdditional(pre.irp_writes + pre.fastio_writes);

  // Scalar pass: hash-table state (active seconds, run chains, flush set),
  // per-record CDF appends and the (event, status) tally. Same record
  // order and per-record arithmetic as the row oracle.
  constexpr uint16_t kEvRead = static_cast<uint16_t>(TraceEvent::kIrpRead);
  constexpr uint16_t kEvWrite = static_cast<uint16_t>(TraceEvent::kIrpWrite);
  constexpr uint16_t kEvFlush = static_cast<uint16_t>(TraceEvent::kIrpFlushBuffers);
  constexpr uint16_t kEvFastRead = static_cast<uint16_t>(TraceEvent::kFastIoRead);
  constexpr uint16_t kEvFastWrite = static_cast<uint16_t>(TraceEvent::kFastIoWrite);
  WeightedCdf* const lat_cdf[4] = {&out_.irp_read_latency_us, &out_.irp_write_latency_us,
                                   &out_.fastio_read_latency_us, &out_.fastio_write_latency_us};
  WeightedCdf* const size_cdf[4] = {&out_.irp_read_size, &out_.irp_write_size,
                                    &out_.fastio_read_size, &out_.fastio_write_size};

  for (size_t i = 0; i < b.count; ++i) {
    const uint16_t ev = b.event[i];
    if (ev == kEvFlush) {
      out_.flushed_files.emplace(b.file_object[i], uint8_t{1});
    }
    if ((b.irp_flags[i] & kIrpPagingIo) != 0) {
      continue;  // Cache mix already tallied by the vector pass.
    }

    // Active (system, second) pairs: the dense last-second table bypasses
    // the hash set while a system stays within one second (the common case
    // on a time-sorted trace); the set keeps the count exact otherwise.
    const uint64_t second =
        static_cast<uint64_t>(b.complete_ticks[i] / SimDuration::kTicksPerSecond);
    const uint32_t sys = b.system_id[i];
    if (sys < kDenseSystems) {
      if (sys >= last_sec_.size()) {
        last_sec_.resize(static_cast<size_t>(sys) + 1, 0);
      }
      if (last_sec_[sys] != second + 1) {
        last_sec_[sys] = second + 1;
        active_seconds_.emplace((static_cast<uint64_t>(sys) << 32) | second, uint8_t{1});
      }
    } else {
      active_seconds_.emplace((static_cast<uint64_t>(sys) << 32) | second, uint8_t{1});
    }

    // Section 7 attribution, via the per-pid classification memo.
    const uint32_t pid = b.process_id[i];
    uint8_t cls;
    if (pid < kDensePids) {
      cls = pid < pid_class_dense_.size() ? pid_class_dense_[pid] : uint8_t{0};
    } else {
      const auto it = pid_class_.find(pid);
      cls = it == pid_class_.end() ? uint8_t{0} : it->second;
    }
    out_.attributed += cls != 0 ? 1 : 0;
    out_.non_interactive += cls == 2 ? 1 : 0;

    // One branch-free increment replaces the row switch; the named
    // counters fold out of the table in Finish().
    ++tally_[TallyIndex(ev, b.status[i])];

    // Transfers: run-chain state, size buckets, size/latency CDF appends.
    const bool is_write = ev == kEvWrite || ev == kEvFastWrite;
    const bool is_read = ev == kEvRead || ev == kEvFastRead;
    if (!(is_read || is_write)) {
      continue;
    }
    const uint32_t len = b.length[i];
    const uint64_t off = b.offset[i];
    RunState& s = runs_[b.file_object[i]];
    const double size = static_cast<double>(len);
    const double latency_us = SimDuration(b.complete_ticks[i] - b.start_ticks[i]).ToMicrosF();
    const size_t mech = (ev >= kEvFastRead ? 2u : 0u) | (is_write ? 1u : 0u);
    if (is_write) {
      if (s.write_ops > 0 && off != s.write_end) {
        EmitWrite(s);
      }
      ++s.write_ops;
      s.write_bytes += len;
      s.write_end = off + len;
      out_.write_sizes.Add(size);
    } else {
      if (s.read_ops > 0 && off != s.read_end) {
        EmitRead(s);
      }
      ++s.read_ops;
      s.read_bytes += len;
      s.read_end = off + len;
      out_.read_sizes.Add(size);
      if (len == 512 || len == 4096) {
        ++out_.reads_512_or_4096;
      } else if (len >= 2 && len <= 8) {
        ++out_.reads_small;
      } else if (len >= 48 * 1024) {
        ++out_.reads_48k_plus;
      }
    }
    lat_cdf[mech]->Add(latency_us);
    size_cdf[mech]->Add(size);
  }
}

TraceScan ScanAccumulator::Finish() {
  // Fold the (event, status) tally into the named counters with exactly
  // the row switch's predicates. NtError == "not a success-class status";
  // clamped codes (>= 63) stay errors and match no special status.
  const auto row = [&](TraceEvent ev) {
    return &tally_[static_cast<size_t>(ev) * kTallyStatuses];
  };
  const auto sum_all = [](const uint64_t* r) {
    uint64_t t = 0;
    for (size_t s = 0; s < kTallyStatuses; ++s) {
      t += r[s];
    }
    return t;
  };
  const auto sum_error = [](const uint64_t* r) {
    uint64_t t = 0;
    for (size_t s = 0; s < kTallyStatuses; ++s) {
      if (NtError(static_cast<NtStatus>(s))) {
        t += r[s];
      }
    }
    return t;
  };

  const uint64_t* irp_read = row(TraceEvent::kIrpRead);
  const uint64_t* fast_read = row(TraceEvent::kFastIoRead);
  out_.irp_reads = sum_all(irp_read);
  out_.fastio_reads = sum_all(fast_read);
  out_.reads = out_.irp_reads + out_.fastio_reads;
  out_.read_failures = sum_error(irp_read) + sum_error(fast_read) +
                       irp_read[static_cast<size_t>(NtStatus::kEndOfFile)] +
                       fast_read[static_cast<size_t>(NtStatus::kEndOfFile)];

  const uint64_t* irp_write = row(TraceEvent::kIrpWrite);
  const uint64_t* fast_write = row(TraceEvent::kFastIoWrite);
  out_.irp_writes = sum_all(irp_write);
  out_.fastio_writes = sum_all(fast_write);
  out_.writes = out_.irp_writes + out_.fastio_writes;
  out_.write_failures = sum_error(irp_write) + sum_error(fast_write);

  const uint64_t* creates = row(TraceEvent::kIrpCreate);
  out_.opens = sum_all(creates);
  out_.open_failures = sum_error(creates);
  out_.open_notfound = creates[static_cast<size_t>(NtStatus::kObjectNameNotFound)] +
                       creates[static_cast<size_t>(NtStatus::kObjectPathNotFound)];
  out_.open_collision = creates[static_cast<size_t>(NtStatus::kObjectNameCollision)];

  out_.directory_ops = sum_all(row(TraceEvent::kIrpDirectoryControl));
  constexpr TraceEvent kControlEvents[] = {
      TraceEvent::kIrpFileSystemControl,    TraceEvent::kIrpDeviceControl,
      TraceEvent::kIrpQueryInformation,     TraceEvent::kIrpQueryVolumeInformation,
      TraceEvent::kIrpFlushBuffers,         TraceEvent::kIrpLockControl,
      TraceEvent::kFastIoQueryBasicInfo,    TraceEvent::kFastIoQueryStandardInfo,
      TraceEvent::kIrpSetInformation,
  };
  out_.control_ops = 0;
  out_.control_failures = sum_error(row(TraceEvent::kIrpDirectoryControl));
  for (TraceEvent ev : kControlEvents) {
    out_.control_ops += sum_all(row(ev));
    out_.control_failures += sum_error(row(ev));
  }
  out_.control_total = out_.control_ops + out_.directory_ops;

  out_.read_fallbacks = sum_all(row(TraceEvent::kFastIoReadNotPossible));
  out_.write_fallbacks = sum_all(row(TraceEvent::kFastIoWriteNotPossible));

  out_.volume_mounted_checks = control_predicates_.volume_mounted_checks;
  out_.seteof_ops = control_predicates_.seteof_ops;

  out_.paging_reads = cache_mix_.paging_reads;
  out_.paging_read_bytes = cache_mix_.paging_read_bytes;
  out_.paging_writes = cache_mix_.paging_writes;
  out_.paging_write_bytes = cache_mix_.paging_write_bytes;
  out_.readahead_records = cache_mix_.readahead_records;
  out_.readahead_bytes = cache_mix_.readahead_bytes;
  out_.lazywrite_records = cache_mix_.lazywrite_records;
  out_.lazywrite_bytes = cache_mix_.lazywrite_bytes;

  // Close the still-open run chains. Emission order differs from the row
  // path's FlatMap walk, but WeightedCdf sorts on Finalize and run samples
  // carry value-determined weights, so the distributions are identical.
  for (auto& [file_object, s] : runs_) {
    EmitRead(s);
    EmitWrite(s);
  }

  out_.active_seconds = active_seconds_.size();

  out_.read_sizes.Finalize();
  out_.write_sizes.Finalize();
  out_.fastio_read_latency_us.Finalize();
  out_.fastio_write_latency_us.Finalize();
  out_.irp_read_latency_us.Finalize();
  out_.irp_write_latency_us.Finalize();
  out_.fastio_read_size.Finalize();
  out_.fastio_write_size.Finalize();
  out_.irp_read_size.Finalize();
  out_.irp_write_size.Finalize();
  out_.read_runs_by_count.Finalize();
  out_.read_runs_by_bytes.Finalize();
  out_.write_runs_by_count.Finalize();
  out_.write_runs_by_bytes.Finalize();
  return std::move(out_);
}

TraceScan ScanColumnar(const ColumnarTraceSet& trace) {
  ScanAccumulator acc;
  if (trace.disk_backed()) {
    // Out-of-core scan: the store streams extent by extent, so the CDF
    // samples are what's left of peak RSS -- spill them beside the store
    // (pid-suffixed so concurrent scans of one store never collide).
    acc.SpillCdfsTo(trace.spill_path() + ".cdfspill." + std::to_string(getpid()));
  }
  for (const auto& [pid, name] : trace.process_names) {
    acc.AddProcessName(pid, name);
  }
  trace.ForEachBatch([&acc](const ColumnBatch& b) { acc.Consume(b); }, kScanColumnMask);
  TraceScan out = acc.Finish();
  // Salvage accounting rides with the store (DESIGN.md §16): what the reader
  // knows was lost is what the figures above do not cover. A surviving seal
  // additionally counts whole extents lost without their headers.
  const ExtentReadStats& rs = trace.read_stats();
  out.records_lost_known = rs.records_lost_known;
  if (rs.sealed && rs.seal_records > rs.records_recovered) {
    const uint64_t seal_missing = rs.seal_records - rs.records_recovered;
    if (seal_missing > out.records_lost_known) {
      out.records_lost_known = seal_missing;
    }
  }
  return out;
}

}  // namespace ntrace
