#include "src/analysis/fastio.h"

namespace ntrace {

FastIoResultAnalysis FastIoAnalyzer::Analyze(const TraceScan& scan) {
  FastIoResultAnalysis out;
  out.fastio_read_latency_us = scan.fastio_read_latency_us;
  out.fastio_write_latency_us = scan.fastio_write_latency_us;
  out.irp_read_latency_us = scan.irp_read_latency_us;
  out.irp_write_latency_us = scan.irp_write_latency_us;
  out.fastio_read_size = scan.fastio_read_size;
  out.fastio_write_size = scan.fastio_write_size;
  out.irp_read_size = scan.irp_read_size;
  out.irp_write_size = scan.irp_write_size;
  out.read_fallbacks = scan.read_fallbacks;
  out.write_fallbacks = scan.write_fallbacks;

  const uint64_t reads = scan.fastio_reads + scan.irp_reads;
  const uint64_t writes = scan.fastio_writes + scan.irp_writes;
  out.fastio_read_share = reads > 0 ? static_cast<double>(scan.fastio_reads) / reads : 0;
  out.fastio_write_share = writes > 0 ? static_cast<double>(scan.fastio_writes) / writes : 0;
  return out;
}

}  // namespace ntrace
