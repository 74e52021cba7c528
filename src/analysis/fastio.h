// Figures 13-14 and section 10: FastIO path usage, per-mechanism latency
// and request-size distributions.

#ifndef SRC_ANALYSIS_FASTIO_H_
#define SRC_ANALYSIS_FASTIO_H_

#include "src/analysis/trace_scan.h"
#include "src/stats/descriptive.h"

namespace ntrace {

struct FastIoResultAnalysis {
  // Figure 13: completion latency (microseconds) per request type.
  WeightedCdf fastio_read_latency_us;
  WeightedCdf fastio_write_latency_us;
  WeightedCdf irp_read_latency_us;
  WeightedCdf irp_write_latency_us;

  // Figure 14: requested size per request type.
  WeightedCdf fastio_read_size;
  WeightedCdf fastio_write_size;
  WeightedCdf irp_read_size;
  WeightedCdf irp_write_size;

  // Section 10 headline shares (paper: 59% of reads, 96% of writes).
  double fastio_read_share = 0;
  double fastio_write_share = 0;
  // FastIO attempts that fell back to the IRP path.
  uint64_t read_fallbacks = 0;
  uint64_t write_fallbacks = 0;
};

class FastIoAnalyzer {
 public:
  // App-level requests only (paging I/O always travels the IRP path by
  // construction and would skew the comparison). The per-record work lives
  // in the shared single-pass scan (DESIGN.md §9).
  static FastIoResultAnalysis Analyze(const TraceScan& scan);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_FASTIO_H_
