// Section 9: cache manager effectiveness -- hit rates, read-ahead
// sufficiency, write-behind behavior, and the open-option usage the paper
// finds underexploited.

#ifndef SRC_ANALYSIS_CACHE_ANALYSIS_H_
#define SRC_ANALYSIS_CACHE_ANALYSIS_H_

#include "src/analysis/trace_scan.h"
#include "src/mm/cache_manager.h"
#include "src/tracedb/instance_table.h"

namespace ntrace {

struct CacheAnalysisResult {
  // --- Read path ---
  double cached_read_fraction = 0;        // Paper: 60% of reads from cache.
  double single_io_session_fraction = 0;  // Paper: 31% of read sessions.
  double single_prefetch_fraction = 0;    // Paper: 92% of open-for-read cases.
  double sequential_hint_open_fraction = 0;  // Paper: ~5% of sequential opens.
  double read_cache_disabled_fraction = 0;   // Paper: 0.2% of data files.

  // --- Write path ---
  double write_through_fraction = 0;  // Of writing opens (paper: 1.4%).
  double flush_user_fraction = 0;     // Writing opens issuing flushes (paper: 4%).
  uint64_t lazy_write_irps = 0;
  uint64_t lazy_write_bytes = 0;
  double lazy_write_mean_run_bytes = 0;  // Paper: pages up to 64 KB runs.
  uint64_t seteof_on_close = 0;

  // --- Section 6.3 tie-ins ---
  double overwrite_with_dirty_fraction = 0;  // Paper: 23%.
  uint64_t temporary_pages_skipped = 0;
  double temporary_benefit_fraction = 0;  // Deleted new files that could have
                                          // used the attribute (paper: 25-35%).
};

class CacheAnalyzer {
 public:
  // The flush-user set comes from the shared single-pass scan (DESIGN.md
  // §9); everything else is session- or stats-derived.
  static CacheAnalysisResult Analyze(const TraceScan& scan, const InstanceTable& instances,
                                     const CacheStats& stats);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_CACHE_ANALYSIS_H_
