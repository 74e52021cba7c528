// Section 8 operational characteristics: read/write request sizes and
// inter-arrival bursts, control/directory-operation dominance, error mix,
// and the process attribution of section 7.

#ifndef SRC_ANALYSIS_OPERATIONS_H_
#define SRC_ANALYSIS_OPERATIONS_H_

#include "src/analysis/trace_scan.h"
#include "src/stats/descriptive.h"
#include "src/tracedb/instance_table.h"

namespace ntrace {

struct OperationResult {
  // --- Section 8.2 ---
  uint64_t reads = 0;
  uint64_t writes = 0;
  double reads_512_or_4096_fraction = 0;  // Paper: 59%.
  double reads_small_fraction = 0;        // 2-8 bytes.
  double reads_48k_plus_fraction = 0;
  WeightedCdf read_sizes;
  WeightedCdf write_sizes;
  // Follow-up gaps between successive reads/writes within one session.
  WeightedCdf read_gap_us;
  WeightedCdf write_gap_us;
  double read_gap_p80_us = 0;   // Paper: 80% within 90 us.
  double write_gap_p80_us = 0;  // Paper: 80% within 30 us.
  // Fraction of data opens whose transfers completed in one batch (the
  // session closed right after; paper: 70%).
  double batch_session_fraction = 0;

  // --- Section 8.3 ---
  double control_only_open_fraction = 0;  // Paper: 74%.
  uint64_t control_ops = 0;
  uint64_t directory_ops = 0;
  uint64_t volume_mounted_checks = 0;
  double volume_checks_per_active_second = 0;  // Paper: up to 40/s.
  uint64_t seteof_ops = 0;

  // --- Section 8.4 ---
  double open_failure_fraction = 0;         // Paper: 12%.
  double open_notfound_share = 0;           // Of failures; paper: 52%.
  double open_collision_share = 0;          // Paper: 31%.
  double control_failure_fraction = 0;      // Paper: 8%.
  double read_failure_fraction = 0;         // Paper: 0.2%.
  uint64_t write_failures = 0;              // Paper: none.

  // --- Section 7 ---
  double non_interactive_access_fraction = 0;  // Paper: > 92%.
};

class OperationAnalyzer {
 public:
  // Consumes the shared single-pass scan (DESIGN.md §9); only the
  // session-level statistics still walk the instance table here.
  static OperationResult Analyze(const TraceScan& scan, const InstanceTable& instances);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_OPERATIONS_H_
