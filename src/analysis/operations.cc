#include "src/analysis/operations.h"

namespace ntrace {

OperationResult OperationAnalyzer::Analyze(const TraceScan& scan,
                                           const InstanceTable& instances) {
  OperationResult out;

  // Per-record aggregates come straight from the shared single-pass scan.
  out.reads = scan.reads;
  out.writes = scan.writes;
  out.read_sizes = scan.read_sizes;
  out.write_sizes = scan.write_sizes;
  out.write_failures = scan.write_failures;
  out.directory_ops = scan.directory_ops;
  out.control_ops = scan.control_ops;
  out.volume_mounted_checks = scan.volume_mounted_checks;
  out.seteof_ops = scan.seteof_ops;
  if (scan.reads > 0) {
    out.reads_512_or_4096_fraction = static_cast<double>(scan.reads_512_or_4096) / scan.reads;
    out.reads_small_fraction = static_cast<double>(scan.reads_small) / scan.reads;
    out.reads_48k_plus_fraction = static_cast<double>(scan.reads_48k_plus) / scan.reads;
    out.read_failure_fraction = static_cast<double>(scan.read_failures) / scan.reads;
  }
  if (scan.opens > 0) {
    out.open_failure_fraction = static_cast<double>(scan.open_failures) / scan.opens;
  }
  if (scan.open_failures > 0) {
    out.open_notfound_share = static_cast<double>(scan.open_notfound) / scan.open_failures;
    out.open_collision_share = static_cast<double>(scan.open_collision) / scan.open_failures;
  }
  if (scan.control_total > 0) {
    out.control_failure_fraction =
        static_cast<double>(scan.control_failures) / scan.control_total;
  }
  if (scan.attributed > 0) {
    out.non_interactive_access_fraction =
        static_cast<double>(scan.non_interactive) / scan.attributed;
  }
  if (scan.active_seconds > 0) {
    out.volume_checks_per_active_second =
        static_cast<double>(out.volume_mounted_checks) / scan.active_seconds;
  }

  // --- Per-session statistics -------------------------------------------------
  uint64_t successful_opens = 0;
  uint64_t control_only = 0;
  uint64_t data_sessions = 0;
  uint64_t batch_sessions = 0;
  for (const Instance& s : instances.rows()) {
    if (s.open_failed) {
      continue;
    }
    ++successful_opens;
    if (!s.HasData()) {
      ++control_only;
      continue;
    }
    ++data_sessions;
    // Follow-up gaps within the session (complete -> next start).
    int64_t last_read_end = 0;
    int64_t last_write_end = 0;
    for (const RwOp& op : s.ops) {
      if (op.write) {
        if (last_write_end > 0 && op.start_ticks >= last_write_end) {
          out.write_gap_us.Add(SimDuration(op.start_ticks - last_write_end).ToMicrosF());
        }
        last_write_end = op.complete_ticks;
      } else {
        if (last_read_end > 0 && op.start_ticks >= last_read_end) {
          out.read_gap_us.Add(SimDuration(op.start_ticks - last_read_end).ToMicrosF());
        }
        last_read_end = op.complete_ticks;
      }
    }
    // "In 70% of the file opens, read/write actions were performed in batch
    // form, and the file was closed again": the session ends within 100 ms
    // of its last transfer.
    if (s.cleanup_time > 0 && !s.ops.empty()) {
      const int64_t last_op = s.ops.back().complete_ticks;
      if (s.cleanup_time - last_op <= SimDuration::Millis(100).ticks()) {
        ++batch_sessions;
      }
    }
  }
  out.read_gap_us.Finalize();
  out.write_gap_us.Finalize();
  if (!out.read_gap_us.empty()) {
    out.read_gap_p80_us = out.read_gap_us.Percentile(0.80);
  }
  if (!out.write_gap_us.empty()) {
    out.write_gap_p80_us = out.write_gap_us.Percentile(0.80);
  }
  if (successful_opens > 0) {
    out.control_only_open_fraction = static_cast<double>(control_only) / successful_opens;
  }
  if (data_sessions > 0) {
    out.batch_session_fraction = static_cast<double>(batch_sessions) / data_sessions;
  }
  return out;
}

}  // namespace ntrace
