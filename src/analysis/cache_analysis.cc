#include "src/analysis/cache_analysis.h"

namespace ntrace {

CacheAnalysisResult CacheAnalyzer::Analyze(const TraceScan& scan,
                                           const InstanceTable& instances,
                                           const CacheStats& stats) {
  CacheAnalysisResult out;

  if (stats.copy_reads > 0) {
    out.cached_read_fraction =
        static_cast<double>(stats.copy_read_hits) / static_cast<double>(stats.copy_reads);
  }
  out.lazy_write_irps = stats.lazy_write_irps;
  out.lazy_write_bytes = stats.lazy_write_bytes;
  if (stats.lazy_write_irps > 0) {
    out.lazy_write_mean_run_bytes =
        static_cast<double>(stats.lazy_write_bytes) / stats.lazy_write_irps;
  }
  out.seteof_on_close = stats.seteof_on_close;
  if (stats.purge_calls > 0) {
    out.overwrite_with_dirty_fraction =
        static_cast<double>(stats.purges_with_dirty) / stats.purge_calls;
  }
  out.temporary_pages_skipped = stats.temporary_pages_skipped;

  uint64_t read_sessions = 0;
  uint64_t single_io = 0;
  uint64_t single_prefetch = 0;
  uint64_t sequential_opens = 0;
  uint64_t sequential_with_hint = 0;
  uint64_t data_sessions = 0;
  uint64_t nocache_sessions = 0;
  uint64_t writing_sessions = 0;
  uint64_t write_through_sessions = 0;
  uint64_t flushing_sessions = 0;
  uint64_t new_files_deleted = 0;
  uint64_t temp_candidates = 0;

  for (const Instance& s : instances.rows()) {
    if (s.open_failed) {
      continue;
    }
    if (s.HasData()) {
      ++data_sessions;
      if ((s.create_options & kOptNoIntermediateBuffering) != 0) {
        ++nocache_sessions;
      }
    }
    if (s.reads() > 0) {
      ++read_sessions;
      if (s.reads() == 1) {
        ++single_io;
      }
      // "In 92% of the open-for-read cases a single prefetch was sufficient
      // to load the data to satisfy all subsequent reads from the cache":
      // at most one demand fault plus at most one speculative read.
      if (s.pagein_irps + s.readahead_irps <= 1) {
        ++single_prefetch;
      }
      // Sequential-access sessions and the sequential-only open hint.
      bool sequential = true;
      uint64_t expected = s.ops.empty() ? 0 : s.ops.front().offset;
      for (const RwOp& op : s.ops) {
        if (op.write) {
          continue;
        }
        if (op.offset != expected) {
          sequential = false;
          break;
        }
        expected = op.offset + op.length;
      }
      if (sequential && s.reads() > 1) {
        ++sequential_opens;
        if ((s.create_options & kOptSequentialOnly) != 0) {
          ++sequential_with_hint;
        }
      }
    }
    if (s.writes() > 0) {
      ++writing_sessions;
      if ((s.create_options & kOptWriteThrough) != 0) {
        ++write_through_sessions;
      }
    }
    // Temporary-attribute candidates: new files that die shortly (within
    // the session or soon after) without the attribute.
    const bool created = s.create_action == CreateAction::kCreated ||
                         s.create_action == CreateAction::kSuperseded;
    if (created && (s.set_delete_disposition || s.delete_on_close())) {
      ++new_files_deleted;
      if (!s.temporary()) {
        ++temp_candidates;
      }
    }
  }

  // Flush users: sessions with an observed FLUSH_BUFFERS record (collected
  // by the single-pass scan).
  for (const Instance& s : instances.rows()) {
    if (!s.open_failed && s.writes() > 0 && scan.FileWasFlushed(s.file_object)) {
      ++flushing_sessions;
    }
  }

  if (read_sessions > 0) {
    out.single_io_session_fraction = static_cast<double>(single_io) / read_sessions;
    out.single_prefetch_fraction = static_cast<double>(single_prefetch) / read_sessions;
  }
  if (sequential_opens > 0) {
    out.sequential_hint_open_fraction =
        static_cast<double>(sequential_with_hint) / sequential_opens;
  }
  if (data_sessions > 0) {
    out.read_cache_disabled_fraction = static_cast<double>(nocache_sessions) / data_sessions;
  }
  if (writing_sessions > 0) {
    out.write_through_fraction = static_cast<double>(write_through_sessions) / writing_sessions;
    out.flush_user_fraction = static_cast<double>(flushing_sessions) / writing_sessions;
  }
  if (new_files_deleted > 0) {
    out.temporary_benefit_fraction =
        static_cast<double>(temp_candidates) / new_files_deleted;
  }
  return out;
}

}  // namespace ntrace
