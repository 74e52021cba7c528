#!/usr/bin/env python3
"""Sanity guard for BENCH_*.json files produced by the bench binaries.

CI runs this on every bench artifact before uploading it: a bench that
writes NaN/Inf, drops a key, or records a non-identical parallel run must
fail the job, not poison the tracked perf trajectory. Stdlib only.

Usage: check_bench_json.py FILE [FILE...]
Exits non-zero on the first structurally invalid file.
"""

import json
import math
import sys

REQUIRED_TOP_KEYS = ["bench", "systems", "days", "seed", "records", "all_identical", "runs"]
REQUIRED_RUN_KEYS = [
    "threads",
    "seconds",
    "records_per_sec",
    "ns_per_record",
    "alloc_count",
    "speedup",
    "identical",
]
# Present only in benches that carry the metrics layer (bench_fleet).
FLEET_METRIC_KEYS = [
    "records_emitted",
    "records_collected",
    "fastio_read_share",
    "fastio_write_share",
    "cache_hit_fraction",
]


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return 1


def check_finite(path, name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return fail(path, f'"{name}" is not a number: {value!r}')
    if not math.isfinite(value):
        return fail(path, f'"{name}" is not finite: {value!r}')
    return 0


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")

    errors = 0
    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            errors += fail(path, f'missing required key "{key}"')
    if errors:
        return errors

    for key in ("systems", "days", "seed", "records"):
        errors += check_finite(path, key, doc[key])
    if not errors and doc["records"] <= 0:
        errors += fail(path, f'"records" must be positive, got {doc["records"]}')
    if doc["all_identical"] is not True:
        errors += fail(path, "all_identical is not true: a parallel run diverged from baseline")

    runs = doc["runs"]
    if not isinstance(runs, list) or not runs:
        return errors + fail(path, '"runs" must be a non-empty list')
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            errors += fail(path, f"runs[{i}] is not an object")
            continue
        for key in REQUIRED_RUN_KEYS:
            if key not in run:
                errors += fail(path, f'runs[{i}] missing "{key}"')
                continue
            if key == "identical":
                if run[key] is not True:
                    errors += fail(path, f"runs[{i}] (threads={run.get('threads')}) not identical")
            else:
                errors += check_finite(path, f"runs[{i}].{key}", run[key])
    if runs and isinstance(runs[0], dict) and runs[0].get("threads") != 1:
        errors += fail(path, "runs[0] must be the sequential (threads=1) baseline")

    if "metrics_overhead_pct" in doc:
        errors += check_finite(path, "metrics_overhead_pct", doc["metrics_overhead_pct"])
    # The fleet bench must carry the durability-layer cost (checkpointing
    # on vs off); a missing key means the measurement silently fell out.
    if doc["bench"] == "fleet" and "recovery_overhead_pct" not in doc:
        errors += fail(path, 'missing required key "recovery_overhead_pct"')
    if "recovery_overhead_pct" in doc:
        errors += check_finite(path, "recovery_overhead_pct", doc["recovery_overhead_pct"])
    # Likewise the loopback ingest rate of the networked collection tier:
    # required, finite, and positive (0 means the bench could not bind or
    # the stream failed -- either way the measurement is gone).
    if doc["bench"] == "fleet":
        if "net_ingest_records_per_sec" not in doc:
            errors += fail(path, 'missing required key "net_ingest_records_per_sec"')
        else:
            rate = doc["net_ingest_records_per_sec"]
            errors += check_finite(path, "net_ingest_records_per_sec", rate)
            if isinstance(rate, (int, float)) and not (isinstance(rate, bool)) and rate <= 0:
                errors += fail(path, f'"net_ingest_records_per_sec" must be positive, got {rate}')
        # Frames per socket write on the same leg: a count, not a timing, so
        # a return to one write per frame shows on any runner speed.
        if "net_ingest_frames_per_write" not in doc:
            errors += fail(path, 'missing required key "net_ingest_frames_per_write"')
        else:
            ratio = doc["net_ingest_frames_per_write"]
            errors += check_finite(path, "net_ingest_frames_per_write", ratio)
            if isinstance(ratio, (int, float)) and not isinstance(ratio, bool) and ratio <= 0:
                errors += fail(path, f'"net_ingest_frames_per_write" must be positive, got {ratio}')
    # The out-of-core columnar leg (DESIGN.md §12): every record of the
    # sequential run must have landed in the merged extent file, and the
    # process peak RSS is the figure the fixed-memory claim is tracked by.
    if doc["bench"] == "fleet":
        # The merged extent file is compressed (DESIGN.md §15): its on-disk
        # footprint and the ratio against an uncompressed rewrite are part
        # of the tracked trajectory; a missing or non-positive value means
        # the store was never written or the rewrite failed.
        for key in ("compressed_bytes_on_disk", "compression_ratio"):
            if key not in doc:
                errors += fail(path, f'missing required key "{key}"')
                continue
            errors += check_finite(path, key, doc[key])
            value = doc[key]
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value <= 0:
                errors += fail(path, f'"{key}" must be positive, got {value}')
        for key in ("records_on_disk", "peak_rss_bytes"):
            if key not in doc:
                errors += fail(path, f'missing required key "{key}"')
                continue
            errors += check_finite(path, key, doc[key])
        rss = doc.get("peak_rss_bytes")
        if isinstance(rss, (int, float)) and not isinstance(rss, bool) and rss <= 0:
            errors += fail(path, f'"peak_rss_bytes" must be positive, got {rss}')
        on_disk = doc.get("records_on_disk")
        if (
            isinstance(on_disk, (int, float))
            and not isinstance(on_disk, bool)
            and on_disk != doc["records"]
        ):
            errors += fail(
                path,
                f'"records_on_disk" ({on_disk}) != "records" ({doc["records"]}): '
                "the columnar spill lost or duplicated records",
            )
    # The replay bench must carry the degraded leg (DESIGN.md §16): the
    # gap-tolerant replay rate over a ~10%-loss trace, with every gap
    # absorbed. A missing object means the degraded path regressed into
    # divergence; a missing key means the measurement silently fell out.
    if doc["bench"] == "replay":
        if "degraded" not in doc or not isinstance(doc.get("degraded"), dict):
            errors += fail(path, 'missing required object "degraded"')
        else:
            degraded = doc["degraded"]
            for key in (
                "records",
                "records_lost",
                "loss_fraction",
                "seconds",
                "degraded_records_per_sec",
                "synthesized_ops",
                "gaps_detected",
            ):
                if key not in degraded:
                    errors += fail(path, f'degraded missing "{key}"')
                    continue
                errors += check_finite(path, f"degraded.{key}", degraded[key])
            if degraded.get("absorbed") is not True:
                errors += fail(path, "degraded.absorbed is not true: a gap survived replay")
            rate = degraded.get("degraded_records_per_sec")
            if isinstance(rate, (int, float)) and not isinstance(rate, bool) and rate <= 0:
                errors += fail(path, f'"degraded_records_per_sec" must be positive, got {rate}')
    # The scan bench must carry the row-oracle comparison: the advisory
    # floor gates columnar ns/record, but a JSON without the row baseline
    # cannot show the speedup the floor was set against.
    if doc["bench"] == "scan":
        for key in (
            "row_ns_per_record",
            "columnar_ns_per_record",
            "speedup_vs_row",
            "disk_ns_per_record",
            "disk_records_per_sec",
            "compressed_bytes_on_disk",
            "compression_ratio",
            "peak_rss_bytes",
        ):
            if key not in doc:
                errors += fail(path, f'missing required key "{key}"')
                continue
            errors += check_finite(path, key, doc[key])
        for key in ("compressed_bytes_on_disk", "compression_ratio"):
            value = doc.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value <= 0:
                errors += fail(path, f'"{key}" must be positive, got {value}')
    if "metrics" in doc:
        metrics = doc["metrics"]
        if not isinstance(metrics, dict):
            errors += fail(path, '"metrics" is not an object')
        else:
            for key in FLEET_METRIC_KEYS:
                if key not in metrics:
                    errors += fail(path, f'metrics missing "{key}"')
                    continue
                errors += check_finite(path, f"metrics.{key}", metrics[key])
            for key in ("fastio_read_share", "fastio_write_share", "cache_hit_fraction"):
                value = metrics.get(key)
                if isinstance(value, (int, float)) and not 0.0 <= value <= 1.0:
                    errors += fail(path, f"metrics.{key} out of [0, 1]: {value}")

    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = 0
    for path in argv[1:]:
        file_errors = check_file(path)
        errors += file_errors
        if not file_errors:
            print(f"{path}: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
