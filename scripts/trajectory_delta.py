#!/usr/bin/env python3
"""Compare BENCH_*.json perf-trajectory artifacts and emit a delta table.

Usage: trajectory_delta.py CURRENT.json [PREVIOUS.json ...]

Each artifact is JSON-lines: bench lines ({"bench": ..., "mean_ns": ...,
"elements_per_sec": ...}), latency-percentile lines ({"metric":
"latency", "name": ..., "p50_ns": ..., "p99_ns": ...}), the
tier_footprint line, the compaction line, the observability lines
(obs_overhead, explain_overhead, watchdog), the buffer-manager lines
(service_cold_scan, pack_gc), the WAL lines (durable_ingest,
wal_recovery_ms), and the standing-query line (standing_query:
delta-delivery throughput, completion-lag percentiles and the
idle-subscription overhead ratio), as printed by
`cargo bench -p wf-bench --bench service`.

The newest PREVIOUS (last argument) anchors the delta columns and the
regression gate; when several PREVIOUS artifacts are given (oldest
first), a history section tracks the 1/16/256-run service_ingest /
service_query points across all of them.

Writes a markdown table (events/s, ns/query, latency percentiles,
bytes/tier, file counts) to $GITHUB_STEP_SUMMARY (stdout otherwise).
Soft regression gate: exits 1 only when an ingest or reach throughput
metric drops — or a gated p99 latency rises — more than GATE_DROP_PCT
(default 25%) versus the previous artifact — noise warns, cliffs fail.
No previous artifact means nothing to gate against.
"""

import json
import os
import sys

GATE_DROP_PCT = float(os.environ.get("GATE_DROP_PCT", "25"))
WARN_DROP_PCT = float(os.environ.get("WARN_DROP_PCT", "5"))

# Metrics whose *throughput* regression fails the job (substring match on
# the bench id). Everything else is informational.
GATED = ("service_tiering/ingest_freeze", "service_tiering/reach_across_tiers")

# Latency families whose *p99 rise* fails the job (exact key match).
LATENCY_GATED = ("latency/wf_reach_ns", "latency/wf_ingest_apply_ns")

# Bench ids tracked across every provided artifact (the 1/16/256-run
# trajectory dashboard).
HISTORY_FLEETS = (1, 16, 256)
HISTORY_BENCHES = tuple(
    f"{group}/{point}/{n}"
    for group, point in (
        ("service_ingest", "runs"),
        ("service_ingest", "pipelined_runs"),
        ("service_query", "runs"),
        ("service_query", "cross_run_source_scan"),
    )
    for n in HISTORY_FLEETS
)


def load(path):
    """Parse one artifact into {key: {metric: value}} keyed by bench id."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            key = rec.get("bench") or rec.get("metric")
            if key == "latency" and rec.get("name"):
                # One line per histogram family; key them apart.
                key = f"latency/{rec['name']}"
            if key:
                out[key] = rec
    return out


def fmt(value):
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:,.1f}"
    return f"{value:,}"


def delta_pct(prev, cur):
    if prev in (None, 0) or cur is None:
        return None
    return (cur - prev) / prev * 100.0


def stamp_of(path, artifact):
    """Short column label for one artifact: its date stamp or basename."""
    for rec in artifact.values():
        if rec.get("date"):
            return rec["date"]
        if rec.get("commit"):
            return rec["commit"][:9]
    return os.path.basename(path)


def history_section(paths, artifacts):
    """events/s for the 1/16/256-run points across every artifact."""
    lines = ["### 1/16/256-run history (events/s)", ""]
    labels = [stamp_of(p, a) for p, a in zip(paths, artifacts)]
    lines.append("| bench | " + " | ".join(labels) + " |")
    lines.append("|---|" + "---:|" * len(labels))
    for bench in HISTORY_BENCHES:
        cells = [fmt(a.get(bench, {}).get("elements_per_sec")) for a in artifacts]
        if all(c == "—" for c in cells):
            continue
        lines.append(f"| `{bench}` | " + " | ".join(cells) + " |")
    lines.append("")
    return lines


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    cur_path = sys.argv[1]
    prev_paths = [p for p in sys.argv[2:] if os.path.exists(p)]
    current = load(cur_path)
    previous = load(prev_paths[-1]) if prev_paths else {}

    rows = []
    failures = []
    warnings = []

    # Bench lines: compare throughput where annotated, mean_ns otherwise.
    for key in sorted(k for k in current if "bench" in current[k]):
        cur, prev = current[key], previous.get(key, {})
        for metric, higher_is_better in (("elements_per_sec", True), ("mean_ns", False)):
            c, p = cur.get(metric), prev.get(metric)
            if c is None:
                continue
            d = delta_pct(p, c)
            rows.append((f"{key} ({metric})", p, c, d))
            if d is None:
                continue
            drop = -d if higher_is_better else d
            label = f"{key} {metric}: {d:+.1f}%"
            if metric == "elements_per_sec" and any(g in key for g in GATED):
                if drop > GATE_DROP_PCT:
                    failures.append(label)
                elif drop > WARN_DROP_PCT:
                    warnings.append(label)
            elif drop > WARN_DROP_PCT:
                warnings.append(label)

    # Latency lines: per-operation percentiles out of the engine's own
    # histograms. A gated family's p99 rising past the gate fails.
    for key in sorted(k for k in current if k.startswith("latency/")):
        cur, prev = current[key], previous.get(key, {})
        for metric in ("p50_ns", "p99_ns"):
            c, p = cur.get(metric), prev.get(metric)
            if c is None:
                continue
            d = delta_pct(p, c)
            rows.append((f"{key} ({metric})", p, c, d))
            if d is None or metric != "p99_ns":
                continue
            label = f"{key} {metric}: {d:+.1f}%"
            if key in LATENCY_GATED:
                if d > GATE_DROP_PCT:
                    failures.append(label)
                elif d > WARN_DROP_PCT:
                    warnings.append(label)
            elif d > WARN_DROP_PCT:
                warnings.append(label)

    # WAL durable-ingest line: the eps_* fields are throughputs (higher
    # is better). The group-commit point is the headline durable config,
    # so it carries the same soft gate as the tiering benches; the
    # fsync-per-event point is too noisy to gate and stays informational.
    cur, prev = current.get("durable_ingest", {}), previous.get("durable_ingest", {})
    for metric, gated in (
        ("eps_off", False),
        ("eps_group", True),
        ("eps_always", False),
        ("group_ratio", False),
    ):
        c, p = cur.get(metric), prev.get(metric)
        if c is None:
            continue
        d = delta_pct(p, c)
        rows.append((f"durable_ingest.{metric}", p, c, d))
        if d is None:
            continue
        drop = -d  # throughput (and the off-vs-group ratio): a drop regresses
        label = f"durable_ingest {metric}: {d:+.1f}%"
        if gated and drop > GATE_DROP_PCT:
            failures.append(label)
        elif drop > WARN_DROP_PCT:
            warnings.append(label)

    # Standing-query line: delta delivery through a consuming
    # subscription. `notify_eps` (deltas delivered per second) carries
    # the throughput gate; `delta_lag_p99_ns` (submit-to-receipt lag at
    # the completion delta) gates as a latency — a rise past the gate
    # fails. The p50 and the idle-subscription overhead ratio (hard-
    # asserted >= 0.9 in-bench) ride along informationally.
    cur, prev = current.get("standing_query", {}), previous.get("standing_query", {})
    for metric, gated, higher_is_better in (
        ("notify_eps", True, True),
        ("delta_lag_p99_ns", True, False),
        ("delta_lag_p50_ns", False, False),
        ("sub_overhead_ratio", False, True),
    ):
        c, p = cur.get(metric), prev.get(metric)
        if c is None:
            continue
        d = delta_pct(p, c)
        rows.append((f"standing_query.{metric}", p, c, d))
        if d is None:
            continue
        drop = -d if higher_is_better else d
        label = f"standing_query {metric}: {d:+.1f}%"
        if gated and drop > GATE_DROP_PCT:
            failures.append(label)
        elif drop > WARN_DROP_PCT:
            warnings.append(label)

    # Cold-scan line: the buffer-manager sweep over the packed persisted
    # tier. `cold_scan_eps` carries the soft gate like the tiering
    # benches; the residency numbers ride along informationally.
    cur, prev = current.get("service_cold_scan", {}), previous.get("service_cold_scan", {})
    c, p = cur.get("cold_scan_eps"), prev.get("cold_scan_eps")
    if c is not None:
        d = delta_pct(p, c)
        rows.append(("service_cold_scan.cold_scan_eps", p, c, d))
        if d is not None:
            label = f"service_cold_scan cold_scan_eps: {d:+.1f}%"
            if -d > GATE_DROP_PCT:  # throughput: a drop regresses
                failures.append(label)
            elif -d > WARN_DROP_PCT:
                warnings.append(label)
    for f in ("mapped_resident_bytes", "budget_bytes", "mapped_bytes"):
        if f in cur:
            rows.append((f"service_cold_scan.{f}", prev.get(f), cur.get(f), delta_pct(prev.get(f), cur.get(f))))

    # Observability lines: the instrumented-vs-bare throughput ratios
    # (obs_overhead's ON side carries telemetry spans *and* the stall
    # watchdog) and the EXPLAIN wrapper's tax on a warm fleet query.
    # Ratios are higher-is-better; the on/off ratios carry the soft gate
    # (the bench hard-asserts >= 0.95 in-run, so a trip here means the
    # instrumented build got relatively slower since the last artifact).
    for key, metrics in (
        ("obs_overhead", (("ingest_ratio", True), ("reach_ratio", True),
                          ("ingest_eps_on", False), ("reach_eps_on", False))),
        ("explain_overhead", (("explain_ratio", True), ("plain_qps", False),
                              ("explain_qps", False))),
        ("watchdog", (("ingest_ratio", False), ("reach_ratio", False),
                      ("interval_ms", False))),
    ):
        cur, prev = current.get(key, {}), previous.get(key, {})
        for metric, gated in metrics:
            c, p = cur.get(metric), prev.get(metric)
            if c is None:
                continue
            d = delta_pct(p, c)
            rows.append((f"{key}.{metric}", p, c, d))
            if d is None or metric == "interval_ms":
                continue
            drop = -d  # throughput or ratio: a drop regresses
            label = f"{key} {metric}: {d:+.1f}%"
            if gated and drop > GATE_DROP_PCT:
                failures.append(label)
            elif drop > WARN_DROP_PCT:
                warnings.append(label)

    # Footprint + compaction + recovery lines: informational.
    for key, fields in (
        ("tier_footprint", ("hot_bytes", "frozen_bytes", "persisted_bytes",
                            "persisted_resident_bytes", "segment_files",
                            "pack_pins", "pack_dead_bytes", "mapped_bytes",
                            "skl_bits", "skl_drl_bits")),
        ("compaction", ("files_before", "files_after", "bytes_after",
                        "dead_bytes_reclaimed", "runs_packed")),
        ("pack_gc", ("packs_rewritten", "runs_moved", "bytes_before",
                     "bytes_after", "dead_bytes_reclaimed")),
        ("wal_recovery_ms", ("records", "ms")),
    ):
        cur, prev = current.get(key, {}), previous.get(key, {})
        for f in fields:
            if f in cur:
                rows.append((f"{key}.{f}", prev.get(f), cur.get(f), delta_pct(prev.get(f), cur.get(f))))

    lines = ["## Perf trajectory", ""]
    if not previous:
        lines.append("_No previous artifact found — first data point, nothing to gate against._")
        lines.append("")
    lines.append("| metric | previous | current | Δ% |")
    lines.append("|---|---:|---:|---:|")
    for name, p, c, d in rows:
        lines.append(f"| `{name}` | {fmt(p)} | {fmt(c)} | {'—' if d is None else f'{d:+.1f}%'} |")
    lines.append("")
    if len(prev_paths) >= 1:
        all_paths = prev_paths + [cur_path]
        lines += history_section(all_paths, [load(p) for p in all_paths])
    if failures:
        lines.append(f"**GATE FAILED** (>{GATE_DROP_PCT:.0f}% throughput drop / p99 rise): " + "; ".join(failures))
    elif warnings:
        lines.append("Soft warnings: " + "; ".join(warnings))
    else:
        lines.append("No regressions beyond noise thresholds.")
    report = "\n".join(lines) + "\n"

    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(report)
    print(report)

    for w in warnings:
        print(f"::warning::perf drop (soft): {w}")
    if failures:
        for f in failures:
            print(f"::error::perf cliff (>{GATE_DROP_PCT:.0f}%): {f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
