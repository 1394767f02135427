"""The live operational dashboard (``repro dash``).

Renders SLO status, burn rates, breaker/queue state, alert history,
and sparkline latency trends as plain terminal text, from the JSONL
streams the serving loop journals (health snapshots, wide events,
alert records -- see ``docs/observability.md``).

Two modes share one renderer:

- ``repro dash --once --from-journal PATH`` reads the journal and
  renders a single frame -- the replay path.  Because wide events
  carry the exact sample mapping the SLO evaluator saw, replaying them
  through a fresh :class:`~repro.obs.slo.SLOEvaluator` reproduces the
  live run's burn rates and alert indices bit-for-bit.
- without ``--once`` the CLI re-reads and re-renders on an interval --
  a live tail over a journal an active ``repro serve`` is appending to.

The renderer also runs the **gap check**: wide-event ``seq`` and
health-snapshot ``seq`` must each be contiguous and monotonic; a
journal that lost or reordered records gets a WARNING panel instead of
silently rendering a hole.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.journal import read_journal
from repro.obs.slo import SLO, SLOEvaluator

__all__ = [
    "sparkline",
    "split_journal",
    "seq_warnings",
    "replay_slos",
    "render_dashboard",
    "dashboard_from_journal",
]

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """A unicode block sparkline of the last ``width`` values."""
    series = [float(value) for value in values][-width:]
    if not series:
        return "(no data)"
    lo, hi = min(series), max(series)
    if hi <= lo:
        return _SPARK[0] * len(series)
    span = hi - lo
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((value - lo) / span * len(_SPARK)))]
        for value in series
    )


def split_journal(records: Sequence[Dict]) -> Dict[str, List[Dict]]:
    """Partition journal records into the streams the panels consume."""
    streams: Dict[str, List[Dict]] = {
        "health": [], "wide": [], "batches": [], "queries": [],
        "replicas": [], "alerts": [], "other": [],
    }
    for record in records:
        kind = record.get("type")
        if kind == "health" or record.get("event") == "health":
            streams["health"].append(record)
        elif kind == "wide" and record.get("kind") == "batch":
            streams["wide"].append(record)
            streams["batches"].append(record)
        elif kind == "wide" and record.get("kind") == "query":
            streams["wide"].append(record)
            streams["queries"].append(record)
        elif kind == "wide" and record.get("kind") == "replica":
            # Per-replica events share the batch/query emitter
            # sequence, so they must stay in the merged "wide" stream
            # for the gap check to hold.
            streams["wide"].append(record)
            streams["replicas"].append(record)
        elif kind == "alert":
            streams["alerts"].append(record)
        else:
            streams["other"].append(record)
    return streams


def _check_seq(records: Sequence[Dict], label: str) -> List[str]:
    seqs = [record["seq"] for record in records if "seq" in record]
    warnings = []
    if len(seqs) < len(records):
        warnings.append(
            f"{label}: {len(records) - len(seqs)} record(s) lack a "
            f"'seq' field (pre-seq journal?)"
        )
    for previous, current in zip(seqs, seqs[1:]):
        if current <= previous:
            warnings.append(
                f"{label}: seq went backwards ({previous} -> {current})"
                f" -- reordered or duplicated records"
            )
        elif current != previous + 1:
            warnings.append(
                f"{label}: gap between seq {previous} and {current} "
                f"({current - previous - 1} record(s) missing)"
            )
    return warnings


def seq_warnings(streams: Dict[str, List[Dict]]) -> List[str]:
    """Gap/reorder warnings over every seq-carrying stream.

    Batch and query wide events share one emitter sequence, so the
    check runs over the merged ``wide`` stream in journal order.
    """
    warnings = (_check_seq(streams["wide"], "wide events")
                if streams["wide"] else [])
    if streams["health"]:
        warnings += _check_seq(streams["health"], "health snapshots")
    return warnings


def replay_slos(slos: Sequence[SLO],
                batches: Sequence[Dict]) -> SLOEvaluator:
    """Re-evaluate SLOs from journaled wide events.

    Wide batch events embed the ``samples`` mapping the live evaluator
    consumed, so the replayed burn rates and alert indices match the
    live run exactly (the determinism pin of the alerting tests).  The
    returned evaluator's ``alerts`` are the replayed transitions
    (``repro dash --expect-alert`` reads them).
    """
    evaluator = SLOEvaluator(slos)
    for event in batches:
        samples = event.get("samples")
        if isinstance(samples, dict):
            evaluator.tick(samples, index=event.get("index"))
    return evaluator


def _rule(width: int, char: str = "-") -> str:
    return char * width


def _slo_panel(evaluator: Optional[SLOEvaluator],
               alerts: Sequence[Dict], lines: List[str]) -> None:
    lines.append("SLO status")
    if evaluator is not None and evaluator.slos:
        header = (f"  {'slo':<22}{'state':<9}{'fast':>7}{'slow':>7}"
                  f"{'last':>10}  objective")
        lines.append(header)
        for row in evaluator.status():
            last = ("-" if row["last_value"] != row["last_value"]
                    else f"{row['last_value']:.4g}")
            lines.append(
                f"  {row['name']:<22}{row['state']:<9}"
                f"{row['fast_burn']:>6.1f}x{row['slow_burn']:>6.1f}x"
                f"{last:>10}  {row['objective']}"
            )
    elif not alerts:
        lines.append("  (no SLO file given and no alert records)")
    firing = [a for a in alerts if a.get("state") == "firing"]
    resolved = [a for a in alerts if a.get("state") == "resolved"]
    lines.append(
        f"  alerts: {len(firing)} fired, {len(resolved)} resolved"
    )
    for alert in alerts:
        lines.append(
            f"    [{alert.get('severity', '?'):<6}] batch "
            f"{alert.get('index', '?'):>4}  {alert.get('slo', '?')} "
            f"{alert.get('state', '?').upper()}  "
            f"fast={alert.get('fast_burn', 0):.1f}x "
            f"slow={alert.get('slow_burn', 0):.1f}x"
            + (f"  [runbook: {alert['runbook']}]"
               if alert.get("runbook") else "")
        )


def _serving_panel(health: Sequence[Dict], lines: List[str]) -> None:
    lines.append("Serving")
    if not health:
        lines.append("  (no health snapshots journaled)")
        return
    last = health[-1]
    lines.append(
        f"  breaker={last.get('breaker_state', '?')}"
        f"  queue={last.get('queue_depth', '?')}"
        f"  staleness={last.get('staleness_batches', '?')}"
        f"  policy={last.get('admission_policy', '?')}"
    )
    lines.append(
        f"  submitted={last.get('submitted', '?')}"
        f"  applied={last.get('applied', '?')}"
        f"  shed={last.get('shed', '?')}"
        f"  coalesced={last.get('coalesced', '?')}"
        f"  quarantined={last.get('quarantine_count', '?')}"
        f"  restores={last.get('restores', '?')}"
    )
    timeline = []
    previous = None
    for snapshot in health:
        state = snapshot.get("breaker_state")
        if state != previous:
            timeline.append(f"{state}@{snapshot.get('seq', '?')}")
            previous = state
    if len(timeline) > 1:
        lines.append("  breaker timeline: " + " -> ".join(timeline))


def _replication_panel(replicas: Sequence[Dict], width: int,
                       lines: List[str]) -> None:
    lines.append("Replication")
    latest: Dict[str, Dict] = {}
    lag_series: Dict[str, List[float]] = {}
    for event in replicas:
        name = event.get("name", "?")
        latest[name] = event
        lag_series.setdefault(name, []).append(
            float(event.get("lag_batches", 0))
        )
    spark_width = max(8, width - 44)
    for name in sorted(latest):
        event = latest[name]
        series = lag_series[name]
        lines.append(
            f"  {name:<6}{'up' if event.get('alive') else 'DOWN':<6}"
            f"lag {sparkline(series, spark_width)} "
            f"now={event.get('lag_batches', '?')}  "
            f"applied={event.get('applied_seq', '?')}  "
            f"fence=e{event.get('fence_epoch', '?')}"
            + (f"  rejections={event['fence_rejections']}"
               if event.get("fence_rejections") else "")
            + ("  QUARANTINED" if event.get("quarantined") else "")
        )
    last = replicas[-1]
    lines.append(
        f"  epoch={last.get('epoch', '?')}"
        f"  dead_letters={last.get('dead_letters', 0)}"
        f"  nacks={last.get('shipments_rejected', 0)}"
    )


def _latency_panel(streams: Dict[str, List[Dict]], width: int,
                   lines: List[str]) -> None:
    batches = streams["batches"]
    queries = streams["queries"]
    lines.append("Latency")
    spark_width = max(8, width - 40)
    if batches:
        series = [event.get("ingest_seconds", event.get("seconds", 0.0))
                  for event in batches]
        tail = series[-spark_width:]
        lines.append(
            f"  ingest  {sparkline(series, spark_width)}  "
            f"last={series[-1] * 1000:.1f}ms  "
            f"max={max(tail) * 1000:.1f}ms  (n={len(series)})"
        )
    else:
        lines.append("  ingest  (no batch events)")
    if queries:
        series = [event.get("seconds", 0.0) for event in queries]
        tail = series[-spark_width:]
        degraded = sum(1 for event in queries if event.get("degraded"))
        lines.append(
            f"  query   {sparkline(series, spark_width)}  "
            f"last={series[-1] * 1000:.1f}ms  "
            f"max={max(tail) * 1000:.1f}ms  "
            f"(n={len(series)}, degraded={degraded})"
        )


def _memory_panel(batches: Sequence[Dict], width: int,
                  lines: List[str]) -> None:
    """Peak-RSS trend from batch wide events (``peak_rss_bytes``).

    The series is a process-lifetime high-water mark, so it only ever
    rises; what the panel surfaces is *where* it rose -- a jump at
    batch N points at the allocation that paid for it (heap rebuilds
    of large snapshots above all; mmap-store runs stay flat).
    """
    series = [float(event["peak_rss_bytes"]) for event in batches
              if event.get("peak_rss_bytes")]
    if not series:
        return  # pre-RSS journal, or a platform without getrusage
    lines.append("Memory")
    spark_width = max(8, width - 40)
    mib = 1024.0 * 1024.0
    growth = series[-1] - series[0]
    lines.append(
        f"  peak rss {sparkline(series, spark_width)}  "
        f"now={series[-1] / mib:.1f}MiB  "
        f"grew={growth / mib:.1f}MiB over {len(series)} batch(es)"
    )
    lines.append(_rule(width))


def render_dashboard(streams: Dict[str, List[Dict]],
                     slos: Optional[Sequence[SLO]] = None,
                     width: int = 72,
                     title: str = "repro dash") -> str:
    """One dashboard frame over pre-split journal streams."""
    evaluator = (replay_slos(slos, streams["batches"])
                 if slos is not None else None)
    total = sum(len(records) for records in streams.values())
    lines = [
        f"{title}  ({total} journal record(s): "
        f"{len(streams['health'])} health, "
        f"{len(streams['batches'])} batch, "
        f"{len(streams['queries'])} query, "
        f"{len(streams['alerts'])} alert)",
        _rule(width, "="),
    ]
    _slo_panel(evaluator, streams["alerts"], lines)
    lines.append(_rule(width))
    _serving_panel(streams["health"], lines)
    lines.append(_rule(width))
    if streams["replicas"]:
        _replication_panel(streams["replicas"], width, lines)
        lines.append(_rule(width))
    _memory_panel(streams["batches"], width, lines)
    _latency_panel(streams, width, lines)
    warnings = seq_warnings(streams)
    lines.append(_rule(width))
    if warnings:
        lines.append("Sequence check: WARNING")
        for warning in warnings:
            lines.append(f"  ! {warning}")
    else:
        lines.append("Sequence check: ok (seq streams contiguous)")
    return "\n".join(lines) + "\n"


def dashboard_from_journal(
    path: str,
    slos: Optional[Sequence[SLO]] = None,
    width: int = 72,
) -> Tuple[str, Dict[str, List[Dict]]]:
    """Read a journal and render one frame; returns (text, streams)."""
    streams = split_journal(read_journal(path))
    text = render_dashboard(streams, slos=slos, width=width,
                            title=f"repro dash — {path}")
    return text, streams
