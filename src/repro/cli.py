"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``   print statistics for a graph spec.
``run``    stream mutation batches through an engine and report
           per-batch latency/work (optionally validating every batch
           against from-scratch execution).  ``--json`` emits the
           records as JSON lines; ``--trace-out`` journals the full
           span tree (see ``docs/observability.md``).
``trace``  replay a workload under the tracer and render a per-batch
           phase-time breakdown.
``experiment``  declarative experiment matrix: expand a YAML run table
           (topology x scale x engine x backend x storage x scenario)
           into deterministic engine runs, emit the
           schema-versioned ``BENCH_<area>.json`` payload plus a
           paper-style table (the paper's own rows for the
           table5/table7/table8/figure7 grids), and gate it against
           the committed baseline (``--gate report|enforce|off``; see
           ``docs/testing.md`` "Experiment matrix").
``fuzz``   differential fuzzing: drive seeded adversarial workloads
           through every engine and cross-check per-batch
           BSP-equivalence (see ``docs/testing.md``).  ``--trace-out``
           attaches span dumps of shrunk failures to a JSONL journal.
           ``--crash`` switches to the crash-recovery fuzzer: kill a
           durable server at a seeded failpoint, recover from
           checkpoint + WAL, and assert bit-for-bit equivalence (see
           ``docs/operations.md``).  ``--crash --sweep NAME`` runs
           one acceptance sweep of the scenario table instead of the
           random campaign: ``durable`` / ``resilient`` (a kill at
           every server / admission failpoint), ``replicated``
           (writer-kill, replica-kill, segment-drop,
           stale-writer-fence), ``chaos`` (five seeds of a lossy
           transport plus a black-hole link that must dead-letter,
           never hang) or ``storage`` (torn snapshot segments).
``serve``  run a durable streaming deployment: ingest seeded batches
           with a write-ahead log and periodic atomic checkpoints
           (``--wal DIR --checkpoint-every N``).  Every batch is
           submitted through the overload-resilience layer (bounded
           queue, ``--admission`` pressure policy, circuit breaker);
           ``--status`` prints the health
           snapshot and ``--health-journal`` appends one per batch;
           ``--poison-every`` + ``--query-every`` form the
           overload soak (exit 1 on unserved queries or a
           blown restore budget).  ``--slo FILE`` evaluates burn-rate
           alerts per applied batch, ``--wide-events PATH`` journals
           one wide event per batch/query, ``--plant-latency K:S``
           plants a deterministic latency fault, and
           ``--metrics-out`` / ``--serve-metrics PORT`` export the
           registry in Prometheus text format.  ``--replicas N`` ships
           the WAL tail + checkpoints to N read replicas
           (``--kill-replica I:AT[:RESTART]`` for the
           replication-soak; exit 1 if a live replica never
           converges).
``dash``   render the operational dashboard from a serve journal:
           SLO status and burn rates, breaker/queue state, alert
           history, sparkline latency trends, and the seq gap check.
           ``--once`` prints a single frame (``--expect-alert`` /
           ``--expect-resolved`` / ``--expect-clean`` turn it into a
           CI assertion); without it the frame re-renders on
           ``--interval``.
``slo-lint``  validate SLO YAML files (default: every file under
           ``benchmarks/slos/``); exit 1 on any invalid file.
``recover`` restore a crashed ``serve`` deployment from its state
           directory (newest loadable checkpoint + WAL-tail replay);
           ``--verify`` re-runs the schedule from scratch and checks
           the recovered values bit-for-bit.
``replication-status`` inspect a replicated state directory tree
           offline: writer/replica WAL positions, cluster epoch, fence
           ledgers, dead-letter count, scrub verdicts -- usable while
           nothing is serving.
``scrub``  re-verify every CRC in a state directory (WAL records,
           checkpoint payloads, snapshot-store segments) and report
           bit-rot; ``--repair`` heals what can be healed standalone
           (bit-for-bit direction rebuild, covered-WAL GC, checkpoint
           sidelining) and exits 1 if damage remains.

Graph specs
-----------
``rmat:<scale>[:edge_factor]``, ``ws:<vertices>[:neighbors]``,
``er:<vertices>:<edges>``, ``paper:<WK|UK|TW|TT|FT|YH>``, or
``file:<path>`` (edge-list text or ``.npz``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import List, Optional

import numpy as np

from repro.algorithms.registry import REGISTRY
from repro.bench.harness import ENGINES, TABLE5_ENGINES
from repro.bench.reporting import format_table
from repro.bench.workloads import uniform_batch
from repro.graph import generators, io
from repro.graph.csr import CSRGraph
from repro.graph.properties import graph_stats
from repro.graph.storage import store_from_spec
from repro.ligra.engine import LigraEngine
from repro.obs import JsonlJournal, Tracer, format_trace, trace
from repro.testing.oracle import compare_snapshots

__all__ = ["main"]


def parse_graph(spec: str) -> CSRGraph:
    """Build a graph from a command-line spec (see module docstring)."""
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    if kind == "rmat":
        scale = int(parts[0]) if parts else 10
        edge_factor = int(parts[1]) if len(parts) > 1 else 8
        return generators.rmat(scale, edge_factor, seed=1,
                               weighted=True)
    if kind == "ws":
        vertices = int(parts[0]) if parts else 1000
        neighbors = int(parts[1]) if len(parts) > 1 else 4
        return generators.watts_strogatz(vertices, neighbors, seed=1,
                                         weighted=True)
    if kind == "er":
        if len(parts) < 2:
            raise ValueError("er spec needs er:<vertices>:<edges>")
        return generators.erdos_renyi(int(parts[0]), int(parts[1]),
                                      seed=1)
    if kind == "paper":
        if not parts:
            raise ValueError("paper spec needs paper:<name>")
        return generators.paper_graph(parts[0])
    if kind == "file":
        if not parts:
            raise ValueError("file spec needs file:<path>")
        path = ":".join(parts)
        if path.endswith(".npz"):
            return io.load_npz(path)
        return io.load_edge_list(path)
    raise ValueError(f"unknown graph spec {spec!r}")


def _cmd_info(args) -> int:
    graph = parse_graph(args.graph)
    stats = graph_stats(graph)
    rows = [[key, value] for key, value in stats.as_dict().items()]
    print(format_table(["property", "value"], rows,
                       title=f"graph {args.graph}"))
    return 0


def _spec_of(args) -> str:
    """Graph spec from the positional argument or ``--graph``."""
    return args.graph_spec if args.graph_spec else args.graph


def _replay(runner, args):
    """Drive the batch schedule; yields per-batch measurements."""
    for index in range(args.batches):
        batch = uniform_batch(runner.graph, args.batch_size,
                              seed=args.seed + index)
        before = runner.metrics.snapshot()
        start = time.perf_counter()
        values = runner.apply(batch)
        elapsed = time.perf_counter() - start
        delta = runner.metrics.delta_since(before)
        yield index, batch, values, elapsed, delta


def _cmd_run(args) -> int:
    spec = _spec_of(args)
    store = store_from_spec(args.snapshot_store)
    graph = store.publish(parse_graph(spec))
    factory = REGISTRY[args.algorithm].factory
    runner = ENGINES[args.engine](factory, args.iterations)

    with contextlib.ExitStack() as stack:
        journal: Optional[JsonlJournal] = None
        if args.trace_out:
            journal = stack.enter_context(JsonlJournal.open(args.trace_out))
            stack.enter_context(trace.activated(Tracer(sink=journal)))
        stdout_journal = JsonlJournal(sys.stdout) if args.json else None

        start = time.perf_counter()
        runner.setup(graph)
        setup_seconds = time.perf_counter() - start
        header = {
            "type": "run", "engine": args.engine,
            "algorithm": args.algorithm, "graph": spec,
            "vertices": graph.num_vertices, "edges": graph.num_edges,
            "iterations": args.iterations, "seed": args.seed,
            "store": store.describe(),
            "setup_seconds": round(setup_seconds, 6),
        }
        if journal is not None:
            journal.write(header)
        if stdout_journal is not None:
            stdout_journal.write(header)
        else:
            print(f"{args.engine} / {args.algorithm} on {spec} "
                  f"(V={graph.num_vertices}, E={graph.num_edges}); "
                  f"initial run {setup_seconds:.3f}s")

        rows: List[List] = []
        values = None
        for index, batch, values, elapsed, delta in _replay(runner, args):
            record = {
                "type": "batch", "index": index, "mutations": len(batch),
                "seconds": round(elapsed, 6),
                "edge_computations": delta.edge_computations,
                "vertex_computations": delta.vertex_computations,
                "phase_seconds": {
                    phase: round(seconds, 6)
                    for phase, seconds in delta.phase_seconds.items()
                },
            }
            if args.validate:
                truth = LigraEngine(factory()).run(runner.graph,
                                                   args.iterations)
                # The fuzz oracle's comparison: the maximum relative
                # error, inf when the non-finite entries differ.
                verdict = compare_snapshots(values, truth, 0.0)
                record["max_error"] = (0.0 if verdict is None
                                       else verdict[2])
            if journal is not None:
                journal.write(record)
            if stdout_journal is not None:
                stdout_journal.write(record)
            else:
                row = [index, len(batch), round(elapsed, 4),
                       delta.edge_computations]
                if args.validate:
                    row.append(f"{record['max_error']:.1e}")
                rows.append(row)

        if stdout_journal is None:
            headers = ["batch", "mutations", "seconds",
                       "edge_computations"]
            if args.validate:
                headers.append("max_error")
            print(format_table(headers, rows))
        if args.output:
            np.savez_compressed(args.output, values=values)
            if stdout_journal is None:
                print(f"final values -> {args.output}")
    return 0


def _cmd_trace(args) -> int:
    spec = _spec_of(args)
    graph = parse_graph(spec)
    factory = REGISTRY[args.algorithm].factory
    runner = ENGINES[args.engine](factory, args.iterations)

    with contextlib.ExitStack() as stack:
        sink = None
        if args.trace_out:
            sink = stack.enter_context(JsonlJournal.open(args.trace_out))
        tracer = Tracer(sink=sink)
        stack.enter_context(trace.activated(tracer))
        runner.setup(graph)
        for _ in _replay(runner, args):
            pass
    print(format_trace(
        tracer.events(),
        title=(f"{args.engine} / {args.algorithm} on {spec} "
               f"({args.batches} batches of {args.batch_size})"),
    ))
    if tracer.dropped:
        print(f"WARNING: span ring buffer overflowed; the oldest "
              f"{tracer.dropped} span(s) are missing from the "
              f"breakdown above"
              + (" (the --trace-out journal has every span)"
                 if args.trace_out else
                 " -- add --trace-out to keep the full stream"))
    if args.trace_out:
        print(f"span journal -> {args.trace_out}")
    return 0


def _cmd_experiment(args) -> int:
    import json as _json
    import os

    from repro.bench import gate as gate_mod
    from repro.bench import matrix as matrix_mod
    from repro.bench.experiments import REDUCERS, render_table
    from repro.bench.reporting import results_dir

    if args.list:
        for name in sorted(os.listdir(matrix_mod.matrices_dir())):
            if name.endswith(".yaml"):
                print(name[:-len(".yaml")])
        return 0
    if not args.matrix:
        print("experiment needs --matrix PATH (or --list)")
        return 2
    table = matrix_mod.load_table(args.matrix)
    payload = matrix_mod.run_matrix(
        table, progress=lambda run_id: print(f"  run {run_id}"))
    matrix_mod.validate_payload(payload)
    print(render_table(payload))
    if payload["area"] in REDUCERS:
        print(render_table(REDUCERS[payload["area"]](payload)))
    out_dir = args.out_dir or results_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        matrix_mod.payload_filename(payload["area"]))
    with open(path, "w") as handle:
        _json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[payload -> {path}]")
    if args.update_baseline:
        baseline_path = gate_mod.save_baseline(
            payload, args.baseline_dir)
        print(f"[baseline refreshed -> {baseline_path}]")
        return 0
    report = gate_mod.run_gate(payload, mode=args.gate,
                               baseline_directory=args.baseline_dir)
    if report is None:
        if args.gate != "off":
            print(f"[no baseline for area {payload['area']!r}; "
                  f"run with --update-baseline to start the "
                  f"trajectory]")
        return 0
    print(report.format())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    with contextlib.ExitStack() as stack:
        if args.trace_out:
            journal = stack.enter_context(JsonlJournal.open(args.trace_out))
            stack.enter_context(trace.activated(Tracer(sink=journal)))
        return _serve(args)


def _serve(args) -> int:
    import os

    from repro.obs.events import WideEventEmitter
    from repro.obs.export import MetricsHTTPServer, write_metrics
    from repro.obs.slo import SLOEvaluator, load_slo_file
    from repro.recovery import RecoveryManager
    from repro.runtime.deadline import WallClockDeadline
    from repro.serving.observe import PlantedLatency, ServingObserver
    from repro.serving.resilience import (
        BreakerConfig,
        ResilientAnalyticsServer,
    )
    from repro.serving.server import StreamingAnalyticsServer
    from repro.testing import faults

    if args.poison_every and not args.wal:
        print("--poison-every needs --wal: poison batches are "
              "quarantined through the recovery path")
        return 2
    if args.replicas and not args.wal:
        print("--replicas needs --wal: replicas replay the writer's "
              "shipped WAL segments and checkpoints")
        return 2
    if args.kill_replica and not args.replicas:
        print("--kill-replica needs --replicas")
        return 2
    kill_plan = None
    if args.kill_replica:
        parts = args.kill_replica.split(":")
        if len(parts) not in (2, 3):
            print("--kill-replica must be I:AT or I:AT:RESTART "
                  "(replica index, kill batch, restart batch)")
            return 2
        kill_plan = (f"r{int(parts[0])}", int(parts[1]),
                     int(parts[2]) if len(parts) == 3 else None)

    spec = _spec_of(args)
    # An mmap store without an explicit directory spools next to the
    # WAL, so checkpoints' manifest references survive restarts.
    store = store_from_spec(
        args.snapshot_store,
        default_root=os.path.join(args.wal, "store") if args.wal
        else None,
    )
    graph = store.publish(parse_graph(spec))
    recovery = None
    if args.wal:
        recovery = RecoveryManager(
            args.wal, checkpoint_every=args.checkpoint_every,
            retain=args.retain,
        )
        recovery.write_manifest({
            "algorithm": args.algorithm,
            "graph": spec,
            "approx_iterations": args.iterations,
            "batch_size": args.batch_size,
            "seed": args.seed,
        })
    server = StreamingAnalyticsServer(
        REGISTRY[args.algorithm].factory, graph,
        approx_iterations=args.iterations, recovery=recovery,
    )
    resilient = ResilientAnalyticsServer(
        server,
        queue_capacity=args.queue_capacity,
        admission=args.admission,
        breaker=BreakerConfig(
            quarantine_threshold=args.breaker_quarantine_threshold,
            cooldown_submits=args.breaker_cooldown,
        ),
    )
    cluster = None
    if args.replicas:
        from repro.serving.replication import ReplicationCluster

        cluster = ReplicationCluster(
            resilient, REGISTRY[args.algorithm].factory, args.wal,
            replicas=args.replicas,
        )
    journal = (JsonlJournal.open(args.health_journal)
               if args.health_journal else None)
    # The wide-event journal may be the same file as the health
    # journal: share the handle, two "w" opens would clobber.
    wide_journal = None
    if args.wide_events:
        if (args.health_journal and os.path.abspath(args.wide_events)
                == os.path.abspath(args.health_journal)):
            wide_journal = journal
        else:
            wide_journal = JsonlJournal.open(args.wide_events)
    evaluator = None
    if args.slo or args.wide_events or args.plant_latency:
        if args.slo:
            evaluator = SLOEvaluator(
                load_slo_file(args.slo),
                journal=wide_journal if wide_journal is not None
                else journal,
            )
        resilient.observer = ServingObserver(
            evaluator=evaluator,
            emitter=(WideEventEmitter(journal=wide_journal)
                     if args.wide_events else None),
            planted_latency=(PlantedLatency.parse(args.plant_latency)
                             if args.plant_latency else None),
            staleness_probe=(cluster.staleness if cluster is not None
                             else None),
        )
    metrics_server = None
    if args.serve_metrics is not None:
        metrics_server = MetricsHTTPServer(port=args.serve_metrics)
        print(f"metrics endpoint: {metrics_server.url}")
    failpoints = faults.get_failpoints()
    queries_attempted = 0
    queries_answered = 0
    poisons_planted = 0
    rows: List[List] = []
    for index in range(args.batches):
        batch = uniform_batch(server.graph, args.batch_size,
                              seed=args.seed + index)
        start = time.perf_counter()
        if kill_plan is not None:
            name, kill_at, restart_at = kill_plan
            if index == kill_at:
                cluster.kill_replica(name)
            if restart_at is not None and index == restart_at:
                cluster.restart_replica(name)
        if args.poison_every and (index + 1) % args.poison_every == 0:
            # Plant-a-fault poison: the next refinement pass fails with
            # a transient fault, which the durable loop quarantines --
            # a flapping poison source.
            failpoints.arm(
                "engine.refine", kind="fault",
                hit=failpoints.hit_count("engine.refine") + 1,
            )
            poisons_planted += 1
        resilient.submit(batch, pump=not args.burst
                         or (index + 1) % args.burst == 0)
        if args.query_every and (index + 1) % args.query_every == 0:
            queries_attempted += 1
            resilient.query(deadline=None if args.deadline is None
                            else WallClockDeadline(args.deadline))
            queries_answered += 1
        if cluster is not None:
            cluster.replicate()
            observer = resilient.observer
            if observer is not None and observer.emitter is not None:
                cluster.observe_replicas(observer.emitter)
        if journal is not None:
            resilient.record_health(journal)
        rows.append([index, len(batch),
                     round(time.perf_counter() - start, 4)])
    resilient.drain()
    if cluster is not None:
        cluster.sync()
    if journal is not None:
        resilient.record_health(journal)
        journal.close()
    if wide_journal is not None and wide_journal is not journal:
        wide_journal.close()
    print(format_table(
        ["batch", "mutations", "seconds"], rows,
        title=f"serve {args.algorithm} on {spec}"
        + (f" (durable: {args.wal})" if args.wal else ""),
    ))
    if recovery is not None:
        generations = recovery.checkpoints()
        print(f"state: {recovery.wal.next_seq} batch(es) WAL-logged, "
              f"{server.batches_ingested} ingested, "
              f"{len(generations)} checkpoint generation(s), newest at "
              f"seq {generations[-1][0] if generations else '-'}, "
              f"{len(recovery.quarantined)} quarantined")
    status = 0
    health = resilient.health()
    if args.status:
        print(f"health: {health.to_json()}")
    if queries_attempted and queries_answered < queries_attempted:
        print(f"SOAK FAIL: {queries_attempted - queries_answered} "
              f"of {queries_attempted} queries went unserved")
        status = 1
    if poisons_planted:
        budget = resilient.breaker.restore_budget(resilient.submitted)
        if server.restores > budget:
            print(f"SOAK FAIL: {server.restores} restores exceed "
                  f"the breaker budget of {budget}")
            status = 1
    if poisons_planted and health.quarantine_count > poisons_planted:
        print(f"SOAK FAIL: {health.quarantine_count} quarantines "
              f"for {poisons_planted} planted poisons")
        status = 1
    if cluster is not None:
        summary = cluster.status()
        parts = []
        for name, info in summary["replicas"].items():
            parts.append(
                f"{name}={'up' if info['alive'] else 'DOWN'}"
                f"/lag={info['lag_batches']}"
                + (f"/rejections={info['fence_rejections']}"
                   if info["fence_rejections"] else "")
            )
        print(f"replication: epoch={summary['epoch']}  "
              + "  ".join(parts))
        alive_lag = max(
            (info["lag_batches"]
             for info in summary["replicas"].values()
             if info["alive"]),
            default=0,
        )
        if alive_lag:
            print(f"SOAK FAIL: live replica still lags {alive_lag} "
                  f"record(s) after the final sync (never converged)")
            status = 1
        cluster.close()
    if evaluator is not None:
        fired = [alert for alert in evaluator.alerts
                 if alert.state == "firing"]
        still = evaluator.firing
        print(f"slo: {len(fired)} alert(s) fired"
              + (f"; firing at exit: {', '.join(still)}" if still
                 else ""))
        for alert in fired:
            print(f"  [{alert.severity}] batch {alert.index}: "
                  f"{alert.slo} fast={alert.fast_burn:.1f}x "
                  f"slow={alert.slow_burn:.1f}x"
                  + (f"  [runbook: {alert.runbook}]"
                     if alert.runbook else ""))
    if args.metrics_out:
        write_metrics(args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    if metrics_server is not None:
        metrics_server.close()
    if recovery is not None:
        recovery.close()
    return status


def _cmd_dash(args) -> int:
    from repro.obs.dash import dashboard_from_journal, replay_slos
    from repro.obs.slo import load_slo_file

    slos = load_slo_file(args.slo) if args.slo else None
    refreshes = 1 if args.once else args.refreshes
    rendered = 0
    streams = None
    while True:
        try:
            text, streams = dashboard_from_journal(
                args.from_journal, slos=slos, width=args.width)
        except FileNotFoundError:
            print(f"journal not found: {args.from_journal}")
            return 2
        print(text, end="")
        rendered += 1
        if refreshes and rendered >= refreshes:
            break
        time.sleep(args.interval)
    # Firing alerts come from journaled alert records plus (when an SLO
    # file is given) the deterministic replay of the wide events --
    # a journal without an evaluator attached still assertable.
    fired = {record.get("slo") for record in streams["alerts"]
             if record.get("state") == "firing"}
    resolved = {record.get("slo") for record in streams["alerts"]
                if record.get("state") == "resolved"}
    if slos:
        replayed = replay_slos(slos, streams["batches"]).alerts
        fired |= {alert.slo for alert in replayed
                  if alert.state == "firing"}
        resolved |= {alert.slo for alert in replayed
                     if alert.state == "resolved"}
    status = 0
    if args.expect_alert is not None:
        ok = bool(fired) if args.expect_alert == "any" \
            else args.expect_alert in fired
        if not ok:
            print(f"EXPECT FAIL: no firing alert"
                  + ("" if args.expect_alert == "any"
                     else f" named {args.expect_alert!r}")
                  + " in the journal")
            status = 1
    if args.expect_resolved is not None:
        ok = bool(resolved) if args.expect_resolved == "any" \
            else args.expect_resolved in resolved
        if not ok:
            print(f"EXPECT FAIL: no resolved alert"
                  + ("" if args.expect_resolved == "any"
                     else f" named {args.expect_resolved!r}")
                  + " in the journal")
            status = 1
    if args.expect_clean and fired:
        print(f"EXPECT FAIL: alert(s) fired in a run expected clean: "
              + ", ".join(sorted(name or "?" for name in fired)))
        status = 1
    return status


def _cmd_slo_lint(args) -> int:
    import os

    from repro.obs.slo import lint_slo_dir, lint_slo_file, slos_dir

    targets = args.paths or [slos_dir()]
    problems = 0
    checked = 0
    for target in targets:
        results = (lint_slo_dir(target) if os.path.isdir(target)
                   else {target: lint_slo_file(target)})
        for path in sorted(results):
            checked += 1
            errors = results[path]
            if errors:
                problems += 1
                print(f"{path}: FAIL")
                for error in errors:
                    print(f"  - {error}")
            else:
                print(f"{path}: ok")
    print(f"{checked} file(s) checked, {problems} with problems")
    return 1 if problems or not checked else 0


def _cmd_recover(args) -> int:
    from repro.recovery import RecoveryManager

    recovery = RecoveryManager(args.state_dir)
    try:
        return _recover(args, recovery)
    finally:
        recovery.close()


def _recover(args, recovery) -> int:
    manifest = recovery.read_manifest()
    if manifest["algorithm"] not in REGISTRY:
        print(f"{args.state_dir}: algorithm {manifest['algorithm']!r} is "
              f"not registered (choose from {sorted(REGISTRY)})")
        return 2
    factory = REGISTRY[manifest["algorithm"]].factory
    server = recovery.recover(factory)
    values = server.approximate_values
    print(f"recovered {manifest['algorithm']} on {manifest['graph']}: "
          f"{server.batches_ingested} batch(es) replayed into a live "
          f"server, |values|_1 = {float(np.abs(values).sum()):.6g}, "
          f"{len(recovery.quarantined)} quarantined, "
          f"{recovery.wal.torn_records_truncated} torn record(s) "
          f"truncated")
    if not args.verify:
        return 0
    from repro.serving.server import StreamingAnalyticsServer

    # The WAL's own records are what the live loop applied (a coalesced
    # batch under its new seq, the records it skipped skip-marked), so
    # the shadow replays them from the initial graph.
    records = [(seq, batch) for seq, batch in recovery.wal.replay()
               if seq < server.batches_ingested]
    if [seq for seq, _ in records] != list(range(server.batches_ingested)):
        print("verify: the WAL no longer starts at seq 0 (gc removed "
              "segments a checkpoint covers), so there is no schedule "
              "to replay from the initial graph")
        return 2
    shadow = StreamingAnalyticsServer(
        factory, parse_graph(manifest["graph"]),
        approx_iterations=manifest["approx_iterations"],
    )
    for seq, batch in records:
        if seq not in recovery.quarantined:
            shadow.ingest(batch)
    verdict = compare_snapshots(values, shadow.approximate_values,
                                tolerance=0.0)
    if verdict is not None:
        print(f"verify: MISMATCH -- {verdict[1]}")
        return 1
    print("verify: recovered state is bit-for-bit equal to an "
          "uninterrupted replay")
    return 0


def _cmd_replication_status(args) -> int:
    import json as _json

    from repro.serving.replication import replication_status

    print(_json.dumps(replication_status(args.state_dir), indent=2,
                      sort_keys=True))
    return 0


def _cmd_scrub(args) -> int:
    import json as _json

    from repro.recovery.scrub import scrub_state_dir

    report = scrub_state_dir(args.state_dir, store_root=args.store_root,
                             repair=args.repair)
    if args.json:
        print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        for finding in report.findings:
            status = "repaired" if finding.repaired else "UNREPAIRED"
            line = (f"  [{status}] {finding.kind} {finding.path}: "
                    f"{finding.detail}")
            if finding.repair:
                line += f" -- {finding.repair}"
            print(line)
    if report.ok:
        return 0
    return 0 if (args.repair and report.repaired) else 1


def _cmd_fuzz(args) -> int:
    from repro.testing import parse_budget, run_fuzz

    if (args.plant_fault or args.sweep) and not args.crash:
        print("--plant-fault and --sweep require --crash")
        return 2
    if args.crash:
        from repro.testing.crash import (
            run_crash_fuzz,
            run_plant_fault,
            sweep,
        )

        if args.plant_fault:
            return 0 if run_plant_fault(seed=args.seed) else 1
        if args.sweep:
            rounds = sweep(args.sweep, seed=args.seed,
                           state_root=args.artifacts_dir, emit=print)
        else:
            rounds = run_crash_fuzz(
                seed=args.seed,
                rounds=args.rounds,
                algorithms=args.algorithms or None,
                max_vertices=min(args.max_vertices, 48),
                max_batches=args.max_batches,
                checkpoint_every=args.checkpoint_every,
                artifacts_dir=args.artifacts_dir,
            )
        return 0 if all(round_.ok for round_ in rounds) else 1
    outcome = run_fuzz(
        seed=args.seed,
        workloads=args.workloads,
        budget_seconds=parse_budget(args.budget),
        algorithms=args.algorithms or None,
        engines=args.engines or None,
        max_vertices=args.max_vertices,
        max_batches=args.max_batches,
        do_shrink=not args.no_shrink,
        plant_bug=args.plant_bug,
        trace_path=args.trace_out,
    )
    if args.plant_bug:
        # Self-test: success means the deliberately broken strategy WAS
        # caught (and therefore the oracle is not passing vacuously).
        caught = any(
            divergence.engine == "naive"
            for report in outcome.failures
            for divergence in report.divergences
        )
        return 0 if caught else 1
    return 0 if outcome.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphBolt reproduction: streaming graph analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print graph statistics")
    info.add_argument("--graph", default="rmat:10", help="graph spec")
    info.set_defaults(handler=_cmd_info)

    def add_stream_options(parser, default_graph: str) -> None:
        parser.add_argument("graph_spec", nargs="?", default=None,
                            help="graph spec (overrides --graph)")
        parser.add_argument("--algorithm", choices=sorted(REGISTRY),
                            default="pagerank")
        parser.add_argument("--engine", choices=sorted(TABLE5_ENGINES),
                            default="graphbolt")
        parser.add_argument("--graph", default=default_graph,
                            help="graph spec")
        parser.add_argument("--iterations", type=int, default=10)
        parser.add_argument("--batches", type=int, default=5)
        parser.add_argument("--batch-size", type=int, default=100)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--trace-out", default=None,
                            help="write the span journal to this JSONL "
                                 "file")

    def add_store_option(parser) -> None:
        parser.add_argument("--snapshot-store", default="heap",
                            metavar="KIND[:DIR]",
                            help="snapshot storage tier: 'heap' "
                                 "(default) keeps CSR arrays in "
                                 "memory; 'mmap[:dir]' spools them to "
                                 "CRC-guarded segment files reopened "
                                 "as memmaps (out-of-core)")

    run = sub.add_parser("run", help="stream mutations through an engine")
    add_stream_options(run, default_graph="rmat:12")
    add_store_option(run)
    run.add_argument("--validate", action="store_true",
                     help="check every batch against from-scratch run")
    run.add_argument("--json", action="store_true",
                     help="emit per-batch records as JSON lines instead "
                          "of the table")
    run.add_argument("--output", help="write final values to .npz")
    run.set_defaults(handler=_cmd_run)

    trace_cmd = sub.add_parser(
        "trace",
        help="replay a workload under the tracer and render the "
             "per-batch phase breakdown",
    )
    add_stream_options(trace_cmd, default_graph="rmat:10")
    trace_cmd.set_defaults(handler=_cmd_trace)

    experiment = sub.add_parser(
        "experiment",
        help="declarative experiment matrix + perf-trajectory gate",
    )
    experiment.add_argument("--matrix", default=None,
                            help="run-table YAML path, or a name under "
                                 "benchmarks/matrices/")
    experiment.add_argument("--list", action="store_true",
                            help="list the bundled run tables and exit")
    experiment.add_argument("--out-dir", default=None,
                            help="directory for the emitted "
                                 "BENCH_<area>.json (default: "
                                 "benchmarks/results/)")
    experiment.add_argument("--baseline-dir", default=None,
                            help="committed-baseline directory "
                                 "(default: benchmarks/baselines/)")
    experiment.add_argument("--gate", default="report",
                            choices=["off", "report", "enforce"],
                            help="regression-gate mode: report "
                                 "(default) prints verdicts but always "
                                 "exits 0; enforce exits 1 on any "
                                 "regression beyond threshold")
    experiment.add_argument("--update-baseline", action="store_true",
                            help="write this payload as the new "
                                 "committed baseline instead of gating")
    experiment.set_defaults(handler=_cmd_experiment)

    serve = sub.add_parser(
        "serve",
        help="durable streaming deployment (WAL + checkpoints)",
    )
    add_stream_options(serve, default_graph="rmat:10")
    add_store_option(serve)
    serve.add_argument("--wal", default=None, metavar="DIR",
                       help="state directory for the write-ahead log "
                            "and checkpoints (omit for an ephemeral "
                            "server)")
    serve.add_argument("--checkpoint-every", type=int, default=16,
                       help="checkpoint cadence in batches")
    serve.add_argument("--retain", type=int, default=3,
                       help="checkpoint generations to keep")
    serve.add_argument("--replicas", type=int, default=0, metavar="N",
                       help="attach N WAL-shipped read replicas behind "
                            "the writer (needs --wal; see "
                            "docs/operations.md 'Replication and "
                            "failover')")
    serve.add_argument("--kill-replica", default=None,
                       metavar="I:AT[:RESTART]",
                       help="kill replica I before batch AT (and "
                            "restart it before batch RESTART) -- the "
                            "replication-soak fault plan")
    serve.add_argument("--admission", default="block",
                       choices=["block", "shed-oldest", "coalesce"],
                       help="admission queue pressure policy (see "
                            "docs/operations.md)")
    serve.add_argument("--queue-capacity", type=int, default=8,
                       help="admission queue capacity in batches")
    serve.add_argument("--burst", type=int, default=0,
                       help="submit in bursts of N batches, applying "
                            "only at burst boundaries (builds queue "
                            "pressure; 0 = apply every batch)")
    serve.add_argument("--breaker-quarantine-threshold", type=int,
                       default=3,
                       help="consecutive quarantines that trip the "
                            "breaker")
    serve.add_argument("--breaker-cooldown", type=int, default=4,
                       help="deferred submissions before a half-open "
                            "probe")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-query wall-clock budget in seconds "
                            "(expired queries return degraded results)")
    serve.add_argument("--query-every", type=int, default=0,
                       help="issue a branch-loop query every N batches")
    serve.add_argument("--poison-every", type=int, default=0,
                       help="plant a transient refinement fault every "
                            "N batches (overload-soak poison source; "
                            "needs --wal)")
    serve.add_argument("--health-journal", default=None, metavar="PATH",
                       help="append a health snapshot per batch to this "
                            "JSONL file")
    serve.add_argument("--status", action="store_true",
                       help="print the final health snapshot (queue "
                            "depth, staleness, breaker state, "
                            "quarantines)")
    serve.add_argument("--slo", default=None, metavar="FILE",
                       help="evaluate this SLO file per applied batch "
                            "(a name under benchmarks/slos/ or a "
                            "path); alerts are journaled and printed")
    serve.add_argument("--wide-events", default=None, metavar="PATH",
                       help="journal one wide event per applied batch "
                            "and served query to this JSONL file (may "
                            "equal --health-journal)")
    serve.add_argument("--plant-latency", default=None,
                       metavar="INDEX:SECONDS",
                       help="deterministic latency fault: from batch "
                            "INDEX onward the SLO evaluator sees "
                            "SECONDS as the ingest latency sample")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics registry in Prometheus "
                            "text format at exit")
    serve.add_argument("--serve-metrics", type=int, default=None,
                       metavar="PORT",
                       help="expose /metrics over HTTP on PORT for the "
                            "duration of the run (0 picks a free port)")
    serve.set_defaults(handler=_cmd_serve)

    dash = sub.add_parser(
        "dash",
        help="operational dashboard over a serve journal",
    )
    dash.add_argument("--from-journal", required=True, metavar="PATH",
                      help="JSONL journal written by `repro serve` "
                           "(--health-journal / --wide-events)")
    dash.add_argument("--slo", default=None, metavar="FILE",
                      help="replay this SLO file over the journaled "
                           "wide events (reproduces the live burn "
                           "rates and alert indices exactly)")
    dash.add_argument("--once", action="store_true",
                      help="render a single frame and exit")
    dash.add_argument("--interval", type=float, default=2.0,
                      help="seconds between live re-renders")
    dash.add_argument("--refreshes", type=int, default=0,
                      help="stop after N frames (0 = until "
                           "interrupted; --once means 1)")
    dash.add_argument("--width", type=int, default=72,
                      help="dashboard width in columns")
    dash.add_argument("--expect-alert", default=None, metavar="NAME",
                      help="exit 1 unless a firing alert (named NAME, "
                           "or any with 'any') is in the journal or "
                           "the --slo replay")
    dash.add_argument("--expect-resolved", default=None, metavar="NAME",
                      help="exit 1 unless an alert (named NAME, or any "
                           "with 'any') resolved in the journal or the "
                           "--slo replay -- the recovery edge of the "
                           "replication-soak")
    dash.add_argument("--expect-clean", action="store_true",
                      help="exit 1 if any firing alert is found")
    dash.set_defaults(handler=_cmd_dash)

    slo_lint = sub.add_parser(
        "slo-lint",
        help="validate SLO YAML files (default: benchmarks/slos/)",
    )
    slo_lint.add_argument("paths", nargs="*",
                          help="SLO files or directories to lint")
    slo_lint.set_defaults(handler=_cmd_slo_lint)

    recover = sub.add_parser(
        "recover",
        help="restore a crashed `serve --wal` deployment from disk",
    )
    recover.add_argument("state_dir", help="the serve --wal directory")
    recover.add_argument("--verify", action="store_true",
                         help="replay the schedule from scratch and "
                              "compare bit-for-bit")
    recover.set_defaults(handler=_cmd_recover)

    fuzz = sub.add_parser(
        "fuzz", help="cross-engine differential fuzzing"
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first workload seed (workload i uses seed+i)")
    fuzz.add_argument("--workloads", type=int, default=25,
                      help="number of workloads to generate")
    fuzz.add_argument("--budget", default=None,
                      help="wall-clock budget, e.g. 45, 30s, 2m")
    fuzz.add_argument("--algorithms", nargs="*", default=None,
                      help="restrict the fuzz algorithm roster")
    fuzz.add_argument("--engines", nargs="*", default=None,
                      help="restrict engines (reference always runs)")
    fuzz.add_argument("--max-vertices", type=int, default=64)
    fuzz.add_argument("--max-batches", type=int, default=6)
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report divergences without minimising them")
    fuzz.add_argument("--trace-out", default=None,
                      help="journal span dumps of (shrunk) failures to "
                           "this JSONL file")
    fuzz.add_argument("--plant-bug", action="store_true",
                      help="self-test: include the known-broken naive "
                           "strategy and succeed only if it is caught")
    fuzz.add_argument("--crash", action="store_true",
                      help="crash-recovery mode: kill a durable server "
                           "at a seeded failpoint, recover from "
                           "checkpoint + WAL, assert bit-for-bit "
                           "equivalence")
    fuzz.add_argument("--rounds", type=int, default=8,
                      help="kill-and-recover rounds (--crash only)")
    fuzz.add_argument("--checkpoint-every", type=int, default=2,
                      help="checkpoint cadence for --crash servers")
    fuzz.add_argument("--artifacts-dir", default=None,
                      help="keep WAL/state + repro for failed --crash "
                           "rounds under this directory")
    fuzz.add_argument("--plant-fault", action="store_true",
                      help="self-test (--crash): arm a transient fault "
                           "and succeed only if the failpoint registry "
                           "fires and retry absorbs it")
    fuzz.add_argument("--sweep", default=None, metavar="NAME",
                      help="with --crash: run one acceptance sweep of "
                           "the kill-and-recover scenario table -- "
                           "durable, resilient, replicated, chaos or "
                           "storage (repro.testing.crash.SWEEPS); "
                           "every row must recover bit-for-bit")
    fuzz.set_defaults(handler=_cmd_fuzz)

    repl_status = sub.add_parser(
        "replication-status",
        help="inspect a replicated state directory tree offline",
    )
    repl_status.add_argument("state_dir",
                             help="the serve --wal directory (replica "
                                  "state lives under replicas/)")
    repl_status.set_defaults(handler=_cmd_replication_status)

    scrub = sub.add_parser(
        "scrub",
        help="re-verify every CRC in a state directory and optionally "
             "repair bit-rot",
    )
    scrub.add_argument("state_dir",
                       help="state directory to scrub (wal/ + "
                            "checkpoints/ + optional snapshot store)")
    scrub.add_argument("--repair", action="store_true",
                       help="heal what can be healed standalone: "
                            "rebuild a damaged CSR/CSC direction "
                            "bit-for-bit from the clean one, GC "
                            "checkpoint-covered WAL damage, sideline "
                            "corrupt checkpoints; exit 1 if damage "
                            "remains")
    scrub.add_argument("--store-root", default=None,
                       help="snapshot-store root holding this node's "
                            "segment files (a replica's spool); "
                            "defaults to the roots referenced by "
                            "manifest-mode checkpoints")
    scrub.add_argument("--json", action="store_true",
                       help="emit the full scrub report as JSON")
    scrub.set_defaults(handler=_cmd_scrub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
