#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, the end-to-end
metrics, and a traced run that attributes a batch to the layers.

One workload, as the external driver runs it (``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload engine_small_batch \\
        --seed 1 --seconds 20 --trace 0      # end-to-end metrics
    python3 benchmarks/e2e/run.py --workload serving_ingest \\
        --seed 1 --seconds 20 --trace 1      # per-layer metrics

All four, one process each, with the tables a person reads::

    python3 benchmarks/e2e/run.py --seed 1             # untraced
    python3 benchmarks/e2e/run.py --seed 1 --trace 1   # + per-layer
    python3 benchmarks/e2e/run.py --seed 1 --repeat 2  # repeatability

See README.md in this directory for the vocabulary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
#: Scratch space (WAL, checkpoints, store segments, replica spools);
#: inside the checkout, ignored by git, removed when a run ends.
SCRATCH = os.path.join(HERE, ".work")
#: Where a traced run leaves its spans (JSONL, one span per line).
ARTIFACTS = os.path.join(HERE, "artifacts")
#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def pin_to_one_core() -> None:
    """One core, one thread: must run before numpy is imported."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def import_paths() -> None:
    """The benchmark's modules and the program under test."""
    for path in (os.path.join(REPO, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def driver_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, trace: bool, seconds: float = None,
                 batches: int = None, scale: int = None) -> dict:
    """Generate inputs, set up, measure, verify; returns the payload.

    The stream holds ``batches`` batches (warm-up included) if given,
    else the workload's nominal count for ``seconds``; the timed part
    stops at the end of the stream or after ``seconds``, whichever
    comes first.
    """
    import_paths()
    import dataclasses

    from inputs import generate
    from vocabulary import WARMUP_BATCHES, WORKLOADS

    if trace and seconds is not None:
        seconds /= 2     # two passes (untraced, traced) share the budget
    spec = WORKLOADS[name]
    if scale is not None:
        # A smoke-sized graph cannot feed full-sized batches.
        shrink = max(0, spec.scale - scale)
        spec = dataclasses.replace(
            spec, scale=scale,
            batch_size=max(10, spec.batch_size >> shrink))
    env_start = environment()
    if batches is not None:
        total = batches
        warmup = min(WARMUP_BATCHES, total // 4)
    else:
        warmup = WARMUP_BATCHES
        total = warmup + int(seconds * spec.batches_per_second)
    limits = dict(seconds=seconds, max_timed=total - warmup)
    inputs = generate(spec.scale, spec.batch_size, total, seed)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        if trace:
            payload = _traced(spec, inputs, seed, warmup, limits)
        else:
            payload = _untraced(spec, inputs, warmup, limits)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    payload.update(
        workload=name, seed=seed, trace=int(trace), scale=spec.scale,
        environment={"start": env_start, "end": environment()},
    )
    return payload


def _pass(spec, inputs, session, warmup, limits, setups: int = 1):
    """Set up ``setups`` times (keeping the last), then run the stream."""
    from workloads import DRIVERS

    setup_walls = []
    for attempt in range(setups):
        driver = DRIVERS[spec.family](spec, inputs, session, SCRATCH)
        try:
            driver.setup()
            setup_walls.append(driver.samples.setup["setup_s"])
            if attempt == setups - 1:
                driver.run(warmup, **limits)
        finally:
            driver.close()
    return driver.samples, setup_walls


def _ops(*passes) -> dict:
    failures = [f for samples in passes for f in samples.failures]
    return {
        "ops_attempted": sum(samples.attempted for samples in passes),
        "ops_failed": len(failures),
        "failures": failures[:20],
    }


def _untraced(spec, inputs, warmup, limits) -> dict:
    from layers import end_to_end
    from spans import NullSession
    from vocabulary import END_TO_END, defined_on

    samples, setup_walls = _pass(spec, inputs, NullSession(), warmup,
                                 limits, setups=SETUP_REPEATS)
    # ru_maxrss is KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    values = end_to_end(samples, statistics.median(setup_walls), peak)
    return {
        "timed_batches": len(samples.batch_s),
        "end_to_end": {m.name: values[m.name]
                       for m in defined_on(END_TO_END, spec.name)},
        "values_crc32": samples.values_crc32,
        **_ops(samples),
    }


def _traced(spec, inputs, seed, warmup, limits) -> dict:
    """An untraced pass and a traced pass over the *same* batches; their
    wall ratio is the tracing overhead, the traced spans give the layers."""
    from inputs import generate
    from layers import end_to_end, per_layer
    from spans import NullSession, SpanTree, TraceSession
    from vocabulary import END_TO_END, PER_LAYER, defined_on

    untraced, _ = _pass(spec, inputs, NullSession(), warmup, limits)
    same = dict(seconds=None, max_timed=len(untraced.batch_s))

    with TraceSession() as session:
        traced, _ = _pass(spec, inputs, session, warmup, same)
        os.makedirs(ARTIFACTS, exist_ok=True)
        artifact = os.path.join(ARTIFACTS, f"spans-{spec.name}.jsonl")
        written = session.write_jsonl(artifact)
        dropped = session.tracer.dropped
        tree = SpanTree(session.tracer.events())
    traced.check(dropped == 0, f"tracer dropped {dropped} spans")

    probe = None
    if spec.family == "engine":
        # Same batch size one scale down: log2 of the cost ratio is the
        # scaling exponent (1 = O(E), 0 = O(batch)).
        import dataclasses

        small = dataclasses.replace(spec, scale=spec.scale - 1)
        probe_inputs = generate(small.scale, small.batch_size,
                                warmup + min(40, same["max_timed"]), seed)
        with TraceSession() as session:
            probe_samples, _ = _pass(small, probe_inputs, session, warmup,
                                     dict(seconds=None, max_timed=None))
            probe_tree = SpanTree(session.tracer.events())
        probe = per_layer(small, probe_samples, probe_samples, probe_tree,
                          None)

    layers = per_layer(spec, untraced, traced, tree, probe)
    exact = {m.name: layers[m.name]
             for m in defined_on(PER_LAYER, spec.name) if m.exact}
    # End-to-end values of the untraced pass, for the metrics the driver
    # records as diagnostics next to the layers (never from traced spans).
    values = end_to_end(untraced, untraced.setup["setup_s"], 0)
    return {
        "timed_batches": len(traced.batch_s),
        "per_layer": layers,
        "diagnostic": {m.name: values[m.name]
                       for m in defined_on(END_TO_END, spec.name)
                       if m.name != "peak_rss_bytes"},
        "exact": exact,
        "values_crc32": traced.values_crc32,
        "spans": {"artifact": os.path.relpath(artifact, REPO),
                  "written": written, "dropped": dropped},
        **_ops(untraced, traced),
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_tables(payload: dict) -> None:
    from vocabulary import BY_NAME

    print(f"== {payload['workload']}  seed={payload['seed']} "
          f"scale={payload['scale']} timed_batches="
          f"{payload['timed_batches']} trace={payload['trace']}")
    titles = {"end_to_end": "end-to-end",
              "diagnostic": "end-to-end, from the untraced pass",
              "per_layer": "per-layer"}
    for section, title in titles.items():
        if section not in payload:
            continue
        print(f"  -- {title}")
        for name, value in payload[section].items():
            metric = BY_NAME[name]
            bound = ("" if metric.bound is None
                     else f", bound {metric.bound:.0%}")
            print(f"  {name:<38} {value:>14.6g} {metric.unit:<6} "
                  f"({metric.better} is better{bound})")
    print(f"  ops_attempted={payload['ops_attempted']} "
          f"ops_failed={payload['ops_failed']} "
          f"values_crc32={payload['values_crc32']:08x}")
    for failure in payload["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(payload: dict) -> str:
    """The external driver's result object: exactly the metrics
    ``BENCHMARK.json`` lists for this mode (a per-layer metric that is
    not defined on this workload reads 0)."""
    from vocabulary import BY_NAME

    contract = driver_contract()
    section = "per_layer" if payload["trace"] else "end_to_end"
    measured = dict(payload.get("diagnostic", {}), **payload[section])
    metrics = {
        entry["name"]: {"value": measured.get(entry["name"], 0.0),
                        "unit": BY_NAME[entry["name"]].unit}
        for entry in contract[section]
    }
    return json.dumps({
        "correct": payload["ops_failed"] == 0,
        "attempted": payload["ops_attempted"],
        "failed": payload["ops_failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# All workloads, one process each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    import_paths()
    from vocabulary import BY_NAME, WORKLOADS

    seconds = (args.seconds if args.seconds is not None
               else driver_contract()["run_seconds"])
    sets = []
    for repetition in range(args.repeat):
        payloads = {}
        for name in WORKLOADS:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", str(args.trace), "--payload"]
            if args.batches is not None:
                command += ["--batches", str(args.batches)]
            else:
                command += ["--seconds", str(seconds)]
            if args.scale is not None:
                command += ["--scale", str(args.scale)]
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(done.stdout)
                print(f"{name}: no result (exit {done.returncode})")
                return 1
            payloads[name] = json.loads(lines[-1])
            print_tables(payloads[name])
        sets.append(payloads)

    failed = sum(p["ops_failed"] for s in sets for p in s.values())
    if args.repeat > 1:
        failed += compare_sets(sets, BY_NAME)
    return 1 if failed else 0


def compare_sets(sets, by_name) -> int:
    """Repeatability: every end-to-end metric x workload within its
    bound between the first two sets and, where both sets timed the
    same batches, every exact count and the values CRC identical.
    Returns the number of misses."""
    misses = 0
    first, second = sets[0], sets[1]
    print("== repeatability (set 1 vs set 2)")
    for workload in first:
        a, b = first[workload], second[workload]
        for name, one in a.get("end_to_end", {}).items():
            two = b["end_to_end"][name]
            metric = by_name[name]
            worse = (two - one) if metric.better == "lower" else (one - two)
            relative = abs(two - one) / one if one else 0.0
            if metric.bound is None:
                verdict = "diagnostic, no bound"
            elif one and worse / one > metric.bound:
                verdict = f"bound {metric.bound:.0%} MISS"
                misses += 1
            else:
                verdict = f"bound {metric.bound:.0%} ok"
            print(f"  {workload:<20} {name:<24} {one:>14.6g} {two:>14.6g} "
                  f"{relative:>7.2%} {verdict}")
        if a["timed_batches"] != b["timed_batches"]:
            print(f"  {workload}: the deadline cut a run short "
                  f"({a['timed_batches']} vs {b['timed_batches']} timed "
                  f"batches); exact counts not compared")
            continue
        exact_a = dict(a.get("exact", {}), values_crc32=a["values_crc32"])
        exact_b = dict(b.get("exact", {}), values_crc32=b["values_crc32"])
        for name in exact_a:
            if exact_a[name] != exact_b[name]:
                print(f"  {workload}: exact metric {name} differs: "
                      f"{exact_a[name]} vs {exact_b[name]}")
                misses += 1
                break
        else:
            print(f"  {workload:<20} {len(exact_a)} exact values identical")
    return misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this "
                        "process (default: all four, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="how long to measure: sizes the stream and "
                        "is the deadline (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--batches", type=int,
                        help="stream length, warm-up included, instead "
                        "of the count --seconds implies (smoke runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int,
                        help="override the workload's RMAT scale (smoke)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N full sets and compare the first two")
    parser.add_argument("--payload", action="store_true",
                        help="print the full payload, not the driver's "
                        "result object, as the last line")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"run.py: no program to measure: {REPO}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.seconds is None and args.batches is None:
        args.seconds = driver_contract()["run_seconds"]
    pin_to_one_core()
    payload = run_workload(args.workload, args.seed, bool(args.trace),
                           seconds=args.seconds, batches=args.batches,
                           scale=args.scale)
    if args.payload:
        print(json.dumps(payload))
    else:
        print_tables(payload)
        print(contract_line(payload))
    return 1 if payload["ops_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
