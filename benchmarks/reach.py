"""Which ``def`` under ``src/repro`` the product entries reach.

Four kinds of entry run, each in subprocesses of its own, under a
``sys.setprofile`` / ``threading.setprofile`` hook that records every
code object under ``src/repro`` that is called:

``e2e``      ``benchmarks/e2e/run.py::run_workload`` on each workload at
             scale 9 for 14 batches, untraced and traced;
``bench``    the paper benches, ``pytest benchmarks`` with
             ``benchmarks/e2e`` left out and ``--benchmark-disable``;
``example``  each ``examples/*.py``;
``cli``      the commands README.md and ``docs/`` document
             (:data:`COMMANDS`), one process each, in one temporary
             directory, in order.

A code object maps to its ``def`` by ``(file, first line, name)``
against an AST walk (Python 3.10 has no ``co_qualname``), and a row is
keyed by the def's qualified name, ``module.Class.method``.  Every
``def`` but ``__repr__`` gets one row in ``benchmarks/reach.tsv``: its
name, the kinds that reached it and, for a row none reached, the reason
it stays (``kind: detail``, :data:`REASON_KINDS`).  A rerun keeps the
reasons.  ``tests/test_reach_map.py`` checks the table against the
tree.

    python benchmarks/reach.py          # about 4.5 min on 2 vCPUs

Rerun it in any change that adds or renames a ``def``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "benchmarks" / "reach.tsv"
KINDS = ("e2e", "bench", "example", "cli")
#: Why a ``def`` no product entry reaches stays.  The detail names the
#: test, matrix or document that runs it.
REASON_KINDS = {
    "abstract": "a protocol body that every subclass overrides",
    "failure": "a fault response no clean run meets",
    "harness": "test support that a test runs",
    "matrix": "reached only by a matrix too slow to map",
    "format": "a documented input or output format",
}
#: Left out of the table by rule.
EXCLUDED = frozenset({"__repr__"})
HEADER = "def\treached\treason"

E2E_WORKLOADS = ("engine_small_batch", "engine_refine_heavy",
                 "serving_ingest", "serving_query_mix")
#: The documented commands (README.md, docs/), each ``python -m`` a
#: module and its arguments, run in this order in one directory so a
#: later one reads what an earlier one wrote.  The live ``dash`` loop
#: never returns and is left out; ``--update-baseline`` writes to a
#: directory of its own; the smoke matrix stands in for the table8 /
#: core gates, the same path at a fraction of the time, and
#: ``--sweep NAME`` runs once for each of the five sweeps.
COMMANDS = (
    "repro info --graph paper:TT",
    "repro run --algorithm belief-propagation --graph rmat:12 --batches 5 "
    "--batch-size 100 --validate",
    "repro trace rmat:10 --batches 3",
    "repro run rmat:10 --batches 4 --json --trace-out trace.jsonl",
    "repro run rmat:10 --batches 4 --json --snapshot-store mmap:store",
    "repro experiment --list",
    "repro experiment --matrix smoke --gate enforce --out-dir results",
    "repro experiment --matrix smoke --update-baseline --out-dir results "
    "--baseline-dir baselines",
    "repro.bench figure9",
    "repro serve rmat:8 --batches 20 --slo soak --wide-events run.jsonl "
    "--plant-latency 10:9.9",
    "repro serve rmat:8 --batches 20 --slo soak --wide-events clean.jsonl",
    "repro serve rmat:8 --batches 8 --query-every 2 --wide-events "
    "events.jsonl --trace-out spans.jsonl",
    "repro serve rmat:8 --batches 4 --metrics-out metrics.prom",
    "repro slo-lint",
    "repro dash --once --from-journal run.jsonl --slo soak",
    "repro dash --once --from-journal run.jsonl --slo soak "
    "--expect-alert soak-ingest-latency",
    "repro dash --once --from-journal clean.jsonl --slo soak --expect-clean",
    "repro serve rmat:8 --batches 24 --batch-size 25 --seed 0 "
    "--wal state --checkpoint-every 4 --admission shed-oldest "
    "--iterations 5 --queue-capacity 4 --burst 6 --poison-every 5 "
    "--query-every 2 --deadline 0.5 --breaker-quarantine-threshold 2 "
    "--breaker-cooldown 2 --health-journal health.jsonl --status",
    "repro recover state",
    "repro recover state --verify",
    "repro scrub state",
    "repro scrub state --json",
    "repro scrub state --repair",
    "repro serve rmat:8 --wal rstate --replicas 2 --slo replication "
    "--wide-events repl0.jsonl --status",
    "repro replication-status rstate",
    "repro serve rmat:8 --batches 24 --wal repl-state --replicas 2 "
    "--kill-replica 0:6:14 --slo replication --wide-events repl.jsonl",
    "repro dash --once --from-journal repl.jsonl --slo replication "
    "--expect-alert replica-staleness --expect-resolved replica-staleness",
    "repro fuzz --workloads 25 --seed 0",
    "repro fuzz --plant-bug --workloads 10",
    "repro fuzz --plant-bug --workloads 10 --trace-out dump.jsonl",
    "repro fuzz --crash --rounds 8 --seed 0",
    "repro fuzz --crash --plant-fault",
    "repro fuzz --crash --sweep durable --seed 0",
    "repro fuzz --crash --sweep resilient --seed 0",
    "repro fuzz --crash --sweep replicated --seed 0",
    "repro fuzz --crash --sweep chaos --seed 0 "
    "--artifacts-dir chaos-artifacts",
    "repro fuzz --crash --sweep storage --seed 0",
)


# ----------------------------------------------------------------------
# The tree: every def, by the key its code object carries
# ----------------------------------------------------------------------
def definitions(root: Path) -> dict:
    """``{(path, first line, name): qualified name}`` of every ``def``
    under ``root/src/repro`` (``path`` relative to ``root/src``), but
    :data:`EXCLUDED`.  A decorated def's code starts at its first
    decorator."""
    found = {}
    names = set()
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        module = relative[:-3].replace("/", ".").removesuffix(".__init__")

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for
                                 decorator in child.decorator_list])
                    name = f"{module}.{prefix}{child.name}"
                    if name in names:
                        raise ValueError(f"two defs are named {name}")
                    names.add(name)
                    if child.name not in EXCLUDED:
                        found[relative, first, child.name] = name
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def read_table(path: Path) -> dict:
    """``{name: (reached kinds, reason)}`` from a reach table."""
    rows = {}
    lines = path.read_text().splitlines()
    for line in lines[1:]:
        name, reached, reason = line.split("\t")
        rows[name] = (tuple(filter(None, reached.split(","))), reason)
    return rows


# ----------------------------------------------------------------------
# One probe: a subprocess that runs entries under the hook
# ----------------------------------------------------------------------
def _run_e2e() -> None:
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "e2e_run", ROOT / "benchmarks" / "e2e" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name in E2E_WORKLOADS:
        for traced in (False, True):
            run.run_workload(name, trace=traced, seed=1, batches=14,
                             scale=9)


def _run_bench() -> int:
    import pytest

    return pytest.main(["benchmarks", "--ignore=benchmarks/e2e", "-q",
                        "--benchmark-disable", "-p", "no:cacheprovider"])


def _run_example(path: str) -> None:
    import runpy

    sys.argv = [path]
    runpy.run_path(path, run_name="__main__")


def _run_cli(command: str) -> None:
    import runpy

    module, *args = command.split()
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


def probe(out: str, kind: str, arg: str) -> int:
    """Run one entry of ``kind`` under the hook; write the
    ``[path, first line, name]`` of every code object under
    ``src/repro`` it called to ``out``; return the entry's exit
    status."""
    seen = set()

    def hook(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        entry = {"e2e": _run_e2e, "bench": _run_bench,
                 "example": _run_example, "cli": _run_cli}[kind]
        status = entry(*([arg] if arg else []))
    except SystemExit as exit:
        status = exit.code
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    src = str(ROOT / "src") + os.sep
    reached = sorted(
        {(os.path.realpath(code.co_filename)[len(src):],
          code.co_firstlineno, code.co_name)
         for code in seen
         if os.path.realpath(code.co_filename).startswith(src)})
    with open(out, "w") as stream:
        json.dump(reached, stream)
    return status


# ----------------------------------------------------------------------
# The map
# ----------------------------------------------------------------------
def _entries(scratch: str):
    """``(kind, arg, cwd)`` of every probe, in run order."""
    yield "e2e", "", str(ROOT)
    yield "bench", "", str(ROOT)
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield "example", str(path), scratch
    for command in COMMANDS:
        yield "cli", command, scratch


def reach_map() -> dict:
    """``{(path, first line, name): kinds that reached it}``."""
    reached = {}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        for number, (kind, arg, cwd) in enumerate(_entries(scratch)):
            out = os.path.join(scratch, f"probe-{number}.json")
            subprocess.run([sys.executable, __file__, "--probe", out, kind,
                            arg], cwd=cwd, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            with open(out) as stream:
                for path, line, name in json.load(stream):
                    reached.setdefault((path, line, name), set()).add(kind)
    return reached


def write_table(defs: dict, reached: dict, kept: dict) -> list:
    """Write :data:`TABLE`, keeping the reasons of rows still unreached;
    returns the rows."""
    rows = []
    for key, name in sorted(defs.items(), key=lambda item: item[1]):
        kinds = [kind for kind in KINDS if kind in reached.get(key, ())]
        reason = "" if kinds else kept.get(name, ((), ""))[1]
        rows.append((name, ",".join(kinds), reason))
    TABLE.write_text("\n".join([HEADER] + ["\t".join(row)
                                           for row in rows]) + "\n")
    return rows


def main() -> int:
    start = time.perf_counter()
    defs = definitions(ROOT)
    kept = read_table(TABLE) if TABLE.exists() else {}
    rows = write_table(defs, reach_map(), kept)
    unreached = [row for row in rows if not row[1]]
    for kind in KINDS:
        count = sum(kind in row[1].split(",") for row in rows)
        print(f"{kind:8s} reaches {count:5d} defs")
    print(f"{len(rows) - len(unreached)} of {len(rows)} defs reached, "
          f"{sum(not row[2] for row in unreached)} unreached with no "
          f"reason; {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        sys.exit(probe(*sys.argv[2:5]))
    sys.exit(main())
