"""Every span name the program emits is in the observability guide.

An operator reads span names off a trace and looks them up in
``docs/observability.md`` ("What the engines emit"); a name missing
there is a span nobody can interpret.  The scan takes every string
literal passed to ``trace.span(...)`` under ``src/repro``.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPAN = re.compile(r'trace\.span\(\s*"([^"]+)"')


def emitted_span_names():
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names.update(SPAN.findall(path.read_text(encoding="utf-8")))
    return names


def test_every_emitted_span_name_is_documented():
    names = emitted_span_names()
    assert {"batch", "adjust_structure", "store.seal", "router.query"} <= names
    guide = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    missing = sorted(name for name in names if f"`{name}`" not in guide)
    assert missing == [], (
        f"span names emitted under src/repro but absent from "
        f"docs/observability.md: {missing}")
