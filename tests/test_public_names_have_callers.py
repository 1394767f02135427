"""Every public top-level function and class in ``src/repro``, and
every public method, has a caller outside the tests.

A name is *used* when it appears as a name, an attribute or an imported
name in a module under ``src/``, ``benchmarks/`` or ``examples/``.  A
package ``__init__`` does not count (a re-export is not a use), nor
does a string or docstring.  A method's own body does not count either,
so a method that only calls itself is still unused.  A public name
nothing uses is model code only its own tests run: delete it, or give
it a caller.  The allowlist below holds the few kept on purpose, each
with its reason.

Methods are matched by name alone, not by class: an unused method that
shares its name with a used one (``Stream.count`` beside ``list.count``)
is hidden.  That is the scan's known blind spot.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "ProductAggregation": "an aggregation docs/programming_model.md "
                          "offers to algorithm authors",
    "save_edge_list": "writes the edge-list text the file: graph spec "
                      "reads",
    "save_npz": "writes the .npz the file: graph spec reads",
    "complete_graph": "the closed-form shape (K_4 holds 8 directed "
                      "triangles) the triangle-count tests pin",
    "assert_same_results": "the Theorem 4.1 comparison the core and "
                           "ligra test suites share (DESIGN.md)",
    "read_checkpoint_extra": "the read half of save_engine(extra=), "
                             "named in its docstring",
    "_MetricsHandler.do_GET": "http.server dispatches GET requests to it "
                              "by name",
    "_MetricsHandler.log_message": "http.server calls it by name; the "
                                   "override silences per-request logging",
}


def _modules(root, top):
    for path in sorted((root / top).rglob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(), str(path))


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(name):
    return not name.startswith("_")


def _names_in(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2]


def orphans(root):
    """``{name: "path:line"}`` of the public top-level functions and
    classes (``name``) and the public methods (``Class.method``) under
    ``root/src/repro`` that nothing outside tests uses."""
    used = Counter()
    for top in ("src", "benchmarks", "examples"):
        if not (root / top).is_dir():
            continue
        for _, tree in _modules(root, top):
            used.update(_names_in(tree))
    found = {}
    for path, tree in _modules(root, "src/repro"):
        where = path.relative_to(root)
        for node in tree.body:
            if (isinstance(node, _DEFINITIONS + (ast.ClassDef,))
                    and _public(node.name) and not used[node.name]):
                found[node.name] = f"{where}:{node.lineno}"
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, _DEFINITIONS) and _public(node.name)
                        and used[node.name]
                        <= Counter(_names_in(node))[node.name]):
                    found[f"{cls.name}.{node.name}"] = (
                        f"{where}:{node.lineno}")
    return found


def test_every_public_name_has_a_caller_outside_tests():
    found = orphans(ROOT)
    unexpected = {name: where for name, where in found.items()
                  if name not in ALLOWED}
    assert not unexpected, (
        "public names only tests use (delete them, or allowlist one "
        f"with its reason): {unexpected}")


def test_allowlist_entries_are_still_orphans():
    stale = sorted(set(ALLOWED) - set(orphans(ROOT)))
    assert not stale, (
        f"allowlisted names that are gone or now have a caller: {stale}")


def test_planted_orphan_is_reported(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.mod import orphan, used\n")
    (package / "mod.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return used()\n\n\n"
        "class Unused:\n    pass\n\n\n"
        "def _private():\n    return 0\n\n\n"
        "class Used:\n"
        "    def called(self):\n        return self._hidden()\n\n"
        "    def _hidden(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def stranded(self):\n        return 1\n\n"
        "    def recursive(self, n):\n"
        "        return n and self.recursive(n - 1)\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import Used, used\n\nused()\nUsed().called()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Unused, Used, orphan\n\n"
        "Used().stranded()\nUsed().recursive(2)\n")
    assert orphans(tmp_path) == {
        "orphan": "src/repro/mod.py:9",
        "Unused": "src/repro/mod.py:13",
        "Used.stranded": "src/repro/mod.py:31",
        "Used.recursive": "src/repro/mod.py:34",
    }
