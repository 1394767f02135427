"""Every public top-level function and class in ``src/repro`` has a
caller outside the tests.

A name is *used* when it appears as a name, an attribute or an imported
name in a module under ``src/``, ``benchmarks/`` or ``examples/``.  A
package ``__init__`` does not count (a re-export is not a use), nor
does a string or docstring.  A public name nothing uses is model code
only its own tests run: delete it, or give it a caller.  The allowlist
below holds the few kept on purpose, each with its reason.
"""

import ast
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
}


def _modules(root, top):
    for path in sorted((root / top).rglob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(), str(path))


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
    classes under ``root/src/repro`` that nothing outside tests uses."""
    definitions = {}
    for path, tree in _modules(root, "src/repro"):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions[node.name] = (
                    f"{path.relative_to(root)}:{node.lineno}")
    used = set()
    for top in ("src", "benchmarks", "examples"):
        if not (root / top).is_dir():
            continue
        for _, tree in _modules(root, top):
            used.update(_names_in(tree))
    return {name: where for name, where in definitions.items()
            if name not in used}


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
        "def _private():\n    return 0\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import used\n\nused()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Unused, orphan\n")
    assert orphans(tmp_path) == {
        "orphan": "src/repro/mod.py:9",
        "Unused": "src/repro/mod.py:13",
    }
