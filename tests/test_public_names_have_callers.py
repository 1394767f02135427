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

The same holds one level down, for settings: every defaulted parameter
of a function or method under ``src/repro`` (``repro/algorithms`` aside:
its constructors are set through the registry) is set by some call
under ``src/``, ``benchmarks/`` or ``examples/``.  A default only tests,
or nothing, override is not a setting but a constant with a knob on it:
inline it.  So is one that every such call sets, always to the same
literal: the constant is merely written at the calls.
``SETTINGS_ALLOWED`` holds the few kept, each for one of the five
reasons in ``REASONS``.
"""

import ast
import functools
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
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


# ----------------------------------------------------------------------
# Settings: defaulted parameters some call outside tests sets
# ----------------------------------------------------------------------
DEPLOYMENT = "a deployment setting"
FAKE = "a fake a test substitutes"
SHRUNK = "a size tier-1 shrinks"
SUPPORT = "a parameter of an allowlisted test-support name"
REGISTRY = "set through a registry lookup"
REASONS = (DEPLOYMENT, FAKE, SHRUNK, SUPPORT, REGISTRY)

_RUNNERS = "harness.ENGINES[key](...) builds every runner"
_SCENARIOS = "workloads.SCENARIOS[name](...) builds every stream"

SETTINGS_ALLOWED = {
    "MetricsHTTPServer.__init__.host": (
        DEPLOYMENT, "the interface the /metrics endpoint binds"),
    "rmat_streamed.spool_dir": (
        DEPLOYMENT, "the disk the xl build spools its edge chunks to"),
    "Tracer.__init__.clock": (
        FAKE, "tests pin span timings with a fake clock"),
    "rmat.weighted": (
        FAKE, "tests build unit-weight graphs where every caller "
              "outside them builds weighted ones"),
    "watts_strogatz.weighted": (
        FAKE, "tests build unit-weight graphs where every caller "
              "outside them builds weighted ones"),
    "RecoveryManager.__init__.poison_check": (
        FAKE, "the growth check exercises quarantine at replay time, "
              "which a failpoint cannot"),
    "experiment_table1.num_batches": (SHRUNK, "the Table 1 stream"),
    "experiment_table1.batch_size": (SHRUNK, "the Table 1 stream"),
    "experiment_figure4.num_iterations": (SHRUNK, "the Figure 4 window"),
    "experiment_table9.algorithms": (SHRUNK, "the Table 9 grid"),
    "experiment_table9.graphs": (SHRUNK, "the Table 9 grid"),
    "experiment_motivation_tagging.graphs": (SHRUNK, "the tagging grid"),
    "experiment_motivation_tagging.batch_sizes": (
        SHRUNK, "the tagging grid"),
    "assert_same_results.tolerance": (SUPPORT, "assert_same_results"),
    "assert_same_results.context": (SUPPORT, "assert_same_results"),
    "save_edge_list.write_weights": (SUPPORT, "save_edge_list"),
    "StreamingRunner.__init__.num_iterations": (REGISTRY, _RUNNERS),
    "StreamingRunner.__init__.num_shards": (REGISTRY, _RUNNERS),
    "GraphBoltRunner.__init__.num_shards": (REGISTRY, _RUNNERS),
    "KickStarterRunner.__init__.num_iterations": (REGISTRY, _RUNNERS),
    "KickStarterRunner.__init__.unit_weights": (REGISTRY, _RUNNERS),
    "KickStarterRunner.__init__.num_shards": (REGISTRY, _RUNNERS),
    "targeted_batch.delete_fraction": (REGISTRY, _SCENARIOS),
    "targeted_batch.seed": (REGISTRY, _SCENARIOS),
    "hotspot_storm.delete_fraction": (REGISTRY, _SCENARIOS),
    "hotspot_storm.seed": (REGISTRY, _SCENARIOS),
    "_per_batch.stream.delete_fraction": (REGISTRY, _SCENARIOS),
    "_per_batch.stream.seed": (REGISTRY, _SCENARIOS),
}


def _callee(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions(tree):
    """``(qualname, enclosing class or None, def)`` of every def."""
    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", child)
            elif isinstance(child, _DEFINITIONS):
                yield f"{prefix}{child.name}", cls, child
                yield from visit(child, f"{prefix}{child.name}.", None)
            else:
                yield from visit(child, prefix, cls)
    yield from visit(tree, "", None)


def _parameters(node, method):
    """The positional parameter names a call fills (``self`` / ``cls``
    dropped for methods) and the names that carry a default."""
    args = node.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    static = any(_callee(d) == "staticmethod" for d in node.decorator_list)
    if method and not static:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [arg.arg for arg, default
                  in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return positional, defaulted


def _calls(tree):
    """``(callee names, args, keywords, enclosing defs)`` of every call.
    A function passed first is called with the rest of the arguments
    (``partial(f, ...)``, a fixture's ``run_experiment(f, ...)``);
    ``cls(...)`` calls the enclosing class and ``super().__init__(...)``
    its bases."""
    def visit(node, cls, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child, enclosing)
                continue
            if isinstance(child, _DEFINITIONS):
                yield from visit(child, cls, enclosing + (child,))
                continue
            if isinstance(child, ast.Call):
                name = _callee(child.func)
                names = [name]
                if name == "cls" and cls is not None:
                    names = [cls.name]
                elif (name == "__init__" and cls is not None
                      and isinstance(child.func.value, ast.Call)
                      and _callee(child.func.value.func) == "super"):
                    names = [_callee(base) for base in cls.bases]
                yield names, child.args, child.keywords, enclosing
                if child.args:
                    yield ([_callee(child.args[0])], child.args[1:],
                           child.keywords, enclosing)
            yield from visit(child, cls, enclosing)
    yield from visit(tree, None, ())


#: The value of an argument that is not one literal (an expression, or
#: ``*args`` / ``**kwargs`` forwarding).
_EXPRESSION = "<expression>"


def _literal(node):
    """``node``'s source form if it is a literal, else ``_EXPRESSION``."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _EXPRESSION
    return ast.unparse(node)


@functools.lru_cache(maxsize=None)
def _setting_calls(root):
    """``({"Qualname.param": "path:line"}, {"Qualname.param": [value,
    ...]})``: every defaulted parameter under ``root/src/repro``
    (``repro/algorithms`` aside), and what each call to its def under
    ``src/``, ``benchmarks/`` or ``examples/`` passes it -- a literal's
    source, ``_EXPRESSION``, or ``None`` when the call leaves the
    default.  It is set by keyword, by position, through ``partial``,
    or by forwarding ``*args`` / ``**kwargs`` to a callee of that name.
    A def's own body does not call it (a recursive call passes its
    parameters along)."""
    # One parse per file: a def's own body is recognised by identity.
    trees = [(path, tree) for top in ("src", "benchmarks", "examples")
             if (root / top).is_dir() for path, tree in _modules(root, top)]
    callees = defaultdict(list)
    found = {}
    for path, tree in trees:
        where = path.relative_to(root)
        if where.parts[:2] != ("src", "repro") or (
                where.parts[2] == "algorithms"):
            continue
        for qualname, cls, node in _definitions(tree):
            positional, defaulted = _parameters(node, cls is not None)
            if not defaulted:
                continue
            name = (cls.name if cls is not None and node.name == "__init__"
                    else node.name)
            callees[name].append((qualname, positional, defaulted, node))
            for param in defaulted:
                found[f"{qualname}.{param}"] = f"{where}:{node.lineno}"
    passed = defaultdict(list)
    for _, tree in trees:
        for names, args, keywords, enclosing in _calls(tree):
            for qualname, positional, defaulted, node in (
                    entry for name in names for entry in callees[name]):
                if node in enclosing:
                    continue
                values = {}
                for index, arg in enumerate(args):
                    if isinstance(arg, ast.Starred):
                        values.update(dict.fromkeys(positional[index:],
                                                    _EXPRESSION))
                        break
                    if index < len(positional):
                        values[positional[index]] = _literal(arg)
                for keyword in keywords:
                    if keyword.arg is None:
                        values.update(dict.fromkeys(defaulted, _EXPRESSION))
                    else:
                        values[keyword.arg] = _literal(keyword.value)
                for param in defaulted:
                    passed[f"{qualname}.{param}"].append(values.get(param))
    return found, passed


def unset_settings(root):
    """``{"Qualname.param": "path:line"}`` of every defaulted parameter
    (see :func:`_setting_calls`) that no call outside tests sets."""
    found, passed = _setting_calls(root)
    return {name: where for name, where in found.items()
            if all(value is None for value in passed[name])}


def constant_settings(root):
    """``{"Qualname.param": "path:line"}`` of every defaulted parameter
    (see :func:`_setting_calls`) that every call outside tests sets,
    always to one literal: a constant written as a default."""
    found, passed = _setting_calls(root)
    return {name: where for name, where in found.items()
            if len(set(passed[name])) == 1
            and passed[name][0] not in (None, _EXPRESSION)}


def test_every_setting_has_a_caller_outside_tests():
    unexpected = {name: where
                  for name, where in unset_settings(ROOT).items()
                  if name not in SETTINGS_ALLOWED}
    assert not unexpected, (
        "defaults only tests, or nothing, override (inline the default, "
        f"or allowlist one with its reason): {unexpected}")


def test_every_setting_takes_more_than_one_value():
    unexpected = {name: where
                  for name, where in constant_settings(ROOT).items()
                  if name not in SETTINGS_ALLOWED}
    assert not unexpected, (
        "defaults every call outside tests sets to one literal (inline "
        f"the literal, or allowlist one with its reason): {unexpected}")


def test_settings_allowlist_is_live_and_reasoned():
    stale = sorted(set(SETTINGS_ALLOWED) - set(unset_settings(ROOT))
                   - set(constant_settings(ROOT)))
    assert not stale, (
        f"allowlisted settings that are gone or now have a caller: {stale}")
    for name, (reason, detail) in SETTINGS_ALLOWED.items():
        assert reason in REASONS and detail, name
        if reason == SUPPORT:
            assert detail in ALLOWED, name


def test_planted_settings_are_reported(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from functools import partial\n\n\n"
        "def by_keyword(a, flag=False):\n    return flag\n\n\n"
        "def by_position(a, flag=False):\n    return flag\n\n\n"
        "def by_partial(a, *, flag=False):\n    return flag\n\n\n"
        "def forwarded(a, flag=False):\n    return flag\n\n\n"
        "def forwarder(**kwargs):\n    return forwarded(1, **kwargs)\n\n\n"
        "class Built:\n"
        "    def __init__(self, flag=False):\n        self.flag = flag\n\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls(flag=True)\n\n\n"
        "class Child(Built):\n"
        "    def __init__(self):\n        super().__init__(True)\n\n\n"
        "def recursive(n, depth=0):\n"
        "    return n and recursive(n - 1, depth=depth + 1)\n\n\n"
        "def test_only(a, flag=False):\n    return flag\n\n\n"
        "def unset(a, flag=False):\n    return flag\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import *\n\n"
        "by_keyword(1, flag=True)\nby_position(1, True)\n"
        "partial(by_partial, flag=True)(1)\nforwarder(flag=True)\n"
        "Built.make()\nChild()\nrecursive(3)\ntest_only(1)\nunset(1)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import test_only\n\ntest_only(1, flag=True)\n")
    assert unset_settings(tmp_path) == {
        "recursive.depth": "src/repro/mod.py:38",
        "test_only.flag": "src/repro/mod.py:42",
        "unset.flag": "src/repro/mod.py:46",
    }


def test_planted_constants_are_reported(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def always(a, flag=False):\n    return flag\n\n\n"
        "def twice(a, flag=False):\n    return flag\n\n\n"
        "def sometimes(a, flag=False):\n    return flag\n\n\n"
        "def varies(a, flag=False):\n    return flag\n\n\n"
        "def computed(a, flag=False):\n    return flag\n\n\n"
        "def forwarded(a, flag=False):\n    return flag\n\n\n"
        "def forwarder(**kwargs):\n    return forwarded(1, **kwargs)\n\n\n"
        "class Built:\n"
        "    def __init__(self, size=1, name=''):\n        self.size = size\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import *\n\n"
        "always(1, flag=True)\n"
        "twice(1, True)\ntwice(2, flag=True)\n"
        "sometimes(1, flag=True)\nsometimes(2)\n"
        "varies(1, flag=True)\nvaries(2, flag=False)\n"
        "computed(1, flag=len('ab') > 1)\n"
        "forwarder(flag=True)\n"
        "Built(size=(1, 2), name='x')\nBuilt(size=(1, 2), name='y')\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import always\n\nalways(1, flag=False)\n")
    assert constant_settings(tmp_path) == {
        "always.flag": "src/repro/mod.py:1",
        "twice.flag": "src/repro/mod.py:5",
        "Built.__init__.size": "src/repro/mod.py:30",
    }
