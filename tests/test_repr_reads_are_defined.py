"""Every ``self.<name>`` a ``__repr__`` under ``src/repro`` reads is
defined by its class or a base.

The reach map (``benchmarks/reach.py``) skips ``__repr__``, so a repr
that reads an attribute its class no longer has fails only when
someone prints the object.  This AST scan catches it statically.  A
name is *defined* by a class when its body binds it (a method, a
property, a class attribute or dataclass field) or one of its methods
assigns it as an attribute (``self.name = ...``, ``server.name = ...``
in an alternate constructor).  Bases are resolved by name among the
classes under ``src/repro``; a base from outside (``Exception``)
defines nothing.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _base_name(node):
    if isinstance(node, ast.Subscript):   # Generic[T]
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _own_names(cls):
    """The names ``cls``'s body binds and its methods assign."""
    names = set()
    for child in cls.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            names.add(child.name)
        elif isinstance(child, ast.Assign):
            names.update(target.id for target in child.targets
                         if isinstance(target, ast.Name))
        elif (isinstance(child, ast.AnnAssign)
              and isinstance(child.target, ast.Name)):
            names.add(child.target.id)
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(method):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)):
                names.add(node.attr)
    return names


def undefined_repr_reads(root):
    """``["path:line Class.__repr__ reads self.name"]`` for every read
    of an attribute neither the class nor a base defines."""
    classes = defaultdict(list)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name].append(
                    (node, path.relative_to(root)))

    def defined(name, seen=frozenset()):
        names = set()
        for cls, _ in classes.get(name, ()):
            names |= _own_names(cls)
            for base in map(_base_name, cls.bases):
                if base is not None and base not in seen:
                    names |= defined(base, seen | {name})
        return names

    found = []
    for name, entries in sorted(classes.items()):
        for cls, path in entries:
            for method in cls.body:
                if not (isinstance(method, ast.FunctionDef)
                        and method.name == "__repr__"):
                    continue
                known = defined(name)
                for node in ast.walk(method):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"
                            and node.attr not in known):
                        found.append(f"{path}:{node.lineno} "
                                     f"{name}.__repr__ reads "
                                     f"self.{node.attr}")
    return found


def test_every_repr_reads_defined_attributes():
    found = undefined_repr_reads(ROOT)
    assert not found, (
        "a __repr__ reads attributes its class does not define: "
        f"{found}")


def test_planted_undefined_read_is_reported(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "class Base:\n"
        "    kind = 'base'\n\n"
        "    def __init__(self):\n        self.size = 0\n\n\n"
        "@dataclass\n"
        "class Child(Base):\n"
        "    label: str = ''\n\n"
        "    @property\n    def total(self):\n        return 1\n\n"
        "    @classmethod\n    def build(cls):\n"
        "        made = cls()\n        made.extra = 1\n"
        "        return made\n\n"
        "    def __repr__(self):\n"
        "        return (f'{self.kind}{self.size}{self.label}'\n"
        "                f'{self.total}{self.extra}{self.gone}')\n")
    assert undefined_repr_reads(tmp_path) == [
        "src/repro/mod.py:27 Child.__repr__ reads self.gone"]
