"""No dead names in src/: every function, class, method and module-level
assignment that src/syscage defines is loaded somewhere in src/syscage, and
every name that a module of it imports is loaded in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "syscage"

# name -> why it stays although nothing in src/ loads it
ALLOWED = {
    "_Parser.error": "an argparse override: argparse calls it",
    "__version__": "the package's version, read by its users",
    "enumerate_secure_paths": "patched by bench/worker.py; ROADMAP item 1 deletes it",
    "is_subsequence": "patched by bench/worker.py; ROADMAP item 1 deletes it",
}


def _defined(body, prefix=""):
    """(qualified name, name) of each function, class and method in `body`,
    and of each name a module-level assignment binds; a dunder method, which
    Python itself calls, is left out."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (prefix and node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name
            yield from _defined(node.body, f"{prefix}{node.name}.")
        elif not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id


def _loaded(tree):
    """Each name that `tree` reads, as a variable or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _imported(tree):
    """Each name that an import of `tree` binds; a `from __future__` import
    changes how the module compiles and binds nothing it loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def dead_names(sources: dict[str, str]) -> set[str]:
    """The qualified names that the modules `sources` (file name -> text)
    define and none of them loads, as `file:name`, and the names that a
    module imports and does not load, as `file:import name`."""
    trees = {file: ast.parse(text, file) for file, text in sources.items()}
    loaded = {name for tree in trees.values() for name in _loaded(tree)}
    dead = {f"{file}:{qualified}"
            for file, tree in trees.items()
            for qualified, name in _defined(tree.body)
            if name not in loaded}
    for file, tree in trees.items():
        own = set(_loaded(tree))
        dead |= {f"{file}:import {name}" for name in _imported(tree) if name not in own}
    return dead


def test_no_dead_names_in_src():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    dead = dead_names(sources)
    assert {entry for entry in dead if entry.partition(":")[2] not in ALLOWED} == set()
    allowed_dead = {entry.partition(":")[2] for entry in dead}
    assert set(ALLOWED) - allowed_dead == set(), "an allowed name is loaded now: drop its entry"


def test_dead_name_check_finds_each_kind():
    sources = {
        "a.py": ("from __future__ import annotations\n"
                 "import os.path, re as regex, json\n"
                 "from dataclasses import dataclass, field as fld\n"
                 "@dataclass\nclass D:\n    x: list = fld(default_factory=list)\n"
                 "X = 1\nY, Z = 2, 3\n"
                 "def f(): return g, json.dumps(os.path.sep)\n"
                 "def g(): pass\n"
                 "class C:\n    def __init__(self): pass\n"
                 "    def m(self): pass\n    def n(self): return self.m\n"),
        # an import binds a name in its own module: b.py's `g` is dead there
        "b.py": "from a import D, f, g\nf()\nprint(Y, D)\n",
    }
    assert dead_names(sources) == {"a.py:X", "a.py:Z", "a.py:C", "a.py:C.n",
                                   "a.py:import regex", "b.py:import g"}
