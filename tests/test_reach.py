"""Every public name of src/rotogp serves a verdict.

A public module-level function or class of src/rotogp, and every public
method of such a class, must be referred to from outside its own definition
by a module of src/rotogp, by the acceptance criteria
(tests/test_acceptance.py) or by the benchmark (perfbench/*.py).  A
reference is a name or an attribute that is read, or, in the benchmark, a
"module.name" string such as a tracer probe key.  Unit tests do not count:
a name that only its own unit tests call decides no verdict.

Matching is by name alone, so a name shared with another object (an
ndarray's .copy, say) counts as reached: the scan can miss dead code, but
never flags live code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotogp"
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
READERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py", *BENCHMARK]
TREES = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _public(nodes):
    return [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def public_names():
    """(label, definition) of every public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(TREES[path].body):
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in _public(node.body):
                    yield f"{path.stem}.{node.name}.{item.name}", item


def _references(node, enclosing, out, strings):
    """Append (name, ids of the definitions enclosing it) for each reference."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing | {id(node)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        out.append((node.id, enclosing))
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        out.append((node.attr, enclosing))
    elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        m = re.fullmatch(r"(\w+)\.(\w+)", node.value)
        if m and m.group(1) in MODULES:
            out.append((m.group(2), enclosing))
    for child in ast.iter_child_nodes(node):
        _references(child, enclosing, out, strings)


def unreached():
    refs = []
    for path, tree in TREES.items():
        _references(tree, frozenset(), refs, strings=path in BENCHMARK)
    return [label for label, node in public_names()
            if not any(name == node.name and id(node) not in where for name, where in refs)]


def test_scan_sees_the_package():
    labels = {label for label, _ in public_names()}
    assert {"gp.gp_minimize", "fock.SectorBasis.sector", "cli.main"} <= labels


def test_every_public_name_is_reached():
    dead = unreached()
    assert not dead, "reached by no module, criterion or benchmark: " + ", ".join(dead)
