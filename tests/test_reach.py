"""Every public name, field, returned key and option of src/rotogp serves a verdict.

The readers are the modules of src/rotogp, the acceptance criteria
(tests/test_acceptance.py) and the benchmark (perfbench/*.py).  Unit tests
do not count: what only its own unit tests use decides no verdict.

- Name: a public module-level function or class of src/rotogp, and every
  public method of such a class, is referred to from outside its own
  definition: a name or an attribute that is read, or, in the benchmark, a
  "module.name" string such as a tracer probe key.
- Field: each annotated field of a @dataclass in src/rotogp is read as an
  attribute.  Fields with init=False are exempt.
- Key: each constant string key of a dict literal that a public function or
  method returns is read as a constant subscript.
- Option: each defaulted parameter of a public function or method, and each
  defaulted dataclass field, is set by a call: by keyword, by a positional
  argument past the required ones or by a * spread.  A field may also be
  set by an attribute store (best.restart_energies = ...).  A ** spread of
  a function's own **kwargs sets what the calls of that function pass by
  keyword; any other ** spread sets every option.

A benchmark string equal to a field, key or option counts too: the tracer
binds check_dyson_inequality's ell_list and basis_sizes by name.

Matching is by name alone, so a name shared with another object (an
ndarray's .copy, say) reads as reached, and so does a key: a cfg or
results.json subscript reaches any returned key of the same name.  The
scan can miss dead code, but never flags live code.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotogp"
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
READERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py", *BENCHMARK]
TREES = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
EVERY = "*"  # a ** spread that may set any keyword


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


# ---------------------------------------------------------------------------
# fields, keys and options
# ---------------------------------------------------------------------------

def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _init_false(value):
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords)


def fields():
    """(label, class name, field, defaulted) of every init field of a public dataclass."""
    for label, node in public_names():
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and not _init_false(item.value):
                    name = item.target.id
                    yield f"{label}.{name}", node.name, name, item.value is not None


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def options():
    """(label, callee name, parameter, positional index or None, storable) of
    every defaulted parameter of a public function or method, then of every
    defaulted dataclass field, whose callee is its class's constructor."""
    for label, node in public_names():
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        method = label.count(".") == 2 and not any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first - method):  # self is not passed
            yield f"{label}({arg.arg})", node.name, arg.arg, i, False
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield f"{label}({arg.arg})", node.name, arg.arg, None, False
    classes = defaultdict(list)
    for label, cls, name, defaulted in fields():
        classes[cls].append((label, name, defaulted))
    for cls, init in classes.items():
        for i, (label, name, defaulted) in enumerate(init):
            if defaulted:
                yield label, cls, name, i, True


def _uses():
    """What the readers read and set: attribute reads and stores, constant
    subscripts, benchmark strings, and under each callee's name its calls'
    (positional count, * spread, keywords, functions whose **kwargs they spread)."""
    reads, stores, subscripts, strings = set(), set(), set(), set()
    calls = defaultdict(list)
    for path, tree in TREES.items():
        kwargs = {}  # id of a **name spread -> the function whose **name it is
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.args.kwarg:
                kwargs.update((id(k), fn.name) for call in ast.walk(fn)
                              for k in getattr(call, "keywords", ())
                              if k.arg is None and getattr(k.value, "id", None) == fn.args.kwarg.arg)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                (reads if isinstance(node.ctx, ast.Load) else stores).add(node.attr)
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                subscripts.add(node.slice.value)
            elif path in BENCHMARK and isinstance(node, ast.Constant):
                strings.add(node.value)
            elif isinstance(node, ast.Call):
                starred = [isinstance(a, ast.Starred) for a in node.args] + [True]
                names, forwards = set(), set()
                for k in node.keywords:
                    if k.arg:
                        names.add(k.arg)
                    elif id(k) in kwargs:
                        forwards.add(kwargs[id(k)])
                    else:
                        names.add(EVERY)
                calls[_callee(node)].append(
                    (starred.index(True), any(starred[:-1]), names, forwards))
    return reads, stores, subscripts, strings, calls


READS, STORES, SUBSCRIPTS, STRINGS, CALLS = _uses()


def _returned_keys():
    """(label, key) of each constant key of a dict literal a public function returns."""
    for label, node in public_names():
        if isinstance(node, ast.FunctionDef):
            for ret in ast.walk(node):
                if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Dict):
                    for key in ret.value.keys:
                        if isinstance(key, ast.Constant):
                            yield f"{label}[{key.value!r}]", key.value


def _is_set(callee, name, index, seen=frozenset()):
    """Some call of callee sets the parameter, or forwards it from a call of
    a function whose **kwargs it spreads."""
    return any(name in names or EVERY in names
               or index is not None and (star or npos > index)
               or any(_is_set(fn, name, None, seen | {callee}) for fn in forwards - seen)
               for npos, star, names, forwards in CALLS[callee])


def unread_fields():
    return [label for label, _, name, _ in fields() if name not in READS | STRINGS]


def unread_keys():
    return [label for label, key in _returned_keys() if key not in SUBSCRIPTS | STRINGS]


def unset_options():
    return [label for label, callee, name, index, storable in options()
            if not (_is_set(callee, name, index) or name in STRINGS
                    or storable and name in STORES)]


def test_scan_sees_the_package():
    labels = {label for label, _ in public_names()}
    assert {"gp.gp_minimize", "fock.SectorBasis.sector", "cli.main"} <= labels
    assert "gp.GpState.restart_energies" in {label for label, *_ in fields()}
    assert "dyson.verify_wr_scaling['slope']" in {label for label, _ in _returned_keys()}
    opts = {label for label, *_ in options()}
    assert {"dyson.check_dyson_inequality(ell_list)", "gp.GpSolverOptions.tol"} <= opts


def test_every_public_name_is_reached():
    dead = unreached()
    assert not dead, "reached by no module, criterion or benchmark: " + ", ".join(dead)


def test_every_field_and_returned_key_is_read():
    dead = unread_fields() + unread_keys()
    assert not dead, "read by no module, criterion or benchmark: " + ", ".join(dead)


def test_every_option_is_set():
    fixed = unset_options()
    assert not fixed, "set by no module, criterion or benchmark: " + ", ".join(fixed)
