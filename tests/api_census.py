"""A census of the uses of wavetrack's public names.

For each name in ``wavetrack.__all__`` it counts how many times the name
is loaded (read as a variable, or as an attribute of one of the package's
modules, such as ``scenarios.run_scenario``) in ``src/`` outside its own
definition, in ``tests/`` and in ``demos/``.  Imports and the ``__all__``
list are not loads.  A public name that only its own tests load has no
caller in the program, so it is a candidate for deletion.  For each
defaulted parameter of a public function it also counts the calls in
``src/`` and in ``benchmark/`` that set it, by position or by keyword: an
option that neither the program nor a benchmark workload sets is selected
only by tests and demos, so it too is a candidate for deletion.

The files are parsed with ``ast``, nothing is imported, so it runs
without ``PYTHONPATH``.  Run from the repository root::

    python3 tests/api_census.py

It prints one ``name src tests demos`` row per public name, in
``__all__`` order, and then the names that ``src/`` never loads; then one
``function(parameter) src benchmark`` row per defaulted parameter, and
the parameters that no call in either sets.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wavetrack"
PLACES = ("src", "tests", "demos")
SETTERS = ("src", "benchmark")    # where a call counts as setting an option


def public_names():
    """The names of ``wavetrack.__all__``, read from ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            return ast.literal_eval(node.value)
    raise SystemExit("no __all__ in src/wavetrack/__init__.py")


def package_modules():
    """The names a package module is read by: ``wavetrack`` and each
    module's own."""
    return {"wavetrack", *(p.stem for p in PACKAGE.glob("*.py"))}


def loads(tree, names, modules):
    """Counter of the loads of ``names`` in ``tree``, leaving out those
    inside a function or class of the same name (its own definition)."""
    seen = Counter()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            name = node.attr
        if name in names and name not in inside:
            seen[name] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return seen


def defaulted(names):
    """{function: [(parameter, position, or None if keyword-only)]} of the
    defaulted parameters of each public function, in signature order, read
    from its definition in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                a = node.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                out[node.name] = [(p.arg, i) for i, p in enumerate(pos)
                                  if i >= first] + [
                    (p.arg, None)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
    return out


def settings(tree, params, modules):
    """Counter of the ``(function, parameter)`` pairs of ``params`` (see
    :func:`defaulted`) that the calls in ``tree`` set, by position or by
    keyword; a ``*`` or ``**`` argument may set any of them."""
    seen = Counter()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if (isinstance(f, ast.Attribute)
                                and isinstance(f.value, ast.Name)
                                and f.value.id in modules)
                else None)
        keys = {k.arg for k in node.keywords}
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        for param, i in params.get(name, ()):
            if (param in keys or None in keys or i is not None
                    and (i < len(node.args) or starred)):
                seen[name, param] += 1
    return seen


def census():
    """``(names, {place: Counter of loads})``."""
    names = public_names()
    modules = package_modules()
    counts = {}
    for place in PLACES:
        counts[place] = Counter()
        for path in sorted((ROOT / place).rglob("*.py")):
            counts[place] += loads(ast.parse(path.read_text()), set(names),
                                   modules)
    return names, counts


def option_census(names):
    """``[(function, parameter, (calls in each of SETTERS that set it))]``
    over the defaulted parameters of the public functions ``names``, in
    ``__all__`` and signature order."""
    params, modules = defaulted(names), package_modules()
    seen = {place: Counter() for place in SETTERS}
    for place in SETTERS:
        for path in sorted((ROOT / place).rglob("*.py")):
            seen[place] += settings(ast.parse(path.read_text()), params,
                                    modules)
    return [(name, param, tuple(seen[p][name, param] for p in SETTERS))
            for name in names for param, _ in params.get(name, ())]


if __name__ == "__main__":
    names, counts = census()
    width = max(map(len, names))
    print(f"{'name':<{width}} " + " ".join(f"{p:>5}" for p in PLACES))
    for name in names:
        print(f"{name:<{width}} "
              + " ".join(f"{counts[p][name]:>5}" for p in PLACES))
    unused = [name for name in names if not counts["src"][name]]
    print("not loaded in src:", ", ".join(unused) or "none")
    rows = option_census(names)
    labels = [f"{name}({param})" for name, param, _ in rows]
    width = max(map(len, labels))
    print(f"{'defaulted parameter':<{width}} "
          + " ".join(f"{p:>9}" for p in SETTERS))
    for label, (*_, ns) in zip(labels, rows):
        print(f"{label:<{width}} " + " ".join(f"{n:>9}" for n in ns))
    print("set by no src or benchmark call:",
          ", ".join(lab for lab, (*_, ns) in zip(labels, rows) if not any(ns))
          or "none")
