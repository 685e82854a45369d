"""A census of the uses of wavetrack's public names.

For each name in ``wavetrack.__all__`` it counts how many times the name
is loaded (read as a variable, or as an attribute of one of the package's
modules, such as ``scenarios.run_scenario``) in ``src/`` outside its own
definition, in ``tests/`` and in ``demos/``.  Imports and the ``__all__``
list are not loads.  A public name that only its own tests load has no
caller in the program, so it is a candidate for deletion.

The files are parsed with ``ast``, nothing is imported, so it runs
without ``PYTHONPATH``.  Run from the repository root::

    python3 tests/api_census.py

It prints one ``name src tests demos`` row per public name, in
``__all__`` order, and then the names that ``src/`` never loads.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wavetrack"
PLACES = ("src", "tests", "demos")


def public_names():
    """The names of ``wavetrack.__all__``, read from ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            return ast.literal_eval(node.value)
    raise SystemExit("no __all__ in src/wavetrack/__init__.py")


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


def census():
    """``(names, {place: Counter of loads})``."""
    names = public_names()
    modules = {"wavetrack", *(p.stem for p in PACKAGE.glob("*.py"))}
    counts = {}
    for place in PLACES:
        counts[place] = Counter()
        for path in sorted((ROOT / place).rglob("*.py")):
            counts[place] += loads(ast.parse(path.read_text()), set(names),
                                   modules)
    return names, counts


if __name__ == "__main__":
    names, counts = census()
    width = max(map(len, names))
    print(f"{'name':<{width}} " + " ".join(f"{p:>5}" for p in PLACES))
    for name in names:
        print(f"{name:<{width}} "
              + " ".join(f"{counts[p][name]:>5}" for p in PLACES))
    unused = [name for name in names if not counts["src"][name]]
    print("not loaded in src:", ", ".join(unused) or "none")
