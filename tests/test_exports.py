"""Module hygiene: every exported name exists and every imported name is used."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import climbench

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [climbench] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(climbench.__path__, "climbench.")]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert len(modules) > 20
    assert missing == []


def test_every_traced_name_exists():
    # The benchmark's tracer wraps these names; a rename would break --trace 1.
    path = ROOT / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if not callable(vars(owner).get(attr))]
    assert len(targets) > 20
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports and neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:          # re-exports, as in the package __init__ files
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items(),
                                                       key=lambda kv: kv[1])
            if name not in used]


def test_unused_imports_scan_finds_them():
    source = ("import os\nimport numpy as np\nfrom a import b, c\n"
              "__all__ = ['c']\nprint(np.pi)\n")
    assert unused_imports(source) == ["1: os", "3: b"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{hit}"
             for tree in ("src", "tests") for path in sorted((ROOT / tree).rglob("*.py"))
             for hit in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


# Where a parameter's array may be bound: the constructor, and the unpickling
# hook that points parameters back into their net's ``flat`` vector.
DATA_BINDERS = {("Tensor", "__init__"), ("Mlp", "__setstate__")}


def data_rebinds(source: str) -> list[str]:
    """Stores to an attribute named ``data`` outside ``DATA_BINDERS``.

    A parameter's ``data`` is a view into its net's ``flat`` vector; binding a
    new array detaches it, so optimizers and target blends stop moving it.
    Writes through the array (``p.data[...] = x``) are not stores to the
    attribute and pass.
    """
    hits = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (scope[-1], node.name) if scope else (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "data"
                and isinstance(node.ctx, ast.Store) and scope not in DATA_BINDERS):
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return hits


def test_data_rebind_scan_finds_them():
    source = ("class Tensor:\n"
              "    def __init__(self, d):\n        self.data = d\n"
              "    def reset(self, d):\n        self.data = d\n"
              "def f(p, q, x):\n    p.data += x\n    p.data[...] = x\n"
              "    q.grad, p.data = x, x\n")
    assert data_rebinds(source) == ["5: self.data", "7: p.data", "9: p.data"]


def test_no_parameter_data_rebinds():
    found = [f"{path.relative_to(ROOT)}:{hit}"
             for tree in ("src", "tests") for path in sorted((ROOT / tree).rglob("*.py"))
             for hit in data_rebinds(path.read_text(encoding="utf-8"))]
    assert found == []
