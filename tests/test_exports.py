import ast
import importlib
import pathlib
import pkgutil

import pytest

import rowtuples

# ``__main__`` runs the command line on import
MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(rowtuples.__path__) if name != "__main__"
)


def test_modules_found():
    assert {"cli", "ideals", "subspaces", "sweeps"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"rowtuples.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from rowtuples import *", namespace)
    assert "annihilator" in namespace and "RowTuple" in namespace


@pytest.mark.parametrize("name", ["cli", "sweeps"])
def test_front_ends_import_only_public_names(name):
    # the benchmark tracer wraps public functions only, so a front end that
    # imports a private one hides that layer's time
    path = pathlib.Path(rowtuples.__file__).with_name(f"{name}.py")
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "rowtuples")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg"])
def test_rank_decisions_go_through_linalg(name):
    # np.linalg.matrix_rank ignores ToleranceConfig; linalg.numerical_rank honours it
    path = pathlib.Path(rowtuples.__file__).with_name(f"{name}.py")
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "matrix_rank"
    ]
    assert calls == []


@pytest.mark.parametrize("name", [m for m in MODULES if m not in ("linalg", "sweeps")])
def test_svds_go_through_linalg(name):
    # every rank cutoff is then one of linalg's; the sweeps' own checks keep
    # an SVD of their own, so that they stay independent of the library
    path = pathlib.Path(rowtuples.__file__).with_name(f"{name}.py")
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "svd"
    ]
    assert calls == []


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg"])
def test_zero_test_bounds_carry_no_literal(name):
    # a bound of norm_at_most or in_span is a named cutoff or comes from
    # linalg.zero_cutoff, so the threshold policy lives in one place
    path = pathlib.Path(rowtuples.__file__).with_name(f"{name}.py")
    position = {"norm_at_most": 1, "in_span": 2}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and _callee(node) in position):
            continue
        args = node.args[position[_callee(node)]:] + [
            kw.value for kw in node.keywords if kw.arg == "bound"
        ]
        found += [
            n.lineno
            for arg in args[:1]
            for n in ast.walk(arg)
            if isinstance(n, ast.Constant) and type(n.value) in (int, float, complex)
        ]
    assert found == []


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used_or_exported(name):
    # an import left behind by a removed caller is dead code
    path = pathlib.Path(rowtuples.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(importlib.import_module(f"rowtuples.{name}").__dict__.get("__all__", ()))
    assert sorted(imported - used - exported) == []
