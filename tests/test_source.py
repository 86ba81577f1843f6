import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import projquant


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no library check may be one
    root = Path(projquant.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_test_support_has_no_assert_statements():
    # pytest rewrites asserts only in test modules; python -O strips the rest,
    # so the oracles' checks in support.py must raise explicitly
    path = Path(__file__).with_name("support.py")
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_only_the_kernel_reads_the_poly_representation():
    # a Poly's content and primitive part are kept canonical by poly.py alone
    root = Path(projquant.__file__).parent
    kernel = root / "flatmodel" / "poly.py"
    paths = sorted(root.rglob("*.py"))
    assert kernel in paths
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in paths
        if path != kernel
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in {"_terms", "_num", "_den"}
    ]
    assert not found, found


def test_library_does_not_import_dataclasses():
    # its import (through inspect) costs a CLI call more than most subcommands compute
    root = Path(projquant.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        package = ".".join(("projquant", *path.relative_to(root).parent.parts))
        names = _imported_names(ast.parse(path.read_text()), package)
        if any(name.partition(".")[0] == "dataclasses" for name in names):
            found.append(str(path.relative_to(root)))
    assert not found, found


def test_records_compare_and_hash_only_through_record_and_poly_has_no_init():
    # one equality and one hash for every record, and Poly(...) returns the
    # canonical object `_poly` builds instead of copying it into a second one
    from projquant.flatmodel.poly import Poly
    from projquant.records import Record

    records = {
        cls
        for module in map(importlib.import_module, _library_modules())
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
    }
    assert {"YoungDiagram", "IrrepLabel", "BranchLabel"} <= {cls.__name__ for cls in records}
    found = [cls.__name__ for cls in records if {"__eq__", "__hash__"} & cls.__dict__.keys()]
    assert not found, found
    assert "__init__" not in Poly.__dict__
    assert Poly(3) is Poly.zero(3)


def _library_modules() -> list[str]:
    root = Path(projquant.__file__).parent
    parts = (path.relative_to(root.parent).with_suffix("").parts for path in root.rglob("*.py"))
    return sorted(".".join(p[:-1] if p[-1] == "__init__" else p) for p in parts)


PUBLIC_NAMES = {
    "projquant": """BranchLabel Decomposition EigenvaluePoly IrrepLabel ResonantWeight YoungDiagram
        branch_labels canonicalize component dimension dual eigenvalue extend_rank
        extend_rank_dual is_resonant littlewood_richardson max_removal_embedding pieri
        resonances resonances_for_symbols symbol_rep
        zero_removal_embedding""",
    "projquant.flatmodel": """DiffOperator EquivarianceReport LiftNode LiftPlan Poly
        PolyVectorField QuantCoefficients TensorSection classical_casimir compose
        contraction_operator density_quant_coefficients divergence lie_derivative
        lie_operator lift_plan proj_embedding
        quantization_operator quantize_densities random_polynomial random_section sl_basis
        solver_singular_deltas verify_equivariance young_section""",
}


def test_package_imports_load_no_submodule():
    script = (
        "import sys, projquant, projquant.flatmodel\n"
        "print(sorted(m for m in sys.modules if m.startswith('projquant')))\n"
        "print(all(set(p.__all__) <= set(dir(p)) for p in (projquant, projquant.flatmodel)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(projquant.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.stdout.split("\n")[:2] == ["['projquant', 'projquant.flatmodel']", "True"]


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_lazy_exports_resolve_to_their_home_modules(package):
    module = importlib.import_module(package)
    assert module.__all__ == sorted(PUBLIC_NAMES[package].split())
    for name in module.__all__:
        value = getattr(module, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert value.__module__.startswith(f"{package}.")
        assert name in dir(module)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(module.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_console_script_is_the_function_the_main_block_calls():
    # the script and `python -m projquant.cli` share one entry, which flushes
    # and skips interpreter teardown; a script target of `main` would give
    # installed users the teardown and the tracebacks on unwritable output
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    cli = ast.parse((Path(projquant.__file__).parent / "cli.py").read_text())
    blocks = [
        node.body
        for node in cli.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(blocks) == 1
    [statement] = blocks[0]
    assert isinstance(statement, ast.Expr)
    call = statement.value
    assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and not call.args
    assert scripts == {"projquant": f"projquant.cli:{call.func.id}"}


def test_submodules_import_beside_lazy_exports():
    from projquant import cli
    from projquant.flatmodel import quantize

    assert cli.main and quantize.density_quant_coefficients



def _imported_names(tree: ast.Module, package: str):
    """Absolute names of the modules a module imports from, and of each name
    it imports from them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["algebra", "sections"])
def test_flat_casimir_side_imports_nothing_from_casimir(module):
    # criterion 1 checks the flat operator against projquant.casimir, so the
    # operator must be built without it
    path = Path(projquant.__file__).parent / "flatmodel" / f"{module}.py"
    names = set(_imported_names(ast.parse(path.read_text()), "projquant.flatmodel"))
    assert "projquant.flatmodel.poly.Poly" in names  # the resolution works
    bad = {n for n in names if n == "projquant.casimir" or n.startswith("projquant.casimir.")}
    assert not bad, bad
