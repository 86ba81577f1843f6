"""Algebraic machinery of projectively equivariant quantization.

Young-diagram classification of GL(m) irreducibles, restriction to GL(m-1),
Casimir eigenvalues and resonant weights, tensor-product decompositions,
and an exact flat-space engine that independently verifies the eigenvalue
formula and constructs equivariant quantizations for density-valued
symbols.

Exports load on first use: `import projquant` imports no submodule, and
reading `projquant.eigenvalue` first imports `projquant.casimir`.
"""

from importlib import import_module

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """A package's PEP 562 `__getattr__` and `__dir__`.

    `exports` maps each public name to the submodule that defines it; the
    submodule is imported when the name is first read, and the value is
    kept in the package `namespace` so later reads are plain lookups.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{exports[name]}"), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


_EXPORTS = {
    **dict.fromkeys(
        ("BranchLabel", "branch_labels", "component", "max_removal_embedding",
         "zero_removal_embedding"),
        "branching",
    ),
    **dict.fromkeys(
        ("EigenvaluePoly", "eigenvalue", "is_resonant", "resonances",
         "resonances_for_symbols"),
        "casimir",
    ),
    **dict.fromkeys(
        ("IrrepLabel", "YoungDiagram", "canonicalize", "dimension", "dual", "extend_rank",
         "extend_rank_dual"),
        "diagrams",
    ),
    "ResonantWeight": "errors",
    **dict.fromkeys(("Decomposition", "littlewood_richardson", "pieri", "symbol_rep"), "tensor"),
}  # fmt: skip

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
