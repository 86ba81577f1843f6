"""Exact verification engine on flat space.

Everything here computes with exact rationals: polynomial tensor fields,
the projective embedding of sl(m+1) and its Casimir operator, divergence-
ansatz quantization of density-valued symbols, and the eigenvector lift
plan.  No tolerances exist in this subpackage.

Exports load on first use: importing `projquant.flatmodel.liftplan` does
not compile the rest of the engine, and reading `flatmodel.Poly` first
imports `flatmodel.poly`.
"""

from .. import _lazy_exports

_EXPORTS = {
    **dict.fromkeys(("classical_casimir", "proj_embedding", "sl_basis"), "algebra"),
    **dict.fromkeys(("LiftNode", "LiftPlan", "lift_plan"), "liftplan"),
    **dict.fromkeys(
        ("DiffOperator", "compose", "contraction_operator", "lie_operator"), "operators"
    ),
    "Poly": "poly",
    **dict.fromkeys(
        ("EquivarianceReport", "QuantCoefficients", "density_quant_coefficients",
         "quantization_operator", "quantize_densities", "solver_singular_deltas",
         "verify_equivariance"),
        "quantize",
    ),
    **dict.fromkeys(
        ("PolyVectorField", "TensorSection", "divergence", "lie_derivative",
         "random_polynomial", "random_section", "young_section"),
        "sections",
    ),
}  # fmt: skip

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
