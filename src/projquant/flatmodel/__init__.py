"""Exact verification engine on flat space.

Everything here computes with exact rationals: polynomial tensor fields,
the projective embedding of sl(m+1) and its Casimir operator, divergence-
ansatz quantization of density-valued symbols, and the eigenvector lift
plan.  No tolerances exist in this subpackage.
"""

from .algebra import (
    classical_casimir,
    killing_dual_basis,
    matrix_bracket,
    proj_embedding,
    sl_basis,
)
from .liftplan import LiftNode, LiftPlan, lift_plan
from .operators import DiffOperator, compose, contraction_operator, lie_operator
from .poly import Poly
from .quantize import (
    EquivarianceReport,
    QuantCoefficients,
    density_quant_coefficients,
    quantization_operator,
    quantize_densities,
    solver_singular_deltas,
    verify_equivariance,
)
from .sections import (
    PolyVectorField,
    TensorSection,
    alternating_section,
    divergence,
    lie_derivative,
    random_polynomial,
    random_section,
    symmetric_section,
)

__all__ = [
    "DiffOperator",
    "EquivarianceReport",
    "LiftNode",
    "LiftPlan",
    "Poly",
    "PolyVectorField",
    "QuantCoefficients",
    "TensorSection",
    "alternating_section",
    "classical_casimir",
    "compose",
    "contraction_operator",
    "density_quant_coefficients",
    "divergence",
    "killing_dual_basis",
    "lie_derivative",
    "lie_operator",
    "lift_plan",
    "matrix_bracket",
    "proj_embedding",
    "quantization_operator",
    "quantize_densities",
    "random_polynomial",
    "random_section",
    "sl_basis",
    "solver_singular_deltas",
    "symmetric_section",
    "verify_equivariance",
]
