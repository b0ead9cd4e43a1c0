"""Tools around Liouville-type regimes for (p,q)-Laplacian gradient reactions.

The library classifies problem instances against the known theorem
hypotheses, constructively selects the Bernstein-type change-of-variable
parameters with an independent grid oracle, verifies the underlying
differential identities on manufactured grid fields, and solves radial
boundary-value reductions to probe the predicted gradient-decay rates.
"""

import importlib

from .classify import EstimateRate, RegimeDecision, TheoremCondition, classify, estimate_rate
from .exponents import (
    ExponentBundle,
    admissible_floor,
    b_from_t,
    beta1,
    beta2,
    beta2_large_b_limit,
    exponent_bundle,
    gamma_exponent,
    sum_beta2,
    sum_exponent_bundle,
    t_from_b,
    theta_exponent,
)
from .errors import AdmissibilityError, FieldError
from .instance import KINDS, ProblemInstance
from .ishii_lions import ILWindow, il_alpha_window, il_gamma_lo, il_parameter_window
from .selection import BSelection, select_b_product, small_s_threshold, sum_selection
from .thresholds import (
    ProductThresholds,
    SumThresholds,
    operator_gap,
    product_thresholds,
    sum_thresholds,
)
from .trinomial import (
    TrinomialCoeffs,
    epsilon_sensitivity,
    product_trinomial,
    sum_leading_coefficient,
    verify_negativity,
)
from .weights import AuxWeights, aux_weights

# Names from the numpy/scipy-backed modules load on first access (PEP 562),
# so `import pqliouville` and the closed-form commands import neither.
_DEFERRED = {
    name: module
    for module, names in (
        ("fields", ("CATALOG", "ManufacturedField")),
        ("grid", ("GridField", "grid_field", "sample_function")),
        ("identities", ("IdentityReport", "attach_order", "bochner_check",
                        "change_of_variable_check", "default_tolerance", "refinement_order",
                        "scaling_check")),
        ("operators", ("laplacian", "p_laplacian", "pq_laplacian")),
        ("radial", ("BlowupFit", "RadialProblem", "RadialSolution", "default_fit_window",
                    "estimate_consistency", "fit_blowup_exponent", "gradient_vs_distance",
                    "manufactured_source", "radial_mesh", "solve_radial")),
    )
    for name in names
}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_DEFERRED))


__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "AuxWeights",
    "BSelection",
    "BlowupFit",
    "CATALOG",
    "EstimateRate",
    "ExponentBundle",
    "FieldError",
    "GridField",
    "ILWindow",
    "IdentityReport",
    "KINDS",
    "ManufacturedField",
    "ProblemInstance",
    "ProductThresholds",
    "RadialProblem",
    "RadialSolution",
    "RegimeDecision",
    "SumThresholds",
    "TheoremCondition",
    "TrinomialCoeffs",
    "admissible_floor",
    "attach_order",
    "aux_weights",
    "b_from_t",
    "beta1",
    "beta2",
    "beta2_large_b_limit",
    "bochner_check",
    "change_of_variable_check",
    "classify",
    "default_fit_window",
    "default_tolerance",
    "epsilon_sensitivity",
    "estimate_consistency",
    "estimate_rate",
    "exponent_bundle",
    "fit_blowup_exponent",
    "gamma_exponent",
    "gradient_vs_distance",
    "grid_field",
    "il_alpha_window",
    "il_gamma_lo",
    "il_parameter_window",
    "laplacian",
    "manufactured_source",
    "operator_gap",
    "p_laplacian",
    "pq_laplacian",
    "product_thresholds",
    "product_trinomial",
    "radial_mesh",
    "refinement_order",
    "sample_function",
    "scaling_check",
    "select_b_product",
    "small_s_threshold",
    "solve_radial",
    "sum_beta2",
    "sum_exponent_bundle",
    "sum_leading_coefficient",
    "sum_selection",
    "sum_thresholds",
    "t_from_b",
    "theta_exponent",
    "verify_negativity",
]
