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
    product_trinomial,
    sum_leading_coefficient,
    verify_negativity,
)

# Names from the numpy/scipy-backed modules load on first access (PEP 562),
# so `import pqliouville` and the closed-form commands import neither.
_DEFERRED = {
    name: module
    for module, names in (
        ("fields", ("CATALOG", "ManufacturedField")),
        ("identities", ("AuxWeights", "IdentityReport", "aux_weights", "bochner_check",
                        "change_of_variable_check", "change_of_variable_checks",
                        "default_tolerance", "refinement_order",
                        "scaling_check")),
        ("operators", ("GridField", "grid_field", "p_laplacian", "pq_laplacian", "sample_function")),
        ("radial", ("BlowupFit", "RadialProblem", "RadialSolution", "default_fit_window",
                    "estimate_consistency", "fit_blowup_exponent", "gradient_vs_distance",
                    "manufactured_source", "radial_mesh", "solve_radial")),
    )
    for name in names
}

# The public names: what the imports above bind, less the submodules they
# bind as a side effect, and the deferred names.
__all__ = sorted([name for name, value in globals().items() if not name.startswith("_")
                  and not isinstance(value, type(importlib))] + list(_DEFERRED))


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_DEFERRED))


__version__ = "0.1.0"

