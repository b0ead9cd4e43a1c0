import math

import pytest

from pqliouville import (
    ProblemInstance,
    aux_weights,
    classify,
    il_parameter_window,
    product_thresholds,
    product_trinomial,
    sum_thresholds,
)
from pqliouville.instance import MAX_FIELD
from pqliouville.report import Report

PRODUCT = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0)
DECISION = classify(PRODUCT)
RECORDS = (
    PRODUCT,
    product_thresholds(PRODUCT),
    sum_thresholds(ProblemInstance(N=2, p=2.0, q=1.9, kind="sum", s=1.5, m=0.5, M=1.0)),
    DECISION.exponents,
    product_trinomial(PRODUCT),
    DECISION.selection,
    DECISION,
    il_parameter_window(2.0, 3.0),
    aux_weights(2.0, 1.5, 0.5, 2.2, 2.0, 2),
    Report("0", {}, []),
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unlisted = None


class TestValidation:
    def test_exponent_ordering(self):
        with pytest.raises(ValueError):
            ProblemInstance(N=2, p=2.0, q=2.5, kind="product", s=1.0)
        with pytest.raises(ValueError):
            ProblemInstance(N=2, p=1.0, q=1.0, kind="product", s=1.0)

    def test_dimension(self):
        with pytest.raises(ValueError):
            ProblemInstance(N=1, p=2.0, q=2.0, kind="product", s=1.0)
        inst = ProblemInstance(N=3.0, p=2.0, q=2.0, kind="product", s=1.0)
        assert inst.N == 3 and isinstance(inst.N, int)

    def test_nonnegative_reaction_parameters(self):
        for bad in (dict(s=-0.1), dict(m=-1.0), dict(M=-2.0)):
            with pytest.raises(ValueError):
                ProblemInstance(N=2, p=2.0, q=2.0, kind="sum", **bad)

    def test_fields_up_to_max_field(self):
        top = dict(N=MAX_FIELD, p=MAX_FIELD, q=MAX_FIELD, s=MAX_FIELD, m=MAX_FIELD, M=MAX_FIELD)
        assert ProblemInstance(kind="sum", **top) == (int(MAX_FIELD), *[MAX_FIELD] * 2, "sum",
                                                      *[MAX_FIELD] * 3)
        for key in top:
            with pytest.raises(ValueError, match="at most"):
                ProblemInstance(kind="sum", **dict(top, **{key: math.nextafter(MAX_FIELD, math.inf)}))

    def test_int_beyond_float_range(self):
        # math.isfinite cannot convert such an int; it is refused like any other bad field
        for field in ("N", "p", "q", "s", "m", "M"):
            for huge in (10**400, -(10**400)):
                fields = dict(dict(N=2, p=2.0, q=2.0, kind="sum"), **{field: huge})
                with pytest.raises(ValueError, match="must be finite"):
                    ProblemInstance(**fields)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProblemInstance(N=2, p=2.0, q=2.0, kind="mixed")

    def test_gradient_only_kind_normalises_s_and_M(self):
        inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", s=4.0, m=2.5, M=7.0)
        assert inst.s == 0.0 and inst.M == 0.0 and inst.m == 2.5

    def test_combined_exponent(self):
        inst = ProblemInstance(N=2, p=2.2, q=2.0, kind="product", s=0.5, m=2.0)
        assert inst.combined_exponent == 1.5
