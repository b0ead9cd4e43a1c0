import math
import re

import numpy as np
import pytest

from pqliouville import AdmissibilityError, il_alpha_window, il_gamma_lo, il_parameter_window
from oracles import il_gamma_lo_bisection

# (q, m) outside the window's domain, and what each is refused for.
REFUSED = {
    "m-1e300": ((2.0, 1e300), "q and m must be at most 1e+15"),
    "q-m-1e300": ((1e300, 1e301), "q and m must be at most 1e+15"),
    "m-inf": ((2.0, math.inf), "q and m must be finite"),
    "q-nan": ((math.nan, 3.0), "q and m must be finite"),
    "q-1": ((1.0, 3.0), "q must exceed 1"),
    "m-0": ((2.0, 0.0), "m must be positive"),
}
# (q, m) with m <= q, where the window is empty.
NO_WINDOW = [(2.0, 2.0), (2.0, 1.5), (3.0, 1e-3)]


class TestWindow:
    def test_worked_example(self):
        window = il_parameter_window(2.0, 3.0)
        assert window.feasible
        assert window.gamma_lo == pytest.approx(0.5, abs=1e-15)
        assert window.gamma_hi == 1.0
        lo, hi = il_alpha_window(2.0, 3.0, 0.75)
        assert (lo, hi) == (pytest.approx(0.25), pytest.approx(0.75))

    def test_feasible_iff_m_above_q(self):
        for q in (1.2, 1.5, 2.0, 3.0):
            for m in (0.5, q - 0.1, q, q + 1e-9, q + 0.5, q + 2.0):
                if m <= 0.0:
                    continue
                window = il_parameter_window(q, m)
                assert window.feasible == (m > q)

    def test_boundary_m_eq_q_infeasible(self):
        assert il_parameter_window(2.0, 2.0) == (False, None, None)

    def test_small_q_example(self):
        window = il_parameter_window(1.5, 2.5)
        assert window.gamma_lo == pytest.approx(0.5, abs=1e-15)

    def test_alpha_window_nonempty_and_clamped(self):
        # At every gamma of the window, alpha ranges over (gamma - gamma_lo, gamma).
        for q, m in ((1.3, 2.0), (2.0, 2.5), (2.5, 6.0)):
            window = il_parameter_window(q, m)
            for gamma in np.linspace(window.gamma_lo, window.gamma_hi, 27)[1:-1]:
                lo, hi = il_alpha_window(q, m, gamma)
                assert 0.0 < lo < hi == gamma
                assert lo == pytest.approx(gamma - window.gamma_lo, abs=1e-15)

    def test_closed_form_matches_bisection(self):
        for q in np.linspace(1.1, 3.5, 13):
            for m in np.linspace(0.5, 6.0, 12):
                oracle = il_gamma_lo_bisection(q, m)
                if m <= q:
                    assert oracle is None
                else:
                    assert abs(oracle - il_gamma_lo(q, m)) <= 1e-12

    def test_input_guards(self):
        with pytest.raises(ValueError):
            il_parameter_window(1.0, 2.0)
        with pytest.raises(ValueError):
            il_parameter_window(2.0, 0.0)


class TestRefusals:
    @pytest.mark.parametrize("qm, message", REFUSED.values(), ids=REFUSED)
    def test_gamma_lo_refuses(self, qm, message):
        with pytest.raises(AdmissibilityError, match=re.escape(message)):
            il_gamma_lo(*qm)

    @pytest.mark.parametrize("qm, message", REFUSED.values(), ids=REFUSED)
    def test_alpha_window_refuses(self, qm, message):
        with pytest.raises(AdmissibilityError, match=re.escape(message)):
            il_alpha_window(*qm, 0.75)

    @pytest.mark.parametrize("qm, message", REFUSED.values(), ids=REFUSED)
    def test_parameter_window_refuses_as_gamma_lo_does(self, qm, message):
        refusals = []
        for window in (il_parameter_window, il_gamma_lo):
            with pytest.raises(AdmissibilityError) as info:
                window(*qm)
            refusals.append(str(info.value))
        assert refusals == [message, message]

    @pytest.mark.parametrize("qm", NO_WINDOW)
    def test_no_window_at_m_at_most_q(self, qm):
        assert il_parameter_window(*qm) == (False, None, None)
        for refused in (lambda: il_gamma_lo(*qm), lambda: il_alpha_window(*qm, 0.75)):
            with pytest.raises(AdmissibilityError, match="the window is empty unless m > q"):
                refused()
