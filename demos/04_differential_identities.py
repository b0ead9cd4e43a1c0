"""Numerically verify the differential identities on manufactured fields.

Checks, at two grid spacings each:
  * the change-of-variable expansion of the operator applied to v^b,
  * the curvature inequality for z = |grad v|^2,
  * the dilation law of the single-exponent operator.
"""

from pqliouville import (
    CATALOG,
    bochner_check,
    change_of_variable_check,
    refinement_order,
    scaling_check,
)


def main():
    field = CATALOG["offset_sine"]
    print("change-of-variable expansion on v = 2 + 0.3 sin(x1) cos(x2):")
    for b, p, q in ((0.5, 2.2, 1.5), (1.0, 3.0, 2.0), (2.0, 2.5, 2.0), (5.0, 3.0, 1.5)):
        coarse = change_of_variable_check(field.sample(65), b, p, q)
        fine = change_of_variable_check(field.sample(129), b, p, q)
        fine = fine._replace(observed_order=refinement_order(coarse, fine))
        print(f"  b={b:<4g} p={p:<4g} q={q:<4g}  rel_error={fine.rel_error:.3e} "
              f" observed order={fine.observed_order:.2f}  passed={fine.passed}")

    print("\ncurvature inequality (1/2) lap z >= (lap v)^2/N + <grad lap v, grad v>:")
    for name in ("saddle", "offset_sine", "sine_product"):
        rep = bochner_check(CATALOG[name].sample(129), 2)
        print(f"  {name:12s}  worst violation={rep.max_abs_error:.3e}  passed={rep.passed}")

    print("\ndilation law Delta_p[k^a u(k.)](x) = k^(a(p-1)+p) (Delta_p u)(kx):")
    for fname, k, alpha, p in (("radial_square", 2.0, 1.0, 2.0), ("sine_x1", 0.5, 2.0, 3.0)):
        rep = scaling_check(CATALOG[fname], k, alpha, p, n=65)
        print(f"  {fname:14s} k={k:<4g} alpha={alpha:<3g} p={p:<3g} "
              f"rel_error={rep.rel_error:.3e}  passed={rep.passed}")


if __name__ == "__main__":
    main()
