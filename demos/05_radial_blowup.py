"""Probe the predicted near-boundary gradient rate with a radial solve.

For the gradient-only reaction with m > p - 1 the theory bounds
|grad u| by dist^(-1/(m-p+1)).  Pushing the inner boundary datum far
down with data continuation drives the solved profile into the singular
regime, where the fitted log-log slope should approach the predicted
power (2 for p=3, m=2.5).
"""

from pqliouville import (
    ProblemInstance,
    RadialProblem,
    classify,
    default_fit_window,
    estimate_consistency,
    fit_blowup_exponent,
    gradient_vs_distance,
    solve_radial,
)


def main():
    inst = ProblemInstance(N=2, p=3.0, q=2.0, kind="hamilton_jacobi", m=2.5)
    decision = classify(inst)
    predicted = decision.estimate_exponent
    print(f"regime: {decision.theorem}, predicted rate dist^(-{predicted:g}) "
          f"on {decision.estimate_target}")

    mesh = 1024
    depth = 10.0 * mesh
    prob = RadialProblem(inst, 1.0, 2.0, -depth, 0.0, mesh_n=mesh, reg_eps=1e-8)
    sol = solve_radial(prob)
    print(f"solved annulus [1,2] with u(1) = -{depth:g}: converged={sol.converged} "
          f"({sol.newton_iters} Newton steps over {sol.continuation_steps} continuation stages)")

    profile = gradient_vs_distance(sol)
    window = default_fit_window(sol)
    fit = fit_blowup_exponent(profile, window)
    print(f"fit window d in [{window[0]:.4g}, {window[1]:.4g}]: "
          f"|du| ~ {fit.fitted_C:.2f} d^(-{fit.fitted_exponent:.3f})  (r^2={fit.r_squared:.4f})")
    print(f"deviation from predicted rate: {abs(fit.fitted_exponent - predicted) / predicted:.1%}")

    constant = estimate_consistency(sol, decision)
    print(f"smallest C with |du| <= C(1 + d^(-{predicted:g})): {constant:.2f}")

    print("\nnear-boundary profile (d, |du|):")
    for d, g in profile[:8]:
        print(f"  {d:10.5f}  {g:12.1f}")


if __name__ == "__main__":
    main()
