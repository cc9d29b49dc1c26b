"""
Spectral stability of the two equilibria
========================================

The linearization at either equilibrium factors into (lam + mu_h)(lam + mu_v)
times a transcendental quadratic G(lam) = lam^2 + a1 lam + a2 + a3 e^(-lam tau).
classify() reads the verdict from R0^2 and finds the rightmost real root of
G. Its two flag lines, imag_axis_root_exists and routh_hurwitz_tau0, restate
the sign of G(0), which is the sign of 1 - R0^2 at E0 and of R0^2 - 1 at E*;
only the root's value says more than R0 does.
"""

from malaria_dde import (
    DfeCharCoeffs,
    EndemicCharCoeffs,
    EquilibriumKind,
    ModelParams,
    char_eval,
    classify,
)

p = ModelParams(beta_h=2.0, beta_v=5.0, mu_h=0.5, mu_v=0.1,
                c_vh=0.2, c_hv=0.1, tau=1.0)  # R0 > 1

print("supercritical parameters")
for kind in (EquilibriumKind.DISEASE_FREE, EquilibriumKind.ENDEMIC):
    for line in classify(p, kind).as_lines():
        print(" ", line)

weak = p._replace(c_vh=0.05, c_hv=0.05)  # R0 < 1
print("\nsubcritical parameters")
for line in classify(weak, EquilibriumKind.DISEASE_FREE).as_lines():
    print(" ", line)

# the verdicts do not move with the delay
print("\nrightmost real root at the unstable disease-free state, by tau:")
for tau in (0.0, 0.5, 1.0, 2.0, 5.0):
    rep = classify(p._replace(tau=tau), EquilibriumKind.DISEASE_FREE)
    print(f"  tau = {tau:3}: root = {rep.rightmost_real_root:.6f}"
          f"  ({rep.classification.value})")

# G itself is available for inspection
q = DfeCharCoeffs.from_params(p)
c = EndemicCharCoeffs.from_params(p)
print("\nG_dfe(0) =", char_eval(q, 0.0), " (negative iff R0 > 1)")
print("G_star(0) =", char_eval(c, 0.0), " (positive iff R0 > 1)")
