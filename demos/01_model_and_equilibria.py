"""
Model setup, reproduction number, equilibria
============================================

Builds a parameter set for the delayed host-vector model, computes the
reproduction number and both equilibria, and verifies the closed forms by
plugging them back into the right hand side.
"""

from malaria_dde import (
    ModelParams,
    SystemKind,
    basic_reproduction_number,
    disease_free_equilibrium,
    endemic_equilibrium,
    equilibrium_residual,
    r0_squared,
    rhs,
)

# recruitment beta_h/beta_v, mortality mu_h/mu_v, transmission c_vh (vector
# to host) and c_hv (host to vector), incubation delay tau
p = ModelParams(beta_h=2.0, beta_v=5.0, mu_h=0.5, mu_v=0.1,
                c_vh=0.2, c_hv=0.1, tau=1.0)

print("R0^2 =", r0_squared(p))
print("R0   =", basic_reproduction_number(p))

e0 = disease_free_equilibrium(p)
print("\ndisease-free state:", e0.as_tuple())
print("rhs there:", rhs(p, e0, e0, SystemKind.FULL))

star = endemic_equilibrium(p)
print("\nendemic state:", star.as_tuple())
print("residual:", equilibrium_residual(p, star))

# the endemic state exists exactly when R0 > 1; damp transmission and it
# disappears while the disease-free state stays put
weak = p._replace(c_vh=0.05, c_hv=0.05)
print("\nwith weak transmission: R0 =", basic_reproduction_number(weak))
print("endemic state:", endemic_equilibrium(weak))
print("disease-free state:", disease_free_equilibrium(weak).as_tuple())

# R0^2 is linear in each transmission coefficient
print("\ndoubling c_vh doubles R0^2:",
      r0_squared(p._replace(c_vh=0.4)) == 2 * r0_squared(p))
