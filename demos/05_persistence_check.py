"""
Weak persistence above the threshold
====================================

When R0 > 1 the infection does not fade out: the infected host count keeps
returning above theta * I_h* for any fraction theta in (0, 1), and the
susceptible pools eventually stay above closed-form bounds that dominate
the endemic values. Both statements are checkable.
"""

from malaria_dde import (
    HistorySegment,
    IntegrationSpec,
    ModelParams,
    SystemKind,
    endemic_equilibrium,
    integrate,
    persistence_bounds,
    weak_persistence_check,
)

p = ModelParams(beta_h=2.0, beta_v=5.0, mu_h=0.5, mu_v=0.1,
                c_vh=0.2, c_hv=0.1, tau=1.0)
star = endemic_equilibrium(p)
print("endemic state:", star.as_tuple())

# the bounds tighten toward the endemic values as theta -> 1
print("\ntheta    s_v lower bound    s_h lower bound")
for theta in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
    b = persistence_bounds(p, theta)
    print(f"{theta:5}    {b.s_v_bar:15.6f}    {b.s_h_bar:15.6f}")
print(f"  E*:    {star.s_v:15.6f}    {star.s_h:15.6f}")

# trajectory check: seed an infection, run the full system once and test
# the tail of that run at each fraction; with t_end left unset the run goes
# to the default horizon 40 / min(mu_h, mu_v)
phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), p.tau)
traj = integrate(p, phi, IntegrationSpec(system=SystemKind.FULL))
for theta in (0.1, 0.5, 0.9):
    report = weak_persistence_check(p, traj, theta)
    print(f"\ntheta = {theta}")
    for line in report.as_lines():
        print(" ", line)
