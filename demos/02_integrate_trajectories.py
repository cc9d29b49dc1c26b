"""
Integrating the delayed system
==============================

Fixed-step fourth order march with the delayed terms read off the mesh,
dense output between nodes, tail statistics, and CSV export.
"""

import numpy as np

from malaria_dde import (
    HistorySegment,
    IntegrationSpec,
    ModelParams,
    SystemKind,
    dense_eval,
    integrate,
    tail_stats,
)

p = ModelParams(beta_h=2.0, beta_v=5.0, mu_h=0.5, mu_v=0.1,
                c_vh=0.2, c_hv=0.1, tau=1.0)

# constant history on [-tau, 0]: a small seeded infection
phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), p.tau)

spec = IntegrationSpec(system=SystemKind.FULL, t_end=200.0, steps_per_delay=20)
traj = integrate(p, phi, spec)
print(f"integrated {traj.nodes} nodes, h = {traj.h}")

# the infected host count rises to its endemic level
for t in (0, 5, 10, 25, 50, 100, 200):
    print(f"  I_h({t:>3}) = {dense_eval(traj, float(t)).i_h:.6f}")

# the mosquito total obeys N_v' = beta_v - mu_v N_v no matter what the
# disease does, so it relaxes to beta_v/mu_v on the 1/mu_v time scale;
# node k is at time k * h, and traj.ys holds four floats per node
times = np.arange(traj.steps + 1) * traj.h
states = np.frombuffer(traj.ys).reshape(-1, 4)
n_v = states[:, 2] + states[:, 3]
exact = p.s_v0 + (40.0 - p.s_v0) * np.exp(-p.mu_v * times)
print("\nmosquito-total error vs closed form:", float(np.max(np.abs(n_v - exact))))

tail = tail_stats(traj)
print("tail of the run (component inf/sup over the last half):")
for name in ("s_h", "i_h", "s_v", "i_v"):
    print(f"  {name}: [{getattr(tail.inf, name):.6f}, {getattr(tail.sup, name):.6f}]")

# the limiting system freezes the mosquito pool at beta_v/mu_v in the
# incidence denominator; started from that pool the two runs agree
at_rest = HistorySegment.constant((4.0, 0.5, 40.0, 10.0), p.tau)
full = integrate(p, at_rest, spec)
limiting = integrate(p, at_rest,
                     IntegrationSpec(system=SystemKind.LIMITING, t_end=200.0,
                                     steps_per_delay=20))
print("\nfull vs limiting from the rested pool:",
      float(np.max(np.abs(np.frombuffer(full.ys) - np.frombuffer(limiting.ys)))))

traj.to_csv("trajectory_demo.csv")
print("\nwrote trajectory_demo.csv")
