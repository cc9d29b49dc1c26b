"""
Lyapunov functionals along trajectories
=======================================

Two energy-like functionals certify the global picture numerically: one
decays to zero when R0 <= 1 (everything converges to the disease-free
state), the other when R0 > 1 (convergence to the endemic state). Both are
evaluated on sliding windows of the limiting system's trajectory, and R0
picks which one trace_along uses.
"""

from malaria_dde import (
    HistorySegment,
    IntegrationSpec,
    ModelParams,
    SystemKind,
    integrate,
    trace_along,
)

p_super = ModelParams(beta_h=2.0, beta_v=5.0, mu_h=0.5, mu_v=0.1,
                      c_vh=0.2, c_hv=0.1, tau=1.0)
p_sub = p_super._replace(c_vh=0.05, c_hv=0.05)


def show(trace, label):
    print(label)
    step = max(1, len(trace.times) // 8)
    for k in range(0, len(trace.times), step):
        print(f"  V({trace.times[k]:7.2f}) = {trace.values[k]:.3e}")
    print(f"  V({trace.times[-1]:7.2f}) = {trace.values[-1]:.3e}")
    print("  max one-step increase:", trace.max_increase)
    print("  descends:", trace.passes_descent())


phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), 1.0)


def limiting_run(p, t_end):
    spec = IntegrationSpec(SystemKind.LIMITING, t_end)
    return integrate(p, phi, spec)


# subcritical: the disease-free functional falls to zero
show(trace_along(p_sub, limiting_run(p_sub, 200.0)),
     "subcritical, disease-free functional")

# supercritical: the endemic functional falls to zero instead
trace = trace_along(p_super, limiting_run(p_super, 300.0))
show(trace, "\nsupercritical, endemic functional")

trace.to_csv("lyapunov_demo.csv")
print("\nwrote lyapunov_demo.csv")
