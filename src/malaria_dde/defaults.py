"""Single home for every tunable default and numeric guard band.

======================  =========  ===========================================
name                    value      used by
======================  =========  ===========================================
STEPS_PER_DELAY         20         integrator mesh (h = tau / m)
TAIL_WINDOW             0.5        tail statistics ([w*t_end, t_end])
CLAMP_BAND              1e-9       negativity clamp/abort threshold
ROOT_XTOL               1e-12      real-root polish tolerance
DESCENT_SLACK_SCALE     1e-7       Lyapunov monotonicity slack scale
DEFAULT_THETA           0.5        persistence fraction
MAX_STEPS               1_000_000  ceiling on RK4 steps per integrate
MESH_BAND               1e-9       t_end / h within b max(1, t_end / h) of an
                                   integer takes it as the step count
TAIL_CUT_BAND           1e-12      tail window from its cut c (>= 0) less b c
READ_BAND               1e-9       dense_eval up to t_end + b (1 + |t_end|)
SPAN_BAND               1e-9       history span (model._spans): tau to
                                   b (1 + tau)
HISTORY_END_BAND        1e-12      HistorySegment.value_at up to theta = b
EXP_LIMIT               700.0      real-root polish: G's exp(-lam tau) read as
                                   overflowing above this exponent
======================  =========  ===========================================

In a band's row, b is its value.

t_end and the tau = 0 step size depend on the parameters, so they are
functions here rather than constants. integrator.mesh resolves both when its
IntegrationSpec leaves them as None.
"""

from __future__ import annotations

STEPS_PER_DELAY = 20
TAIL_WINDOW = 0.5
CLAMP_BAND = 1e-9
ROOT_XTOL = 1e-12
DESCENT_SLACK_SCALE = 1e-7
DEFAULT_THETA = 0.5
# 125x the largest mesh the tests, demos and benchmark pools run (8,000
# steps); a FULL run at the ceiling took 1.9-2.3 s and peaked at 48 MB RSS
# (ru_maxrss of its own process, 32 MB of it the node buffer) on a 2-vCPU
# machine with Python 3.11, where an unbounded mesh grows until memory runs out
MAX_STEPS = 1_000_000
MESH_BAND = 1e-9
TAIL_CUT_BAND = 1e-12
READ_BAND = 1e-9
SPAN_BAND = 1e-9
HISTORY_END_BAND = 1e-12
EXP_LIMIT = 700.0  # exp overflows from about 709.78


def default_t_end(mu_h: float, mu_v: float) -> float:
    """Horizon long enough for the slow compartment to settle (40 e-folds)."""
    return 40.0 / min(mu_h, mu_v)


def default_ode_step(max_rate: float) -> float:
    """Step size for the undelayed (tau = 0) system."""
    return min(0.05, 0.1 / max_rate)
