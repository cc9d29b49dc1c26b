"""Fixed-step RK4 with the delay resolved by mesh alignment.

With h = tau / steps_per_delay the delayed argument t - tau of any mesh node
is itself a mesh node, m steps back, so the lagged state is read off exactly.
The two half-step stages need the delayed state at an old interval midpoint;
that comes from the cubic Hermite interpolant of the (already computed)
interval m steps back, whose O(h^4) accuracy preserves the classical order.
Breakpoints of the solution (t = 0, tau, 2tau, ...) land on mesh nodes by
construction, so no step straddles a derivative jump.

The delay enters the model only through the incidence
lambda = c_vh * (I_v / N_v) * S_h, which drives S_h' now and I_h' one delay
later. The step loop has the model written out on local floats and keeps
two incidence windows: the last m + 1 node incidences, so a node's delayed
one is read off m entries back rather than recomputed, and the last m
interval-midpoint ones. Step i builds the Hermite midpoint of interval
i - 1, the one ending at its node, from the previous node held in locals,
for S_h, S_v and I_v only; its incidence serves both half-step stages of
step i - 1 + m. In the first delay interval both windows hold the
history's incidences, all computed once per call. A node's derivative is
both its step's k1 and a Hermite slope (first-same-as-last;
Hairer, Norsett & Wanner, Solving ODEs I). Every float expression is the one
`model.rhs` evaluates, in the same order, so a node derivative is rhs at
the node and its delayed state bit for bit. The loop assigns one name per
statement, never a tuple of them, because packing and unpacking a 4-tuple
costs about as much as four float operations.

Node storage: integrate records every mesh node, in one flat `array('d')`
buffer, four floats per node, that the step loop never reads back. The loop
keeps the tail's inf and sup in locals from the first tail node on, so a
sweep row, which reads only those, stores no node and runs in O(m) memory.
Node k's time is k * h, and its derivative is computed with `model.rhs`
when read (`_node_deriv`), so neither is stored.

A run needs t_end / h steps; more than defaults.MAX_STEPS is rejected before
anything is allocated.

Committed node states are clamped to 0 when a component undershoots within
-1e-9 (integration noise near an extinct compartment) and abort with
NegativityBreachError below that, which signals a step size too coarse for
the problem. A NaN or -inf node aborts with NonFiniteStateError from the
same branch. +inf passes the clamp, but each node is the previous one plus
an increment, so a component that reaches +inf stays +inf or turns NaN:
checking the final node once per run catches what the clamp lets through.
A division by zero inside an RK4 stage is a NegativityBreachError when the
stage state undershoots below the band, a ZeroMosquitoPopulationError
otherwise; so is a zero N_v at a Hermite midpoint, raised at the step that
builds it, one step after its interval.
With tau = 0 the same loop runs as a plain ODE RK4 where the delayed
incidence is the current stage's own.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import deque, namedtuple
from itertools import chain, islice
from typing import IO, Iterable, Sequence

from . import defaults
from .errors import (
    EmptyWindowError,
    InvalidSpecError,
    NegativityBreachError,
    NonFiniteStateError,
    OutOfRangeError,
    ZeroMosquitoPopulationError,
)
from .model import (
    COMPONENT_NAMES,
    Deriv,
    HistorySegment,
    ModelParams,
    State,
    SystemKind,
    _finite_real,
    _make_validated,
    _require_span,
    _spans,
    rhs,
)

CSV_HEADER = "t,S_h,I_h,S_v,I_v"
_CSV_BLOCK = 1024  # rows formatted by one %


class IntegrationSpec(namedtuple("IntegrationSpec", "system t_end steps_per_delay step",
                                 defaults=(SystemKind.FULL, None, defaults.STEPS_PER_DELAY,
                                           None))):
    """Mesh controls, a named tuple (it hashes as one: a scenario keys its
    runs by spec).

    t_end = None integrates to 40 / min(mu_h, mu_v) of the params passed to
    integrate, so one spec gives each parameter set its own default horizon.
    steps_per_delay fixes h = tau / m when tau > 0; step fixes h directly
    when tau = 0 (None picks min(0.05, 0.1/max_rate)). Construction (and
    `_replace`) holds each field to its domain, the one rule for it that the
    scenario loader applies too: InvalidSpecError naming the field.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "IntegrationSpec":
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.system, SystemKind):
            raise InvalidSpecError(f"system must be a SystemKind, got {self.system!r}",
                                   name="system")
        for name in ("t_end", "step"):
            v = getattr(self, name)
            if not (v is None or (_finite_real(v) and v > 0)):
                raise InvalidSpecError(f"{name} must be positive and finite, got {v!r}", name=name)
        n = self.steps_per_delay
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InvalidSpecError(f"steps_per_delay must be an integer >= 1, got {n!r}",
                                   name="steps_per_delay")
        return self

    _make = classmethod(_make_validated)


class Trajectory(namedtuple("Trajectory", "ys steps history tau h system params m tail")):
    """Recorded mesh solution of `system` under `params`, a named tuple.

    Node k is mesh step k, at time k * h, and node k - m (m = 0 at tau = 0)
    is its delayed node; `ys` holds the nodes' states, four floats each, and
    `tail` the step loop's tail stats (None in the field when the tail
    window holds fewer than two nodes). `dense_eval` reads the solution at
    any time, a node's state bit-exact.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields[1:-1], self[1:-1]))
        return f"Trajectory({shown})"

    @property
    def t_end(self) -> float:
        return self.steps * self.h

    @property
    def nodes(self) -> int:
        return len(self.ys) // 4

    @property
    def tail(self) -> TailStats:
        """Tail inf/sup, kept by the step loop (see TailStats)."""
        tail = super().tail
        if tail is None:
            raise EmptyWindowError()
        return tail

    def to_csv(self, target: str | IO[str]) -> None:
        """One row per node, 17 significant digits."""
        h, ys = self.h, self.ys
        times = [k * h for k in range(self.steps + 1)]
        _write_csv(target, CSV_HEADER, (times, *(ys[q::4] for q in range(4))))


def _first_node_at(h: float, nodes: int, t: float) -> int:
    """The first of nodes 0 .. nodes - 1, at k * h, at or past t (else nodes)."""
    return bisect.bisect_left(range(nodes), t, key=lambda k: k * h)


def _node_deriv(traj: Trajectory, k: int) -> Deriv:
    """The step loop's node k derivative, bit for bit: rhs at node k and at
    node k - m (k itself at tau = 0, where m = 0), or the history before."""
    ys, j = traj.ys, 4 * (k - traj.m)
    delayed = ys[j:j + 4] if j >= 0 else traj.history.value_at(k * traj.h - traj.tau)
    return rhs(traj.params, State(*ys[4 * k:4 * k + 4]), State(*delayed), traj.system)


def _write_csv(target: str | IO[str], header: str,
               columns: tuple[Sequence[float], ...]) -> None:
    """Header line, then one row per index of the equal-length columns, every
    value at 17 significant digits (round-trips a float64 exactly)."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = chain.from_iterable(zip(*columns))
    # one % per block of rows, so only a block's floats are boxed at a time;
    # the header goes out on its own, not copied in
    parts = [header + "\n"]
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        rows = min(_CSV_BLOCK, len(columns[0]) - start)
        parts.append(row * rows % tuple(islice(values, rows * len(columns))))
    if isinstance(target, str):
        with open(target, "w") as fh:
            fh.writelines(parts)
    else:
        target.writelines(parts)


def _clamp(value: float, t: float, comp: int) -> float:
    if value >= 0.0:
        return value
    if value >= -defaults.CLAMP_BAND:
        return 0.0
    if not math.isfinite(value):
        raise NonFiniteStateError(t, COMPONENT_NAMES[comp], value)
    raise NegativityBreachError(t, COMPONENT_NAMES[comp], value)


def _history_incidence(phi: HistorySegment, offsets: Iterable[float], c_vh: float,
                       inv_nv: float | None) -> list[float]:
    """The incidence c_vh * (I_v / N_v) * S_h of the history at each offset,
    with 1 / N_v fixed at inv_nv on the limiting system.

    The offsets lie in [-tau, 0), and integrate checked phi's span against
    tau.
    """
    rows = map(phi.value_at, offsets)
    if inv_nv is None:
        return [c_vh * (iv / (sv + iv)) * sh for sh, _, sv, iv in rows]
    return [c_vh * (iv * inv_nv) * sh for sh, _, sv, iv in rows]


def integrate(p: ModelParams, phi: HistorySegment, spec: IntegrationSpec) -> Trajectory:
    """March the system from history phi to spec.t_end.

    Each argument checked its own domain on construction; here phi's span
    must match p.tau, and the mesh stay within MAX_STEPS. t_end is rounded
    up to the nearest mesh multiple; `traj.t_end` and `traj.steps` say what
    ran.
    """
    return _integrate(p, phi, spec, store=True)


def _integrate(p: ModelParams, phi: HistorySegment, spec: IntegrationSpec,
               store: bool) -> Trajectory:
    """integrate; with store False no node is kept, so the run allocates O(m),
    not O(steps), and only the trajectory's mesh and tail can be read."""
    tau = p.tau
    _require_span(phi, tau)
    t_end = defaults.default_t_end(p.mu_h, p.mu_v) if spec.t_end is None else spec.t_end

    if tau > 0:
        m, h = spec.steps_per_delay, tau / spec.steps_per_delay
    else:
        m, h = 0, spec.step or defaults.default_ode_step(p.max_rate)

    if t_end > defaults.MAX_STEPS * h:  # also catches an h that underflowed to 0
        raise InvalidSpecError(f"t_end = {t_end!r} needs more than "
                               f"{defaults.MAX_STEPS} steps of h = {h!r}")
    n_exact = t_end / h
    n_steps = int(round(n_exact))
    if abs(n_exact - n_steps) > defaults.MESH_BAND * max(1.0, abs(n_exact)):
        n_steps = int(math.ceil(n_exact))
    if n_steps < 1:
        raise InvalidSpecError("t_end must be at least one step h")

    # the model as model.rhs writes it; lam is an incidence
    # c_vh * (I_v / N_v) * S_h, with 1 / N_v fixed at inv_nv if limiting
    full = spec.system is SystemKind.FULL
    beta_h, beta_v, mu_h, mu_v = p.beta_h, p.beta_v, p.mu_h, p.mu_v
    c_vh, c_hv = p.c_vh, p.c_hv
    inv_nv = None if full else p.inv_s_v0
    delayed = tau > 0
    hh = 0.5 * h
    sixth = h / 6.0
    eighth = 0.125 * h

    a, b, c, d = phi.value_at(0.0)
    if c + d <= 0.0:
        raise ZeroMosquitoPopulationError(0.0)
    # L holds the last m + 1 node incidences, first the history's at -tau,
    # -tau + h, ...: once node i's own is in, L[0] is its delayed incidence
    # and L[1] node i + 1's. M holds the last m interval-midpoint ones, the
    # history's first: M[0] is step i's once interval i - 1's is in
    L = deque(_history_incidence(phi, (k * h - tau for k in range(m)), c_vh, inv_nv),
              maxlen=m + 1)
    M = deque(_history_incidence(phi, (k * h + hh - tau for k in range(m)), c_vh, inv_nv),
              maxlen=m)
    ys = array("d")
    # tail nodes: `first` on; strict < and > keep the first of equal values, as min/max do
    cut = defaults.TAIL_WINDOW * (n_steps * h)
    first = _first_node_at(h, n_steps + 1, cut - defaults.TAIL_CUT_BAND * (1.0 + abs(cut)))

    for i in range(n_steps + 1):
        # node i's derivative: its Hermite slope and the next step's k1
        lam = c_vh * (d / (c + d)) * a if full else c_vh * (d * inv_nv) * a
        L.append(lam)
        flux = c_hv * b * c
        fa = beta_h - lam - mu_h * a
        fb = L[0] - mu_h * b
        fc = beta_v - flux - mu_v * c
        fd = flux - mu_v * d
        if store:
            ys.fromlist([a, b, c, d])
        if i > first:
            if a < lo_a:
                lo_a = a
            elif a > hi_a:
                hi_a = a
            if b < lo_b:
                lo_b = b
            elif b > hi_b:
                hi_b = b
            if c < lo_c:
                lo_c = c
            elif c > hi_c:
                hi_c = c
            if d < lo_d:
                lo_d = d
            elif d > hi_d:
                hi_d = d
        elif i == first:
            lo_a, lo_b, lo_c, lo_d = hi_a, hi_b, hi_c, hi_d = a, b, c, d
        if i == n_steps:
            break

        try:
            # (sh, ih, sv, iv) is the latest stage state, read when a stage
            # divides by 0, so all four are assigned before the stage's
            # first division
            sh = a + hh * fa
            ih = b + hh * fb
            sv = c + hh * fc
            iv = d + hh * fd
            if delayed:
                if i:  # S_h, S_v, I_v at the midpoint of interval i - 1
                    sh_m = 0.5 * (pa + a) + eighth * (pfa - fa)
                    sv_m = 0.5 * (pc + c) + eighth * (pfc - fc)
                    iv_m = 0.5 * (pd + d) + eighth * (pfd - fd)
                    M.append(c_vh * (iv_m / (sv_m + iv_m)) * sh_m if full
                             else c_vh * (iv_m * inv_nv) * sh_m)
                lam_m = M[0]
            lam = c_vh * (iv / (sv + iv)) * sh if full else c_vh * (iv * inv_nv) * sh
            flux = c_hv * ih * sv
            k2a = beta_h - lam - mu_h * sh
            k2b = (lam_m if delayed else lam) - mu_h * ih
            k2c = beta_v - flux - mu_v * sv
            k2d = flux - mu_v * iv

            sh = a + hh * k2a
            ih = b + hh * k2b
            sv = c + hh * k2c
            iv = d + hh * k2d
            lam = c_vh * (iv / (sv + iv)) * sh if full else c_vh * (iv * inv_nv) * sh
            flux = c_hv * ih * sv
            k3a = beta_h - lam - mu_h * sh
            k3b = (lam_m if delayed else lam) - mu_h * ih
            k3c = beta_v - flux - mu_v * sv
            k3d = flux - mu_v * iv

            sh = a + h * k3a
            ih = b + h * k3b
            sv = c + h * k3c
            iv = d + h * k3d
            lam = c_vh * (iv / (sv + iv)) * sh if full else c_vh * (iv * inv_nv) * sh
            flux = c_hv * ih * sv
            k4a = beta_h - lam - mu_h * sh
            k4b = (L[1] if delayed else lam) - mu_h * ih
            k4c = beta_v - flux - mu_v * sv
            k4d = flux - mu_v * iv

            na = a + sixth * (fa + 2.0 * (k2a + k3a) + k4a)
            nb = b + sixth * (fb + 2.0 * (k2b + k3b) + k4b)
            nc = c + sixth * (fc + 2.0 * (k2c + k3c) + k4c)
            nd = d + sixth * (fd + 2.0 * (k2d + k3d) + k4d)
        except ZeroDivisionError:
            # committed nodes keep S_v + I_v > 0, so the zero total is in a
            # stage or a midpoint; a stage component below the band means
            # the step overshot, not that the mosquito pool died out
            t_next = (i + 1) * h
            for comp, value in enumerate((sh, ih, sv, iv)):
                if value < -defaults.CLAMP_BAND:
                    raise NegativityBreachError(t_next, COMPONENT_NAMES[comp],
                                                value) from None
            raise ZeroMosquitoPopulationError(t_next) from None

        pa = a
        pc = c
        pd = d
        pfa = fa
        pfc = fc
        pfd = fd
        if na >= 0.0 and nb >= 0.0 and nc >= 0.0 and nd >= 0.0:
            a = na
            b = nb
            c = nc
            d = nd
        else:  # a NaN fails `>= 0` too, and _clamp reports it
            t_next = (i + 1) * h
            a, b, c, d = (_clamp(v, t_next, comp)
                          for comp, v in enumerate((na, nb, nc, nd)))
        if c + d <= 0.0:
            raise ZeroMosquitoPopulationError((i + 1) * h)

    for comp, value in enumerate((a, b, c, d)):
        if not math.isfinite(value):
            raise NonFiniteStateError(n_steps * h, COMPONENT_NAMES[comp], value)
    tail = (TailStats(first * h, State(lo_a, lo_b, lo_c, lo_d), State(hi_a, hi_b, hi_c, hi_d))
            if first < n_steps else None)
    return Trajectory(ys=ys, steps=n_steps, history=phi, tau=float(tau), h=h,
                      system=spec.system, params=p, m=m, tail=tail)


def dense_eval(traj: Trajectory, t: float) -> State:
    """Evaluate the solution at any t in [-tau, t_end].

    Mesh nodes are returned bit-exact from storage; history times use the
    history's own (piecewise-linear) interpolation; anything else is the
    cubic Hermite interpolant of the bracketing mesh interval.
    """
    # below -tau only as far as the history's span rule reaches; NaN fails too
    if not (t <= traj.t_end + defaults.READ_BAND * (1.0 + abs(traj.t_end))
            and (-traj.tau <= t or _spans(traj.tau, -t))):
        raise OutOfRangeError(t, 0.0 - traj.tau, traj.t_end)
    if t < 0.0:
        if traj.tau > 0.0:
            return traj.history.state_at(t)
        t = 0.0

    ys, h = traj.ys, traj.h
    i = min(_first_node_at(h, traj.nodes, t), traj.nodes - 1)
    t0, t1 = (i - 1) * h, i * h
    if t1 <= t:  # on node i, or past the last node
        return State(*ys[4 * i:4 * i + 4])

    w = t1 - t0
    s = (t - t0) / w
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    y0, y1 = ys[4 * i - 4:4 * i], ys[4 * i:4 * i + 4]
    f0, f1 = _node_deriv(traj, i - 1), _node_deriv(traj, i)
    return State(*(_clamp(h00 * y0[k] + h10 * w * f0[k] + h01 * y1[k] + h11 * w * f1[k],
                          t, k) for k in range(4)))


class TailStats(namedtuple("TailStats", "t_start inf sup")):
    """Componentwise inf/sup over the nodes in [TAIL_WINDOW * t_end, t_end],
    kept by the step loop as it runs, so no node need be stored for them."""

    __slots__ = ()


def tail_stats(traj: Trajectory) -> TailStats:
    """The run's tail stats; computed once per trajectory, then shared."""
    return traj.tail
