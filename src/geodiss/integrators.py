"""Fixed and adaptive Runge-Kutta integration with structure diagnostics.

Both the conservative flow and the corrected (dissipative) flow integrate
through one step loop, ``_lockstep``: one stage loop over either method's
stage rows, one step controller and one set of checks, from one start or
from an (m, n) stack of them, each row taking exactly the steps of its own
run, in the same arithmetic, and failing alone with the message its own run
raises. :func:`integrate` runs it on one start, whose arrays stay
unbatched, and records the conserved values, the dissipated value, the full
Gram determinant and the control-field norm at its recorded states. On the
corrected flow it also audits every accepted step: the finite-difference
rate of the dissipated quantity over the step is checked against the
predicted rate, minus the full Gram determinant at the step's midpoint.
These diagnostics are evaluated after the fact, a block of ``_DIAG_BLOCK``
accepted steps at a time, on one stacked frame for the block's midpoints
and one for its records, so a step costs its stage evaluations and nothing
more, and every value is bitwise the one a per-step evaluation gives. A
stage of one start is one call of the kernel that
:func:`geodiss.control._corrected_rhs` binds to the system once per run: a
run builds no :class:`~geodiss.gram.SystemFrame`.
:func:`integrate_ensemble` runs the loop on a stack of corrected-flow
starts, each to its own end time if given one, and keeps only what a basin
ensemble reads: each row's max of the dissipated value over the states a
solo run records, its final state, its step counts and its failure.

Trajectories never get silently re-projected onto a leaf; an optional Newton
re-projection after each accepted step can be switched on in the config, and
leaf drift is always visible in the recorded conserved values. The
re-projection is ``fields._project_rows``, the lockstep form of
:func:`geodiss.fields.project_to_leaf`, the one leaf projection of the
package; a step it cannot bring back onto the initial leaf fails its run
with :class:`LeafProjectionFailure`, never keeps an unconverged point.

This module imports only the layers below it (fields, Gram frames, the
control field); the structure probes and certificates built on trajectories
live above it.
"""
from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .control import _cofactor_from_frames, _cofactor_minors, _cofactors, _corrected_rhs
from .errors import (
    GeodissError,
    InitialStepBelowFloor,
    LeafProjectionFailure,
    MaxStepsExceeded,
    NonFiniteState,
    NonFiniteValue,
    StepUnderflow,
    UnboundedTrajectory,
)
from .fields import DissipativeSystem, _project_rows, _row_norms, as_point, as_stack
from .gram import _nonfinite_differential, _stack_arrays, system_frames
from .report import csv_text


# Dormand-Prince 5(4): 7 stages, FSAL, fifth-order propagation with a
# fourth-order error estimate.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.append(_DP_A[6], 0.0)  # FSAL: the last stage row, then 0
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4
# Quartic term of the continuous extension, on the Dormand-Prince stages.
_DP_DENSE = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                      -10690763975 / 1880347072, 701980252875 / 199316789632,
                      -1453857185 / 822651844, 69997945 / 29380423])
# The classical RK4's stage rows; its weights are written out in the step loop.
_RK4_A = [np.array([]), np.array([1 / 2]), np.array([0.0, 1 / 2]), np.array([0.0, 0.0, 1.0])]

# Step controller constants: safety 0.9, growth capped at 5x, shrink floored
# at 0.2x, with the usual PI stabilization exponent.
_SAFETY = 0.9
_FAC_MAX = 5.0
_FAC_MIN = 0.2
_PI_BETA = 0.04
_ERR_EXPO = 0.2 - 0.75 * _PI_BETA

# An adaptive step below this fraction of t_end is a collapse, and a run
# ends within this fraction below t_end.
_STEP_FLOOR = 1e-14

# Constants of the per-step midpoint consistency band: a quadratic-in-h
# discretization term plus the local-error contamination of the finite
# difference.
_RATE_CURVE_FACTOR = 5.0
_RATE_NOISE_FACTOR = 10.0

# Accepted steps whose records and rate audit are evaluated together; a run
# buffers at most this many steps.
_DIAG_BLOCK = 512
_RATE_FIELDS = ("rate_times", "rate_measured", "rate_predicted", "rate_band")


class Flow(Enum):
    PERTURBED = "perturbed"
    UNPERTURBED = "unperturbed"


class Method(Enum):
    RK4_FIXED = "rk4"
    RK45_ADAPTIVE = "rk45"


@dataclass(frozen=True)
class IntegratorConfig:
    method: Method = Method.RK45_ADAPTIVE
    h0: float = 0.01
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    t_end: float = 10.0
    max_steps: int = 1_000_000
    record_every: int = 1
    leaf_reprojection: bool = False

    def local_tol(self, state_norm: float) -> float:
        return self.abs_tol + self.rel_tol * state_norm


@dataclass
class Trajectory:
    """Recorded states and structure diagnostics of one integration."""

    flow: Flow
    config: IntegratorConfig
    times: np.ndarray
    states: np.ndarray
    conserved_values: np.ndarray   # (records, k)
    dissipated_values: np.ndarray  # (records,)
    det_full: np.ndarray
    control_norm: np.ndarray
    step_sizes: np.ndarray
    # per accepted step (corrected flow only): midpoint rate consistency data
    rate_times: np.ndarray
    rate_measured: np.ndarray
    rate_predicted: np.ndarray
    rate_band: np.ndarray
    checkpoint_times: np.ndarray | None = None
    checkpoint_states: np.ndarray | None = None
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def conservation_drift(self) -> float:
        """Max deviation of any conserved value from its initial value."""
        if self.conserved_values.shape[1] == 0:
            return 0.0
        return float(np.max(np.abs(self.conserved_values - self.conserved_values[0])))

    def monotonicity_band(self) -> float:
        """Allowed uphill wiggle of the dissipated value between records."""
        gmax = float(np.max(np.abs(self.dissipated_values)))
        return 10.0 * self.config.local_tol(gmax)

    def monotonicity_violation(self) -> float:
        """Largest recorded uphill move of G beyond the tolerance band (<= 0 is clean)."""
        diffs = np.diff(self.dissipated_values)
        if diffs.size == 0:
            return -np.inf
        return float(np.max(diffs) - self.monotonicity_band())

    def rate_check_violation(self) -> float:
        """Worst excess of |measured - predicted| rate over its band (<= 0 is clean)."""
        if self.rate_measured.size == 0:
            return -np.inf
        gap = np.abs(self.rate_measured - self.rate_predicted) - self.rate_band
        return float(np.max(gap))

    def csv_text(self) -> str:
        """The records as CSV with 17 significant digits."""
        k = self.conserved_values.shape[1]
        n = self.states.shape[1]
        cols = (["t"] + [f"x{i + 1}" for i in range(n)]
                + [f"F{i + 1}" for i in range(k)]
                + ["G", "detSigmaFull", "v0norm", "h"])
        return csv_text(cols, np.column_stack([
            self.times, self.states, self.conserved_values,
            self.dissipated_values, self.det_full, self.control_norm,
            self.step_sizes]))


_NO_SCOPE = contextlib.nullcontext()


def _landing_scope(config: IntegratorConfig):
    """The numpy error state for what runs on the state a step lands on.

    An adaptive try whose stages leave the finite range is rejected, so an
    accepted state is used as it is. A fixed step cannot be rejected: it
    may land on a finite but huge state, where the bound check, the leaf
    re-projection, the slope there and a failed run's diagnostics overflow
    before the run ends in the failure they find. Those overflows warn no
    one, as the stages' do.
    """
    if config.method is Method.RK45_ADAPTIVE:
        return _NO_SCOPE
    return np.errstate(over="ignore", invalid="ignore")


class _Step:
    """One accepted step from (t, x) to (t_new, x_new) and its continuous extension.

    ``f`` and ``f_new`` are the right-hand sides at the two end states, and
    ``v0_new`` the control field behind ``f_new`` (None on the unperturbed
    flow). ``stages`` holds the Dormand-Prince stages of an RK45 step
    whose end state was not re-projected; the extension is then the free
    fourth-order one of the scheme. Otherwise it is the cubic Hermite on the
    end states and their right-hand sides. ``accepted`` and ``rejected``
    count the accepted steps and the rejected tries of the run so far,
    ``final`` marks the run's last step, and ``recorded`` the steps whose end
    states the run records: every ``record_every``-th one and the last.
    """

    __slots__ = ("t", "h", "t_new", "x", "x_new", "f", "f_new", "stages",
                 "v0_new", "accepted", "rejected", "final", "recorded", "_coef")

    def __init__(self, t, h, x, x_new, f, f_new, stages, v0_new,
                 accepted, rejected, final, recorded):
        self.t = t
        self.h = h
        self.t_new = t + h
        self.x = x
        self.x_new = x_new
        self.f = f
        self.f_new = f_new
        self.stages = stages
        self.v0_new = v0_new
        self.accepted = accepted
        self.rejected = rejected
        self.final = final
        self.recorded = recorded
        self._coef = None

    def states_at(self, ts) -> np.ndarray:
        """States at a sorted array of times in [self.t, ...), one row per time.

        A time from t_new on gets the end state itself. The extension is one
        broadcast of elementwise arithmetic, so each row has the bits of an
        evaluation at its time alone.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, self.x.size))
        inside = int(np.searchsorted(ts, self.t_new))
        out[inside:] = self.x_new
        if not inside:
            return out
        if self._coef is None:
            # Hairer, Norsett & Wanner, Solving ODEs I, II.6 (dopri5 CONTD5);
            # without the last term the same form is the cubic Hermite
            ydiff = self.x_new - self.x
            bspl = self.h * self.f - ydiff
            quartic = (None if self.stages is None
                       else self.h * (_DP_DENSE @ self.stages))
            self._coef = (ydiff, bspl, ydiff - self.h * self.f_new - bspl, quartic)
        ydiff, bspl, cubic, quartic = self._coef
        s = ((ts[:inside] - self.t) / self.h)[:, None]
        s1 = 1.0 - s
        inner = cubic if quartic is None else cubic + s1 * quartic
        out[:inside] = self.x + s * (ydiff + s1 * (bspl + s * inner))
        return out


def _first_step(config: IntegratorConfig, t_end: float | None = None) -> float:
    """The first step size, min(h0, t_end), checked against an adaptive run's floor.

    ``t_end`` is a run's own end time in place of ``config.t_end``. An
    adaptive run whose first step already lies below the step floor
    1e-14 t_end could only collapse: that is an input problem, raised as
    :class:`InitialStepBelowFloor` before any step.
    """
    if t_end is None:
        t_end = config.t_end
    h = min(config.h0, t_end)
    if config.method is Method.RK45_ADAPTIVE and h < _STEP_FLOOR * t_end:
        raise InitialStepBelowFloor(
            f"the first step min(h0, t_end) = {h:.3e} (h0 = {config.h0:.6g}, "
            f"t_end = {t_end:.6g}) lies below the step floor "
            f"{_STEP_FLOOR:g} * t_end = {_STEP_FLOOR * t_end:.3e}")
    return h


def _check_t_end(config: IntegratorConfig, t_end: float) -> None:
    """Refuse an ensemble row's end time before any evaluation: ValueError
    when it is not positive, :class:`InitialStepBelowFloor` when an adaptive
    first step lies below its floor."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    _first_step(config, t_end)


def _step_control(err: float, h_try: float, fac_old: float) -> tuple[bool, float, float]:
    """The controller's verdict on a try of size h_try with error norm err.

    Returns whether the try is accepted, the next step size and the
    controller's memory of the last accepted error. A try whose error norm
    is not finite is rejected with the smallest shrink factor.
    """
    if not err <= 1.0:
        return False, h_try * max(_FAC_MIN, _SAFETY / err ** _ERR_EXPO), fac_old
    if err == 0.0:
        fac = _FAC_MAX  # exactly stationary state, grow freely
    else:
        fac = _SAFETY * err ** (-_ERR_EXPO) * fac_old ** _PI_BETA
    return True, h_try * min(_FAC_MAX, max(_FAC_MIN, fac)), max(err, 1e-4)


def _flow_rows(system: DissipativeSystem, flow: Flow):
    """Either flow's right-hand side, bound to the system, at a point or on a stack.

    Returns ``evaluate(pts) -> (rhs, v0, ok)`` for a checked point (n,) or
    stack (m, n): the right-hand side at each row, the control field behind
    it (None on the unperturbed flow, whose right-hand side is X), and the
    rows that have one, or None when all do. A row whose differentials are
    not finite, where the point kernel :func:`geodiss.control._corrected_rhs`
    raises, gets NaN and a False flag. A point or a one-row stack runs that
    point kernel, whose triple a point's evaluation returns as it is; a
    larger stack runs the stacked bodies of
    :func:`system_frames` and ``_cofactor_from_frames``, each row bitwise
    the point kernel.
    """
    X = system.X
    if flow is Flow.UNPERTURBED:
        return lambda pts: (X._at(pts) if pts.ndim == 1 else X._values_at(pts), None, None)
    fields_ = system.all_fields()
    metric = system.metric
    minors = _cofactor_minors(system.k)
    point = _corrected_rhs(system)

    def evaluate(pts):
        if pts.ndim == 1:
            try:
                return point(pts)
            except NonFiniteValue:
                nan = np.full(pts.shape, np.nan)
                return nan, nan, np.False_
        if len(pts) == 1:
            rhs, v0, ok = evaluate(pts[0])
            return rhs[None], v0[None], None if ok is None else ok[None]
        _, _, grads, gram, ok = _stack_arrays(fields_, metric, pts)
        v0 = _cofactors(gram, grads, minors)
        if ok is None:
            return X._values_at(pts) - v0, v0, None
        out = np.full(pts.shape, np.nan)
        out[ok] = X._values_at(pts[ok]) - v0[ok]
        return out, v0, ok

    return evaluate


def _lockstep(system: DissipativeSystem, x: np.ndarray, config: IntegratorConfig,
              flow: Flow = Flow.PERTURBED, bound: float | None = None,
              out: EnsembleRun | None = None, t_ends: list | None = None):
    """Run either flow from a start x of shape (n,), or from each row of an (m, n) stack x.

    The package's one step loop. Each row has its own time, step size,
    controller memory and counters, its own end time (row i's
    ``t_ends[i]``, or ``config.t_end`` for all), is checked alone
    against the step budget, the step floor, non-finite tries, ``bound``
    and the leaf re-projection, and drops out alone, so it takes the steps of a run of
    its own in the same arithmetic: numpy evaluates the stage products one
    row at a time, and the controller runs on Python floats row by row.
    Either method's stage s is the slope at x + h (its stage row s @ the
    stages below s). An adaptive try whose stages leave the finite
    range, or whose error is not finite, is rejected with the smallest
    shrink factor; a fixed step that leaves it fails its row with
    :class:`NonFiniteState`.

    A point's run yields the control field at x (None on the unperturbed
    flow), then each accepted step as a :class:`_Step`, and raises the
    :class:`IntegrationFailure` that ends it, with its message. A stack's
    run yields ``(rows, recorded, states)`` for the start and for each try
    in which some row stepped: the start index of each working-set
    position, the positions whose new state a run records, and the states.
    As a row ends, its last state, counters and failure (None when it
    finished), with the message its own run raises, go into row i of
    ``out``. A consumer that stops early has seen exactly the steps of the
    full run up to there.

    The running rows are a compact working set, in start order: states and
    slopes as arrays, times, end times, controller scalars and counters as
    Python lists. A try in which every row steps replaces the arrays whole;
    the set is compacted only when a row finishes or fails. A point's arrays
    stay unbatched, (n,) and (stages, n), where numpy's calls cost the least.
    """
    point = x.ndim == 1
    n = x.shape[-1]
    # each row's end time, the band its last step ends within, and its step
    # floor, as lists over the working set
    t_end = [config.t_end] * (1 if point else len(x)) if t_ends is None else list(t_ends)
    t_stop = [te - _STEP_FLOOR * te for te in t_end]
    min_h = [_STEP_FLOOR * te for te in t_end]
    adaptive = config.method is Method.RK45_ADAPTIVE
    every = config.record_every
    kernel = _flow_rows(system, flow)

    ka, v0, ok = kernel(x)
    xa = x
    rows = [0] if point else list(range(len(x)))
    if ok is not None:
        if point:
            raise NonFiniteState(str(_nonfinite_differential(x)))
        for i in np.flatnonzero(~ok).tolist():
            out.failures[i] = NonFiniteState(str(_nonfinite_differential(x[i])))
        rows = np.flatnonzero(ok).tolist()
        xa, ka = x[ok], ka[ok]
        t_end, t_stop, min_h = ([v[i] for i in rows] for v in (t_end, t_stop, min_h))
    live = len(rows)
    everyone = range(live)
    yield v0 if point else (rows, everyone, xa)
    if not rows:
        return

    targets = None
    if config.leaf_reprojection and system.k:
        targets = np.empty((live, system.k))
        for j, f in enumerate(system.conserved):
            targets[:, j] = f.values(xa.reshape(live, n))
    # the working set's Python lists: each running row's time, step size,
    # controller memory and counters
    ta = [0.0] * live
    h_ctrl = [_first_step(config, te) for te in t_end]
    fac_old = [1e-4] * live
    n_acc = [0] * live
    n_rej = [0] * live
    # a try's stages, and the index of stage s and of the stages below it:
    # rows of a point's (stages, n) array, columns of a stack's (m, stages, n) one
    stage_rows = _DP_A if adaptive else _RK4_A
    n_stages = len(stage_rows)
    stage_shape = xa.shape[:-1] + (n_stages, n)
    if point:
        stage, below = list(range(n_stages)), [slice(s) for s in range(n_stages)]
    else:
        stage = [(slice(None), s) for s in range(n_stages)]
        below = [(slice(None), slice(s)) for s in range(n_stages)]
    t_before, x_before, k_before = 0.0, xa, ka  # a point's step starts here
    tries = 0    # every running row has made one try a pass
    ended = {}   # working-set position -> its failure, or None for a finished row
    take = None  # the positions that step in this try, None for all

    def drop(lost, failure):
        """End the stepping rows at the positions ``lost``, unstepped, each
        with ``failure(position)``; a row keeps its first failure."""
        nonlocal take
        if take is None:
            take = np.ones(live, dtype=bool)
        for j in lost.tolist():
            if take[j]:
                take[j] = False
                ended[j] = failure(j)

    while True:
        # the checks before each running row's next try
        if tries >= config.max_steps:
            for j, t in enumerate(ta):
                ended.setdefault(j, MaxStepsExceeded(
                    f"exceeded {config.max_steps} steps at t={t:.6g} of {t_end[j]:.6g}"))
        elif adaptive and any(map(operator.lt, h_ctrl, min_h)):
            for j, (hc, t) in enumerate(zip(h_ctrl, ta)):
                if hc < min_h[j]:
                    ended.setdefault(j, StepUnderflow(
                        f"step size {hc:.3e} below floor at t={t:.6g}"))
        if ended:
            if point:
                if ended[0] is not None:
                    raise ended[0]
                return
            gone = sorted(ended)
            at = [rows[j] for j in gone]
            out.final[at] = xa[gone]
            for i, j in zip(at, gone):
                out.failures[i] = ended[j]
                out.n_accepted[i], out.n_rejected[i] = n_acc[j], n_rej[j]
            keep = [j for j in range(live) if j not in ended]
            if not keep:
                return
            rows, ta, h_ctrl, fac_old, n_acc, n_rej, t_end, t_stop, min_h = (
                [v[j] for j in keep]
                for v in (rows, ta, h_ctrl, fac_old, n_acc, n_rej, t_end, t_stop, min_h))
            xa, ka = xa[keep], ka[keep]
            if targets is not None:
                targets = targets[keep]
            ended.clear()
            live = len(rows)
            everyone = range(live)
            stage_shape = (live, n_stages, n)

        # the tries' sizes (a fixed step's h_ctrl stays min(h0, t_end)); a
        # point's without the call a comprehension costs
        h = ([min(h_ctrl[0], t_end[0] - ta[0])] if point
             else [min(hc, te - t) for hc, te, t in zip(h_ctrl, t_end, ta)])
        # the sizes as a column, or one row's as a Python float: the same
        # products, and the float skips numpy's broadcasting
        h_col = h[0] if live == 1 else np.array(h).reshape(live, 1)
        take = None
        stages = np.empty(stage_shape)
        stages[stage[0]] = ka
        good = None
        # a try that leaves the finite range is rejected, or fails its row,
        # below: its overflows warn no one
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, n_stages):
                xs = xa + h_col * (stage_rows[s] @ stages[below[s]])
                stages[stage[s]], v0, ok = kernel(xs)
                if ok is not None and adaptive:
                    good = ok if good is None else good & ok
                elif ok is not None:
                    drop(np.flatnonzero(~ok), lambda j: NonFiniteState(
                        str(_nonfinite_differential(xs.reshape(live, n)[j]))))
            if adaptive:
                err_vec = h_col * (_DP_ERR @ stages)
                scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(xa), np.abs(xs))
                q = (err_vec / scale) ** 2
                err = np.sqrt(np.add.reduce(q, -1) / n)
                if good is not None:
                    err = np.where(good, err, np.inf)
                # the controller on Python floats, row by row: its powers must
                # round as a point run's do (a point's norm is a numpy scalar)
                for j, e in enumerate([float(err)] if point else err.tolist()):
                    accepted, h_ctrl[j], fac_old[j] = _step_control(e, h[j], fac_old[j])
                    if not accepted:
                        n_rej[j] += 1
                        if take is None:
                            take = np.ones(live, dtype=bool)
                        take[j] = False
                # B5 is the last stage row with a trailing zero: the last stage
                # point is the new state, and the last stage its slope (FSAL)
                x_new, k_new = xs, stages[stage[-1]]
            else:
                # RK4's weights as written: a w @ stages product rounds
                # differently. The slope at the new state is evaluated below.
                k2, k3, k4 = (stages[i] for i in stage[1:])
                x_new, k_new = xa + (h_col / 6.0) * (ka + 2.0 * k2 + 2.0 * k3 + k4), None
        tries += 1

        with _landing_scope(config):
            if np.count_nonzero(np.isfinite(x_new)) != x_new.size:
                drop(np.flatnonzero(~np.isfinite(x_new).all(axis=-1)),
                     lambda j: NonFiniteState(f"state became non-finite at t={ta[j] + h[j]:.6g}"))
            if targets is not None or k_new is None or bound is not None:
                # the stepping rows, and the new states as a stack
                sel = np.arange(live) if take is None else np.flatnonzero(take)
                new_rows = x_new.reshape(live, n)
            if bound is not None:
                lost = sel[_row_norms(new_rows[sel]) > bound]
                if lost.size:
                    drop(lost, lambda j: UnboundedTrajectory(
                        f"state norm exceeded {bound:.3e} at t={ta[j] + h[j]:.6g}"))
                    sel = np.flatnonzero(take)
            if targets is not None or k_new is None:
                # no stage holds the slope at the new state: evaluate it
                # there, after the re-projection
                stages = None
                if targets is not None and sel.size:
                    y, conv, degen = _project_rows(system, new_rows[sel], targets[sel])
                    for i in np.flatnonzero(~conv).tolist():
                        j = int(sel[i])
                        drop(sel[i:i + 1], lambda _: LeafProjectionFailure(
                            f"conserved differentials degenerate near {y[i].tolist()}"
                            if degen[i] else
                            f"no convergence onto leaf {targets[j].tolist()} "
                            f"from {new_rows[j].tolist()}"))
                    sel = sel[conv]
                    new_rows[sel] = y[conv]
                if sel.size == live:
                    k_new, v0, ok = kernel(x_new)
                else:
                    k_new = np.empty_like(xa)
                    v0 = None if flow is Flow.UNPERTURBED else np.empty_like(xa)
                    ok = None
                    if sel.size:
                        k_new[sel], v0_sel, ok = kernel(x_new[sel])
                        if v0 is not None:
                            v0[sel] = v0_sel
                if ok is not None:
                    drop(sel[np.flatnonzero(~ok)], lambda j: NonFiniteState(
                        str(_nonfinite_differential(new_rows[j]))))

        if take is None:
            xa, ka = x_new, k_new
            stepped = everyone
        else:
            stepped = np.flatnonzero(take).tolist()
            if not stepped:
                continue
            xa = np.where(take[:, None], x_new, xa)
            ka = np.where(take[:, None], k_new, ka)
        recorded = []
        for j in stepped:
            n_acc[j] += 1
            ta[j] += h[j]
            if ta[j] >= t_stop[j]:
                ended[j] = None
                recorded.append(j)
            elif n_acc[j] % every == 0:
                recorded.append(j)
        if point:
            step = _Step(t_before, h[0], x_before, xa, k_before, ka, stages, v0,
                         n_acc[0], n_rej[0], bool(ended), bool(recorded))
            t_before, x_before, k_before = step.t_new, xa, ka
            yield step
        else:
            yield rows, recorded, xa


def _check_checkpoints(cps: np.ndarray, t_end: float) -> None:
    """Raise ValueError unless cps is strictly increasing within [0, t_end]."""
    if cps.ndim != 1 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if cps.size and (cps[0] < 0 or cps[-1] > t_end + 1e-12):
        raise ValueError("checkpoints must lie within [0, t_end]")


class _Diagnostics:
    """Records and rate audit of one run, evaluated a block of steps at a time.

    ``add`` buffers an accepted step: its start time, its size, its end
    state and, for a recorded step, the control field there. ``flush``
    evaluates the buffer: the dissipated value at each end state, one
    stacked frame at the steps' midpoints for the rate audit of the
    corrected flow, and one at the recorded states for their Gram
    determinants and control-field norms. A block is flushed when it holds
    ``_DIAG_BLOCK`` steps, and at the end of the run. Every value is
    bitwise the one a per-step evaluation gives, and a non-finite frame
    raises what a per-step evaluation raises first.
    """

    def __init__(self, system: DissipativeSystem, flow: Flow, config: IntegratorConfig,
                 x0: np.ndarray, v0):
        self.system = system
        self.flow = flow
        self.config = config
        self.x = x0                      # the state before the buffered steps
        self.g = system.dissipated(x0)   # and its dissipated value
        self.t, self.h, self.ends = [], [], []
        self.recs = [0]                  # recorded positions in [x, *ends]
        self.v0 = [v0]                   # the control fields there
        self.blocks = []

    def add(self, step: _Step) -> None:
        self.t.append(step.t)
        self.h.append(step.h)
        self.ends.append(step.x_new)
        if step.recorded:
            self.recs.append(len(self.ends))
            self.v0.append(step.v0_new)
        if len(self.ends) == _DIAG_BLOCK:
            self.flush()

    def flush(self) -> None:
        t, h, ends, recs, v0 = self.t, self.h, self.ends, self.recs, self.v0
        if not ends and not recs:
            return
        self.t, self.h, self.ends, self.recs, self.v0 = [], [], [], [], []
        system, cfg = self.system, self.config
        pts = np.array([self.x, *ends])
        at = np.array(recs, dtype=int)
        audit = self.flow is Flow.PERTURBED and bool(ends)
        mids = system_frames(system, 0.5 * (pts[:-1] + pts[1:])) if audit else None
        frames = system_frames(system, pts[at])
        self._raise_first_nonfinite(mids, frames, t, h, ends, recs, v0)

        g = np.empty(len(pts))
        g[0] = self.g
        g[1:] = system.dissipated.values(pts[1:])
        states = pts[at]
        conserved = np.empty((len(at), system.k))
        for j, f in enumerate(system.conserved):
            conserved[:, j] = f.values(states)
        if self.flow is Flow.PERTURBED:
            v0 = np.array(v0).reshape(states.shape)  # kept from the run
        else:
            v0 = _cofactor_from_frames(frames)
        q = (v0[:, None, :] @ frames.gmat @ v0[:, :, None])[:, 0, 0]
        H = np.array(h)
        T = np.array(t)
        block = {
            "times": np.concatenate(([0.0], T + H))[at],
            "states": states,
            "conserved_values": conserved,
            "dissipated_values": g[at],
            "det_full": frames.det_full(),
            "control_norm": np.sqrt(np.where(q < 0.0, 0.0, q)),
            "step_sizes": np.concatenate(([0.0], H))[at],
        }
        if audit:
            measured = (g[1:] - g[:-1]) / H
            predicted = -mids.det_full()
            scale = np.fmax(np.fmax(1.0, np.abs(measured)), np.abs(predicted))
            noise = (_RATE_NOISE_FACTOR * _row_norms(mids.diffs[:, mids.k])
                     * (cfg.abs_tol + cfg.rel_tol * _row_norms(pts[:-1])) / H)
            # h**2 on Python floats: numpy's square need not round as pow does
            h2 = np.array([hh ** 2 for hh in h])
            block.update(rate_times=T + 0.5 * H, rate_measured=measured,
                         rate_predicted=predicted,
                         rate_band=_RATE_CURVE_FACTOR * h2 * scale + noise)
        else:
            block.update(dict.fromkeys(_RATE_FIELDS, np.empty(0)))
        self.blocks.append(block)
        self.x = pts[-1]
        self.g = g[-1]

    def _raise_first_nonfinite(self, mids, frames, t, h, ends, recs, v0) -> None:
        """Raise the per-step order's first non-finite frame of a block, if any.

        The diagnostics before that frame are flushed first, so their
        warnings are emitted as a per-step evaluation emits them. A
        corrected-flow record's frame was finite at the step that reached
        it, and the unperturbed flow has no midpoints, so at most one of
        the two stacks holds a flagged row.
        """
        bad = mids if mids is not None and not mids.finite.all() else frames
        if bad.finite.all():
            return
        i = int(np.argmin(bad.finite))
        # keep the steps before the flagged frame and the records below it
        n_steps, below = (i, i + 1) if bad is mids else (recs[i], recs[i])
        n_recs = sum(r < below for r in recs)
        self.t, self.h, self.ends = t[:n_steps], h[:n_steps], ends[:n_steps]
        self.recs, self.v0 = recs[:n_recs], v0[:n_recs]
        self.flush()
        raise NonFiniteState(str(_nonfinite_differential(bad.x[i])))

    def columns(self) -> dict:
        """The flushed blocks' :class:`Trajectory` arrays, each joined over the blocks."""
        return {name: np.concatenate([block[name] for block in self.blocks])
                for name in self.blocks[0]}


def integrate(system: DissipativeSystem, x0, config: IntegratorConfig,
              flow: Flow = Flow.PERTURBED,
              checkpoints=None, bound: float | None = None) -> "Trajectory":
    """Integrate either flow from x0 up to t_end.

    ``checkpoints`` are read off each step's continuous extension, not
    landed on: step control, and so every record, is the same with or
    without them. RK45 steps use the free fourth-order extension of
    Dormand-Prince; RK4 steps and re-projected steps use the cubic Hermite
    on the end states and their right-hand sides. A checkpoint at a step's
    end gets that end state exactly. ``bound`` aborts with
    :class:`UnboundedTrajectory` when the state norm exceeds it.

    The steps are those of the one step loop, ``_lockstep``, on this one
    start, and a failure is the one it raises. The records and, on the
    corrected flow, the midpoint rate audit of every accepted step are
    evaluated in blocks of ``_DIAG_BLOCK`` steps on stacked frames (see
    ``_Diagnostics``); a step evaluates nothing beyond its stages, and no
    stage builds a frame. A run that fails flushes its pending block first,
    so a non-finite diagnostic frame before the failing step raises
    :class:`NonFiniteState` instead, as a per-step evaluation would. The
    steps past such a frame, up to the end of its block, are taken before
    it is seen.
    """
    x = as_point(x0, system.dim)
    if config.t_end <= 0:
        raise ValueError("t_end must be positive")

    cps = None
    cp_states = None
    next_cp = 0
    if checkpoints is not None:
        cps = np.asarray(checkpoints, dtype=float)
        _check_checkpoints(cps, config.t_end)
        cp_states = np.empty((cps.size, system.dim))
        if cps.size and cps[0] == 0.0:
            cp_states[0] = x
            next_cp = 1
    n_cps = 0 if cps is None else cps.size

    steps = _lockstep(system, x, config, flow, bound)
    diag = _Diagnostics(system, flow, config, x, next(steps))
    try:
        for step in steps:
            diag.add(step)
            if next_cp < n_cps and (cps[next_cp] <= step.t_new or step.final):
                stop = (n_cps if step.final
                        else int(np.searchsorted(cps, step.t_new, side="right")))
                cp_states[next_cp:stop] = step.states_at(cps[next_cp:stop])
                next_cp = stop
    except GeodissError:
        # the diagnostics of the steps before the failure come first
        with _landing_scope(config):
            diag.flush()
        raise
    diag.flush()

    # t_end > 0, so the run took at least one step and the last one counts all
    return Trajectory(flow=flow, config=config, **diag.columns(),
                      checkpoint_times=cps, checkpoint_states=cp_states,
                      n_accepted=step.accepted, n_rejected=step.rejected)


@dataclass
class EnsembleRun:
    """Outcome of :func:`integrate_ensemble`, row i for start i.

    ``failures[i]`` is the class name of the :class:`IntegrationFailure`
    that ended start i, else None. For a start that finished, ``g_max`` is
    the max of the dissipated value over the states its solo
    :func:`integrate` records (the start, every ``record_every``-th accepted
    step and the last one), and ``final`` is its last state. A failed
    start's ``final`` is its last accepted state. ``n_accepted`` and
    ``n_rejected`` count the steps taken and the tries rejected, up to the
    failure for a failed start.
    """

    g_max: np.ndarray       # (m,)
    final: np.ndarray       # (m, n)
    n_accepted: np.ndarray  # (m,)
    n_rejected: np.ndarray  # (m,)
    failures: list          # (m,) class names or None


def integrate_ensemble(system: DissipativeSystem, starts, config: IntegratorConfig,
                       bound: float | None = None, t_ends=None) -> EnsembleRun:
    """Integrate the corrected flow from every row of an (m, dim) stack, in lockstep.

    This drains the one step loop, ``_lockstep``, over all rows at once.
    ``t_ends``, one end time per row, replaces ``config.t_end``, so rows of
    several horizons share one call. An end time that is not positive, or
    whose adaptive first step lies below its step floor, is an input error
    refused before any evaluation. A failure ends its row only and is
    reported by class name. Every row i takes exactly the steps of its solo
    ``integrate(system, row, replace(config, t_end=t_ends[i]), bound=bound)``
    in the same arithmetic, and ends when it reaches its own end time. The
    dissipated value is evaluated at the states a solo run records a block
    of ``_DIAG_BLOCK`` of them at a time, as :func:`integrate`'s diagnostics are, and each
    row's max is taken over its own. The records of a row that has failed
    by then are evaluated under the numpy error state of a solo run's
    failure flush (``_landing_scope``), the others outside it, as a solo
    run's regular flushes are. Nothing else is recorded; see
    :class:`EnsembleRun`.
    """
    x = as_stack(starts, system.dim)
    m = len(x)
    if t_ends is not None:
        t_ends = np.asarray(t_ends, dtype=float)
        if t_ends.shape != (m,):
            raise ValueError(f"expected {m} end times, got shape {t_ends.shape}")
        t_ends = t_ends.tolist()
    # input errors, refused before any evaluation: each distinct end time
    # once, in row order
    for t_end in dict.fromkeys([config.t_end] if t_ends is None else t_ends):
        _check_t_end(config, t_end)
    run = EnsembleRun(g_max=np.full(m, -np.inf), final=x.copy(),
                      n_accepted=np.zeros(m, dtype=int), n_rejected=np.zeros(m, dtype=int),
                      failures=[None] * m)
    owners, ends = [], []  # the recorded states not yet evaluated, and their rows
    held = 0

    def flush():
        owner = np.concatenate(owners)
        pts = np.concatenate(ends)
        # the records of a row that has failed by now are evaluated where its
        # solo run's failure flush evaluates them: a fixed step may have
        # landed on a finite but huge state, whose overflows warn no one;
        # the others as a solo run's regular flushes are
        failed = np.array([run.failures[i] is not None for i in owner.tolist()])
        g = np.empty(len(pts))
        for scope, sel in ((_NO_SCOPE, ~failed), (_landing_scope(config), failed)):
            if sel.any():
                with scope:
                    g[sel] = system.dissipated.values(pts[sel])
        # row by row in step order, as np.maximum would fold them; unlike
        # np.maximum, its unbuffered loop warns on a NaN
        with np.errstate(invalid="ignore"):
            np.maximum.at(run.g_max, owner, g)
        owners.clear()
        ends.clear()

    for rows, recorded, states in _lockstep(system, x, config, Flow.PERTURBED, bound, run,
                                            t_ends):
        if len(recorded) == len(rows):
            owners.append(rows)
            ends.append(states)
        elif recorded:
            owners.append([rows[j] for j in recorded])
            ends.append(states[recorded])
        held += len(recorded)
        if held >= _DIAG_BLOCK:
            flush()
            held = 0
    if held:
        flush()
    run.failures = [None if exc is None else type(exc).__name__ for exc in run.failures]
    return run


def flow_agreement_band(config: IntegratorConfig, state_norm: float) -> float:
    """Allowed flow disagreement for comparisons: 10x the accumulated local tolerance."""
    return 10.0 * config.local_tol(state_norm) * config.t_end
