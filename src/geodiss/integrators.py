"""Fixed and adaptive Runge-Kutta integration with structure diagnostics.

Both the conservative flow and the corrected (dissipative) flow integrate
through the same machinery. A run records the conserved values, the
dissipated value, the full Gram determinant and the control-field norm at
its recorded states. On the corrected flow it also audits every accepted
step: the finite-difference rate of the dissipated quantity over the step
is checked against the predicted rate, minus the full Gram determinant at
the step's midpoint. These diagnostics are evaluated after the fact, a
block of ``_DIAG_BLOCK`` accepted steps at a time, on one stacked frame for
the block's midpoints and one for its records. So a step costs its stage
evaluations and nothing more, and every value is bitwise the one a
per-step evaluation gives. A stage is one call of the corrected-flow
kernel that :func:`geodiss.control._corrected_rhs` binds to the system once
per run: a run builds no :class:`~geodiss.gram.SystemFrame`.

Trajectories never get silently re-projected onto a leaf; an optional Newton
re-projection after each accepted step can be switched on in the config, and
leaf drift is always visible in the recorded conserved values. The
re-projection is :func:`geodiss.fields.project_to_leaf`, the one leaf
projection of the package; a step it cannot bring back onto the initial
leaf raises :class:`LeafProjectionFailure`, never keeps an unconverged point.

This module imports only the layers below it (fields, Gram frames, the
control field); the structure probes and certificates built on trajectories
live above it. Two loops share one tableau and one step controller. The
solo path is the step generator ``_dp_steps``: for one start it decides
which steps are taken, which are recorded and which one ends the run, and
:func:`integrate` records them. The lockstep ensemble,
:func:`integrate_ensemble`, advances an (m, n) stack of starts of the
corrected flow at once, on the stacked frame arrays of a kernel bound once
per run (``_rhs_rows``), and keeps only what a basin
ensemble reads: each row's max of the dissipated value over the states a
solo run records, its final state, its step counts and its failure. Its
running rows are a compact working set: a try in which every row steps
gathers and scatters nothing, and the set shrinks only when a row finishes
or fails. Each row takes exactly the steps of its solo run, in the same
arithmetic, and the tests hold the two paths to that. The solo path is
kept because on a batch of one it is faster than the lockstep loop.
"""
from __future__ import annotations

import contextlib
import math
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
from .fields import (
    DissipativeSystem,
    _project_rows,
    _row_norms,
    as_point,
    as_stack,
    project_to_leaf,
)
from .gram import _stack_arrays, system_frames
from .report import csv_text


def _guard_nonfinite(fn):
    """Report mid-run non-finite field values as integration failures.

    A state can pass the finiteness check while its differentials or Gram
    data overflow; once integration has started that is a trajectory leaving
    the representable domain, not a defect of the field definitions.
    """
    def wrapped(*args):
        try:
            return fn(*args)
        except NonFiniteValue as exc:
            raise NonFiniteState(str(exc)) from exc
    return wrapped

# Dormand-Prince 5(4): 7 stages, FSAL, fifth-order propagation with a
# fourth-order error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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
# Quartic term of the continuous extension, on the seven stages.
_DP_DENSE = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                      -10690763975 / 1880347072, 701980252875 / 199316789632,
                      -1453857185 / 822651844, 69997945 / 29380423])

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


def _rk4_step(rhs, x, h, k1):
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _evaluator(system: DissipativeSystem, flow: Flow):
    """Right-hand side of the flow at p, with the control field behind it.

    The unperturbed flow has no control field and returns ``None`` for it.
    """
    if flow is Flow.PERTURBED:
        evaluate = _corrected_rhs(system)
    else:
        def evaluate(p):
            return system.X(p), None
    return _guard_nonfinite(evaluate)


class _Step:
    """One accepted step from (t, x) to (t_new, x_new) and its continuous extension.

    ``f`` and ``f_new`` are the right-hand sides at the two end states, and
    ``v0_new`` the control field behind ``f_new`` (None on the unperturbed
    flow). ``stages`` holds the seven Dormand-Prince stages of an RK45 step
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


def _first_step(config: IntegratorConfig) -> float:
    """The first step size, min(h0, t_end), checked against an adaptive run's floor.

    An adaptive run whose first step already lies below the step floor
    1e-14 t_end could only collapse: that is an input problem, raised as
    :class:`InitialStepBelowFloor` before any step.
    """
    h = min(config.h0, config.t_end)
    if config.method is Method.RK45_ADAPTIVE and h < _STEP_FLOOR * config.t_end:
        raise InitialStepBelowFloor(
            f"the first step min(h0, t_end) = {h:.3e} (h0 = {config.h0:.6g}, "
            f"t_end = {config.t_end:.6g}) lies below the step floor "
            f"{_STEP_FLOOR:g} * t_end = {_STEP_FLOOR * config.t_end:.3e}")
    return h


def _step_control(err: float, h_try: float, fac_old: float) -> tuple[bool, float, float]:
    """The controller's verdict on a try of size h_try with error norm err.

    Returns whether the try is accepted, the next step size and the
    controller's memory of the last accepted error.
    """
    if err > 1.0:
        return False, h_try * max(_FAC_MIN, _SAFETY / err ** _ERR_EXPO), fac_old
    if err == 0.0:
        fac = _FAC_MAX  # exactly stationary state, grow freely
    else:
        fac = _SAFETY * err ** (-_ERR_EXPO) * fac_old ** _PI_BETA
    return True, h_try * min(_FAC_MAX, max(_FAC_MIN, fac)), max(err, 1e-4)


def _dp_steps(system: DissipativeSystem, x: np.ndarray, config: IntegratorConfig,
              flow: Flow = Flow.PERTURBED, bound: float | None = None, seed=None):
    """Generate the accepted steps of one run from x up to config.t_end.

    ``seed`` is the evaluation at x when the caller already has it. Step
    control depends on nothing but the run itself, so a consumer that stops
    early has seen exactly the steps of the full run up to that point.

    An adaptive try whose stages leave the finite range, or whose error
    estimate is not finite, is rejected with the smallest shrink factor;
    the step floor and the step budget still bound the run. A fixed step
    that leaves the finite range raises :class:`NonFiniteState`.
    """
    evaluate = _evaluator(system, flow)

    def rhs(p):
        return evaluate(p)[0]

    h_ctrl = _first_step(config)
    k_first = (seed if seed is not None else evaluate(x))[0]
    leaf_target = None
    if config.leaf_reprojection and system.k:
        leaf_target = system.leaf_value(x)
    t = 0.0
    t_end = config.t_end
    # the last step ends within this roundoff band below t_end
    t_stop = t_end - _STEP_FLOOR * t_end
    fac_old = 1e-4
    n_acc = 0
    n_rej = 0
    adaptive = config.method is Method.RK45_ADAPTIVE
    min_h = _STEP_FLOOR * t_end

    while t < t_stop:
        if n_acc + n_rej >= config.max_steps:
            raise MaxStepsExceeded(
                f"exceeded {config.max_steps} steps at t={t:.6g} of {t_end:.6g}"
            )
        if adaptive and h_ctrl < min_h:
            raise StepUnderflow(f"step size {h_ctrl:.3e} below floor at t={t:.6g}")
        h_try = h_ctrl if adaptive else config.h0
        h_try = min(h_try, t_end - t)

        if adaptive:
            stages = np.empty((7, x.size))
            stages[0] = k_first
            # a try that leaves the finite range is rejected below, through
            # NonFiniteState or a non-finite err: its overflows warn no one
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    for s in range(1, 7):
                        xs = x + h_try * (_DP_A[s] @ stages[:s])
                        stages[s], v0_new = evaluate(xs)
            except NonFiniteState:
                err = np.inf
            else:
                # B5 is A[6] with a trailing zero: the last stage point is the
                # new state, so stage 7 is the right-hand side there (FSAL)
                x_new = xs
                err_vec = h_try * (_DP_ERR @ stages)
                scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
                q = (err_vec / scale) ** 2
                err = float(np.sqrt(np.add.reduce(q) / q.size))
            if not math.isfinite(err):
                err = np.inf  # rejected with the smallest shrink factor
            accepted, h_ctrl, fac_old = _step_control(err, h_try, fac_old)
            if not accepted:
                n_rej += 1
                continue
        else:
            stages = None
            # a step that leaves the finite range raises NonFiniteState, from
            # a stage or from the check below: its overflows warn no one
            with np.errstate(over="ignore", invalid="ignore"):
                x_new = _rk4_step(rhs, x, h_try, k_first)

        with _landing_scope(config):
            if not np.isfinite(x_new).all():
                raise NonFiniteState(f"state became non-finite at t={t + h_try:.6g}")
            if bound is not None and float(np.linalg.norm(x_new)) > bound:
                raise UnboundedTrajectory(
                    f"state norm exceeded {bound:.3e} at t={t + h_try:.6g}"
                )

            if leaf_target is not None:
                x_new = project_to_leaf(system, x_new, leaf_target)
                stages = None

            if stages is not None:
                k_new = stages[6]
            else:
                k_new, v0_new = evaluate(x_new)

        n_acc += 1
        final = t + h_try >= t_stop
        step = _Step(t, h_try, x, x_new, k_first, k_new, stages, v0_new,
                     n_acc, n_rej, final, final or n_acc % config.record_every == 0)
        yield step
        t = step.t_new
        x = x_new
        k_first = k_new


def _check_checkpoints(cps: np.ndarray, t_end: float) -> None:
    """Raise ValueError unless cps is strictly increasing within [0, t_end]."""
    if cps.ndim != 1 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 0 or cps[-1] > t_end + 1e-12:
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
        _guard_nonfinite(bad.require_finite)()

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

    The records and, on the corrected flow, the midpoint rate audit of every
    accepted step are evaluated in blocks of ``_DIAG_BLOCK`` steps on
    stacked frames (see ``_Diagnostics``); a step evaluates nothing beyond
    its stages, and no stage builds a frame. A run that fails flushes its
    pending block first, so a non-finite diagnostic frame before the failing
    step raises :class:`NonFiniteState` instead, as a per-step evaluation
    would. The steps past such a frame, up to the end of its block, are
    taken before it is seen.
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
        if cps[0] == 0.0:
            cp_states[0] = x
            next_cp = 1
    n_cps = 0 if cps is None else cps.size

    seed = _evaluator(system, flow)(x)
    diag = _Diagnostics(system, flow, config, x, seed[1])
    try:
        for step in _dp_steps(system, x, config, flow, bound, seed):
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


def _rhs_rows(system: DissipativeSystem):
    """The corrected flow's right-hand side on stacks, bound to the system.

    Returns ``evaluate(pts) -> (rhs, ok)`` for an (m, n) stack that
    :func:`as_stack` has checked: the right-hand side at each row, and the
    rows that have one, or None when every row has one. A row whose
    differentials are not finite, where the point kernel raises, gets NaN
    and a False flag. The stacked bodies of :func:`system_frames` and
    ``_cofactor_from_frames`` run directly, with no :class:`FrameStack`
    built.
    """
    fields_ = system.all_fields()
    metric = system.metric
    minors = _cofactor_minors(system.k)
    X = system.X

    def evaluate(pts):
        _, _, grads, gram, ok = _stack_arrays(fields_, metric, pts)
        v0 = _cofactors(gram, grads, minors)
        if ok is None:
            return X._values_at(pts) - v0, None
        out = np.full(pts.shape, np.nan)
        out[ok] = X._values_at(pts[ok]) - v0[ok]
        return out, ok

    return evaluate


def integrate_ensemble(system: DissipativeSystem, starts, config: IntegratorConfig,
                       bound: float | None = None) -> EnsembleRun:
    """Integrate the corrected flow from every row of an (m, dim) stack, in lockstep.

    One loop advances all rows with the step scheme of :func:`_dp_steps`.
    Each row has its own time, step size, controller memory and counters,
    is checked alone against the step budget, the step floor, non-finite
    tries, ``bound`` and the leaf re-projection, and drops out alone when it
    finishes or fails. A failure ends its row only and is reported by class
    name. Every row takes exactly the steps of its solo
    ``integrate(system, row, config, bound=bound)`` in the same arithmetic:
    the stages are stacked frame arrays and vector-matrix products, which numpy
    evaluates one row at a time as in the point call, and the step control
    runs on Python floats row by row. Nothing else is recorded; see
    :class:`EnsembleRun`.

    The running rows are a compact working set, in start order: their
    states, times, stage-0 slopes and dissipated maxima as arrays, their
    controller scalars and counters as Python lists. A try in which every
    row steps replaces the arrays whole; a rejected or failed try keeps its
    row's entries. The set is compacted only when a row finishes or fails,
    and only then are the row's results written out.
    """
    x = as_stack(starts, system.dim).copy()
    if config.t_end <= 0:
        raise ValueError("t_end must be positive")
    m, n = x.shape
    t_end = config.t_end
    t_stop = t_end - _STEP_FLOOR * t_end
    min_h = _STEP_FLOOR * t_end
    adaptive = config.method is Method.RK45_ADAPTIVE
    h_first = _first_step(config)
    g_max = np.full(m, -np.inf)
    n_accepted = np.zeros(m, dtype=int)
    n_rejected = np.zeros(m, dtype=int)
    failures = [None] * m

    rhs_rows = _rhs_rows(system)
    ka, ok = rhs_rows(x)
    xa = x
    if ok is not None:
        for i in np.flatnonzero(~ok).tolist():
            failures[i] = NonFiniteState.__name__
        xa, ka = x[ok], ka[ok]
    # the working set: each running row's start index, state, time, stage-0
    # slope, max of G over its records, leaf, step size, controller memory
    # and counters
    rows = list(range(m)) if ok is None else np.flatnonzero(ok).tolist()
    ta = np.zeros(len(rows))
    ga = system.dissipated.values(xa)
    targets = None
    if config.leaf_reprojection and system.k:
        targets = np.empty((len(rows), system.k))
        for j, f in enumerate(system.conserved):
            targets[:, j] = f.values(xa)
    h_ctrl = [h_first] * len(rows)
    fac_old = [1e-4] * len(rows)
    n_acc = [0] * len(rows)
    n_rej = [0] * len(rows)
    tries = 0    # every running row has made one try a pass
    ended = {}   # working-set position -> failure name, or None for a finished row
    take = None  # the rows that step in this try, None for all

    def drop(lost, failure):
        """End the stepping rows at the positions ``lost`` with ``failure``, unstepped."""
        nonlocal take
        if take is None:
            take = np.ones(len(rows), dtype=bool)
        lost = lost[take[lost]]
        take[lost] = False
        ended.update(dict.fromkeys(lost.tolist(), failure.__name__))

    while True:
        # the checks before each running row's next try
        if tries >= config.max_steps:
            for j in range(len(rows)):
                ended.setdefault(j, MaxStepsExceeded.__name__)
        elif adaptive and rows and min(h_ctrl) < min_h:
            for j, hc in enumerate(h_ctrl):
                if hc < min_h:
                    ended.setdefault(j, StepUnderflow.__name__)
        if ended:
            gone = sorted(ended)
            at = [rows[j] for j in gone]
            x[at] = xa[gone]
            g_max[at] = ga[gone]
            for i, j in zip(at, gone):
                failures[i] = ended[j]
                n_accepted[i], n_rejected[i] = n_acc[j], n_rej[j]
            keep = [j for j in range(len(rows)) if j not in ended]
            rows, h_ctrl, fac_old, n_acc, n_rej = (
                [v[j] for j in keep] for v in (rows, h_ctrl, fac_old, n_acc, n_rej))
            xa, ta, ka, ga = xa[keep], ta[keep], ka[keep], ga[keep]
            if targets is not None:
                targets = targets[keep]
            ended.clear()
        if not rows:
            break

        h = np.minimum(h_ctrl if adaptive else config.h0, t_end - ta)
        h_col = h[:, None]
        take = None
        if adaptive:
            stages = np.empty((len(rows), 7, n))
            stages[:, 0] = ka
            good = None
            # a try that leaves the finite range is rejected below: its
            # overflows warn no one, in one scope for the batch of tries
            with np.errstate(over="ignore", invalid="ignore"):
                for s in range(1, 7):
                    xs = xa + h_col * (_DP_A[s] @ stages[:, :s])
                    stages[:, s], ok = rhs_rows(xs)
                    if ok is not None:
                        good = ok if good is None else good & ok
                err_vec = h_col * (_DP_ERR @ stages)
                scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(xa), np.abs(xs))
                q = (err_vec / scale) ** 2
                err = np.sqrt(np.add.reduce(q, axis=1) / n)
            if good is not None:
                err[~good] = np.inf
            # the shared controller on Python floats, row by row: its powers
            # must round as the solo run's do, which numpy's need not
            for j, (e, h_try) in enumerate(zip(err.tolist(), h.tolist())):
                accepted, h_ctrl[j], fac_old[j] = _step_control(
                    e if math.isfinite(e) else math.inf, h_try, fac_old[j])
                if not accepted:
                    n_rej[j] += 1
                    if take is None:
                        take = np.ones(len(rows), dtype=bool)
                    take[j] = False
            x_new, k_new = xs, stages[:, 6]
        else:
            # a row that leaves the finite range is dropped below: its
            # overflows warn no one, as in the adaptive tries
            with np.errstate(over="ignore", invalid="ignore"):
                k2, ok2 = rhs_rows(xa + (0.5 * h)[:, None] * ka)
                k3, ok3 = rhs_rows(xa + (0.5 * h)[:, None] * k2)
                k4, ok4 = rhs_rows(xa + h_col * k3)
                x_new = xa + (h / 6.0)[:, None] * (ka + 2.0 * k2 + 2.0 * k3 + k4)
            k_new = None
            for ok in (ok2, ok3, ok4):
                if ok is not None:
                    drop(np.flatnonzero(~ok), NonFiniteState)
        tries += 1

        with _landing_scope(config):
            if np.count_nonzero(np.isfinite(x_new)) != x_new.size:
                drop(np.flatnonzero(~np.isfinite(x_new).all(axis=1)), NonFiniteState)
            if bound is not None:
                if take is None:
                    lost = np.flatnonzero(_row_norms(x_new) > bound)
                else:
                    sel = np.flatnonzero(take)
                    lost = sel[_row_norms(x_new[sel]) > bound]
                if lost.size:
                    drop(lost, UnboundedTrajectory)
            if targets is not None or k_new is None:
                # no stage holds the slope at the new state: evaluate it
                # there, after the re-projection
                sel = np.arange(len(rows)) if take is None else np.flatnonzero(take)
                if targets is not None and sel.size:
                    x_sel, ok, _ = _project_rows(system, x_new[sel], targets[sel])
                    drop(sel[~ok], LeafProjectionFailure)
                    sel = sel[ok]
                    x_new[sel] = x_sel[ok]
                k_new = np.empty_like(xa)
                if sel.size:
                    k_new[sel], ok = rhs_rows(x_new[sel])
                    if ok is not None:
                        drop(sel[~ok], NonFiniteState)

        t_new = ta + h
        if take is None:
            xa, ka, ta = x_new, k_new, t_new
            stepped = range(len(rows))
        else:
            xa = np.where(take[:, None], x_new, xa)
            ka = np.where(take[:, None], k_new, ka)
            ta = np.where(take, t_new, ta)
            stepped = np.flatnonzero(take).tolist()
        t_list = t_new.tolist()
        recorded = []
        for j in stepped:
            n_acc[j] += 1
            if t_list[j] >= t_stop:
                ended[j] = None
                recorded.append(j)
            elif n_acc[j] % config.record_every == 0:
                recorded.append(j)
        if len(recorded) == len(rows):
            ga = np.maximum(ga, system.dissipated.values(xa))
        elif recorded:
            ga[recorded] = np.maximum(ga[recorded], system.dissipated.values(xa[recorded]))

    return EnsembleRun(g_max=g_max, final=x, n_accepted=n_accepted, n_rejected=n_rejected,
                       failures=failures)


def flow_agreement_band(config: IntegratorConfig, state_norm: float) -> float:
    """Allowed flow disagreement for comparisons: 10x the accumulated local tolerance."""
    return 10.0 * config.local_tol(state_norm) * config.t_end
