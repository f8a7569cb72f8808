"""Trajectory integration: accuracy, structure diagnostics, failure modes."""
import ast
import dataclasses
import io
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodiss.catalog import gradient_only, random_poly
from geodiss.cli import _build_system, _integrator_config
from geodiss.errors import (
    InitialStepBelowFloor,
    IntegrationFailure,
    LeafProjectionFailure,
    MaxStepsExceeded,
    NonFiniteState,
    NonFiniteValue,
    NotOnInvariantSet,
    StepUnderflow,
    UnboundedTrajectory,
)
from geodiss.fields import (
    DissipativeSystem,
    MetricField,
    ScalarField,
    VectorField,
    _row_norms,
    project_to_leaf,
)
import geodiss.fields
import geodiss.gram
import geodiss.integrators
from geodiss.control import Formulation, _cofactor_from_frame, _corrected_rows, control_field
from geodiss.gram import _nonfinite_differential, system_frame
from geodiss.integrators import (
    Flow,
    IntegratorConfig,
    Method,
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_DENSE,
    _DP_ERR,
    _RK4_A,
    _PI_BETA,
    _STEP_FLOOR,
    _TABLEAUS,
    _Step,
    _check_t_end,
    _dense_states,
    _error_norm,
    _first_step,
    _landing_scope,
    _lockstep,
    _step_control,
    flow_agreement_band,
    integrate,
    integrate_ensemble,
)
from geodiss.structure import PointKind, classify_point, compare_on_invariant_set
from conftest import closed_form_sombrero, with_callable_metric


@pytest.fixture(scope="module")
def antibowl():
    """Descent of -|x|^4/4 runs up a quartic: blowup at t* = 1/(2 |x0|^2)."""
    G = ScalarField(2, lambda p: -0.25 * float(p @ p) ** 2,
                    differential=lambda p: -float(p @ p) * p, label="antibowl")
    return DissipativeSystem(X=VectorField(2, lambda p: np.zeros(2)),
                             conserved=(), dissipated=G,
                             metric=MetricField.euclidean(2))


# The stage data as exact fractions: the tests' own copy of the coefficients
# (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.6), which the
# reference loop below reads as floats and the order-condition test holds
# the module's stage data to, so a changed coefficient cannot move both sides.
_EXACT_DP_A = [
    [],
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)],
    [Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247), Fraction(49, 176),
     Fraction(-5103, 18656)],
    [Fraction(35, 384), Fraction(0), Fraction(500, 1113), Fraction(125, 192),
     Fraction(-2187, 6784), Fraction(11, 84)],
]
_EXACT_DP_C = [Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(4, 5), Fraction(8, 9),
               Fraction(1), Fraction(1)]
_EXACT_DP_B4 = [Fraction(5179, 57600), Fraction(0), Fraction(7571, 16695), Fraction(393, 640),
                Fraction(-92097, 339200), Fraction(187, 2100), Fraction(1, 40)]
_EXACT_DP_DENSE = [Fraction(-12715105075, 11282082432), Fraction(0),
                   Fraction(87487479700, 32700410799), Fraction(-10690763975, 1880347072),
                   Fraction(701980252875, 199316789632), Fraction(-1453857185, 822651844),
                   Fraction(69997945, 29380423)]
_EXACT_RK4_A = [[], [Fraction(1, 2)], [Fraction(0), Fraction(1, 2)],
                [Fraction(0), Fraction(0), Fraction(1)]]
_EXACT_RK4_C = [Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1)]


def _floats(row):
    return np.array([float(v) for v in row], dtype=float)


_REF_DP_A = [_floats(row) for row in _EXACT_DP_A]
_REF_DP_ERR = np.append(_REF_DP_A[-1], 0.0) - _floats(_EXACT_DP_B4)
_REF_DP_DENSE = _floats(_EXACT_DP_DENSE)


# The solo step loop that the lockstep loop replaced, verbatim but for its own
# copy of the coefficients: the reference that every run of integrate,
# integrate_ensemble and _lockstep is held to, bit for bit, with the
# exception each one raises.
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


def _rk4_step(rhs, x, h, k1):
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _evaluator(system: DissipativeSystem, flow: Flow):
    """Right-hand side of the flow at p."""
    if flow is Flow.PERTURBED:
        kernel = _corrected_rows(system)

        def evaluate(p):
            rhs, _, ok = kernel(p)
            if ok is not None:
                raise _nonfinite_differential(p)
            return rhs
    else:
        evaluate = system.X
    return _guard_nonfinite(evaluate)


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
    assert config.method in (Method.RK45_ADAPTIVE, Method.RK4_FIXED), config.method
    rhs = _evaluator(system, flow)
    h_ctrl = _first_step(config)
    k_first = seed if seed is not None else rhs(x)
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
                        xs = x + h_try * (_REF_DP_A[s] @ stages[:s])
                        stages[s] = rhs(xs)
            except NonFiniteState:
                err = np.inf
            else:
                # B5 is A[6] with a trailing zero: the last stage point is the
                # new state, so stage 7 is the right-hand side there (FSAL)
                x_new = xs
                err_vec = h_try * (_REF_DP_ERR @ stages)
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
                k_new = rhs(x_new)

        n_acc += 1
        final = t + h_try >= t_stop
        step = _Step(t, h_try, x, x_new, k_first, k_new, stages,
                     n_acc, n_rej, final, final or n_acc % config.record_every == 0)
        yield step
        t = step.t_new
        x = x_new
        k_first = k_new


def test_adaptive_scheme_matches_the_logistic_closed_form(mexhat):
    x0 = np.array([1.5, 0.0, 0.0])
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=2.0)
    tr = integrate(mexhat.system, x0, cfg)
    exact = closed_form_sombrero(x0, 2.0)
    assert np.max(np.abs(tr.final_state - exact)) <= 1e-10


def _order_residuals(a, b, c):
    """Each order condition of the weights b on the stage rows a and nodes
    c, up to order 4 (Solving ODEs I, II.2), minus its right-hand side."""
    def rows_at(v):
        return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]

    def quad(*factors):
        return sum((bi * math.prod(f[i] for f in factors) for i, bi in enumerate(b)),
                   Fraction(0))

    ac = rows_at(c)
    c2 = [x * x for x in c]
    return [quad() - 1, quad(c) - Fraction(1, 2),
            quad(c2) - Fraction(1, 3), quad(ac) - Fraction(1, 6),
            quad(c2, c) - Fraction(1, 4), quad(c, ac) - Fraction(1, 8),
            quad(rows_at(c2)) - Fraction(1, 12), quad(rows_at(ac)) - Fraction(1, 24)]


def test_stage_data_meets_the_order_conditions():
    # the module's stage data are the roundings of the exact fractions
    for got, exact in [*zip(_DP_A, _EXACT_DP_A), *zip(_RK4_A, _EXACT_RK4_A),
                       (_DP_B4, _EXACT_DP_B4), (_DP_DENSE, _EXACT_DP_DENSE)]:
        assert got.tobytes() == _floats(exact).tobytes()
    assert _DP_ERR.tobytes() == (_DP_B5 - _DP_B4).tobytes()
    # each stage's node is its row sum
    for a, c in ((_EXACT_DP_A, _EXACT_DP_C), (_EXACT_RK4_A, _EXACT_RK4_C)):
        assert [sum(row, Fraction(0)) for row in a] == c
    # FSAL: the fifth-order weights are the last stage row, then 0
    b5 = _EXACT_DP_A[-1] + [Fraction(0)]
    assert _DP_B5.tobytes() == np.append(_DP_A[-1], 0.0).tobytes()
    # the propagation weights have order 5, the embedded ones (b5 minus the
    # error row) order 4, and the error row sums to 0
    assert not any(_order_residuals(_EXACT_DP_A, b5, _EXACT_DP_C))
    assert sum(bi * ci ** 4 for bi, ci in zip(b5, _EXACT_DP_C)) == Fraction(1, 5)
    assert not any(_order_residuals(_EXACT_DP_A, _EXACT_DP_B4, _EXACT_DP_C))
    assert sum(x - y for x, y in zip(b5, _EXACT_DP_B4)) == 0
    # the dense row's quartic term keeps the lower moments: its sum and its
    # first and second moments in c vanish
    for q in range(3):
        assert sum(d * ci ** q for d, ci in zip(_EXACT_DP_DENSE, _EXACT_DP_C)) == 0
    # RK4's stage rows with its written weights (1, 2, 2, 1)/6 have order 4
    rk4_b = [Fraction(w, 6) for w in (1, 2, 2, 1)]
    assert not any(_order_residuals(_EXACT_RK4_A, rk4_b, _EXACT_RK4_C))


def test_fixed_step_scheme_has_fourth_order_convergence(mexhat):
    x0 = np.array([1.5, 0.0, 0.0])
    exact = closed_form_sombrero(x0, 2.0)
    errs = []
    for h in (0.1, 0.05, 0.025):
        cfg = IntegratorConfig(method=Method.RK4_FIXED, h0=h, t_end=2.0)
        tr = integrate(mexhat.system, x0, cfg)
        errs.append(float(np.max(np.abs(tr.final_state - exact))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.7, (errs, orders)


# dop853's nodes (Solving ODEs I, II.10): stages 1 to 12, then the three
# extra stages of its continuous extension
_DOP853_C = [0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
             0.118350341907227396726757197510, 0.281649658092772603273242802490, 1 / 3,
             0.25, 4 / 13, 127 / 195, 0.6, 6 / 7, 1.0]
_DOP853_C_EXTRA = [0.1, 0.2, 7 / 9]


def test_dop853_tableau_meets_the_order_conditions():
    tab = _TABLEAUS[Method.DOP853]
    assert len(tab.a) == 12 and not tab.fsal and tab.b.shape == (12,)
    assert tab.expo == 1 / 8 - 0.2 * _PI_BETA
    # each stage's node is its row sum, the extra stages' too, whose rows run
    # over the 12 stages, the slope at the new state (node 1) and the extra
    # stages below them
    c = np.array(_DOP853_C)
    for row, node in zip(tab.a, c):
        assert row.shape == (len(row),) and abs(row.sum() - node) <= 1e-15
    assert [len(row) for row in tab.extra] == [13, 14, 15]
    for row, node in zip(tab.extra, _DOP853_C_EXTRA):
        assert abs(row.sum() - node) <= 1e-15
    # the weights integrate c^(q-1) exactly up to q = 8
    for q in range(1, 9):
        assert abs(tab.b @ c ** (q - 1) - 1 / q) <= 1e-14, q
    # both error rows sum to 0: each is a difference of two weight rows
    assert len(tab.err) == 2
    for row in tab.err:
        assert row.shape == (12,) and abs(row.sum()) <= 1e-14
    # the dense rows run over the 16 stages
    assert [row.shape for row in tab.dense] == [(16,)] * 4


def test_dop853_error_norm_is_hairers_estimate():
    # |h| s5 / sqrt(n (s5 + 0.01 s3)), s5 and s3 the sums of squares of the
    # scaled fifth- and third-order error rows, written out on Python floats;
    # each row of a stack is its point's norm, bitwise
    tab = _TABLEAUS[Method.DOP853]
    rng = np.random.default_rng(3)
    stages = rng.normal(size=(4, 12, 3))
    scale = rng.uniform(1e-3, 1e-2, size=(4, 3))
    h = [0.3, 0.01, 1.7, 0.05]
    got = _error_norm(tab, np.array(h)[:, None], stages, scale)
    for i in range(4):
        s5, s3 = (sum((sum(w * k for w, k in zip(row.tolist(), stages[i, :, c].tolist()))
                       / scale[i, c]) ** 2 for c in range(3)) for row in tab.err)
        assert math.isclose(got[i], h[i] * s5 / math.sqrt(3 * (s5 + 0.01 * s3)), rel_tol=1e-12)
        assert got[i] == _error_norm(tab, h[i], stages[i], scale[i])
    # both rows vanish: error 0; a non-finite stage: a non-finite norm
    assert _error_norm(tab, 0.1, np.zeros((12, 3)), scale[0]) == 0.0
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(_error_norm(tab, 0.1, np.full((12, 3), np.inf), scale[0]))


def _one_step(system, x0, method, h):
    """The state after one accepted step of size h (a run of t_end = h)."""
    cfg = IntegratorConfig(method=method, h0=h, t_end=h, rel_tol=1e-3, abs_tol=1e-3)
    tr = integrate(system, x0, cfg)
    assert (tr.n_accepted, tr.n_rejected) == (1, 0)
    return tr.final_state


def test_dop853_has_eighth_order_on_a_linear_closed_form():
    # pure descent of |x|^2 / 2 is x(t) = exp(-t) x0: one step's error
    # shrinks as h^9, so halving h divides it by about 2^9
    system = gradient_only("quadratic").system
    x0 = np.array([1.0, -0.5])
    errs = [float(np.max(np.abs(_one_step(system, x0, Method.DOP853, h) - np.exp(-h) * x0)))
            for h in (0.8, 0.4, 0.2)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 8.5, (errs, orders)


def test_dop853_matches_the_logistic_closed_form(mexhat):
    # the final state and the checkpoints read off the seventh-order
    # extension, between step ends and at them
    x0 = np.array([0.4, 0.3, 0.1])
    cps = np.array([0.013, 0.5, 1.0, 1.7, 1.9999, 2.0])
    cfg = IntegratorConfig(method=Method.DOP853, rel_tol=1e-10, abs_tol=1e-12, t_end=2.0)
    tr = integrate(mexhat.system, x0, cfg, checkpoints=cps)
    assert np.max(np.abs(tr.final_state - closed_form_sombrero(x0, 2.0))) <= 1e-9
    for t, state in zip(cps, tr.checkpoint_states):
        assert np.max(np.abs(state - closed_form_sombrero(x0, t))) <= 1e-9, t
    assert tr.checkpoint_states[-1].tobytes() == tr.final_state.tobytes()


def test_dop853_checkpoints_evaluate_extra_stages_only_on_read_steps(mexhat, monkeypatch):
    # the extension's three extra stages are evaluated once per step that a
    # checkpoint reads inside, and never otherwise
    x0 = np.array([0.4, 0.3, 0.1])
    cfg = IntegratorConfig(method=Method.DOP853, rel_tol=1e-9, abs_tol=1e-11, t_end=3.0)
    cps = [0.05, 0.0501, 1.2, 2.0, 3.0]
    calls, _, _ = _counted_frames(monkeypatch)
    plain = integrate(mexhat.system, x0, cfg)
    n_plain = len(calls)
    dense = integrate(mexhat.system, x0, cfg, checkpoints=cps)
    assert n_plain == 1 + 11 * (plain.n_accepted + plain.n_rejected) + plain.n_accepted
    inside = {int(np.searchsorted(plain.times, t, side="right")) for t in cps
              if t not in plain.times}
    assert len(calls) - n_plain == n_plain + 3 * len(inside)
    assert plain.csv_text() == dense.csv_text()


def test_dop853_conservation_drift_is_at_most_dp5s(rigid):
    x0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    for rel in (1e-6, 1e-8, 1e-10):
        drift = {method: integrate(rigid.system, x0, IntegratorConfig(
            method=method, rel_tol=rel, abs_tol=rel * 1e-2, t_end=20.0)).conservation_drift()
            for method in (Method.RK45_ADAPTIVE, Method.DOP853)}
        assert drift[Method.DOP853] <= drift[Method.RK45_ADAPTIVE], (rel, drift)


def test_dop853_dissipation_is_monotone_and_rate_consistent(rigid, mexhat):
    # the rate audit's band is the one RK45 runs are held to
    for system, x0 in ((rigid.system, np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)),
                       (mexhat.system, np.array([2.0, 0.0, 0.0])),
                       (mexhat.system, np.array([0.4, 0.0, 0.1]))):
        for rel in (1e-8, 1e-10):
            cfg = IntegratorConfig(method=Method.DOP853, rel_tol=rel, abs_tol=rel * 1e-2,
                                   t_end=30.0)
            tr = integrate(system, x0, cfg)
            assert tr.monotonicity_violation() <= 0.0
            assert tr.rate_check_violation() <= 0.0
            assert tr.rate_measured.size == tr.n_accepted


def test_dop853_takes_at_most_half_of_dp5s_evaluations(mexhat, monkeypatch):
    # a run the size of the benchmark's sombrero cycle: onto the limit cycle
    # from radius 0.4 up to t = 100 at rel_tol 1e-10
    x0 = np.array([0.4 * np.cos(1.0), 0.4 * np.sin(1.0), 0.2])
    counts, finals = {}, {}
    for method in (Method.RK45_ADAPTIVE, Method.DOP853):
        calls, _, _ = _counted_frames(monkeypatch)
        tr = integrate(mexhat.system, x0, IntegratorConfig(
            method=method, rel_tol=1e-10, abs_tol=1e-12, t_end=100.0))
        counts[method], finals[method] = len(calls), tr.final_state
        monkeypatch.undo()
    assert counts[Method.DOP853] <= 0.5 * counts[Method.RK45_ADAPTIVE], counts
    exact = closed_form_sombrero(x0, 100.0)
    assert np.max(np.abs(finals[Method.DOP853] - exact)) <= 1e-7


def _assert_rows_are_solo_dop853_runs(system, starts, cfg, bound=None, t_ends=None):
    """Every ensemble row takes its solo integrate run's steps, bitwise:
    counters, final state, max of G over the records, or the failure and
    the last state reached."""
    run = integrate_ensemble(system, starts, cfg, bound=bound, t_ends=t_ends)
    for i, x0 in enumerate(starts):
        row_cfg = cfg if t_ends is None else dataclasses.replace(cfg, t_end=t_ends[i])
        try:
            tr = integrate(system, x0, row_cfg, bound=bound)
        except IntegrationFailure as exc:
            assert run.failures[i] == type(exc).__name__, i
            reached = [x0]
            steps = _lockstep(system, x0, row_cfg, bound=bound)
            with pytest.raises(type(exc)):
                for step in steps:
                    reached.append(step.x_new)
            assert run.final[i].tobytes() == reached[-1].tobytes(), i
            assert run.n_accepted[i] == len(reached) - 1, i
            continue
        assert run.failures[i] is None, i
        assert (run.n_accepted[i], run.n_rejected[i]) == (tr.n_accepted, tr.n_rejected), i
        assert run.final[i].tobytes() == tr.final_state.tobytes(), i
        assert run.g_max[i] == np.max(tr.dissipated_values), i
    return run


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(["rigid", "sombrero", "gradient_only", "sphere4d",
                             "random_poly_k2", "random_poly_k3", "rigid_callable_metric"]),
       record_every=st.sampled_from([1, 3]),
       reproject=st.booleans(),
       n_starts=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16),
       bound=st.sampled_from([None, 1.2, 2.0]),
       max_steps=st.sampled_from([15, 1_000_000]),
       own_t_end=st.booleans())
def test_dop853_ensemble_rows_are_their_solo_runs(lockstep_systems, name, record_every,
                                                  reproject, n_starts, seed, bound,
                                                  max_steps, own_t_end):
    system = lockstep_systems[name]
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-1.4, 1.4, size=(n_starts, system.dim))
    t_ends = rng.uniform(0.05, 3.0, size=n_starts).tolist() if own_t_end else None
    cfg = IntegratorConfig(method=Method.DOP853, rel_tol=1e-7, abs_tol=1e-9, t_end=2.0,
                           record_every=record_every, leaf_reprojection=reproject,
                           max_steps=max_steps)
    _assert_rows_are_solo_dop853_runs(system, starts, cfg, bound, t_ends)


def test_dop853_ensemble_rows_fail_alone(rigid, antibowl, refused_leaf_projection):
    # the fates of the RK45 ensemble tests: an equilibrium, a refused
    # re-projection, a try that overflows until the budget runs out, a start
    # outside the bound; then a blowup that collapses onto the step floor
    starts = np.array([[1.0, 0.0, 0.0],
                       [0.6, 0.48, 0.64],
                       300.0 * np.array([0.6, 0.48, 0.64]),
                       [1.6, 0.01, 0.0]])
    # dop853 lands within the projection's tolerance of the leaf at h = 0.1,
    # where RK45 does not: a step of 0.5 does not
    cfg = IntegratorConfig(method=Method.DOP853, rel_tol=1e-3, abs_tol=1e-6, h0=0.5,
                           t_end=1.0, max_steps=3, leaf_reprojection=True)
    run = _assert_rows_are_solo_dop853_runs(rigid.system, starts, cfg, bound=1.5)
    assert run.failures == [None, "LeafProjectionFailure", "MaxStepsExceeded",
                            "UnboundedTrajectory"]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = _assert_rows_are_solo_dop853_runs(
            antibowl, np.array([[1.0, 0.0], [0.1, 0.0], [0.0, 0.9], [0.2, 0.2]]),
            IntegratorConfig(method=Method.DOP853, t_end=1.0))
    assert run.failures == ["StepUnderflow", None, "StepUnderflow", None]


def test_ensemble_start_with_non_finite_differentials_fails_alone(rigid):
    # G's differential is NaN where x3 > 0.9: that start fails before any
    # step, as its solo run does, and the other rows take their solo steps
    G = rigid.system.dissipated

    def d(p):
        return np.full(p.shape, np.nan) if p[2] > 0.9 else G.d(p)

    system = dataclasses.replace(rigid.system, dissipated=ScalarField(
        3, G.value, differential=d, label="poisoned"))
    starts = np.array([[0.6, 0.48, 0.64], [0.0, 0.3, 0.95], [0.8, 0.1, 0.2]])
    cfg = IntegratorConfig(t_end=2.0)
    run = _assert_rows_are_solo_dop853_runs(system, starts, cfg)
    assert run.failures == [None, "NonFiniteState", None]
    assert run.final[1].tobytes() == starts[1].tobytes()
    assert run.g_max[1] == -np.inf
    assert (run.n_accepted[1], run.n_rejected[1]) == (0, 0)
    # a stack of bad starts only: every row fails at its start
    bad = np.array([[0.0, 0.3, 0.95], [0.3, 0.0, 0.95]])
    run = integrate_ensemble(system, bad, cfg)
    assert run.failures == ["NonFiniteState"] * 2
    assert run.final.tobytes() == bad.tobytes()
    assert run.g_max.tolist() == [-np.inf] * 2
    assert run.n_accepted.tolist() == run.n_rejected.tolist() == [0, 0]


@pytest.mark.parametrize("kwargs, text", [
    ({"record_every": 0}, "record_every must be an integer of at least 1"),
    # every fifth step would be recorded
    ({"record_every": 2.5}, "record_every must be an integer of at least 1"),
    ({"max_steps": 0}, "max_steps must be an integer of at least 1"),
    ({"h0": float("nan")}, "h0 must be positive"),
    ({"h0": 0.0}, "h0 must be positive"),
    ({"t_end": float("nan")}, "t_end must be positive"),
    ({"t_end": -1.0}, "t_end must be positive"),
    ({"rel_tol": -1.0}, "rel_tol must be finite and non-negative"),
    ({"rel_tol": float("inf")}, "rel_tol must be finite and non-negative"),
    ({"abs_tol": float("nan")}, "abs_tol must be positive and finite"),
    ({"rel_tol": 0.0, "abs_tol": 0.0}, "abs_tol must be positive and finite"),
    # every try of a state with an exactly-zero component would be rejected
    ({"abs_tol": 0.0}, "abs_tol must be positive and finite"),
])
def test_integrator_config_refuses_values_no_run_can_use(kwargs, text):
    with pytest.raises(ValueError, match=text):
        IntegratorConfig(**kwargs)
    with pytest.raises(ValueError, match=text):
        dataclasses.replace(IntegratorConfig(), **kwargs)
    # rel_tol 0 is a pure absolute tolerance; numpy integers are integers
    IntegratorConfig(rel_tol=0.0, record_every=np.int64(3), max_steps=np.int32(50))


def test_end_time_and_first_step_checks_refuse_nan():
    cfg = IntegratorConfig()
    for t_end in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="t_end must be positive"):
            _check_t_end(cfg, t_end)
    with pytest.raises(ValueError, match="t_end must be positive"):
        integrate_ensemble(gradient_only().system, [[1.0, 0.0]], cfg, t_ends=[float("nan")])
    for method in (Method.RK45_ADAPTIVE, Method.DOP853):
        with pytest.raises(InitialStepBelowFloor):
            _first_step(dataclasses.replace(cfg, method=method), float("nan"))
    assert _first_step(dataclasses.replace(cfg, method=Method.RK4_FIXED), 1.0) == 0.01


def test_conserved_quantity_drift_shrinks_with_tolerance(rigid):
    x0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    drifts = []
    for rel in (1e-6, 1e-8, 1e-10):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2, t_end=20.0)
        drifts.append(integrate(rigid.system, x0, cfg).conservation_drift())
    assert drifts[2] <= 1e-8
    assert drifts[0] > drifts[1] > drifts[2]
    assert drifts[0] / drifts[1] > 5.0 and drifts[1] / drifts[2] > 5.0


def test_dissipation_is_monotone_and_rate_consistent(rigid, mexhat):
    runs = [
        (rigid.system, np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)),
        (mexhat.system, np.array([2.0, 0.0, 0.0])),
    ]
    for system, x0 in runs:
        tr = integrate(system, x0, IntegratorConfig(t_end=30.0))
        assert tr.monotonicity_violation() <= 0.0
        assert tr.rate_check_violation() <= 0.0
        assert tr.rate_measured.size == tr.n_accepted


def test_rate_is_strictly_negative_while_the_point_is_generic(mexhat):
    tr = integrate(mexhat.system, np.array([2.0, 0.0, 0.0]),
                   IntegratorConfig(t_end=15.0))
    for state, det in zip(tr.states, tr.det_full):
        if classify_point(mexhat.system, state).kind is PointKind.GENERIC:
            assert det > 0.0


def test_unperturbed_flow_keeps_the_dissipated_value(mexhat):
    x0 = np.array([2.0, 0.0, 0.0])
    tr = integrate(mexhat.system, x0, IntegratorConfig(t_end=10.0),
                   flow=Flow.UNPERTURBED)
    g0 = mexhat.system.dissipated(x0)
    band = 10.0 * tr.config.local_tol(float(np.max(np.abs(tr.states))))
    assert np.max(np.abs(tr.dissipated_values - g0)) <= band
    assert tr.rate_measured.size == 0  # rate audit applies to the corrected flow


def test_checkpoints_land_exactly_and_match_the_closed_form(mexhat):
    x0 = np.array([1.5, 0.0, 0.0])
    cps = np.array([0.5, 1.0, 1.7, 2.0])
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=2.0)
    tr = integrate(mexhat.system, x0, cfg, checkpoints=cps)
    assert np.array_equal(tr.checkpoint_times, cps)
    for t, state in zip(cps, tr.checkpoint_states):
        assert np.max(np.abs(state - closed_form_sombrero(x0, t))) <= 1e-8


def test_rk4_checkpoints_match_the_closed_form(mexhat):
    # read off the cubic Hermite of each fixed step, between the step ends
    x0 = np.array([1.5, 0.0, 0.0])
    cps = np.array([0.013, 0.5, 1.0, 1.7, 1.9999, 2.0])
    cfg = IntegratorConfig(method=Method.RK4_FIXED, h0=0.005, t_end=2.0)
    tr = integrate(mexhat.system, x0, cfg, checkpoints=cps)
    assert np.array_equal(tr.checkpoint_times, cps)
    for t, state in zip(cps, tr.checkpoint_states):
        assert np.max(np.abs(state - closed_form_sombrero(x0, t))) <= 1e-8


@pytest.mark.parametrize("method,reproject", [
    (Method.RK45_ADAPTIVE, False),
    (Method.RK4_FIXED, False),
    (Method.RK45_ADAPTIVE, True),
    (Method.RK4_FIXED, True),
    (Method.DOP853, False),
    (Method.DOP853, True),
])
def test_records_do_not_depend_on_checkpoints(rigid, method, reproject):
    # checkpoints are read off the continuous extension, never landed on,
    # so step control and every record are the same without them
    x0 = np.array([0.6, 0.0, 0.8])
    cfg = IntegratorConfig(method=method, leaf_reprojection=reproject, h0=0.05,
                           t_end=3.0, rel_tol=1e-9, abs_tol=1e-11)
    cps = np.concatenate([[0.0], np.linspace(0.0, 3.0, 97)[1:] - 1e-3, [3.0]])
    plain = integrate(rigid.system, x0, cfg)
    dense = integrate(rigid.system, x0, cfg, checkpoints=cps)
    for name in ("times", "states", "dissipated_values", "det_full", "step_sizes",
                 "rate_measured"):
        assert getattr(plain, name).tobytes() == getattr(dense, name).tobytes(), name
    assert (plain.n_accepted, plain.n_rejected) == (dense.n_accepted, dense.n_rejected)
    assert plain.checkpoint_states is None
    assert np.array_equal(dense.checkpoint_states[0], x0)
    assert np.array_equal(dense.checkpoint_states[-1], plain.final_state)


def test_checkpoints_at_step_ends_are_the_end_states(mexhat):
    x0 = np.array([1.5, 0.0, 0.0])
    cfg = IntegratorConfig(method=Method.RK4_FIXED, h0=0.25, t_end=2.0)
    cps = np.array([0.5, 1.0, 1.25])
    tr = integrate(mexhat.system, x0, cfg, checkpoints=cps)
    for t, state in zip(cps, tr.checkpoint_states):
        assert tr.states[np.flatnonzero(tr.times == t)[0]].tobytes() == state.tobytes()


def test_checkpoints_must_be_increasing_and_inside_the_run(mexhat):
    cfg = IntegratorConfig(t_end=1.0)
    x0 = np.array([1.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        integrate(mexhat.system, x0, cfg, checkpoints=[0.5, 0.5])
    with pytest.raises(ValueError):
        integrate(mexhat.system, x0, cfg, checkpoints=[0.5, 2.0])


@pytest.mark.parametrize("method", list(Method))
def test_no_checkpoints_read_no_states(mexhat, method):
    # an empty checkpoint list is a run with no states to read off: the
    # records are those of a run without checkpoints
    x0 = np.array([1.5, 0.0, 0.0])
    cfg = IntegratorConfig(method=method, h0=0.05, t_end=1.0)
    plain = integrate(mexhat.system, x0, cfg)
    tr = integrate(mexhat.system, x0, cfg, checkpoints=[])
    assert tr.checkpoint_times.shape == (0,)
    assert tr.checkpoint_states.shape == (0, 3)
    assert tr.csv_text() == plain.csv_text()


def test_csv_round_trip_and_headers(rigid):
    tr = integrate(rigid.system, np.array([0.6, 0.0, 0.8]),
                   IntegratorConfig(t_end=1.0, record_every=5))
    text = tr.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2,x3,F1,G,detSigmaFull,v0norm,h"
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(data[:, 1:4], tr.states)
    assert np.array_equal(data[:, 0], tr.times)
    assert np.array_equal(data[:, 5], tr.dissipated_values)


def test_csv_header_without_conserved_quantities():
    from geodiss.catalog import gradient_only
    system = gradient_only("quadratic").system
    tr = integrate(system, np.array([1.0, 0.5]), IntegratorConfig(t_end=0.5))
    assert tr.csv_text().split("\n")[0] == "t,x1,x2,G,detSigmaFull,v0norm,h"


def test_record_every_thins_but_keeps_the_final_state(mexhat):
    x0 = np.array([1.5, 0.0, 0.0])
    cfg_all = IntegratorConfig(t_end=2.0, record_every=1)
    cfg_thin = IntegratorConfig(t_end=2.0, record_every=7)
    tr_all = integrate(mexhat.system, x0, cfg_all)
    tr_thin = integrate(mexhat.system, x0, cfg_thin)
    assert tr_thin.times.size < tr_all.times.size
    assert tr_thin.times[-1] == tr_all.times[-1]
    assert np.array_equal(tr_thin.final_state, tr_all.final_state)


def test_adaptive_blowup_hits_the_step_floor(antibowl):
    with pytest.raises(StepUnderflow):
        integrate(antibowl, np.array([1.0, 0.0]), IntegratorConfig(t_end=1.0))


def test_fixed_step_blowup_reports_a_non_finite_state(antibowl):
    cfg = IntegratorConfig(method=Method.RK4_FIXED, h0=0.05, t_end=1.0)
    with pytest.raises(NonFiniteState), np.errstate(all="ignore"):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            integrate(antibowl, np.array([1.0, 0.0]), cfg)


def test_fixed_step_blowup_warns_no_one(antibowl):
    # the overflows of a fixed step that leaves the finite range are
    # reported by NonFiniteState alone, solo and in lockstep
    cfg = IntegratorConfig(method=Method.RK4_FIXED, h0=0.05, t_end=1.0)
    x0 = np.array([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteState):
            integrate(antibowl, x0, cfg)
        run = integrate_ensemble(antibowl, x0[None], cfg)
    assert run.failures == [NonFiniteState.__name__]


def test_adaptive_overflowing_trial_step_is_rejected(rigid):
    # h0 = 0.01 is far above the time scale 1e-5 of the flow at |m| = 300:
    # the first tries overflow in a stage and must shrink, not abort, and
    # the overflows of a rejected try warn no one
    x0 = 300.0 * np.array([0.6, 0.48, 0.64])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = integrate(rigid.system, x0, IntegratorConfig(t_end=0.05))
    assert tr.times[-1] == pytest.approx(0.05, rel=1e-13)
    assert tr.n_rejected >= 1
    assert tr.conservation_drift() < 1e-8 * tr.conserved_values[0, 0]
    assert tr.monotonicity_violation() <= 0.0


def test_bound_aborts_a_growing_trajectory(antibowl):
    with pytest.raises(UnboundedTrajectory):
        integrate(antibowl, np.array([1.0, 0.0]), IntegratorConfig(t_end=1.0),
                  bound=50.0)


def test_step_budget_is_enforced(antibowl):
    with pytest.raises(MaxStepsExceeded):
        integrate(antibowl, np.array([1.0, 0.0]),
                  IntegratorConfig(t_end=1.0, max_steps=5))


def test_t_end_must_be_positive(mexhat):
    with pytest.raises(ValueError):
        integrate(mexhat.system, np.array([1.5, 0.0, 0.0]),
                  IntegratorConfig(t_end=0.0))


def test_first_step_below_the_floor_is_an_input_error(mexhat):
    # an adaptive run whose first step min(h0, t_end) is already below the
    # floor 1e-14 t_end is refused before any step, solo and in lockstep
    x0 = np.array([1.5, 0.0, 0.0])
    for cfg in (IntegratorConfig(t_end=1e308, max_steps=50),
                IntegratorConfig(h0=1e-20, t_end=1.0)):
        with pytest.raises(InitialStepBelowFloor, match=r"h0 = .*t_end = "):
            integrate(mexhat.system, x0, cfg)
        with pytest.raises(InitialStepBelowFloor):
            integrate_ensemble(mexhat.system, x0[None], cfg)
    # at the floor itself the run goes ahead, here into its step budget
    with pytest.raises(MaxStepsExceeded):
        integrate(mexhat.system, x0, IntegratorConfig(h0=1e-14, t_end=1.0, max_steps=3))


def test_leaf_reprojection_keeps_conservation_tight(rigid):
    x0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, t_end=20.0,
                           leaf_reprojection=True)
    tr = integrate(rigid.system, x0, cfg)
    assert tr.conservation_drift() <= 1e-10
    assert tr.monotonicity_violation() <= 0.0


def test_leaf_reprojection_at_large_momentum(rigid):
    # at |m| = 300 the leaf value F = 45000 carries roundoff near 1e-11,
    # above the projection's absolute 1e-12; every step must still be
    # re-projected, to within the roundoff floor 4 eps F
    x0 = 300.0 * np.array([0.6, 0.48, 0.64])
    cfg = IntegratorConfig(leaf_reprojection=True, h0=1e-7, t_end=1e-3)
    tr = integrate(rigid.system, x0, cfg)
    f0 = tr.conserved_values[0, 0]
    assert tr.conservation_drift() <= 4.0 * np.finfo(float).eps * f0
    assert tr.monotonicity_violation() <= 0.0
    # the run dissipates all the way down to the major-axis minimum F/3
    assert abs(tr.dissipated_values[-1] - f0 / 3.0) <= 1e-6 * f0


def test_failed_reprojection_raises(rigid, refused_leaf_projection):
    cfg = IntegratorConfig(method=Method.RK45_ADAPTIVE, leaf_reprojection=True, t_end=1.0)
    with pytest.raises(LeafProjectionFailure):
        integrate(rigid.system, np.array([0.6, 0.48, 0.64]), cfg)
    # without re-projection the projection is never asked for
    integrate(rigid.system, np.array([0.6, 0.48, 0.64]),
              IntegratorConfig(method=Method.RK45_ADAPTIVE, t_end=1.0))


def test_flows_coincide_on_the_degeneracy_set(mexhat):
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, t_end=10.0)
    # on the unit circle both flows are the same rotation
    gap = compare_on_invariant_set(mexhat.system, np.array([1.0, 0.0, 0.2]), cfg)
    assert gap <= flow_agreement_band(cfg, 1.0)
    # an axis point is stationary for both flows
    gap0 = compare_on_invariant_set(mexhat.system, np.array([0.0, 0.0, 0.3]), cfg)
    assert gap0 <= 1e-12


def test_flow_comparison_rejects_generic_points(mexhat):
    cfg = IntegratorConfig(t_end=5.0)
    with pytest.raises(NotOnInvariantSet):
        compare_on_invariant_set(mexhat.system, np.array([2.0, 0.0, 0.0]), cfg)


def test_trajectory_bookkeeping(mexhat):
    tr = integrate(mexhat.system, np.array([1.5, 0.0, 0.0]),
                   IntegratorConfig(t_end=2.0))
    assert tr.times[0] == 0.0 and tr.step_sizes[0] == 0.0
    assert tr.n_accepted > 0
    assert tr.states.shape == (tr.times.size, 3)
    assert tr.conserved_values.shape == (tr.times.size, 1)
    assert tr.flow is Flow.PERTURBED


def _counted_frames(monkeypatch):
    """Count the corrected-flow kernel evaluations, the point frames and the
    stacked-frame rows the integrators make.

    Every module of the package that holds ``system_frame`` gets the
    counting one, so a point frame built anywhere below ``integrate`` counts.
    """
    calls = []
    frames = []
    rows = []
    real_rhs = geodiss.integrators._corrected_rows
    real_frame = geodiss.gram.system_frame
    real_stacked = geodiss.integrators.system_frames

    def counted_rhs(system):
        evaluate = real_rhs(system)

        def counted(p):
            calls.append(1)
            return evaluate(p)
        return counted

    def counted_frame(system, x):
        frames.append(1)
        return real_frame(system, x)

    def counted_stacked(system, pts):
        rows.append(len(pts))
        return real_stacked(system, pts)

    monkeypatch.setattr(geodiss.integrators, "_corrected_rows", counted_rhs)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("geodiss")
                and getattr(module, "system_frame", None) is real_frame):
            monkeypatch.setattr(module, "system_frame", counted_frame)
    monkeypatch.setattr(geodiss.integrators, "system_frames", counted_stacked)
    return calls, frames, rows


@pytest.mark.parametrize("method, reproject, flow", [
    (Method.RK45_ADAPTIVE, False, Flow.PERTURBED),
    (Method.RK45_ADAPTIVE, True, Flow.PERTURBED),
    (Method.RK4_FIXED, False, Flow.PERTURBED),
    (Method.RK45_ADAPTIVE, False, Flow.UNPERTURBED),
    (Method.DOP853, False, Flow.PERTURBED),
    (Method.DOP853, True, Flow.PERTURBED),
])
@pytest.mark.parametrize("record_every", [1, 3])
def test_frame_count_and_recorded_diagnostics(rigid, monkeypatch, method,
                                              reproject, flow, record_every):
    system = rigid.system
    cfg = IntegratorConfig(method=method, h0=0.5 if method is Method.RK45_ADAPTIVE else 0.05,
                           t_end=3.0, record_every=record_every,
                           leaf_reprojection=reproject)
    calls, frames, rows = _counted_frames(monkeypatch)
    tr = integrate(system, np.array([0.6, 0.48, 0.64]), cfg, flow=flow)
    acc, rej = tr.n_accepted, tr.n_rejected
    # a kernel evaluation per corrected-flow stage and nothing else: no
    # point frame at all, and the records and the rate midpoints are rows
    # of stacked frames
    assert frames == []
    if flow is Flow.UNPERTURBED:
        expected = 0
    elif method is Method.RK4_FIXED:
        expected = 1 + 3 * acc + acc   # stages 2-4 and the next seed
    elif method is Method.DOP853:
        expected = 1 + 11 * (acc + rej) + acc  # stages 2-12 and the next seed
    elif reproject:
        expected = 1 + 6 * (acc + rej) + acc  # ... and the seed after projection
    else:
        expected = 1 + 6 * (acc + rej)  # stage 7 seeds the next step (FSAL)
    assert len(calls) == expected
    midpoints = acc if flow is Flow.PERTURBED else 0
    assert sum(rows) == tr.times.size + midpoints
    if method is Method.RK45_ADAPTIVE and not reproject:
        assert rej > 0
    monkeypatch.undo()
    for j, x in enumerate(tr.states):
        fresh = control_field(system, x, Formulation.COFACTOR)
        gmat = system.metric.at(x)
        assert tr.det_full[j] == fresh.det_full
        assert tr.control_norm[j] == float(np.sqrt(max(fresh.v0 @ gmat @ fresh.v0, 0.0)))
        assert tr.dissipated_values[j] == system.dissipated(x)
        assert np.array_equal(tr.conserved_values[j], system.leaf_value(x))


def _assert_same_steps(got, ref):
    """Two sequences of :class:`_Step`s hold the same steps, bitwise."""
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        for name in ("t", "h", "t_new", "accepted", "rejected", "final", "recorded"):
            assert getattr(a, name) == getattr(b, name), name
        for name in ("x", "x_new", "f", "f_new", "stages"):
            u, v = getattr(a, name), getattr(b, name)
            assert (u is None) == (v is None), name
            if u is not None:
                assert (u.shape, u.tobytes()) == (v.shape, v.tobytes()), name


@pytest.mark.parametrize("record_every", [1, 3, 7])
def test_step_generator_decides_records_and_counters(rigid, record_every):
    # integrate records exactly the steps the one-row loop flags, and its
    # counters are those of the last step; the steps are the reference's
    cfg = IntegratorConfig(method=Method.RK45_ADAPTIVE, h0=0.5, t_end=3.0,
                           record_every=record_every)
    x0 = np.array([0.6, 0.48, 0.64])
    steps = list(_lockstep(rigid.system, x0, cfg))
    _assert_same_steps(steps, list(_dp_steps(rigid.system, x0, cfg)))
    tr = integrate(rigid.system, x0, cfg)
    expected = np.array([0.0] + [s.t_new for s in steps if s.recorded])
    assert tr.times.tobytes() == expected.tobytes()
    assert [s.final for s in steps] == [False] * (len(steps) - 1) + [True]
    assert [s.accepted for s in steps] == list(range(1, len(steps) + 1))
    assert (tr.n_accepted, tr.n_rejected) == (steps[-1].accepted, steps[-1].rejected)
    assert tr.n_rejected > 0


def _package_imports():
    """Relative imports of each geodiss module, at every scope."""
    graph = {}
    for path in sorted(Path(geodiss.integrators.__file__).parent.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def test_package_import_graph_is_acyclic():
    graph = _package_imports()
    assert "structure" in graph and "integrators" in graph
    done, active = set(), []

    def visit(module):
        if module in active:
            raise AssertionError(" -> ".join(active[active.index(module):] + [module]))
        if module in done or module not in graph:
            return
        active.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        active.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_package_modules_read_every_module_level_import():
    # a name a module imports at its top and never reads is a leftover
    unused = []
    for path in sorted(Path(geodiss.integrators.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                    isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"):
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert unused == []


def test_integrators_import_only_at_module_top():
    imports = (ast.Import, ast.ImportFrom)
    tree = ast.parse(Path(geodiss.integrators.__file__).read_text())
    nested = [node.lineno for stmt in tree.body if not isinstance(stmt, imports)
              for node in ast.walk(stmt) if isinstance(node, imports)]
    assert nested == []


# ---------------------------------------------------------------------------
# the lockstep ensemble against its solo runs
# ---------------------------------------------------------------------------

SPHERE_WEIGHTS_4D = {
    "dim": 4,
    "conserved": [{"terms": [{"coef": 0.5, "powers": [2 if j == i else 0 for j in range(4)]}
                             for i in range(4)]}],
    "dissipated": {"terms": [{"coef": a, "powers": [2 if j == i else 0 for j in range(4)]}
                             for i, a in enumerate((0.5, 1.0, 1.5, 2.0))]},
    "field": "zero",
    "metric": "euclidean",
}


def _leaf_descent(dim, k, seed):
    """The conserved fields and metric of ``random_poly(dim, k, seed)``, with X = 0
    and G = |x|^2 / 2: the corrected flow descends G on each leaf, so an exact
    run stays in its start's ball, and its stages take k x k cofactor minors."""
    rp = random_poly(dim, k, seed).system
    G = ScalarField(dim, lambda x: 0.5 * np.sum(x * x, axis=-1),
                    differential=lambda x: x.copy(), label="half_sq", stacked=True)
    return DissipativeSystem(X=VectorField(dim, lambda x: np.zeros(x.shape), stacked=True),
                             conserved=rp.conserved, dissipated=G, metric=rp.metric)


@pytest.fixture(scope="module")
def lockstep_systems(rigid, mexhat):
    return {"rigid": rigid.system, "sombrero": mexhat.system,
            "gradient_only": gradient_only().system,
            "sphere4d": _build_system(SPHERE_WEIGHTS_4D)[0],
            # 2x2 and 3x3 minors, and the metric solve of a callable metric
            "random_poly_k2": _leaf_descent(4, 2, seed=2),
            "random_poly_k3": _leaf_descent(4, 3, seed=0),
            "rigid_callable_metric": with_callable_metric(rigid.system)}


def _assert_rows_match_solo_runs(system, starts, cfg, bound=None, t_ends=None):
    """Every lockstep row, and every solo integrate run, takes the steps, the
    failure and the bits of the reference loop's run; row i's run ends at
    ``t_ends[i]`` when end times are given."""
    cfgs = ([cfg] * len(starts) if t_ends is None
            else [dataclasses.replace(cfg, t_end=t) for t in t_ends])
    refs, reached = [], []
    for x0, row_cfg in zip(starts, cfgs):
        # the reference's per-step diagnostics of a run that lands on a huge
        # state may warn where integrate's scoped block evaluation does not
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            refs.append(_reference_run(system, x0, row_cfg, bound=bound))
            # the states a failed run reached: its start and each step's end
            reached.append([x0])
            if isinstance(refs[-1], IntegrationFailure):
                with pytest.raises(type(refs[-1])):
                    for step in _dp_steps(system, x0, row_cfg, bound=bound):
                        reached[-1].append(step.x_new)
    run = integrate_ensemble(system, starts, cfg, bound=bound, t_ends=t_ends)
    for i, (x0, ref, row_cfg) in enumerate(zip(starts, refs, cfgs)):
        _assert_integrate_is(ref, system, x0, row_cfg, bound=bound)
        if isinstance(ref, IntegrationFailure):
            assert run.failures[i] == type(ref).__name__, i
            assert run.n_accepted[i] == len(reached[i]) - 1, i
            assert run.final[i].tobytes() == reached[i][-1].tobytes(), i
            continue
        assert run.failures[i] is None, i
        assert (run.n_accepted[i], run.n_rejected[i]) == ref["counters"], i
        assert run.g_max[i] == np.max(ref["dissipated_values"]), i
        assert run.final[i].tobytes() == ref["states"][-1].tobytes(), i
    return run


@settings(max_examples=70, deadline=None, derandomize=True)
@given(name=st.sampled_from(["rigid", "sombrero", "gradient_only", "sphere4d",
                             "random_poly_k2", "random_poly_k3", "rigid_callable_metric"]),
       method=st.sampled_from([Method.RK45_ADAPTIVE, Method.RK4_FIXED]),
       record_every=st.sampled_from([1, 3]),
       reproject=st.booleans(),
       n_starts=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16),
       bound=st.sampled_from([None, 1.2, 2.0]),
       max_steps=st.sampled_from([40, 1_000_000]))
# fixed steps onto a finite but huge state, which the slope there, the leaf
# re-projection and the bound check each find
@example(name="random_poly_k3", method=Method.RK4_FIXED, record_every=1, reproject=False,
         n_starts=1, seed=1, bound=None, max_steps=40)
@example(name="random_poly_k3", method=Method.RK4_FIXED, record_every=1, reproject=True,
         n_starts=1, seed=1, bound=None, max_steps=40)
@example(name="random_poly_k3", method=Method.RK4_FIXED, record_every=1, reproject=False,
         n_starts=1, seed=1, bound=1.2, max_steps=40)
def test_lockstep_rows_equal_their_solo_runs(lockstep_systems, name, method, record_every,
                                             reproject, n_starts, seed, bound, max_steps):
    system = lockstep_systems[name]
    starts = np.random.default_rng(seed).uniform(-1.4, 1.4, size=(n_starts, system.dim))
    cfg = IntegratorConfig(method=method, h0=0.05 if method is Method.RK4_FIXED else 0.01,
                           rel_tol=1e-7, abs_tol=1e-9, t_end=2.0,
                           record_every=record_every, leaf_reprojection=reproject,
                           max_steps=max_steps)
    with warnings.catch_warnings():
        if method is Method.RK4_FIXED:
            # a fixed step onto a finite but huge state ends its run under
            # the failure the checks there find, with no numpy warning
            warnings.simplefilter("error", RuntimeWarning)
        _assert_rows_match_solo_runs(system, starts, cfg, bound)


def test_ensemble_rows_end_at_their_own_t_end(rigid):
    # one call, five end times: each row takes the steps of its solo run to
    # its own t_end, so the rows end on different tries; the fourth row
    # leaves the bound on its first step, and the last runs into the step
    # budget that the others finish within
    starts = np.array([[1.0, 0.0, 0.0],
                       [0.6, 0.48, 0.64],
                       [0.48, 0.6, 0.64],
                       [1.6, 0.01, 0.0],
                       [0.64, 0.6, 0.48]])
    t_ends = [0.3, 2.0, 0.05, 1.0, 40.0]
    cfg = IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-7, abs_tol=1e-9,
                           max_steps=60)
    run = _assert_rows_match_solo_runs(rigid.system, starts, cfg, bound=1.5, t_ends=t_ends)
    assert run.failures == [None, None, None, "UnboundedTrajectory", "MaxStepsExceeded"]
    tries = (run.n_accepted + run.n_rejected)[:3].tolist()
    assert len(set(tries)) == 3 and max(tries) < 60
    # a fixed step ends its row on its own last, shortened step
    fixed = dataclasses.replace(cfg, method=Method.RK4_FIXED, h0=0.07, max_steps=1_000_000)
    run = _assert_rows_match_solo_runs(rigid.system, starts[:3], fixed,
                                       t_ends=[0.3, 2.0, 0.05])
    assert run.n_accepted.tolist() == [5, 29, 1]


@pytest.mark.parametrize("method", list(Method))
def test_ensemble_rows_end_where_the_stop_test_holds(lockstep_systems, method):
    # a row ends at the first accepted state the stop test holds at, before
    # its end time, with its solo run's counters and state there, and its
    # max of G over the solo run's records up to there; the test never sees
    # a start or a rejected try, and a row it never holds at is its solo run
    system = lockstep_systems["random_poly_k2"]  # G = |x|^2 / 2 descends
    starts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, system.dim))
    starts[0] *= 0.1  # inside the stop region from the start
    cfg = IntegratorConfig(method=method, h0=0.05, rel_tol=1e-7, abs_tol=1e-9, t_end=3.0,
                           record_every=3)
    seen = []

    def stop(states):
        seen.extend(map(tuple, states))
        return _row_norms(states) < 0.75

    run = integrate_ensemble(system, starts, cfg, stop=stop)
    reached = set()
    kinds = set()
    for i, x0 in enumerate(starts):
        steps = list(_lockstep(system, x0, cfg))
        reached.update(tuple(step.x_new) for step in steps)
        held = [j for j, step in enumerate(steps) if np.linalg.norm(step.x_new) < 0.75]
        end = steps[held[0]] if held else steps[-1]
        kinds.add("first" if end is steps[0] else "horizon" if end is steps[-1] else "inside")
        assert (run.n_accepted[i], run.n_rejected[i]) == (end.accepted, end.rejected)
        assert run.final[i].tobytes() == end.x_new.tobytes()
        records = [x0] + [step.x_new for step in steps[:end.accepted]
                          if step.accepted % 3 == 0 or step is end]
        assert run.g_max[i] == np.max(system.dissipated.values(np.array(records)))
        assert run.failures[i] is None
    assert run.n_accepted[0] == 1 and kinds == {"first", "inside", "horizon"}
    assert set(seen) <= reached


@settings(max_examples=25, deadline=None, derandomize=True)
@given(name=st.sampled_from(["rigid", "sombrero", "sphere4d", "random_poly_k2"]),
       method=st.sampled_from([Method.RK45_ADAPTIVE, Method.RK4_FIXED]),
       seed=st.integers(0, 2 ** 16),
       bound=st.sampled_from([None, 1.2]))
def test_lockstep_rows_with_their_own_t_end_equal_their_solo_runs(lockstep_systems, name,
                                                                  method, seed, bound):
    system = lockstep_systems[name]
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-1.4, 1.4, size=(4, system.dim))
    t_ends = rng.uniform(0.05, 3.0, size=4).tolist()
    cfg = IntegratorConfig(method=method, h0=0.05 if method is Method.RK4_FIXED else 0.01,
                           rel_tol=1e-7, abs_tol=1e-9)
    with warnings.catch_warnings():
        if method is Method.RK4_FIXED:
            warnings.simplefilter("error", RuntimeWarning)
        _assert_rows_match_solo_runs(system, starts, cfg, bound, t_ends)


def test_an_ensemble_row_end_time_is_checked_before_any_evaluation(mexhat, monkeypatch):
    # a row whose adaptive first step min(h0, t_end) lies below its own step
    # floor, or whose end time is not positive, is refused as its solo run
    # refuses it, before the field is evaluated anywhere; the first such row
    # in row order names the error
    def no_kernel(*args, **kwargs):
        raise AssertionError("the field was evaluated")

    starts = np.array([[1.5, 0.0, 0.0], [1.2, 0.1, 0.0], [0.9, 0.0, 0.1]])
    cfg = IntegratorConfig(max_steps=50)
    with pytest.raises(InitialStepBelowFloor) as solo:
        integrate(mexhat.system, starts[1], dataclasses.replace(cfg, t_end=1e308))
    monkeypatch.setattr(geodiss.integrators, "_corrected_rows", no_kernel)
    with pytest.raises(InitialStepBelowFloor) as row:
        integrate_ensemble(mexhat.system, starts, cfg, t_ends=[1.0, 1e308, 1e300])
    assert str(row.value) == str(solo.value)
    for t_ends, error, text in (([1.0, -1.0, 1e308], ValueError, "positive"),
                                ([1.0, 2.0], ValueError, "expected 3 end times")):
        with pytest.raises(error, match=text):
            integrate_ensemble(mexhat.system, starts, cfg, t_ends=t_ends)


def test_lockstep_rows_fail_alone(rigid, refused_leaf_projection):
    # one batch, four fates: the major axis is an equilibrium, so its steps
    # stay on the leaf and need no projection; a generic start's first step
    # needs one and is refused; at |m| = 300 every try of h <= 0.1
    # overflows and is rejected until the step budget runs out; a start
    # outside the bound leaves it on its first step
    starts = np.array([[1.0, 0.0, 0.0],
                       [0.6, 0.48, 0.64],
                       300.0 * np.array([0.6, 0.48, 0.64]),
                       [1.6, 0.01, 0.0]])
    cfg = IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-3, abs_tol=1e-6, h0=0.1,
                           t_end=0.2, max_steps=3, leaf_reprojection=True)
    run = _assert_rows_match_solo_runs(rigid.system, starts, cfg, bound=1.5)
    assert run.failures == [None, "LeafProjectionFailure", "MaxStepsExceeded",
                            "UnboundedTrajectory"]
    assert (run.n_accepted[0], run.n_rejected[0]) == (2, 0)
    assert run.final[0].tobytes() == starts[0].tobytes()
    assert (run.n_accepted[2], run.n_rejected[2]) == (0, 3)
    assert integrate_ensemble(rigid.system, starts[:0], cfg).failures == []


def test_lockstep_rows_fail_alone_on_non_finite_states(antibowl):
    # the antibowl blows up at t* = 1/(2 |x0|^2): the adaptive rows that
    # reach it collapse onto the step floor, the fixed-step rows leave the
    # finite range, and the rows that do not reach it finish
    starts = np.array([[1.0, 0.0], [0.1, 0.0], [0.0, 0.9], [0.2, 0.2]])
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        adaptive = _assert_rows_match_solo_runs(
            antibowl, starts, IntegratorConfig(method=Method.RK45_ADAPTIVE, t_end=1.0))
        fixed = _assert_rows_match_solo_runs(
            antibowl, starts, IntegratorConfig(method=Method.RK4_FIXED, h0=0.05, t_end=1.0))
    assert adaptive.failures == ["StepUnderflow", None, "StepUnderflow", None]
    assert fixed.failures == ["NonFiniteState", None, "NonFiniteState", None]


def test_fixed_step_ensemble_warns_where_its_solo_runs_warn():
    # fixed RK4 steps land on finite but huge states where G overflows;
    # four of the five runs then fail on a non-finite slope, and neither a
    # solo run nor the ensemble warns, while each row keeps its solo bits
    system = random_poly(4, 2, seed=5).system
    starts = np.random.default_rng(4).uniform(-1.2, 1.2, (5, 4))
    cfg = IntegratorConfig(method=Method.RK4_FIXED, h0=0.05, t_end=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = _assert_rows_match_solo_runs(system, starts, cfg)
    assert run.failures.count("NonFiniteState") == 4


def test_fixed_step_ensemble_row_that_finishes_on_a_huge_state_warns_as_its_solo_run():
    # x' = x, barely damped by a quartic G under a huge constant metric:
    # RK4 finishes near x = 6.7e86, where G = x^4 overflows while the flow
    # stays finite. The solo run's final flush evaluates G outside any
    # error state and warns, so the ensemble warns there too
    system = DissipativeSystem(
        VectorField(1, lambda p: p),
        (),
        ScalarField(1, lambda p: p[0] ** 4, lambda p: 4.0 * p ** 3),
        MetricField.constant([[1e300]]))
    cfg = IntegratorConfig(method=Method.RK4_FIXED, h0=0.5, t_end=200.0)
    with warnings.catch_warnings(record=True) as solo:
        warnings.simplefilter("always")
        traj = integrate(system, [1.0], cfg)
    with warnings.catch_warnings(record=True) as ensemble:
        warnings.simplefilter("always")
        run = integrate_ensemble(system, [[1.0]], cfg)
    assert run.failures == [None]
    assert run.g_max[0] == np.max(traj.dissipated_values) == np.inf
    assert run.final[0].tobytes() == traj.states[-1].tobytes()
    assert (run.n_accepted[0], run.n_rejected[0]) == (traj.n_accepted, traj.n_rejected)
    said = {str(w.message) for w in ensemble}
    assert "overflow encountered in scalar power" in said
    assert said <= {str(w.message) for w in solo}


# ---------------------------------------------------------------------------
# the block diagnostics of integrate against a per-step evaluation
# ---------------------------------------------------------------------------

_RECORD_FIELDS = ("times", "states", "conserved_values", "dissipated_values", "det_full",
                  "control_norm", "step_sizes")
_RATE_FIELDS = ("rate_times", "rate_measured", "rate_predicted", "rate_band")


def _per_step_reference(system, x0, cfg, flow=Flow.PERTURBED, checkpoints=None,
                        bound=None):
    """integrate's outputs, evaluated step by step on point frames.

    Each record and each rate midpoint gets its own ``system_frame`` right
    after its step, and a record takes its control field from its frame.
    Returns a dict of the arrays and counters, or raises the first failure
    of that order.
    """
    cols = {name: [] for name in _RECORD_FIELDS + _RATE_FIELDS}

    def frame(p):
        try:
            return system_frame(system, p)
        except NonFiniteValue as exc:
            raise NonFiniteState(str(exc)) from exc

    def record(t, p, h, g):
        fr = frame(p)
        v0 = _cofactor_from_frame(fr)
        for name, value in zip(_RECORD_FIELDS, (
                t, p.copy(), [f(p) for f in system.conserved], g, fr.det_full(),
                float(np.sqrt(max(v0 @ fr.gmat @ v0, 0.0))), h)):
            cols[name].append(value)

    x = np.asarray(x0, dtype=float)
    cps = None if checkpoints is None else np.asarray(checkpoints, dtype=float)
    cp_states = []
    seed = _evaluator(system, flow)(x)
    g_prev = system.dissipated(x)
    record(0.0, x, 0.0, g_prev)
    for step in _dp_steps(system, x, cfg, flow, bound, seed):
        g_new = system.dissipated(step.x_new)
        if flow is Flow.PERTURBED:
            mid = frame(0.5 * (step.x + step.x_new))
            predicted = -mid.det_full()
            measured = (g_new - g_prev) / step.h
            noise = (10.0 * float(np.linalg.norm(mid.diffs[mid.k]))
                     * cfg.local_tol(float(np.linalg.norm(step.x))) / step.h)
            band = 5.0 * step.h ** 2 * max(1.0, abs(measured), abs(predicted)) + noise
            for name, value in zip(_RATE_FIELDS, (step.t + 0.5 * step.h, measured,
                                                  predicted, band)):
                cols[name].append(value)
        g_prev = g_new
        while cps is not None and len(cp_states) < cps.size and (
                cps[len(cp_states)] <= step.t_new or step.final):
            cp_states.append(_state_at(step, cps[len(cp_states)]))
        if step.recorded:
            record(step.t_new, step.x_new, step.h, g_new)
    out = {name: np.array(values) for name, values in cols.items()}
    out["conserved_values"] = out["conserved_values"].reshape(len(out["times"]), system.k)
    out["counters"] = (step.accepted, step.rejected)
    out["checkpoint_states"] = None if cps is None else np.array(cp_states)
    return out


def _state_at(step, t):
    """A step's continuous extension at one time, on scalars: the end state from t_new on."""
    if t >= step.t_new:
        return step.x_new
    ydiff = step.x_new - step.x
    bspl = step.h * step.f - ydiff
    cubic = ydiff - step.h * step.f_new - bspl
    s = (t - step.t) / step.h
    s1 = 1.0 - s
    inner = cubic if step.stages is None else cubic + s1 * (step.h * (_REF_DP_DENSE @ step.stages))
    return step.x + s * (ydiff + s1 * (bspl + s * inner))


def _reference_run(system, x0, cfg, flow=Flow.PERTURBED, checkpoints=None, bound=None):
    """The per-step reference's outputs, or the failure it raises."""
    try:
        return _per_step_reference(system, x0, cfg, flow, checkpoints, bound)
    except IntegrationFailure as exc:
        return exc


def _assert_integrate_is(ref, system, x0, cfg, flow=Flow.PERTURBED, checkpoints=None,
                         bound=None):
    """integrate gives the reference outputs ``ref`` bitwise, or raises the
    reference's failure, of the same class and with the same message."""
    if isinstance(ref, IntegrationFailure):
        with pytest.raises(IntegrationFailure) as got:
            integrate(system, x0, cfg, flow, checkpoints, bound)
        assert (type(got.value), str(got.value)) == (type(ref), str(ref))
        return None
    tr = integrate(system, x0, cfg, flow, checkpoints, bound)
    for name in _RECORD_FIELDS + _RATE_FIELDS:
        got = getattr(tr, name)
        assert (got.dtype, got.shape) == (ref[name].dtype, ref[name].shape), name
        assert got.tobytes() == ref[name].tobytes(), name
    assert (tr.n_accepted, tr.n_rejected) == ref["counters"]
    if checkpoints is not None:
        assert tr.checkpoint_states.tobytes() == ref["checkpoint_states"].tobytes()
    return tr


def _assert_bitwise_reference(system, x0, cfg, flow=Flow.PERTURBED, checkpoints=None,
                              bound=None):
    ref = _reference_run(system, x0, cfg, flow, checkpoints, bound)
    return _assert_integrate_is(ref, system, x0, cfg, flow, checkpoints, bound)


@pytest.fixture(scope="module")
def diagnostic_systems(rigid, mexhat):
    return {"rigid": rigid.system, "sombrero": mexhat.system,
            "sphere4d": _build_system(SPHERE_WEIGHTS_4D)[0],
            "random_poly": random_poly(4, 2, seed=5).system}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["rigid", "sombrero", "sphere4d", "random_poly"]),
       method=st.sampled_from([Method.RK45_ADAPTIVE, Method.RK4_FIXED]),
       reproject=st.booleans(),
       flow=st.sampled_from([Flow.PERTURBED, Flow.UNPERTURBED]),
       record_every=st.sampled_from([1, 3, 7]),
       block=st.sampled_from([1, 5, 512]),
       with_checkpoints=st.booleans(),
       seed=st.integers(0, 2 ** 16),
       bound=st.sampled_from([None, 1.0, 3.0]),
       max_steps=st.sampled_from([25, 1_000_000]))
# failures after steps and checkpoints: the bound, and the step budget of a
# re-projected RK4 run and of an unperturbed run
@example(name="sombrero", method=Method.RK45_ADAPTIVE, reproject=False,
         flow=Flow.PERTURBED, record_every=3, block=5, with_checkpoints=True, seed=0,
         bound=1.0, max_steps=1_000_000)
@example(name="rigid", method=Method.RK4_FIXED, reproject=True, flow=Flow.PERTURBED,
         record_every=3, block=5, with_checkpoints=True, seed=4, bound=None, max_steps=25)
@example(name="sombrero", method=Method.RK45_ADAPTIVE, reproject=True,
         flow=Flow.UNPERTURBED, record_every=1, block=512, with_checkpoints=True, seed=5,
         bound=None, max_steps=25)
def test_block_diagnostics_are_bitwise_the_per_step_ones(
        diagnostic_systems, name, method, reproject, flow, record_every, block,
        with_checkpoints, seed, bound, max_steps):
    system = diagnostic_systems[name]
    x0 = np.random.default_rng(seed).uniform(-0.4, 0.4, size=system.dim)
    x0[0] += 0.6
    t_end = 0.3 if name == "random_poly" else 2.0
    cfg = IntegratorConfig(method=method, h0=0.05 if method is Method.RK4_FIXED else 0.01,
                           rel_tol=1e-9, abs_tol=1e-11, t_end=t_end,
                           record_every=record_every, leaf_reprojection=reproject,
                           max_steps=max_steps)
    cps = np.linspace(0.0, t_end, 23) if with_checkpoints else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodiss.integrators, "_DIAG_BLOCK", block)
        _assert_bitwise_reference(system, x0, cfg, flow, cps, bound)


@pytest.mark.parametrize("flow", [Flow.PERTURBED, Flow.UNPERTURBED])
@pytest.mark.parametrize("record_every", [1, 7])
def test_block_diagnostics_of_a_run_of_several_blocks(mexhat, flow, record_every):
    # the CI config: about 700 steps, so the records and midpoints of two
    # blocks and a partial one
    cfg = IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-10, abs_tol=1e-12,
                           t_end=20.0, record_every=record_every)
    tr = _assert_bitwise_reference(mexhat.system, [0.4, 0.0, 0.1], cfg, flow,
                                   np.linspace(0.0, 20.0, 301))
    assert tr.n_accepted > geodiss.integrators._DIAG_BLOCK
    if flow is Flow.PERTURBED:
        assert tr.rate_check_violation() <= 0.0


def test_block_diagnostics_warn_as_the_per_step_ones(monkeypatch):
    # a positive floor makes many frames offending: the records, midpoints
    # and stages warn, and the block evaluation emits the per-step messages,
    # also in a run out of budget and in an unperturbed run stopped by a
    # non-finite record frame (its stages build no frames)
    monkeypatch.setattr(geodiss.gram, "GRAM_NEGATIVITY_FLOOR", 0.9)
    monkeypatch.setattr(geodiss.integrators, "_DIAG_BLOCK", 5)
    clean = random_poly(4, 2, seed=5).system
    x0 = np.array([0.2, -0.1, 0.3, 0.1])

    def config(max_steps=1000):
        return IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-8, abs_tol=1e-10,
                                t_end=0.6, record_every=3, max_steps=max_steps)

    steps = list(_dp_steps(clean, x0, config(), Flow.UNPERTURBED))
    ninth, last = steps[8], steps[-1]  # in a full block and in the last one
    assert ninth.recorded and last.recorded and len(steps) % 5 == 3
    for system, flow, cfg, failure in [
            (clean, Flow.PERTURBED, config(), None),
            (clean, Flow.PERTURBED, config(12), MaxStepsExceeded),
            (clean, Flow.UNPERTURBED, config(), None),
            (clean, Flow.UNPERTURBED, config(12), MaxStepsExceeded),
            (_poisoned(clean, ninth.x_new), Flow.UNPERTURBED, config(), NonFiniteState),
            (_poisoned(clean, last.x_new), Flow.UNPERTURBED, config(), NonFiniteState)]:
        outcomes = []
        for run in (integrate, _per_step_reference):
            raised = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    run(system, x0, cfg, flow)
                except IntegrationFailure as exc:
                    raised = (type(exc), str(exc))
            outcomes.append((raised, sorted(str(w.message) for w in caught)))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] or (None,))[0] is failure
        assert outcomes[0][1]  # warnings were emitted


def _poisoned(system, bad):
    """The system with a dissipated differential that is NaN exactly at the point bad."""
    G = system.dissipated

    def d(p):
        return np.full(p.shape, np.nan) if np.array_equal(p, bad) else G.d(p)

    return DissipativeSystem(
        X=system.X, conserved=system.conserved, metric=system.metric,
        dissipated=ScalarField(system.dim, G.value, differential=d, label="poisoned"))


@pytest.mark.parametrize("flow", [Flow.PERTURBED, Flow.UNPERTURBED])
@pytest.mark.parametrize("method", [Method.RK45_ADAPTIVE, Method.RK4_FIXED])
@pytest.mark.parametrize("j, budget", [(0, None), (9, None), (9, 30), (530, 560)])
def test_non_finite_diagnostic_frame_raises_first(rigid, flow, method, j, budget):
    # a midpoint frame of the corrected flow, or a record frame of the
    # unperturbed one, that is not finite: NonFiniteState with the point
    # call's message, also when the run fails later in the same block
    x0 = np.array([0.6, 0.48, 0.64])
    cfg = IntegratorConfig(method=method, h0=0.002, rel_tol=1e-11, abs_tol=1e-13,
                           t_end=40.0, max_steps=budget or 100_000)
    for step in _dp_steps(rigid.system, x0, cfg, flow):
        if step.accepted == j + 1:
            break
    bad = 0.5 * (step.x + step.x_new) if flow is Flow.PERTURBED else step.x_new
    system = _poisoned(rigid.system, bad)
    message = f"non-finite differential among fields at {bad.tolist()}"
    with pytest.raises(NonFiniteState) as ref:
        _per_step_reference(system, x0, cfg, flow)
    assert str(ref.value) == message
    with pytest.raises(NonFiniteState) as got:
        integrate(system, x0, cfg, flow)
    assert str(got.value) == message


def test_default_method_is_dop853():
    assert IntegratorConfig().method is Method.DOP853
    assert _integrator_config({"t_end": 2.0}).method is Method.DOP853
    assert _integrator_config({"method": "rk45"}).method is Method.RK45_ADAPTIVE


def test_non_finite_start_record_of_the_unperturbed_flow(rigid):
    x0 = np.array([0.6, 0.48, 0.64])
    with pytest.raises(NonFiniteState, match=r"fields at \[0.6, 0.48, 0.64\]"):
        integrate(_poisoned(rigid.system, x0), x0, IntegratorConfig(t_end=1.0),
                  Flow.UNPERTURBED)


@pytest.mark.parametrize("case", ["bound", "budget", "floor", "refused"])
def test_loop_failures_match_the_per_step_order(rigid, mexhat, antibowl, monkeypatch, case):
    # the loop's own failures, past a block boundary where the run is long
    # enough: the same class and message as a per-step evaluation
    calls = []
    if case == "refused":
        real = geodiss.fields._project_rows

        def refuse(system, pts, leaf_value, tol=1e-12, max_iter=50):
            calls.append(1)
            y, converged, degenerate = real(system, pts, leaf_value, tol, max_iter)
            if len(calls) > 520:
                converged = np.zeros_like(converged)
            return y, converged, degenerate

        # the loop's re-projection, and the reference's project_to_leaf
        monkeypatch.setattr(geodiss.integrators, "_project_rows", refuse)
        monkeypatch.setattr(geodiss.fields, "_project_rows", refuse)
    system, x0, cfg, bound = {
        "bound": (mexhat.system, [0.4, 0.0, 0.1],
                  IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-10, abs_tol=1e-12,
                                   t_end=20.0), 0.99),
        "budget": (mexhat.system, [0.4, 0.0, 0.1],
                   IntegratorConfig(method=Method.RK45_ADAPTIVE, rel_tol=1e-10, abs_tol=1e-12,
                                    t_end=20.0, max_steps=600), None),
        "floor": (antibowl, [1.0, 0.5],
                  IntegratorConfig(method=Method.RK45_ADAPTIVE, t_end=5.0), None),
        "refused": (rigid.system, [0.6, 0.48, 0.64],
                    IntegratorConfig(method=Method.RK4_FIXED, h0=0.01, t_end=20.0,
                                     leaf_reprojection=True), None),
    }[case]
    outcomes = []
    for run in (_per_step_reference, integrate):
        calls.clear()
        with pytest.raises(IntegrationFailure) as exc:
            run(system, x0, cfg, Flow.PERTURBED, None, bound)
        outcomes.append((type(exc.value), str(exc.value)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(method=st.sampled_from([Method.RK45_ADAPTIVE, Method.RK4_FIXED]),
       reproject=st.booleans(),
       fractions=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=12))
def test_batched_dense_read_out_is_bitwise_the_scalar_one(rigid, method, reproject,
                                                          fractions):
    cfg = IntegratorConfig(method=method, h0=0.3 if method is Method.RK4_FIXED else 0.5,
                           t_end=3.0, leaf_reprojection=reproject)
    x0 = np.array([0.6, 0.48, 0.64])
    steps = list(_lockstep(rigid.system, x0, cfg))
    _assert_same_steps(steps, list(_dp_steps(rigid.system, x0, cfg)))
    for step in steps:
        ts = np.sort(step.t + step.h * np.array(fractions + [0.0, 1.0]))
        rows = step.states_at(ts)
        for t, row in zip(ts, rows):
            assert row.tobytes() == _state_at(step, t).tobytes()
            if t >= step.t_new:
                assert row.tobytes() == step.x_new.tobytes()


def _per_step_states_at(step, ts):
    """A step's continuous extension at a sorted array of times, evaluated for
    that one step alone, its extra stages by point calls: the reference a read
    across steps is held to."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty((ts.size, step.x.size))
    inside = int(np.searchsorted(ts, step.t_new))
    out[inside:] = step.x_new
    if not inside:
        return out
    ydiff = step.x_new - step.x
    bspl = step.h * step.f - ydiff
    coef = [ydiff, bspl, ydiff - step.h * step.f_new - bspl]
    if step.stages is not None:
        tab, k = step.tableau, step.stages
        if not tab.fsal:
            k = np.concatenate((k, step.f_new[None], np.empty((len(tab.extra), k.shape[1]))))
            for s, row in enumerate(tab.extra, start=len(step.stages) + 1):
                xs = step.x + step.h * (row @ k[:s])
                k[s], _, ok = step.kernel(xs)
                if ok is not None:
                    raise NonFiniteState(str(_nonfinite_differential(xs)))
        coef += [step.h * (row @ k) for row in tab.dense]
    s = ((ts[:inside] - step.t) / step.h)[:, None]
    s1 = 1.0 - s
    inner = coef[-1]
    for j in range(len(coef) - 1, 0, -1):
        inner = coef[j - 1] + (s1 if j % 2 else s) * inner
    out[:inside] = step.x + s * inner
    return out


def _owners(steps, ts):
    """The step each time of a sorted array reads: the last one starting at or before it."""
    return np.searchsorted([step.t for step in steps], ts, side="right") - 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(method=st.sampled_from([Method.DOP853, Method.RK45_ADAPTIVE, Method.RK4_FIXED]),
       reproject=st.booleans(),
       flow=st.sampled_from([Flow.PERTURBED, Flow.UNPERTURBED]),
       kept=st.integers(1, 12),
       fractions=st.lists(st.floats(0.0, 1.3), max_size=40),
       ends=st.lists(st.integers(0, 11), max_size=4))
def test_read_across_steps_is_bitwise_the_per_step_reads(rigid, method, reproject, flow, kept,
                                                         fractions, ends):
    # a read across a run's kept steps gives each time the bits of a read of
    # its own step alone: times on step ends, and past the last kept step,
    # which read its end state, included
    cfg = IntegratorConfig(method=method, h0=0.3, t_end=3.0, leaf_reprojection=reproject)
    x0 = np.array([0.6, 0.48, 0.64])
    steps = list(_lockstep(rigid.system, x0, cfg, flow))[:kept]
    ts = np.sort(np.concatenate((steps[-1].t_new * np.array(fractions, dtype=float),
                                 [steps[min(i, len(steps) - 1)].t_new for i in ends])))
    got = _dense_states(steps, ts)
    owner = _owners(steps, ts)
    ref = np.empty_like(got)
    one = np.empty_like(got)
    fresh = list(_lockstep(rigid.system, x0, cfg, flow))[:kept]
    for i in set(owner.tolist()):
        ref[owner == i] = _per_step_states_at(steps[i], ts[owner == i])
        one[owner == i] = fresh[i].states_at(ts[owner == i])
    assert got.tobytes() == ref.tobytes()
    assert one.tobytes() == ref.tobytes()
    past = ts >= steps[-1].t_new
    assert (got[past] == steps[-1].x_new).all()


def test_read_across_steps_evaluates_each_steps_extra_stages_once(mexhat):
    # dop853's three extra stages: one evaluator call each over every step
    # that holds a time and has none yet, and never again for that step
    cfg = IntegratorConfig(method=Method.DOP853, rel_tol=1e-9, abs_tol=1e-11, t_end=3.0)
    steps = list(_lockstep(mexhat.system, np.array([0.4, 0.3, 0.1]), cfg))
    assert len(steps) > 10
    rows = []
    kernel = steps[0].kernel

    def counted(pts):
        rows.append(len(pts))
        return kernel(pts)

    for step in steps:
        step.kernel = counted
    end = steps[-1].t_new
    reads = [np.linspace(0.1, 0.5, 300) * end, np.linspace(0.3, 0.9, 300) * end,
             np.array([0.45 * end]), np.array([0.95 * end]), np.linspace(0.0, 1.0, 1000) * end]
    expected = []
    held = set()
    for ts in reads:
        new = set(_owners(steps, ts[ts < end]).tolist()) - held
        held |= new
        if new:
            expected += [len(new)] * 3
        _dense_states(steps, ts)
    # the batch of one reads the terms the reads above left
    steps[5].states_at([steps[5].t + 0.5 * steps[5].h])
    assert rows == expected
    assert sum(rows) == 3 * len(steps)


def test_read_across_steps_raises_the_first_non_finite_extra_stage(rigid):
    # where the extra stages of several steps are not finite, the read raises
    # what reading one step at a time raises first: the earlier step's
    # message, although a later step's stage comes first in stage order
    cfg = IntegratorConfig(method=Method.DOP853, rel_tol=1e-8, abs_tol=1e-10, t_end=3.0)
    x0 = np.array([0.6, 0.48, 0.64])
    clean = list(_lockstep(rigid.system, x0, cfg))
    points = []
    for step in clean:
        kernel = step.kernel
        step.kernel = lambda p, kernel=kernel: (points.append(p.copy()), kernel(p))[1]
        _per_step_states_at(step, [step.t + 0.5 * step.h])
    third_of_2, first_of_4 = points[3 * 2 + 2], points[3 * 4]
    poisoned = _poisoned(_poisoned(rigid.system, third_of_2), first_of_4)
    ts = np.array([step.t + 0.5 * step.h for step in clean])
    steps = list(_lockstep(poisoned, x0, cfg))
    _assert_same_steps(steps, clean)
    with pytest.raises(NonFiniteState) as ref:
        for step, t in zip(list(_lockstep(poisoned, x0, cfg)), ts):
            _per_step_states_at(step, [t])
    with pytest.raises(NonFiniteState) as got:
        _dense_states(steps, ts)
    assert str(got.value) == str(ref.value) == str(_nonfinite_differential(third_of_2))
    with pytest.raises(NonFiniteState) as late:
        _dense_states(steps[3:], ts[3:])
    assert str(late.value) == str(_nonfinite_differential(first_of_4))
