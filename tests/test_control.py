"""The control field: three constructions, structural identities, covariance."""
import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geodiss.control
import geodiss.gram
from geodiss.catalog import gradient_only, mexican_hat, random_poly, rigid_body
from geodiss.control import (
    Formulation,
    _cofactor_from_frame,
    _cofactor_from_frames,
    _cofactor_minors,
    _corrected_rows,
    control_field,
    dissipated_rhs,
    dissipation_rate,
    identity_scales,
    tensor_matrix,
)
from geodiss.errors import (
    DimensionMismatch,
    GeodissError,
    NonFiniteState,
    NonFiniteValue,
    SingularLeaf,
)
from geodiss.integrators import IntegratorConfig, integrate
from geodiss.fields import (
    DissipativeSystem,
    MetricField,
    ScalarField,
    VectorField,
)
from geodiss.gram import (
    SystemFrame,
    _check_floor,
    _nonfinite_differential,
    checked_det,
    system_frame,
    system_frames,
)
from geodiss.structure import PointKind, classify_point
from conftest import euclid3_pair, seeded_pair, with_callable_metric


def _linear3(rows, diss_row):
    def make(row, label):
        row = np.asarray(row, dtype=float)
        return ScalarField(3, lambda p, r=row: float(r @ p),
                           differential=lambda p, r=row: r.copy(), label=label)

    return DissipativeSystem(
        X=VectorField(3, lambda p: np.zeros(3)),
        conserved=tuple(make(r, f"f{i+1}") for i, r in enumerate(rows)),
        dissipated=make(diss_row, "g"), metric=MetricField.euclidean(3))


def test_sombrero_corrected_flow_hand_value():
    # At (2,0,0): rotation contributes (0,2,0); the control field is the
    # height-orthogonal gradient (6,0,0); the full determinant is 1*36.
    system = mexican_hat().system
    p = np.array([2.0, 0.0, 0.0])
    assert np.allclose(dissipated_rhs(system, p), [-6.0, 2.0, 0.0], atol=1e-12)
    assert system_frame(system, p).det_full() == pytest.approx(36.0, abs=1e-12)
    assert dissipation_rate(system, p) == pytest.approx(-36.0, abs=1e-12)


def test_orthogonal_linear_fields_all_formulations():
    # dF = e3, dG = e1, Euclidean: control field is exactly e1
    system = _linear3([[0.0, 0.0, 1.0]], [1.0, 0.0, 0.0])
    x = np.array([0.3, -0.2, 0.8])
    for form in Formulation:
        ev = control_field(system, x, form)
        assert np.allclose(ev.v0, [1.0, 0.0, 0.0], atol=1e-14), form
        assert ev.det_conserved == pytest.approx(1.0, abs=1e-14)
        assert ev.det_full == pytest.approx(1.0, abs=1e-14)


def test_dissipating_a_conserved_quantity_gives_zero_field():
    # G = F: nothing transverse remains to descend along
    system = _linear3([[0.0, 0.0, 1.0]], [0.0, 0.0, 1.0])
    x = np.array([0.1, 0.2, 0.3])
    for form in Formulation:
        ev = control_field(system, x, form)
        assert np.max(np.abs(ev.v0)) <= 1e-14, form
        assert ev.det_full == pytest.approx(0.0, abs=1e-14)


def test_three_formulations_agree_on_random_systems():
    worst = 0.0
    for i in range(60):
        system, x = seeded_pair(i)
        fr = system_frame(system, x)
        denom = max(identity_scales(fr)["control"], 1e-300)
        evs = [control_field(system, x, f).v0 for f in Formulation]
        for a in range(3):
            for b in range(a + 1, 3):
                worst = max(worst, float(np.max(np.abs(evs[a] - evs[b]))) / denom)
    assert worst <= 1e-9


def test_double_cross_product_ground_truth_in_three_dimensions():
    worst = 0.0
    for i in range(40):
        system, x = euclid3_pair(i)
        df = system.conserved[0].d(x)
        dg = system.dissipated.d(x)
        truth = np.cross(df, np.cross(dg, df))
        scale = max(float(np.linalg.norm(df)) ** 2
                    * float(np.linalg.norm(dg)), 1e-300)
        for form in Formulation:
            v0 = control_field(system, x, form).v0
            worst = max(worst, float(np.max(np.abs(v0 - truth))) / scale)
    assert worst <= 1e-10


def test_tangency_and_pairing_identities_on_random_systems():
    tang = pair = 0.0
    det_min = 0.0
    for i in range(60):
        system, x = seeded_pair(i)
        fr = system_frame(system, x)
        scales = identity_scales(fr)
        v0 = control_field(system, x, Formulation.COFACTOR).v0
        for j in range(system.k):
            tang = max(tang, abs(float(fr.diffs[j] @ v0))
                       / max(scales["tangency"][j], 1e-300))
        pair = max(pair, abs(float(fr.diffs[system.k] @ v0) - fr.det_full())
                   / max(scales["dissipation"], 1e-300))
        det_min = min(det_min, fr.det_full()
                      / max(scales["classification"], 1e-300))
    assert tang <= 1e-9
    assert pair <= 1e-9
    assert det_min >= -1e-10


def test_tensor_is_symmetric_at_machine_precision():
    worst = 0.0
    for i in range(40):
        system, x = seeded_pair(i)
        t = tensor_matrix(system, x)
        denom = max(float(np.max(np.abs(t))), 1e-300)
        worst = max(worst, float(np.max(np.abs(t - t.T))) / denom)
    assert worst <= 1e-12


def test_no_conserved_quantities_degenerates_to_plain_gradient():
    entry = random_poly(4, 0, seed=3)
    system = entry.system
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1, 1, size=(10, 4)):
        fr = system_frame(system, x)
        grad_g = fr.grads[0]
        for form in Formulation:
            ev = control_field(system, x, form)
            assert ev.det_conserved == 1.0
            assert np.allclose(ev.v0, grad_g, atol=1e-12 * (1 + np.max(np.abs(grad_g))))
        # the tensor collapses to the inverse metric
        t = tensor_matrix(system, x)
        g_inv = np.linalg.inv(system.metric.at(x))
        assert np.allclose(t, g_inv, atol=1e-12 * np.max(np.abs(g_inv)))


def test_rate_equals_pairing_with_the_control_field():
    for i in range(30):
        system, x = seeded_pair(i)
        fr = system_frame(system, x)
        v0 = control_field(system, x, Formulation.COFACTOR).v0
        rate = dissipation_rate(system, x)
        scale = max(identity_scales(fr)["dissipation"], 1e-300)
        assert abs(rate + float(fr.diffs[system.k] @ v0)) <= 1e-9 * scale
        assert rate <= 1e-10 * max(fr.classification_scale(), 1e-300)


def test_rate_matches_chain_rule_only_when_x_conserves_g():
    # conserving case: the rotation field annihilates the sombrero profile
    mh = mexican_hat().system
    p = np.array([1.3, -0.4, 0.2])
    chain = float(mh.dissipated.d(p) @ dissipated_rhs(mh, p))
    assert dissipation_rate(mh, p) == pytest.approx(chain, rel=1e-12)
    # non-conserving case: the chain rule keeps the transport term
    entry = random_poly(3, 1, seed=9)
    sys_ = entry.system
    x = np.array([0.4, 0.1, -0.3])
    dg = sys_.dissipated.d(x)
    chain = float(dg @ dissipated_rhs(sys_, x))
    transport = float(dg @ sys_.X(x))
    assert dissipation_rate(sys_, x) == pytest.approx(chain - transport,
                                                      rel=1e-9)
    assert abs(transport) > 1e-6  # the distinction is actually exercised


@pytest.mark.parametrize("lam", [2.0, -3.0, 0.5])
def test_control_field_is_linear_in_the_dissipated_quantity(lam):
    for i in range(10):
        system, x = seeded_pair(i)
        g = system.dissipated
        scaled = DissipativeSystem(
            X=system.X, conserved=system.conserved,
            dissipated=ScalarField(
                g.dim, lambda p, s=lam: s * g.value(p),
                differential=lambda p, s=lam: s * g.d(p), label=g.label),
            metric=system.metric)
        base = control_field(system, x, Formulation.COFACTOR)
        got = control_field(scaled, x, Formulation.COFACTOR)
        scale = 1.0 + np.max(np.abs(base.v0))
        assert np.max(np.abs(got.v0 - lam * base.v0)) <= 1e-10 * abs(lam) * scale


@pytest.mark.parametrize("lam", [2.0, -3.0, 0.5])
def test_scaling_one_conserved_quantity_scales_the_field_quadratically(lam):
    for i in range(10):
        system, x = seeded_pair(i)
        if system.k == 0:
            continue
        f0 = system.conserved[0]
        scaled_f = ScalarField(
            f0.dim, lambda p, s=lam: s * f0.value(p),
            differential=lambda p, s=lam: s * f0.d(p), label=f0.label)
        scaled = DissipativeSystem(
            X=system.X, conserved=(scaled_f,) + system.conserved[1:],
            dissipated=system.dissipated, metric=system.metric)
        base = control_field(system, x, Formulation.COFACTOR)
        got = control_field(scaled, x, Formulation.COFACTOR)
        scale = 1.0 + np.max(np.abs(base.v0))
        assert np.max(np.abs(got.v0 - lam ** 2 * base.v0)) \
            <= 1e-10 * lam ** 2 * scale
        assert got.det_full == pytest.approx(lam ** 2 * base.det_full,
                                             rel=1e-10, abs=1e-300)


def test_projection_requires_a_regular_leaf():
    # two proportional conserved gradients make every leaf singular
    system = _linear3([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [0.0, 1.0, 0.0])
    x = np.zeros(3)
    with pytest.raises(SingularLeaf):
        control_field(system, x, Formulation.PROJECTION)
    # the algebraic formulations still evaluate, and vanish identically here
    assert np.max(np.abs(control_field(system, x, Formulation.COFACTOR).v0)) <= 1e-14
    assert np.max(np.abs(control_field(system, x, Formulation.TENSOR).v0)) <= 1e-14


def test_identity_scales_shape():
    system, x = seeded_pair(4)
    scales = identity_scales(system_frame(system, x))
    assert set(scales) == {"control", "tangency", "dissipation",
                           "classification"}
    assert len(scales["tangency"]) == system.k
    assert scales["control"] > 0 and scales["classification"] > 0


# ---------------------------------------------------------------------------
# the corrected-flow evaluator's point branch against the frame path
# ---------------------------------------------------------------------------

def _point_branch(system, one_row=False):
    """The point branch of ``_corrected_rows``, at a point p or at the
    one-row stack p[None], as the triple ``(X - v0, v0, None)``. Where the
    differentials are not finite the evaluator flags the row with a NaN
    right-hand side and False, which this raises as ``dissipated_rhs``
    does; the control field of a flagged row means nothing."""
    evaluate = _corrected_rows(system)

    def at(p):
        if one_row:
            rhs, v0, ok = evaluate(p[None])
            assert rhs.shape == v0.shape == (1, p.size)
            rhs, v0, ok = rhs[0], v0[0], None if ok is None else ok[0]
        else:
            rhs, v0, ok = evaluate(p)
        if ok is not None:
            assert not ok and np.isnan(rhs).all()
            raise _nonfinite_differential(p)
        return rhs, v0, None

    return at


def _point_branches(system):
    """The point branch at a point and at a one-row stack."""
    return _point_branch(system), _point_branch(system, one_row=True)


def _catalog_system(i):
    return (rigid_body().system, mexican_hat().system, gradient_only().system)[i]


def _with_edited_field(system, i, edit):
    """The system with field i (conserved first, dissipated last) left
    without a differential, for central differences, or with one that
    answers one entry short."""
    fields_ = list(system.all_fields())
    f = fields_[i]
    if edit == "no_differential":
        differential = None
    else:
        def differential(p, d=f.differential):
            return d(p)[..., :-1]
    fields_[i] = ScalarField(f.dim, f.value, differential=differential, label=f.label,
                             stacked=f.stacked)
    return DissipativeSystem(X=system.X, conserved=tuple(fields_[:-1]),
                             dissipated=fields_[-1], metric=system.metric)


@st.composite
def _kernel_cases(draw, scaled=False):
    """A catalog or random polynomial system, a point of it and a negativity floor.

    A random system has dimension 2 to 6 and 0 to 4 conserved quantities,
    and may take a callable metric; one of its fields may lose its
    differential, for central differences, or answer in the wrong shape.
    Coordinates may be +0.0 or -0.0. With ``scaled`` the point may also be
    scaled by 1e80 or 1e160, where the Gram products overflow, or hold a
    NaN. The floor is the default or +0.9, where most Gram determinants of
    two or more conserved gradients warn.
    """
    if draw(st.booleans()):
        system = _catalog_system(draw(st.integers(0, 2)))
    else:
        dim = draw(st.integers(2, 6))
        k = draw(st.integers(0, min(4, dim - 1)))
        system = random_poly(dim, k, seed=draw(st.integers(0, 1000))).system
        if draw(st.booleans()):
            system = with_callable_metric(system)
        edit = draw(st.sampled_from([None, None, "no_differential", "wrong_shape"]))
        if edit is not None:
            system = _with_edited_field(system, draw(st.integers(0, k)), edit)
    coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    p = np.array(draw(st.lists(coords, min_size=system.dim, max_size=system.dim)))
    for i in sorted(draw(st.sets(st.integers(0, system.dim - 1), max_size=2))):
        p[i] = draw(st.sampled_from([0.0, -0.0]))
    if scaled:
        p = p * draw(st.sampled_from([1.0, 1e80, 1e160]))
        if draw(st.integers(0, 4)) == 0:
            p[draw(st.integers(0, system.dim - 1))] = np.nan
    return system, p, draw(st.sampled_from([geodiss.gram.GRAM_NEGATIVITY_FLOOR, 0.9]))


@contextlib.contextmanager
def _negativity_floor(floor):
    default = geodiss.gram.GRAM_NEGATIVITY_FLOOR
    geodiss.gram.GRAM_NEGATIVITY_FLOOR = floor
    try:
        yield
    finally:
        geodiss.gram.GRAM_NEGATIVITY_FLOOR = default


def _with_warnings(fn):
    """fn's result, and the category and message of every warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [(w.category, str(w.message)) for w in caught]


def _outcome(fn):
    """The bytes of each array fn returns (None stays None), or the class
    and message of the package error it raises; and its warnings, as
    :func:`_with_warnings` lists them."""
    def bits():
        try:
            return tuple(None if a is None else np.asarray(a).tobytes() for a in fn())
        except GeodissError as exc:
            return type(exc), str(exc)
    return _with_warnings(bits)


def _frame_path(system, p):
    v0 = _cofactor_from_frame(system_frame(system, p))
    return system.X(p) - v0, v0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_corrected_rhs_kernel_is_the_frame_path_bitwise(case):
    system, p, floor = case
    with _negativity_floor(floor):
        ref = _outcome(lambda: _frame_path(system, p) + (None,))
        shape_error = _wrong_shape_outcomes(system, p)
        if shape_error is not None:
            point_error, stack_error = shape_error
            assert ref == stack_error
            if system.k == 1:
                # the float body takes each differential through its point call
                ref = point_error
        # the first call checks a constant metric, later ones read its pair
        for kernel in _point_branches(system):
            for _ in range(2):
                assert _outcome(lambda: kernel(p)) == ref
        rhs = _outcome(lambda: (dissipated_rhs(system, p),))
    assert rhs == ((ref[0][:1] if len(ref[0]) == 3 else ref[0]), ref[1])


def _wrong_shape_outcomes(system, p):
    """Where a differential answers p in the wrong shape, the outcomes of the
    point call ``f.d(p)`` and of the stacked call ``system_frames`` on p as a
    batch of one, which say so in their own words: the evaluator's float
    body (k = 1) refuses p with the first, a point frame and the evaluator
    at any other k with the second. None elsewhere."""
    point_error = _outcome(lambda: tuple(f.d(p) for f in system.all_fields()))
    if point_error[0][0] is not DimensionMismatch:
        return None
    return point_error, _outcome(lambda: (system_frames(system, p[None]).gram,))


def test_corrected_rhs_kernel_raises_the_frame_path_non_finite_error():
    # dG is not finite off the unit disc
    def diff(p):
        return p.copy() if float(p @ p) < 1.0 else np.array([np.nan, 0.0])

    G = ScalarField(2, lambda p: 0.5 * float(p @ p), differential=diff, label="g")
    system = DissipativeSystem(X=VectorField(2, lambda p: np.zeros(2)), conserved=(),
                               dissipated=G, metric=MetricField.euclidean(2))
    p = np.array([1.5, 0.5])
    with pytest.raises(NonFiniteValue) as ref:
        system_frame(system, p)
    with pytest.raises(NonFiniteValue) as local:
        _scalar_reference(system, p)
    for branch in _point_branches(system):
        with pytest.raises(NonFiniteValue) as kernel:
            branch(p)
        assert str(kernel.value) == str(ref.value)
    with pytest.raises(NonFiniteValue) as rhs:
        dissipated_rhs(system, p)
    with pytest.raises(NonFiniteState) as run:
        integrate(system, p, IntegratorConfig(t_end=1.0))
    assert str(rhs.value) == str(run.value) == str(ref.value) == str(local.value)


def test_corrected_rhs_kernel_warns_as_the_frame_path(monkeypatch):
    # a positive floor makes most conserved Gram determinants warn
    monkeypatch.setattr(geodiss.gram, "GRAM_NEGATIVITY_FLOOR", 0.9)
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(12, 5))
    for system in (random_poly(5, 3, seed=2).system,
                   with_callable_metric(random_poly(5, 2, seed=9).system)):
        _, ref_warned = _with_warnings(lambda: [_frame_path(system, p) for p in pts])
        for kernel in _point_branches(system):
            _, warned = _with_warnings(lambda: [kernel(p) for p in pts])
            assert warned == ref_warned
        assert len(ref_warned) > 0


# ---------------------------------------------------------------------------
# the point bodies against an independent copy of the numpy-scalar arithmetic
# ---------------------------------------------------------------------------

def _scalar_reference(system, p):
    """``(X - v0, v0, det_conserved)`` at p: the differentials as an array of
    ``f.d(p)``, and every determinant by ``_frozen_checked_det`` on numpy views and
    gathered minors, summed term by term."""
    k = system.k
    diffs = np.array([f.d(p) for f in system.all_fields()])
    if not np.isfinite(diffs).all():
        raise NonFiniteValue(f"non-finite differential among fields at {p.tolist()}")
    grads, gram = _frozen_frame_arrays(diffs, *_frozen_metric_at(system.metric)(p))
    block = gram[:k, :k]
    det_c = _frozen_checked_det(block, diag_scale=float(np.prod(np.diag(block))))
    v0 = det_c * grads[k]
    for i in range(k):
        # conserved rows; column i swapped out for the dissipated column k
        cols = [c for c in range(k) if c != i] + [k]
        flat = np.array([[r * (k + 1) + c for c in cols] for r in range(k)])
        sign = -1.0 if (i + k) % 2 else 1.0
        v0 = v0 + sign * _frozen_checked_det(gram.take(flat)) * grads[i]
    return system.X(p) - v0, v0, det_c


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_point_bodies_are_the_numpy_scalar_arithmetic_bitwise(case):
    # at a floor of +0.9 most Gram determinants of two or more conserved
    # gradients warn
    system, p, floor = case
    with _negativity_floor(floor):
        ref = _outcome(lambda: _scalar_reference(system, p))
        got, got_row = (_outcome(lambda: kernel(p)) for kernel in _point_branches(system))
        frame_v0 = _outcome(lambda: (_cofactor_from_frame(system_frame(system, p)),))
        det = _outcome(lambda: (system_frame(system, p).det_conserved(),))
    assert got_row == got
    if len(ref[0]) == 2:  # the class and message of a refused point
        shape_error = _wrong_shape_outcomes(system, p)
        if shape_error is not None:
            assert shape_error[0] == ref
        frame_ref = ref if shape_error is None else shape_error[1]
        assert got == (ref if system.k == 1 else frame_ref)
        assert frame_v0 == det == frame_ref
        return
    (rhs, v0, det_c), warned = ref
    assert got == ((rhs, v0, None), warned)
    assert frame_v0 == ((v0,), warned)
    assert det == ((det_c,), warned)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert type(system_frame(system, p).det_conserved()) is float


def test_point_bodies_keep_the_differential_fallback_and_shape_check():
    # a field with no differential takes central differences; one whose
    # differential has the wrong shape is refused, with the point call's message
    G = ScalarField(3, lambda p: float(np.sin(p[0]) * p[1] + p[2] ** 3), label="g")
    F = ScalarField(3, lambda p: 0.5 * float(p @ p), differential=lambda p: p.copy(),
                    label="f")
    system = DissipativeSystem(X=VectorField(3, lambda p: np.zeros(3)), conserved=(F,),
                               dissipated=G, metric=MetricField.euclidean(3))
    for p in np.random.default_rng(8).uniform(-2.0, 2.0, size=(20, 3)):
        ref_rhs, ref_v0, ref_det = _scalar_reference(system, p)
        for kernel in _point_branches(system):
            rhs, v0, _ = kernel(p)
            assert rhs.tobytes() == ref_rhs.tobytes()
            assert v0.tobytes() == ref_v0.tobytes()
        assert system_frame(system, p).det_conserved().hex() == ref_det.hex()
    bad = DissipativeSystem(
        X=system.X, conserved=(F,), metric=system.metric,
        dissipated=ScalarField(3, G.value, differential=lambda p: p[:2], label="g"))
    with pytest.raises(DimensionMismatch) as ref:
        _scalar_reference(bad, p)
    for branch in _point_branches(bad):
        with pytest.raises(DimensionMismatch) as kernel:
            branch(p)
        assert str(kernel.value) == str(ref.value)


# ---------------------------------------------------------------------------
# the point branch against a frozen copy of the kernel it replaced
# ---------------------------------------------------------------------------

def _frozen_metric_at(metric):
    if metric.is_constant:
        return metric.constant_pair
    return lambda p: (metric._checked(p), None)


def _frozen_metric_grads(diffs, gmat, ginv):
    if ginv is not None:
        return diffs @ ginv
    return np.linalg.solve(gmat, diffs.T).T


def _frozen_differential_stack(fields_, x):
    rows = np.empty((len(fields_), x.size))
    for i, f in enumerate(fields_):
        rows[i] = f._d_at(x)
    # counting is the cheaper all() on a few entries
    if np.count_nonzero(np.isfinite(rows)) != rows.size:
        raise _nonfinite_differential(x)
    return rows


def _frozen_small_det(cells, idx):
    if len(idx) == 1:
        return cells[idx[0]]
    a, b, c, d = [cells[i] for i in idx]
    return a * d - b * c


def _frozen_det_conserved(gram, k, cells=None):
    if k > 2:
        block = gram[:k, :k]
        det, scale = _frozen_checked_det(block), _frozen_diag_product(block)
    else:
        if cells is None:
            cells = gram.ravel().tolist()
        if k == 0:
            det = scale = 1.0
        elif k == 1:
            det = scale = cells[0]
        else:
            # cells 0, 1, 3 and 4 of the flattened 3x3 matrix
            a, b, _, c, d = cells[:5]
            det, scale = a * d - b * c, a * d
    _check_floor(det, scale)
    return det


def _frozen_gram_cells(diffs, grads):
    raw = (diffs @ grads.T).tolist()
    if len(raw) == 2:  # one conserved quantity: the common case, spelt out
        (a, b), (c, d) = raw
        off = 0.5 * (b + c)
        return [0.5 * (a + a), off, off, 0.5 * (d + d)]
    return [0.5 * (a + b) for row, col in zip(raw, zip(*raw)) for a, b in zip(row, col)]


def _frozen_cofactor(cells, grads, minors):
    k = len(minors)
    gram = np.array(cells).reshape(k + 1, k + 1) if k > 2 else None
    v0 = _frozen_det_conserved(gram, k, cells) * grads[k]
    for i, (sign, flat, idx) in enumerate(minors):
        det = (_frozen_small_det(cells, idx) if k <= 2
               else _frozen_checked_det(gram.take(flat)))
        v0 += (sign * det) * grads[i]
    return v0


def _frozen_corrected_rhs(system):
    """The point kernel as it was before its per-call cost was cut: numpy
    for every sum and product, a numpy finiteness check, and the metric
    looked up at every call."""
    fields_ = system.all_fields()
    metric_at = _frozen_metric_at(system.metric)
    minors = _cofactor_minors(system.k)
    X = system.X

    def evaluate(p):
        diffs = _frozen_differential_stack(fields_, p)
        grads = _frozen_metric_grads(diffs, *metric_at(p))
        v0 = _frozen_cofactor(_frozen_gram_cells(diffs, grads), grads, minors)
        return X._at(p) - v0, v0

    return evaluate


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_cases(scaled=True))
# three conserved quantities where the Gram products overflow: the frame
# path's warnings, not the frozen kernel's, which warned on the conserved
# block's diagonal product where no floor check needs it
@example((random_poly(4, 3, seed=0).system, np.array([0.5, -1.2, 0.8, 1.5]) * 1e40,
          geodiss.gram.GRAM_NEGATIVITY_FLOOR))
def test_point_kernel_is_the_frozen_kernel_bitwise(case):
    # every bit of X - v0 and v0, signed zeros included, every warning in
    # its order, and the class and message of a refused point; at 1e80 and
    # 1e160 the Gram products overflow, and numpy's warnings name matmul.
    # One conserved quantity keeps the frozen kernel's float body; any
    # other k runs the frame path's arithmetic on a one-row stack, which it
    # matches wherever the point is not scaled out of the unit box or NaN,
    # but for the message that refuses a differential of the wrong shape
    system, p, floor = case
    frozen = _frozen_corrected_rhs(system)
    with _negativity_floor(floor):
        if system.k == 1 or (np.abs(p) <= 2.0).all():
            ref = _outcome(lambda: frozen(p) + (None,))
        else:
            ref = _outcome(lambda: _frame_path(system, p) + (None,))
        shape_error = _wrong_shape_outcomes(system, p)
        if system.k != 1 and shape_error is not None:
            # a point at k != 1 is a one-row stack, refused as a frame is
            ref = shape_error[1]
        # the first call checks a constant metric, later ones read its pair
        for kernel in _point_branches(system):
            for _ in range(3):
                assert _outcome(lambda: kernel(p)) == ref


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_point_kernel_runs_the_stacked_cofactors_unless_k_is_one(k, monkeypatch):
    # the float body serves one conserved quantity; any other k takes the
    # stacked cofactor expansion on a batch of one, once per call
    calls = []
    cofactors = geodiss.control._cofactors

    def counted(*args):
        calls.append(len(args[0]))
        return cofactors(*args)

    monkeypatch.setattr(geodiss.control, "_cofactors", counted)
    system = random_poly(5, k, seed=4).system
    evaluate = _corrected_rows(system)
    p = np.array([0.3, -0.5, 0.8, 0.1, -0.2])
    for pts in (p, p[None], p, p[None]):
        evaluate(pts)
    assert calls == ([] if k == 1 else [1, 1, 1, 1])
    evaluate(np.stack([p, -p]))
    assert calls[-1] == 2


@pytest.mark.parametrize("second", [1e308, -1e308, np.inf, np.nan])
def test_point_kernel_checks_each_differential_where_their_sum_is_not_finite(second):
    # finite differentials near the largest float may sum to +-inf or NaN:
    # the kernel refuses only a non-finite entry, as the frozen kernel does
    d = np.array([1e308, second])
    system = DissipativeSystem(VectorField(2, lambda p: p), (),
                               ScalarField(2, lambda p: 0.0, lambda p: d),
                               MetricField.euclidean(2))
    p = np.array([0.5, -0.0])
    ref = _outcome(lambda: _frozen_corrected_rhs(system)(p) + (None,))
    for kernel in _point_branches(system):
        assert _outcome(lambda: kernel(p)) == ref


# ---------------------------------------------------------------------------
# the stacked corrected-flow kernel against the frame stack path
# ---------------------------------------------------------------------------

@st.composite
def _kernel_stacks(draw):
    """A catalog or random polynomial system, a stack of its points and a
    negativity floor.

    A row may hold a NaN coordinate, where the differentials are not finite.
    The floor is the default or +0.9, where most Gram determinants of two or
    more conserved gradients warn.
    """
    if draw(st.integers(0, 3)) == 0:
        system = _catalog_system(draw(st.integers(0, 2)))
    else:
        k = draw(st.integers(0, 3))
        system = random_poly(draw(st.integers(k + 1, 5)), k,
                             seed=draw(st.integers(0, 1000))).system
        if draw(st.booleans()):
            system = with_callable_metric(system)
    m = draw(st.integers(1, 6))
    coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    pts = np.array(draw(st.lists(st.lists(coords, min_size=system.dim, max_size=system.dim),
                                 min_size=m, max_size=m)))
    for i in sorted(draw(st.sets(st.integers(0, m - 1)))):
        pts[i, draw(st.integers(0, system.dim - 1))] = np.nan
    return system, pts, draw(st.sampled_from([geodiss.gram.GRAM_NEGATIVITY_FLOOR, 0.9]))


def _frame_stack_path(system, pts):
    """``X.values(p) - _cofactor_from_frames(system_frames(system, p))`` at the
    rows with finite differentials, NaN at the others, the control field
    ``_cofactor_from_frames`` at every row, and the flags."""
    frames = system_frames(system, pts)
    ok = frames.finite
    out = np.full(pts.shape, np.nan)
    x_ok = system.X.values(pts[ok])
    v0 = _cofactor_from_frames(frames)
    out[ok] = x_ok - v0[ok]
    return out, v0, ok


_ONE_ROW_SYSTEM = random_poly(4, 2, seed=3).system


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_stacks())
# a one-row stack at k = 2, a stack like any other: a finite row, a row
# with a NaN coordinate, and a row whose Gram determinants warn at floor 0.9
@example((_ONE_ROW_SYSTEM, np.array([[0.3, -0.5, 0.8, 0.1]]),
          geodiss.gram.GRAM_NEGATIVITY_FLOOR))
@example((_ONE_ROW_SYSTEM, np.array([[0.3, np.nan, 0.8, 0.1]]),
          geodiss.gram.GRAM_NEGATIVITY_FLOOR))
@example((_ONE_ROW_SYSTEM, np.array([[0.3, -0.5, 0.8, 0.1]]), 0.9))
def test_stacked_rhs_kernel_is_the_frame_stack_path_bitwise(case):
    system, pts, floor = case
    default = geodiss.gram.GRAM_NEGATIVITY_FLOOR
    geodiss.gram.GRAM_NEGATIVITY_FLOOR = floor
    try:
        (rhs, v0, ok), warned = _with_warnings(
            lambda: _corrected_rows(system)(pts))
        (ref, ref_v0, ref_ok), ref_warned = _with_warnings(
            lambda: _frame_stack_path(system, pts))
        # the frame path at each finite row alone, in row order
        point, point_warned = _with_warnings(
            lambda: [_frame_path(system, p)[0] for p in pts[ref_ok]])
        # the evaluator at each row as a point (n,) and as a one-row stack
        evaluate = _corrected_rows(system)
        rows = [_with_warnings(lambda: [evaluate(p) for p in pts]),
                _with_warnings(lambda: [tuple(None if a is None else a[0]
                                              for a in evaluate(p[None])) for p in pts])]
    finally:
        geodiss.gram.GRAM_NEGATIVITY_FLOOR = default
    # no flags when every row is finite
    assert (ok is None) == bool(ref_ok.all())
    if ok is not None:
        assert ok.tolist() == ref_ok.tolist()
    assert rhs.tobytes() == ref.tobytes()
    # the control field the refinement and the automatic horizon read
    assert v0.shape == pts.shape
    assert [row.tobytes() for row in v0[ref_ok]] == [row.tobytes() for row in ref_v0[ref_ok]]
    assert [row.tobytes() for row in rhs[ref_ok]] == [row.tobytes() for row in point]
    assert warned == ref_warned == point_warned
    for singles, singles_warned in rows:
        assert singles_warned == ref_warned
        assert [None if row_ok is None else bool(row_ok) for _, _, row_ok in singles] == [
            None if finite else False for finite in ref_ok]
        assert [row.tobytes() for row, _, _ in singles] == [row.tobytes() for row in ref]
        assert [row.tobytes() for _, row, row_ok in singles if row_ok is None] == [
            row.tobytes() for row in ref_v0[ref_ok]]


# ---------------------------------------------------------------------------
# the point frame against a frozen copy of the point frame it replaced
# ---------------------------------------------------------------------------

def _frozen_checked_det(mat, diag_scale=None):
    r = mat.shape[0]
    if r == 0:
        det = 1.0
    elif r == 1:
        det = float(mat[0, 0])
    elif r == 2:
        det = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
    else:
        det = float(np.linalg.det(mat))
    if diag_scale is not None:
        _check_floor(det, diag_scale)
    return det


def _frozen_diag_product(mat):
    r = mat.shape[0]
    if r == 0:
        return 1.0
    if r == 1:
        return float(mat[0, 0])
    if r == 2:
        return float(mat[0, 0] * mat[1, 1])
    return float(np.prod(np.diag(mat)))


def _frozen_frame_arrays(diffs, gmat, ginv):
    grads = _frozen_metric_grads(diffs, gmat, ginv)
    gram = diffs @ grads.T
    return grads, 0.5 * (gram + gram.T)


def _frozen_system_frame(system, p):
    """The point frame as it was before it became a batch of one of the
    stacked frames: its own differential stack, gradients and Gram matrix."""
    diffs = _frozen_differential_stack(system.all_fields(), p)
    gmat, ginv = _frozen_metric_at(system.metric)(p)
    grads, gram = _frozen_frame_arrays(diffs, gmat, ginv)
    return SystemFrame(x=p, gmat=gmat, diffs=diffs, grads=grads, gram=gram)


def _frozen_classify(fr, tol_inv, tol_g):
    det_full = _frozen_checked_det(fr.gram, diag_scale=_frozen_diag_product(fr.gram))
    norm, scale = fr.grad_g_norm(), _frozen_diag_product(fr.gram)
    if norm <= tol_g:
        kind = PointKind.INV_CRITICAL
    elif det_full <= tol_inv * scale:
        kind = PointKind.INV_DEPENDENT
    else:
        kind = PointKind.GENERIC
    return kind, det_full, norm, scale


def _frame_calls(frame, det_conserved, det_full, scale, classify, cofactor):
    """Every value a point frame gives, each as an :func:`_outcome`
    callable: the frame's arrays, its methods, the classification at two
    pairs of tolerances and the cofactor control field."""
    def bits(kind, *values):
        return np.asarray(kind.value), np.array(values)

    return [
        lambda: (lambda fr: (fr.x, fr.gmat, fr.diffs, fr.grads, fr.gram))(frame()),
        lambda: (det_conserved(frame()),),
        lambda: (det_full(frame()),),
        lambda: (scale(frame()),),
        lambda: (frame().grad_g_norm(), frame().grad_g()),
        lambda: bits(*classify(frame(), 1e-9, 1e-6)),
        lambda: bits(*classify(frame(), 0.5, 0.3)),
        lambda: (cofactor(frame()),),
    ]


def _kept(p):
    """What of an :func:`_outcome` at p the frozen point frame must match.

    All of it, unless p is scaled past the cases' coordinates of at most 2,
    where the Gram products overflow: there numpy words its warnings for
    array arithmetic, not for scalars, and skips a diagonal product that no
    floor check needs, so its RuntimeWarnings are left out.
    """
    if not np.nanmax(np.abs(p), initial=0.0) > 2.0:
        return lambda outcome: outcome
    return lambda outcome: (outcome[0], [w for w in outcome[1] if w[0] is not RuntimeWarning])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_cases(scaled=True))
def test_point_frame_is_the_frozen_point_frame_bitwise(case):
    # every array and value of the frame, its methods, classify_point and
    # the cofactor field: their bits, every warning in its order, and the
    # class and message of a refused point; a differential of the wrong
    # shape is refused with system_frames' message
    system, p, floor = case
    minors = _cofactor_minors(system.k)

    def live_classify(fr, tol_inv, tol_g):
        cls = classify_point(system, fr.x, tol_inv=tol_inv, tol_g=tol_g)
        return cls.kind, cls.det_full, cls.grad_g_norm, cls.scale

    live = _frame_calls(
        lambda: system_frame(system, p), SystemFrame.det_conserved,
        SystemFrame.det_full, SystemFrame.classification_scale, live_classify,
        _cofactor_from_frame)
    frozen = _frame_calls(
        lambda: _frozen_system_frame(system, p),
        lambda fr: _frozen_det_conserved(fr.gram, fr.k),
        lambda fr: _frozen_checked_det(fr.gram, diag_scale=_frozen_diag_product(fr.gram)),
        lambda fr: _frozen_diag_product(fr.gram), _frozen_classify,
        lambda fr: _frozen_cofactor(fr.gram.ravel().tolist(), fr.grads, minors))
    keep = _kept(p)
    with _negativity_floor(floor):
        shape_error = _wrong_shape_outcomes(system, p)
        for got, ref in zip(live, frozen):
            ref = _outcome(ref)
            if shape_error is not None:
                assert ref == shape_error[0]
                ref = shape_error[1]
            assert keep(_outcome(got)) == keep(ref)
        if shape_error is None and len(_outcome(live[0])[0]) == 5:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fr = system_frame(system, p)
                assert fr.gmat.shape == (system.dim, system.dim)
                assert all(type(v) is float for v in (
                    fr.det_conserved(), fr.det_full(), fr.classification_scale(),
                    fr.grad_g_norm()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_cases(scaled=True))
def test_checked_det_is_the_frozen_checked_det_bitwise(case):
    # every leading block of the Gram matrix, sizes 0 to k + 1, with no
    # scale, with its own diagonal product and with a scale of 0
    system, p, floor = case
    keep = _kept(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            gram = _frozen_system_frame(system, p).gram
        except GeodissError:
            return
        blocks = [gram[:r, :r] for r in range(system.k + 2)]
        scales = [(None, _frozen_diag_product(block), 0.0) for block in blocks]
    with _negativity_floor(floor):
        for block, block_scales in zip(blocks, scales):
            for scale in block_scales:
                assert (keep(_outcome(lambda: (checked_det(block, diag_scale=scale),)))
                        == keep(_outcome(
                            lambda: (_frozen_checked_det(block, diag_scale=scale),))))
