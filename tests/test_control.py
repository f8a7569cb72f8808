"""The control field: three constructions, structural identities, covariance."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geodiss.gram
from geodiss.catalog import gradient_only, mexican_hat, random_poly, rigid_body
from geodiss.control import (
    Formulation,
    _cofactor_from_frame,
    _cofactor_from_frames,
    _corrected_rhs,
    control_field,
    dissipated_rhs,
    dissipation_rate,
    identity_scales,
    tensor_matrix,
)
from geodiss.errors import DimensionMismatch, NonFiniteState, NonFiniteValue, SingularLeaf
from geodiss.integrators import Flow, IntegratorConfig, _flow_rows, integrate
from geodiss.fields import (
    DissipativeSystem,
    MetricField,
    ScalarField,
    VectorField,
)
from geodiss.gram import _frame_arrays, _metric_at, checked_det, system_frame, system_frames
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
# the bound corrected-flow kernel against the frame path
# ---------------------------------------------------------------------------

def _catalog_system(i):
    return (rigid_body().system, mexican_hat().system, gradient_only().system)[i]


@st.composite
def _kernel_cases(draw):
    """A catalog or random polynomial system, and a point of it."""
    if draw(st.booleans()):
        system = _catalog_system(draw(st.integers(0, 2)))
    else:
        dim = draw(st.integers(2, 5))
        k = draw(st.integers(0, min(3, dim - 1)))
        system = random_poly(dim, k, seed=draw(st.integers(0, 1000))).system
        if draw(st.booleans()):
            system = with_callable_metric(system)
    coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    return system, np.array(draw(st.lists(coords, min_size=system.dim,
                                          max_size=system.dim)))


def _with_warnings(fn):
    """fn's result, and the category and message of every warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [(w.category, str(w.message)) for w in caught]


def _frame_path(system, p):
    v0 = _cofactor_from_frame(system_frame(system, p))
    return system.X(p) - v0, v0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_corrected_rhs_kernel_is_the_frame_path_bitwise(case):
    system, p = case
    (rhs, v0), warned = _with_warnings(lambda: _corrected_rhs(system)(p))
    (ref_rhs, ref_v0), ref_warned = _with_warnings(lambda: _frame_path(system, p))
    assert rhs.tobytes() == ref_rhs.tobytes()
    assert v0.tobytes() == ref_v0.tobytes()
    assert warned == ref_warned
    assert dissipated_rhs(system, p).tobytes() == ref_rhs.tobytes()


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
    with pytest.raises(NonFiniteValue) as kernel:
        _corrected_rhs(system)(p)
    with pytest.raises(NonFiniteValue) as rhs:
        dissipated_rhs(system, p)
    with pytest.raises(NonFiniteState) as run:
        integrate(system, p, IntegratorConfig(t_end=1.0))
    assert (str(kernel.value) == str(rhs.value) == str(run.value) == str(ref.value)
            == str(local.value))


def test_corrected_rhs_kernel_warns_as_the_frame_path(monkeypatch):
    # a positive floor makes most conserved Gram determinants warn
    monkeypatch.setattr(geodiss.gram, "GRAM_NEGATIVITY_FLOOR", 0.9)
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(12, 5))
    for system in (random_poly(5, 3, seed=2).system,
                   with_callable_metric(random_poly(5, 2, seed=9).system)):
        kernel = _corrected_rhs(system)
        _, warned = _with_warnings(lambda: [kernel(p) for p in pts])
        _, ref_warned = _with_warnings(lambda: [_frame_path(system, p) for p in pts])
        assert warned == ref_warned
        assert len(warned) > 0


# ---------------------------------------------------------------------------
# the point bodies against an independent copy of the numpy-scalar arithmetic
# ---------------------------------------------------------------------------

def _scalar_reference(system, p):
    """``(X - v0, v0, det_conserved)`` at p: the differentials as an array of
    ``f.d(p)``, and every determinant by ``checked_det`` on numpy views and
    gathered minors, summed term by term."""
    k = system.k
    diffs = np.array([f.d(p) for f in system.all_fields()])
    if not np.isfinite(diffs).all():
        raise NonFiniteValue(f"non-finite differential among fields at {p.tolist()}")
    grads, gram = _frame_arrays(diffs, *_metric_at(system.metric)(p))
    block = gram[:k, :k]
    det_c = checked_det(block, diag_scale=float(np.prod(np.diag(block))))
    v0 = det_c * grads[k]
    for i in range(k):
        # conserved rows; column i swapped out for the dissipated column k
        cols = [c for c in range(k) if c != i] + [k]
        flat = np.array([[r * (k + 1) + c for c in cols] for r in range(k)])
        sign = -1.0 if (i + k) % 2 else 1.0
        v0 = v0 + sign * checked_det(gram.take(flat)) * grads[i]
    return system.X(p) - v0, v0, det_c


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_cases(), st.sampled_from([None, 0.9]))
def test_point_bodies_are_the_numpy_scalar_arithmetic_bitwise(case, floor):
    # at a floor of +0.9 most Gram determinants of two or more conserved
    # gradients warn
    system, p = case
    default = geodiss.gram.GRAM_NEGATIVITY_FLOOR
    geodiss.gram.GRAM_NEGATIVITY_FLOOR = default if floor is None else floor
    try:
        (ref_rhs, ref_v0, ref_det), ref_warned = _with_warnings(
            lambda: _scalar_reference(system, p))
        (rhs, v0), warned = _with_warnings(lambda: _corrected_rhs(system)(p))
        fr = system_frame(system, p)
        frame_v0, frame_warned = _with_warnings(lambda: _cofactor_from_frame(fr))
        det, det_warned = _with_warnings(fr.det_conserved)
    finally:
        geodiss.gram.GRAM_NEGATIVITY_FLOOR = default
    assert rhs.tobytes() == ref_rhs.tobytes()
    assert v0.tobytes() == frame_v0.tobytes() == ref_v0.tobytes()
    assert type(det) is float and det.hex() == ref_det.hex()
    assert warned == frame_warned == det_warned == ref_warned


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
        rhs, v0 = _corrected_rhs(system)(p)
        assert rhs.tobytes() == ref_rhs.tobytes()
        assert v0.tobytes() == ref_v0.tobytes()
        assert system_frame(system, p).det_conserved().hex() == ref_det.hex()
    bad = DissipativeSystem(
        X=system.X, conserved=(F,), metric=system.metric,
        dissipated=ScalarField(3, G.value, differential=lambda p: p[:2], label="g"))
    with pytest.raises(DimensionMismatch) as ref:
        _scalar_reference(bad, p)
    with pytest.raises(DimensionMismatch) as kernel:
        _corrected_rhs(bad)(p)
    assert str(kernel.value) == str(ref.value)


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
    rows with finite differentials, NaN at the others, and their flags."""
    frames = system_frames(system, pts)
    ok = frames.finite
    out = np.full(pts.shape, np.nan)
    out[ok] = system.X.values(pts[ok]) - _cofactor_from_frames(frames)[ok]
    return out, ok


_ONE_ROW_SYSTEM = random_poly(4, 2, seed=3).system


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_stacks())
# a one-row stack runs the point kernel: a finite row, a row with a NaN
# coordinate, and a row whose Gram determinants warn at floor 0.9
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
        (rhs, _, ok), warned = _with_warnings(
            lambda: _flow_rows(system, Flow.PERTURBED)(pts))
        (ref, ref_ok), ref_warned = _with_warnings(lambda: _frame_stack_path(system, pts))
        # the point kernel at the finite rows, in row order
        point, point_warned = _with_warnings(
            lambda: [_frame_path(system, p)[0] for p in pts[ref_ok]])
    finally:
        geodiss.gram.GRAM_NEGATIVITY_FLOOR = default
    # no flags when every row is finite
    assert (ok is None) == bool(ref_ok.all())
    if ok is not None:
        assert ok.tolist() == ref_ok.tolist()
    assert rhs.tobytes() == ref.tobytes()
    assert [row.tobytes() for row in rhs[ref_ok]] == [row.tobytes() for row in point]
    assert warned == ref_warned == point_warned
