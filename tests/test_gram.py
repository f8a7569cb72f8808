"""Gradient pairing matrices and their determinants."""
import numpy as np
import pytest

from geodiss.catalog import gradient_only, mexican_hat, rigid_body
from geodiss.errors import NonPositiveDefiniteMetric, NumericalHealthWarning
from geodiss.fields import (
    DissipativeSystem,
    MetricField,
    ScalarField,
    VectorField,
)
import geodiss.gram
from geodiss.catalog import random_poly
from geodiss.control import _cofactor_from_frame, _cofactor_from_frames
from geodiss.errors import NonFiniteValue
from geodiss.gram import GRAM_NEGATIVITY_FLOOR, checked_det, system_frame, system_frames
from conftest import seeded_pair, with_callable_metric


def _linear_system(metric, rows, diss_row):
    """System with linear fields whose differentials are the given rows."""
    dim = len(diss_row)

    def make(row, label):
        row = np.asarray(row, dtype=float)
        return ScalarField(dim, lambda p, r=row: float(r @ p),
                           differential=lambda p, r=row: r.copy(), label=label)

    return DissipativeSystem(
        X=VectorField(dim, lambda p: np.zeros(dim)),
        conserved=tuple(make(r, f"f{i+1}") for i, r in enumerate(rows)),
        dissipated=make(diss_row, "g"),
        metric=metric)


def test_hand_oracle_euclidean_orthogonal_pair():
    # dF = (1, 1), dG = (1, -1), Euclidean: diagonal pairing, det 4
    system = _linear_system(MetricField.euclidean(2), [[1.0, 1.0]], [1.0, -1.0])
    fr = system_frame(system, np.zeros(2))
    assert np.allclose(fr.gram, np.array([[2.0, 0.0], [0.0, 2.0]]), atol=1e-14)
    assert fr.det_full() == pytest.approx(4.0, abs=1e-14)
    assert fr.det_conserved() == pytest.approx(2.0, abs=1e-14)


def test_hand_oracle_diagonal_metric():
    # g = diag(2, 1), dF = e1, dG = e2: <gradF, gradF> = 1/2 since gradF = e1/2
    system = _linear_system(MetricField.constant(np.diag([2.0, 1.0])),
                            [[1.0, 0.0]], [0.0, 1.0])
    fr = system_frame(system, np.zeros(2))
    assert np.allclose(fr.gram, np.array([[0.5, 0.0], [0.0, 1.0]]), atol=1e-14)
    assert fr.det_full() == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(fr.grads[0], [0.5, 0.0], atol=1e-14)


def test_entry_convention_col_gradient_against_row_gradient():
    # entry (i, j) pairs the gradient of field j with the gradient of field i:
    # diffs g^-1 diffs^T, here with a non-diagonal metric
    metric = MetricField.constant(np.array([[2.0, 0.3], [0.3, 1.0]]))
    system = _linear_system(metric, [[1.0, 0.0]], [1.0, 1.0])
    x = np.zeros(2)
    fr = system_frame(system, x)
    diffs = np.array([[1.0, 0.0], [1.0, 1.0]])
    expected = diffs @ np.linalg.inv(metric.at(x)) @ diffs.T
    assert np.allclose(fr.gram, expected, atol=1e-14)
    assert np.array_equal(fr.diffs, diffs)


def test_empty_determinant_is_one():
    assert checked_det(np.zeros((0, 0))) == 1.0
    system = _linear_system(MetricField.euclidean(2), [], [1.0, 0.0])
    assert system_frame(system, np.zeros(2)).det_conserved() == 1.0


def test_explicit_small_determinants_match_lu():
    rng = np.random.default_rng(0)
    for r in (1, 2, 3, 4):
        a = rng.normal(size=(r, r))
        m = a @ a.T
        assert checked_det(m) == pytest.approx(float(np.linalg.det(m)),
                                               rel=1e-12)


def test_dependent_gradients_collapse_the_determinant():
    # dG = 2 dF1: the stacked pairing matrix is rank one
    system = _linear_system(MetricField.euclidean(2), [[1.0, 0.0]], [2.0, 0.0])
    x = np.zeros(2)
    fr = system_frame(system, x)
    assert abs(fr.det_full()) <= 1e-14 * fr.classification_scale()
    assert _eigen_rank(fr.gram) < system.k + 1


def _eigen_rank(gram, sv_rel_tol=1e-8):
    """Numerical rank of the stacked gradients in the metric inner product.

    Eigenvalues of the pairing matrix are the squared singular values of the
    metric-orthonormalized gradient stack; the cut is relative to the largest.
    """
    eigs = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    if eigs.size == 0 or eigs[-1] == 0.0:
        return 0
    sv = np.sqrt(eigs)
    return int(np.sum(sv > sv_rel_tol * sv[-1]))


def test_determinant_zero_iff_rank_deficient():
    for i in range(30):
        system, x = seeded_pair(i)
        fr = system_frame(system, x)
        # the rank comes from the per-point solve, not from the frame
        full_rank = _eigen_rank(_reference_frame(system, x)[1]) == system.k + 1
        det_ratio = fr.det_full() / max(fr.classification_scale(), 1e-300)
        assert full_rank == (det_ratio > 1e-12), (i, det_ratio, full_rank)


@pytest.mark.parametrize("lam", [2.0, -3.0, 0.5])
def test_scaling_a_field_scales_determinants_quadratically(lam):
    for i in range(8):
        system, x = seeded_pair(i)
        base = system_frame(system, x)
        g = system.dissipated
        scaled = DissipativeSystem(
            X=system.X, conserved=system.conserved,
            dissipated=ScalarField(
                g.dim, lambda p, s=lam: s * g.value(p),
                differential=lambda p, s=lam: s * g.d(p), label=g.label),
            metric=system.metric)
        fr = system_frame(scaled, x)
        expected = lam ** 2 * base.det_full()
        assert fr.det_full() == pytest.approx(expected, rel=1e-10, abs=1e-300)
        assert fr.det_conserved() == pytest.approx(base.det_conserved(),
                                                   rel=1e-12, abs=1e-300)


def test_permuting_conserved_quantities_leaves_determinants_invariant():
    for i in range(30):
        system, x = seeded_pair(i)
        if system.k < 2:
            continue
        base = system_frame(system, x)
        perm = DissipativeSystem(
            X=system.X, conserved=tuple(reversed(system.conserved)),
            dissipated=system.dissipated, metric=system.metric)
        fr = system_frame(perm, x)
        scale = max(base.classification_scale(), 1e-300)
        assert abs(fr.det_full() - base.det_full()) <= 1e-12 * scale
        assert abs(fr.det_conserved() - base.det_conserved()) <= 1e-12 * scale


def test_negative_determinant_beyond_floor_warns_but_returns():
    import warnings

    mat = np.array([[1.0, 2.0], [2.0, 1.0]])  # det -3, diagonal scale 1
    with pytest.warns(NumericalHealthWarning):
        det = checked_det(mat, diag_scale=1.0)
    assert det == pytest.approx(-3.0)
    # tiny negativity within the floor stays silent
    eps = 0.5 * abs(GRAM_NEGATIVITY_FLOOR)
    quiet = np.array([[1.0, np.sqrt(1.0 + eps)], [np.sqrt(1.0 + eps), 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalHealthWarning)
        checked_det(quiet, diag_scale=1.0)


def test_frame_scale_is_diagonal_product():
    for i in range(10):
        system, x = seeded_pair(i)
        fr = system_frame(system, x)
        assert fr.classification_scale() == pytest.approx(
            float(np.prod(np.diag(fr.gram))), rel=1e-14)


def _reference_frame(system, x):
    """Per-point reference: solve against the metric checked at x."""
    diffs = np.array([f.d(x) for f in system.all_fields()])
    grads = np.linalg.solve(system.metric.at(x), diffs.T).T
    gram = diffs @ grads.T
    return grads, 0.5 * (gram + gram.T)


def test_constant_metric_frame_matches_the_per_point_solve():
    # random_poly systems carry random SPD constant metrics
    for i in range(30):
        system, x = seeded_pair(i)
        assert system.metric.is_constant
        fr = system_frame(system, x)
        grads, gram = _reference_frame(system, x)
        assert np.max(np.abs(fr.grads - grads)) <= 1e-12 * (1.0 + np.max(np.abs(grads)))
        assert np.max(np.abs(fr.gram - gram)) <= 1e-12 * (1.0 + np.max(np.abs(gram)))
        scale = max(fr.classification_scale(), 1e-300)
        k = system.k
        ref_full = checked_det(gram, diag_scale=float(np.prod(np.diag(gram))))
        ref_cons = checked_det(gram[:k, :k])
        assert abs(fr.det_full() - ref_full) <= 1e-12 * scale, i
        assert abs(fr.det_conserved() - ref_cons) <= 1e-12 * scale, i


def test_euclidean_frame_is_exact_on_catalog_systems():
    rng = np.random.default_rng(21)
    for entry in (rigid_body(), mexican_hat(), gradient_only("quadratic")):
        system = entry.system
        for x in rng.uniform(-1.5, 1.5, size=(5, system.dim)):
            fr = system_frame(system, x)
            grads, gram = _reference_frame(system, x)
            assert np.array_equal(fr.grads, grads)
            assert np.array_equal(fr.gram, gram)


def test_non_spd_constant_metric_raises_from_the_frame():
    system = _linear_system(MetricField.constant(np.diag([1.0, -1.0])),
                            [[1.0, 0.0]], [0.0, 1.0])
    for _ in range(2):
        with pytest.raises(NonPositiveDefiniteMetric):
            system_frame(system, np.zeros(2))


def _assert_rows_are_point_frames(system, pts):
    frames = system_frames(system, pts)
    assert frames.finite.all()
    v0 = _cofactor_from_frames(frames)
    stacked = (frames.det_full(), frames.det_conserved(), frames.grad_g_norm(),
               frames.classification_scale())
    gmat = np.broadcast_to(frames.gmat, (len(pts),) + frames.gmat.shape[-2:])
    for i, p in enumerate(pts):
        fr = system_frame(system, p)
        assert gmat[i].tobytes() == fr.gmat.tobytes()
        for name in ("diffs", "grads", "gram"):
            assert getattr(frames, name)[i].tobytes() == getattr(fr, name).tobytes(), name
        point = (fr.det_full(), fr.det_conserved(), fr.grad_g_norm(),
                 fr.classification_scale())
        assert [float(a[i]) for a in stacked] == list(point)
        assert v0[i].tobytes() == _cofactor_from_frame(fr).tobytes()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stacked_frames_are_bitwise_the_point_frames(k):
    system = random_poly(5, k, seed=40 + k).system
    pts = np.random.default_rng(k).uniform(-1.0, 1.0, size=(17, 5))
    _assert_rows_are_point_frames(system, pts)
    _assert_rows_are_point_frames(with_callable_metric(system), pts)


def test_stacked_frames_on_catalog_systems():
    rng = np.random.default_rng(8)
    for entry in (rigid_body(), mexican_hat(), gradient_only("quadratic")):
        _assert_rows_are_point_frames(entry.system,
                                      rng.uniform(-1.5, 1.5, size=(9, entry.system.dim)))
        empty = system_frames(entry.system, np.empty((0, entry.system.dim)))
        assert _cofactor_from_frames(empty).shape == (0, entry.system.dim)
        assert empty.det_full().shape == (0,)


def test_stacked_frames_warn_once_per_offending_row(monkeypatch):
    import warnings

    # a positive floor makes every row whose determinant ratio is below it
    # an offending row, so the stack holds both kinds
    monkeypatch.setattr(geodiss.gram, "GRAM_NEGATIVITY_FLOOR", 0.05)
    system = random_poly(5, 2, seed=3).system
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(40, 5))

    def messages(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn()
        assert all(w.category is NumericalHealthWarning for w in caught)
        return [str(w.message) for w in caught]

    def point():
        for p in pts:
            fr = system_frame(system, p)
            fr.det_full()
            fr.det_conserved()

    def stacked():
        frames = system_frames(system, pts)
        full = frames.det_full()
        frames.det_conserved()
        return full

    point_msgs, stacked_msgs = messages(point), messages(stacked)
    assert 0 < len(stacked_msgs) == len(point_msgs)
    assert sorted(stacked_msgs) == sorted(point_msgs)


def test_stacked_frames_flag_non_finite_rows_alone():
    calls = []
    base = random_poly(3, 1, seed=5).system
    spike = ScalarField(3, lambda p: float(p[0]),
                        differential=lambda p: np.array([1.0 / p[0], 0.0, 0.0]))

    def metric(p):
        calls.append(p.copy())
        return np.eye(3) + np.diag(p * p)

    system = DissipativeSystem(X=base.X, conserved=(spike,), dissipated=base.dissipated,
                               metric=MetricField(3, metric))
    pts = np.array([[0.5, 0.1, 0.2], [0.0, 0.3, 0.1], [-0.4, 0.2, 0.9]])
    with np.errstate(divide="ignore"):
        frames = system_frames(system, pts)
        assert frames.finite.tolist() == [True, False, True]
        # the callable metric is evaluated at the finite rows only
        assert len(calls) == 2
        for i in (0, 2):
            fr = system_frame(system, pts[i])
            assert frames.gram[i].tobytes() == fr.gram.tobytes()
        with pytest.raises(NonFiniteValue) as point_error:
            system_frame(system, pts[1])
        with pytest.raises(NonFiniteValue) as stack_error:
            frames.require_finite()
    assert str(stack_error.value) == str(point_error.value)
