"""Field primitives: probes, differentials, metric gradients, conservation."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodiss.errors import (
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveDefiniteMetric,
    PremiseViolation,
)
from geodiss.fields import (
    DissipativeSystem,
    MetricField,
    ScalarField,
    VectorField,
    _premise_rows,
    _require_premise,
    as_point,
    central_difference,
    gradient,
    inner,
    validate_conservation,
)
from geodiss.poly import Polynomial, random_polynomial


def test_as_point_accepts_sequences_and_checks_length():
    p = as_point([1.0, 2.0], 2)
    assert isinstance(p, np.ndarray) and p.dtype == float
    with pytest.raises(DimensionMismatch):
        as_point([1.0, 2.0, 3.0], 2)


def test_central_difference_matches_analytic_cubic():
    # f = x0^3 + 2 x0 x1, df = (3 x0^2 + 2 x1, 2 x0)
    x = np.array([1.2, -0.7])
    fd = central_difference(lambda p: p[0] ** 3 + 2.0 * p[0] * p[1], x)
    exact = np.array([3 * x[0] ** 2 + 2 * x[1], 2 * x[0]])
    assert np.max(np.abs(fd - exact)) <= 1e-8


def test_scalar_field_differential_fallback_and_analytic_path():
    f_fd = ScalarField(2, lambda p: float(p @ p))
    f_an = ScalarField(2, lambda p: float(p @ p), differential=lambda p: 2.0 * p)
    x = np.array([0.3, -1.1])
    assert np.allclose(f_fd.d(x), 2.0 * x, atol=1e-8)
    assert np.array_equal(f_an.d(x), 2.0 * x)


def test_scalar_field_rejects_misshaped_differential():
    f = ScalarField(2, lambda p: float(p[0]), differential=lambda p: np.zeros(3))
    with pytest.raises(DimensionMismatch):
        f.d(np.zeros(2))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_stacked_evaluation_is_bitwise_the_point_calls(dim):
    # a stacked field is called once per stack, a point-only one row by row,
    # and a field without a differential differences each row: every row
    # gives the bits of the point call
    rng = np.random.default_rng(dim)
    x = rng.uniform(-1.5, 1.5, size=(40, dim))
    for p in (random_polynomial(dim, 3, rng), Polynomial.from_terms(dim, [])):
        for f in (ScalarField(dim, p.value, p.diff, stacked=True),
                  ScalarField(dim, p.value, p.diff),
                  ScalarField(dim, p.value, stacked=True),
                  ScalarField(dim, p.value)):
            values, diffs = f.values(x), f.diffs(x)
            assert values.shape == (40,) and diffs.shape == (40, dim)
            assert values.tobytes() == np.array([f(row) for row in x]).tobytes()
            assert diffs.tobytes() == np.array([f.d(row) for row in x]).tobytes()
            assert f.values(np.empty((0, dim))).shape == (0,)
            assert f.diffs(np.empty((0, dim))).shape == (0, dim)
            for bad in (np.zeros((3, dim + 1)), np.zeros(dim)):
                with pytest.raises(DimensionMismatch):
                    f.values(bad)
                with pytest.raises(DimensionMismatch):
                    f.diffs(bad)


def test_stacked_field_rejects_misshaped_stack_output():
    f = ScalarField(2, lambda p: np.zeros(3), differential=lambda p: np.zeros((3, 3)),
                    stacked=True)
    with pytest.raises(DimensionMismatch):
        f.values(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        f.diffs(np.zeros((2, 2)))


def test_vector_field_rejects_misshaped_output():
    v = VectorField(2, lambda p: np.zeros(3))
    with pytest.raises(DimensionMismatch):
        v(np.zeros(2))
    with pytest.raises(DimensionMismatch):
        v.values(np.zeros((4, 2)))
    stacked = VectorField(2, lambda p: np.zeros((3, 2)), stacked=True)
    with pytest.raises(DimensionMismatch):
        stacked.values(np.zeros((4, 2)))


def test_vector_field_stack_is_bitwise_the_point_calls():
    # a point-only field is called row by row, a stacked one once
    rng = np.random.default_rng(12)
    comps = [random_polynomial(3, 2, rng) for _ in range(3)]
    x = rng.uniform(-2.0, 2.0, size=(30, 3))

    def func(p):
        if p.ndim == 1:
            return np.array([c.value(p) for c in comps])
        return np.stack([c.value(p) for c in comps], axis=1)

    ref = np.array([[c.value(row) for c in comps] for row in x])
    for v in (VectorField(3, func), VectorField(3, func, stacked=True)):
        assert v.values(x).tobytes() == ref.tobytes()
        assert v.values(np.empty((0, 3))).shape == (0, 3)


def test_projection_takes_a_leaf_per_row(rigid):
    # rows projected onto leaves of their own take the steps of their solo
    # projections, and one leaf value for all rows is the same as repeating it
    from geodiss.fields import _project_rows

    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.5, 1.5, size=(12, 3))
    leaves = rng.uniform(0.2, 2.0, size=(12, 1))
    y, converged, degenerate = _project_rows(rigid.system, pts, leaves)
    assert converged.all() and not degenerate.any()
    for i in range(12):
        yi, ci, _ = _project_rows(rigid.system, pts[i:i + 1], leaves[i])
        assert ci[0] and yi[0].tobytes() == y[i].tobytes()
        assert abs(rigid.system.leaf_value(y[i])[0] - leaves[i, 0]) <= 1e-12
    shared = _project_rows(rigid.system, pts, leaves[0])[0]
    repeated = _project_rows(rigid.system, pts, np.repeat(leaves[:1], 12, axis=0))[0]
    assert shared.tobytes() == repeated.tobytes()


def test_gradient_is_inverse_metric_times_differential():
    # g = diag(2, 1), f = x1: the metric gradient is (1/2, 0), not (1, 0)
    metric = MetricField.constant(np.diag([2.0, 1.0]))
    f = ScalarField(2, lambda p: float(p[0]),
                    differential=lambda p: np.array([1.0, 0.0]))
    assert np.allclose(gradient(f, metric, np.array([0.4, 0.9])),
                       np.array([0.5, 0.0]), atol=1e-14)


def test_gradient_euclidean_equals_differential():
    f = ScalarField(3, lambda p: float(np.sin(p[0]) + p[1] * p[2]),
                    differential=lambda p: np.array(
                        [np.cos(p[0]), p[2], p[1]]))
    x = np.array([0.2, -0.5, 1.3])
    assert np.allclose(gradient(f, MetricField.euclidean(3), x), f.d(x),
                       atol=1e-14)


def test_gradient_raises_on_non_finite_differential():
    f = ScalarField(2, lambda p: float(p[0]),
                    differential=lambda p: np.array([np.inf, 0.0]))
    with pytest.raises(NonFiniteValue):
        gradient(f, MetricField.euclidean(2), np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3),
       x0=st.floats(-2, 2), x1=st.floats(-2, 2))
def test_gradient_linear_in_the_field(a, b, x0, x1):
    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 2))
    metric = MetricField.constant(m @ m.T + 2.0 * np.eye(2))
    f = ScalarField(2, lambda p: float(p @ p), differential=lambda p: 2.0 * p)
    h = ScalarField(2, lambda p: float(p[0] * p[1]),
                    differential=lambda p: np.array([p[1], p[0]]))
    comb = ScalarField(
        2, lambda p: a * f.value(p) + b * h.value(p),
        differential=lambda p: a * f.d(p) + b * h.d(p))
    x = np.array([x0, x1])
    lhs = gradient(comb, metric, x)
    rhs = a * gradient(f, metric, x) + b * gradient(h, metric, x)
    scale = 1.0 + np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(v=st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_inner_product_positive_definite_and_symmetric(v):
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3))
    metric = MetricField.constant(m @ m.T + 3.0 * np.eye(3))
    x = np.zeros(3)
    v = np.asarray(v)
    u = np.array([1.0, -2.0, 0.5])
    if np.linalg.norm(v) > 1e-9:
        assert inner(metric, x, v, v) > 0.0
    s1, s2 = inner(metric, x, u, v), inner(metric, x, v, u)
    assert abs(s1 - s2) <= 1e-12 * (1.0 + abs(s1))


def test_metric_is_symmetrized_before_use():
    raw = np.array([[2.0, 0.6], [0.0, 1.0]])
    metric = MetricField(2, lambda _x: raw)
    got = metric.at(np.zeros(2))
    assert np.array_equal(got, 0.5 * (raw + raw.T))


def test_metric_positivity_is_enforced():
    metric = MetricField.constant(np.diag([1.0, -1.0]))
    with pytest.raises(NonPositiveDefiniteMetric):
        metric.at(np.zeros(2))
    # a failed check is not cached: the next use raises too
    with pytest.raises(NonPositiveDefiniteMetric):
        metric.at(np.ones(2))


def test_constant_metric_snapshots_its_matrix():
    src = np.diag([2.0, 1.0])
    metric = MetricField.constant(src)
    src[0, 0] = -5.0
    got = metric.at(np.zeros(2))
    src[1, 1] = -7.0
    assert np.array_equal(got, np.diag([2.0, 1.0]))
    assert np.array_equal(metric.at(np.ones(2)), np.diag([2.0, 1.0]))
    with pytest.raises(ValueError):
        got[0, 0] = 3.0  # the cached matrix is read-only


def test_constant_metric_is_checked_once_and_survives_replace():
    import dataclasses

    calls = []
    base = MetricField.constant(np.array([[2.0, 0.3], [0.3, 1.0]]))
    counted = dataclasses.replace(
        base, matrix=lambda p: calls.append(1) or base.matrix(p))
    assert counted.is_constant and MetricField.euclidean(3).is_constant
    for x in ([0.0, 0.0], [1.0, -2.0], [3.0, 0.5]):
        assert np.array_equal(counted.at(x), base.at(x))
    assert len(calls) == 1
    gmat, ginv = counted.constant_pair(np.zeros(2))
    assert np.allclose(gmat @ ginv, np.eye(2), atol=1e-15)
    # a callable metric is evaluated at every point
    calls.clear()
    varying = MetricField(2, lambda p: calls.append(1) or np.diag(1.0 + p * p))
    assert not varying.is_constant
    for x in ([0.0, 0.0], [1.0, -2.0]):
        assert np.array_equal(varying.at(x), np.diag(1.0 + np.square(x)))
    assert len(calls) == 2


def test_system_rejects_too_many_conserved_quantities():
    f1 = ScalarField(2, lambda p: float(p[0]))
    f2 = ScalarField(2, lambda p: float(p[1]))
    g = ScalarField(2, lambda p: float(p @ p))
    with pytest.raises(DimensionMismatch):
        DissipativeSystem(X=VectorField(2, lambda p: np.zeros(2)),
                          conserved=(f1, f2), dissipated=g,
                          metric=MetricField.euclidean(2))


def test_system_rejects_inconsistent_dimensions():
    f = ScalarField(3, lambda p: float(p[0]))
    g = ScalarField(2, lambda p: float(p @ p))
    with pytest.raises(DimensionMismatch):
        DissipativeSystem(X=VectorField(2, lambda p: np.zeros(2)),
                          conserved=(f,), dissipated=g,
                          metric=MetricField.euclidean(2))


def test_leaf_value_and_field_ordering(rigid):
    system = rigid.system
    x = np.array([0.3, -0.4, 1.2])
    assert np.allclose(system.leaf_value(x), [0.5 * float(x @ x)], atol=1e-14)
    fields = system.all_fields()
    assert fields[-1] is system.dissipated
    assert fields[:-1] == system.conserved


def test_conservation_validates_on_catalog_systems(rigid, mexhat):
    rng = np.random.default_rng(3)
    probes = rng.uniform(-1.5, 1.5, size=(40, 3))
    for entry in (rigid, mexhat):
        before = dict(vars(entry.system))
        report = validate_conservation(entry.system, probes, tol=1e-12)
        assert report.passed, report.residuals
        assert report.max_residual <= 1e-12
        assert vars(entry.system) == before  # the check does not mutate the system


def test_conservation_flags_a_non_conserved_quantity():
    # X = (1, 0) does not annihilate f = x0: the residual is exactly 1
    f = ScalarField(2, lambda p: float(p[0]),
                    differential=lambda p: np.array([1.0, 0.0]), label="f")
    g = ScalarField(2, lambda p: float(p @ p),
                    differential=lambda p: 2.0 * p, label="g")
    system = DissipativeSystem(
        X=VectorField(2, lambda p: np.array([1.0, 0.0])),
        conserved=(f,), dissipated=g, metric=MetricField.euclidean(2))
    before = dict(vars(system))
    report = validate_conservation(system, [np.zeros(2)], tol=1e-12)
    assert not report.passed
    assert report.residuals["f"] == pytest.approx(1.0)
    assert vars(system) == before


def _premise_cases():
    from geodiss.catalog import gradient_only, mexican_hat, random_poly, rigid_body
    systems = [rigid_body(3.0, 2.0, 1.0).system, mexican_hat().system,
               gradient_only().system]
    systems += [random_poly(4, k, seed=k).system for k in range(4)]
    # the same systems evaluated point by point, fields and X looped over rows
    point_only = [DissipativeSystem(
        X=dataclasses.replace(s.X, stacked=False),
        conserved=tuple(dataclasses.replace(f, stacked=False) for f in s.conserved),
        dissipated=dataclasses.replace(s.dissipated, stacked=False),
        metric=s.metric) for s in systems]
    return systems + point_only


@pytest.mark.parametrize("case", range(14))
def test_premise_rows_are_the_point_expressions_bitwise(case):
    system = _premise_cases()[case]
    pts = np.random.default_rng(case).uniform(-1.5, 1.5, size=(30, system.dim))
    res, scale = _premise_rows(system, pts)
    fields_ = system.all_fields()
    assert res.shape == scale.shape == (30, len(fields_))
    want_res = [[abs(float(f.d(p) @ system.X(p))) for f in fields_] for p in pts]
    want_scale = [[1 + np.linalg.norm(f.d(p)) * np.linalg.norm(system.X(p))
                   for f in fields_] for p in pts]
    assert np.array_equal(res, want_res)
    assert np.array_equal(scale, want_scale)
    # validate_conservation is the per-field maximum of the same residuals
    report = validate_conservation(system, pts, tol=1e-12)
    names = [f.label or f"field{i}" for i, f in enumerate(fields_)]
    assert report.residuals == {n: max(r[j] for r in want_res) for j, n in enumerate(names)}
    assert report.max_residual == max(map(max, want_res))
    assert validate_conservation(system, [], tol=1e-12).max_residual == 0.0


def _outside_premise():
    """k = 0, G = |x|^2 / 2 and X = (-x1^3 + 1.15 x1^2 + 0.67 x1, 0), which
    does not annihilate G: dG . X = x1 X1."""
    G = ScalarField(2, lambda p: 0.5 * float(p @ p), differential=lambda p: p.copy(),
                    label="g")
    X = VectorField(2, lambda p: np.array([-p[0] ** 3 + 1.15 * p[0] ** 2 + 0.67 * p[0], 0.0]))
    return DissipativeSystem(X=X, conserved=(), dissipated=G,
                             metric=MetricField.euclidean(2))


def test_premise_violation_names_the_field_the_point_and_the_residual(rigid):
    pts = np.array([[0.0, 0.3], [0.6, 0.0], [0.5, 0.0]])
    with pytest.raises(PremiseViolation, match=r"annihilate g at \[0\.6, 0\.0\]: .* = 0\.2") as info:
        _require_premise(_outside_premise(), pts)
    assert info.value.exit_code == 3
    # the scaled residual at (0.6, 0) is 0.36 / (1 + 0.6 * 0.6)
    assert f"{0.36 / 1.36:.6g}" in str(info.value)
    _require_premise(_outside_premise(), pts[:1])
    _require_premise(rigid.system, np.random.default_rng(0).uniform(-1, 1, (50, 3)))


def test_non_finite_premise_residual_raises():
    # X = (NaN, 0) where x1 > 0.5 used to pass with a largest residual of 0
    G = ScalarField(2, lambda p: 0.5 * float(p @ p), differential=lambda p: p.copy(),
                    label="g")
    X = VectorField(2, lambda p: np.array([np.nan if p[0] > 0.5 else 0.0, 0.0]))
    system = DissipativeSystem(X=X, conserved=(), dissipated=G,
                               metric=MetricField.euclidean(2))
    with pytest.raises(NonFiniteValue, match=r"at \[1\.0, 0\.0\]"):
        validate_conservation(system, [np.array([1.0, 0.0]), np.zeros(2)])
    with pytest.raises(NonFiniteValue):
        _require_premise(system, [[0.0, 0.0], [1.0, 0.0]])
