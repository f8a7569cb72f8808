"""Point classification, equilibrium search, stability, limit-set probes."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geodiss.gram
import geodiss.structure as structure_mod
from geodiss.errors import (
    IdentityFailure,
    LeafProjectionFailure,
    NonFiniteValue,
    NonPositiveDefiniteMetric,
    SingularLeaf,
)
from geodiss.catalog import mexican_hat, random_poly, rigid_body
from geodiss.control import _cofactor_from_frame, dissipated_rhs
from geodiss.gram import system_frame
from conftest import with_callable_metric
from geodiss.fields import (
    DissipativeSystem,
    MetricField,
    ScalarField,
    VectorField,
    _project_rows,
)
from geodiss.integrators import IntegratorConfig, integrate
from geodiss.structure import (
    DEFAULT_TOL_G,
    PointKind,
    Stability,
    classify_point,
    escape_test,
    find_equilibria,
    leaf_diagnostics,
    leaf_tangent_basis,
    omega_limit_probe,
    project_to_leaf,
    refine_to_invariant_set,
    stability_classify,
)


UNIT_3 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)


def test_classification_branches(rigid, mexhat):
    # rigid body: on an axis both gradients align but neither vanishes
    cls = classify_point(rigid.system, np.array([1.0, 0.0, 0.0]))
    assert cls.kind is PointKind.INV_DEPENDENT and cls.in_invariant_set
    assert classify_point(rigid.system, UNIT_3).kind is PointKind.GENERIC
    # sombrero: on the rim and on the axis the dissipated gradient vanishes
    for p in ([1.0, 0.0, 0.2], [0.0, 0.0, 0.7]):
        cls = classify_point(mexhat.system, np.array(p))
        assert cls.kind is PointKind.INV_CRITICAL, p
    assert not classify_point(mexhat.system,
                              np.array([2.0, 0.0, 0.0])).in_invariant_set


def test_classification_is_scale_free(rigid):
    system = rigid.system
    f = system.conserved[0]
    big = DissipativeSystem(
        X=system.X,
        conserved=(ScalarField(3, lambda p: 1000.0 * f.value(p),
                               differential=lambda p: 1000.0 * f.d(p),
                               label=f.label),),
        dissipated=system.dissipated, metric=system.metric)
    for p in (np.array([1.0, 0.0, 0.0]), UNIT_3,
              np.array([0.3, -0.8, 0.52])):
        assert classify_point(system, p).kind is classify_point(big, p).kind


def test_report_dictionary_shape(rigid):
    rep = classify_point(rigid.system, UNIT_3).as_report()
    assert set(rep) == {"kind", "detSigmaFull", "gradGNorm", "scale",
                        "tolInv", "tolG"}


def test_equilibrium_search_is_leaf_constrained(rigid):
    # each seed stays on its own momentum sphere
    seeds = [np.array([1.05, 0.03, -0.02]), np.array([0.02, 0.0, 0.95])]
    reports, unresolved = find_equilibria(rigid.system, seeds)
    assert not unresolved
    assert len(reports) == 2
    for seed, rep in zip(seeds, sorted(reports,
                                       key=lambda r: -abs(r.location[0]))):
        assert np.allclose(system_leaf(rigid, rep.location),
                           system_leaf(rigid, seed), atol=1e-9)
        assert rep.in_perturbed_equilibria
        assert rep.in_unperturbed_equilibria and rep.in_invariant_set
        assert rep.classification.in_invariant_set


def system_leaf(entry, x):
    return entry.system.leaf_value(x)


def test_membership_breakdown_matches_the_intersection(rigid, mexhat):
    seeds = [np.array([0.98, 0.01, 0.0]), np.array([0.0, -1.02, 0.01]),
             np.array([0.01, 0.0, 1.0])]
    reports, _ = find_equilibria(rigid.system, seeds)
    for rep in reports:
        assert rep.in_perturbed_equilibria == (
            rep.in_unperturbed_equilibria and rep.in_invariant_set)
    # sombrero axis: the conservative rotation vanishes there as well
    reports, _ = find_equilibria(mexhat.system, [np.array([0.05, 0.0, 0.3])])
    assert len(reports) == 1
    assert np.allclose(reports[0].location, [0.0, 0.0, 0.3], atol=1e-8)
    assert reports[0].in_perturbed_equilibria


def test_duplicate_roots_are_merged(rigid):
    # two seeds on the same momentum sphere, both drawn to the same axis
    a = np.array([np.cos(0.05), np.sin(0.05), 0.0])
    b = np.array([np.cos(0.05), -np.sin(0.05), 0.0])
    reports, _ = find_equilibria(rigid.system, [a, b])
    assert len(reports) == 1
    assert np.allclose(np.abs(reports[0].location), [1.0, 0.0, 0.0],
                       atol=1e-8)


def test_non_converging_seeds_are_reported_not_fatal(mexhat):
    seeds = [np.array([1.7, 0.9, 0.1])]
    reports, unresolved = find_equilibria(mexhat.system, seeds, max_iter=1)
    assert len(unresolved) == 1
    assert np.array_equal(unresolved[0], seeds[0])
    assert reports == []


def test_equilibrium_search_evaluates_no_point_twice(rigid, mexhat, monkeypatch):
    # the solver carries each accepted trial's residual into the next
    # iteration, and the reports read the residual the search ended on
    points = []
    corrected_rows = structure_mod._corrected_rows

    def recording_rows(system):
        evaluate = corrected_rows(system)

        def recording(pts):
            points.extend(np.asarray(p, dtype=float).tobytes() for p in pts)
            return evaluate(pts)

        return recording

    monkeypatch.setattr(structure_mod, "_corrected_rows", recording_rows)
    for system in (rigid.system, mexhat.system):
        seeds = np.random.default_rng(4).uniform(-1.5, 1.5, size=(6, 3))
        points.clear()
        reports, _ = find_equilibria(system, seeds)
        assert reports
        assert points
        assert len(set(points)) == len(points)


def test_project_to_leaf_restores_conserved_values(rigid):
    target = rigid.system.leaf_value(np.array([1.0, 0.0, 0.0]))
    y = project_to_leaf(rigid.system, np.array([0.8, 0.3, -0.2]), target)
    assert np.allclose(rigid.system.leaf_value(y), target, atol=1e-12)


@pytest.mark.parametrize("scale", [300.0, 3e4])
def test_project_to_leaf_converges_at_large_momentum(rigid, scale):
    # leaf values of order scale**2 carry roundoff above the absolute
    # tolerance, so the projection accepts the roundoff floor 4 eps |F|
    rng = np.random.default_rng(7)
    floor = 4.0 * np.finfo(float).eps
    for _ in range(100):
        x = rng.standard_normal(3)
        x *= scale / np.linalg.norm(x)
        target = rigid.system.leaf_value(x)
        start = x + 1e-9 * scale * rng.standard_normal(3)
        y = project_to_leaf(rigid.system, start, target)
        assert abs(rigid.system.leaf_value(y)[0] - target[0]) <= floor * target[0]


def test_projection_failure_at_a_degenerate_start(rigid):
    # at the origin the momentum differential vanishes: no usable direction
    with pytest.raises(LeafProjectionFailure):
        project_to_leaf(rigid.system, np.zeros(3), np.array([0.5]))


@pytest.mark.parametrize("case", ["random_poly_k1", "random_poly_k2", "rigid"])
def test_lockstep_projection_rows_are_bitwise_one_row_calls(rigid, case):
    # every row takes the steps of its own projection: its bits, its
    # convergence and its failure do not depend on the rows beside it
    if case == "rigid":
        system, anchor = rigid.system, np.array([1.0, 0.0, 0.0])
    else:
        system = random_poly(4, int(case[-1]), seed=11).system
        anchor = np.array([0.3, -0.2, 0.5, 0.1])
    leaf = system.leaf_value(anchor)
    starts = anchor + 0.3 * np.random.default_rng(3).standard_normal((60, system.dim))
    y, converged, degenerate = _project_rows(system, starts, leaf, tol=1e-10, max_iter=20)
    assert converged.sum() >= 30
    for i, x in enumerate(starts):
        y1, c1, d1 = _project_rows(system, x[None], leaf, tol=1e-10, max_iter=20)
        assert y1[0].tobytes() == y[i].tobytes()
        assert (c1[0], d1[0]) == (converged[i], degenerate[i])
        if converged[i]:
            y_point = project_to_leaf(system, x, leaf, tol=1e-10, max_iter=20)
            assert y_point.tobytes() == y[i].tobytes()
            assert np.max(np.abs(system.leaf_value(y[i]) - leaf)) <= 1e-10


def test_lockstep_projection_fails_a_degenerate_row_alone(rigid):
    # at the origin the momentum differential vanishes: the stacked solve
    # raises, and only that row stops
    starts = np.array([[0.8, 0.3, -0.2], [0.0, 0.0, 0.0], [0.1, 0.9, 0.4]])
    target = np.array([0.5])
    y, converged, degenerate = _project_rows(rigid.system, starts, target)
    assert converged.tolist() == [True, False, True]
    assert degenerate.tolist() == [False, True, False]
    assert np.array_equal(y[1], np.zeros(3))
    for i in (0, 2):
        assert y[i].tobytes() == project_to_leaf(rigid.system, starts[i], target).tobytes()
    # the batch of one keeps both failure messages
    with pytest.raises(LeafProjectionFailure, match="degenerate near"):
        project_to_leaf(rigid.system, starts[1], target)
    with pytest.raises(LeafProjectionFailure, match="no convergence"):
        project_to_leaf(rigid.system, starts[0], target, max_iter=1)


def test_leaf_tangent_basis_is_orthonormal_and_tangent(rigid):
    x = np.array([0.6, 0.0, 0.8])
    basis = leaf_tangent_basis(rigid.system, x)
    assert basis.shape == (2, 3)
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)
    df = rigid.system.conserved[0].d(x)
    assert np.max(np.abs(basis @ df)) <= 1e-12


def test_refinement_lands_on_the_rim(mexhat):
    y = refine_to_invariant_set(mexhat.system, np.array([1.05, 0.1, 0.3]))
    assert y is not None
    r = np.hypot(y[0], y[1])
    assert abs(r - 1.0) <= 1e-7
    assert y[2] == pytest.approx(0.3, abs=1e-9)
    cls = classify_point(mexhat.system, y, tol_inv=1e-12, tol_g=1e-8)
    assert cls.in_invariant_set


def test_refinement_declines_points_far_from_the_set(mexhat):
    got = refine_to_invariant_set(mexhat.system, np.array([2.0, 0.0, 0.0]),
                                  trust_radius=0.05)
    assert got is None


def test_refinement_never_evaluates_outside_its_trust_ball(mexhat, monkeypatch):
    # a Gauss-Newton trial outside the ball is halved before it is evaluated
    x0, trust = np.array([2.0, 0.0, 0.0]), 0.05
    points = []
    corrected_rows = structure_mod._corrected_rows

    def recording_rows(system):
        evaluate = corrected_rows(system)

        def recording(pts):
            points.extend(np.array(pts, dtype=float).reshape(-1, system.dim))
            return evaluate(pts)

        return recording

    monkeypatch.setattr(structure_mod, "_corrected_rows", recording_rows)
    assert refine_to_invariant_set(mexhat.system, x0, trust_radius=trust) is None
    assert len(points) > 1
    # central differences step at most sqrt(eps) max(1, |x_i|) off a point
    assert max(np.linalg.norm(p - x0) for p in points) <= trust + 1e-7


def _class_bits(cls):
    """A :class:`PointClass` with its floats as their exact bits."""
    return (cls.kind, cls.det_full.hex(), cls.grad_g_norm.hex(), cls.scale.hex(),
            cls.tol_inv, cls.tol_g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["rigid", "sombrero", "random_poly", "callable_metric"]),
       seed=st.integers(0, 2 ** 16),
       n_rows=st.integers(0, 5),
       critical_row=st.booleans(),
       floor=st.sampled_from([-1e-10, 0.9]),
       tols=st.sampled_from([(1e-9, 1e-6), (1e-12, 1e-8), (0.5, 0.3)]))
def test_stacked_classification_is_the_point_one(name, seed, n_rows, critical_row,
                                                 floor, tols):
    # the refinement accepts its points on one stacked frame: each class,
    # and each warning in row order, is classify_point's
    system = _gn_system(name, seed).system
    pts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n_rows, system.dim))
    if critical_row and n_rows:
        pts[0, :2] = 0.0  # the sombrero's axis, where G's gradient vanishes
    default = geodiss.gram.GRAM_NEGATIVITY_FLOOR
    geodiss.gram.GRAM_NEGATIVITY_FLOOR = floor
    try:
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = structure_mod._classify_rows(system, pts, *tols)
        with warnings.catch_warnings(record=True) as ref_warned:
            warnings.simplefilter("always")
            ref = [classify_point(system, p, *tols) for p in pts]
    finally:
        geodiss.gram.GRAM_NEGATIVITY_FLOOR = default
    assert [_class_bits(c) for c in got] == [_class_bits(c) for c in ref]
    assert ([(w.category, str(w.message)) for w in got_warned]
            == [(w.category, str(w.message)) for w in ref_warned])


def test_stability_verdicts_on_the_momentum_sphere(rigid):
    assert stability_classify(rigid.system, np.array([1.0, 0.0, 0.0])) \
        is Stability.ASYMPTOTICALLY_STABLE
    assert stability_classify(rigid.system, np.array([0.0, 1.0, 0.0])) \
        is Stability.UNSTABLE
    assert stability_classify(rigid.system, np.array([0.0, 0.0, 1.0])) \
        is Stability.UNSTABLE


def test_axis_equilibrium_of_the_sombrero_is_unstable(mexhat):
    assert stability_classify(mexhat.system, np.array([0.0, 0.0, 0.4])) \
        is Stability.UNSTABLE


def _one_at_a_time_stability_samples(system, x_e, leaf_samples, radius, fails):
    """The accepted probe points of a draw-and-project-one-at-a-time loop.

    ``fails(j)`` says whether the j-th projected candidate fails.
    """
    target = system.leaf_value(x_e)
    basis = leaf_tangent_basis(system, x_e)
    free_dim = basis.shape[0]
    rng = np.random.default_rng(structure_mod._PROBE_SEED)
    accepted = []
    attempts = projected = 0
    while len(accepted) < leaf_samples and attempts < 20 * leaf_samples:
        attempts += 1
        direction = basis.T @ rng.normal(size=free_dim)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            continue
        r = radius * rng.uniform() ** (1.0 / free_dim)
        projected += 1
        if fails(projected - 1):
            continue
        try:
            y = project_to_leaf(system, x_e + (r / nrm) * direction, target)
        except LeafProjectionFailure:
            continue
        dist = float(np.linalg.norm(y - x_e))
        if dist < 1e-12 or dist > 2.0 * radius:
            continue
        accepted.append(y.tobytes())
    return accepted, projected


@pytest.mark.parametrize("failing", ["none", "every_third", "all"])
@pytest.mark.parametrize("case", ["rigid", "sombrero", "sphere4"])
def test_stability_probes_are_the_one_at_a_time_draw(rigid, mexhat, monkeypatch,
                                                     case, failing):
    # candidates are drawn in the loop's order, projected in chunks of the
    # still-missing count and accepted in order: the probe points, and so
    # the verdict, are bitwise those of one projection per draw, and a
    # failing projection costs an attempt as before
    if case == "rigid":
        system, x_e = rigid.system, np.array([0.0, 1.0, 0.0])
    elif case == "sombrero":
        system, x_e = mexhat.system, np.array([0.0, 0.0, 0.4])
    else:
        weights = np.array([0.5, 1.0, 1.5, 2.0])
        system = DissipativeSystem(
            X=VectorField(4, lambda x: np.zeros(4)),
            conserved=(ScalarField(4, lambda x: 0.5 * float(x @ x),
                                   differential=lambda x: np.array(x, dtype=float)),),
            dissipated=ScalarField(4, lambda x: float(weights @ (x * x)),
                                   differential=lambda x: 2.0 * weights * x),
            metric=MetricField.euclidean(4))
        x_e = np.eye(4)[0]
    fails = {"none": lambda j: False, "every_third": lambda j: j % 3 == 0,
             "all": lambda j: True}[failing]
    leaf_samples, radius = 12, 0.3
    expected, n_projected = _one_at_a_time_stability_samples(
        system, x_e, leaf_samples, radius, fails)

    rows_seen = []
    project = structure_mod._project_rows

    def failing_rows(system, pts, leaf_value):
        y, converged, degenerate = project(system, pts, leaf_value)
        for i in range(len(pts)):
            if fails(len(rows_seen)):
                converged[i] = False
            rows_seen.append(i)
        return y, converged, degenerate

    got = []
    classify = structure_mod._classify_rows

    def recording_classify(system, pts, *args, **kwargs):
        got.extend(np.asarray(row).tobytes() for row in pts)
        return classify(system, pts, *args, **kwargs)

    monkeypatch.setattr(structure_mod, "_project_rows", failing_rows)
    monkeypatch.setattr(structure_mod, "_classify_rows", recording_classify)
    verdict = stability_classify(system, x_e, leaf_samples=leaf_samples, radius=radius)
    assert got == expected
    assert len(rows_seen) == n_projected
    if failing == "all":
        assert n_projected == 20 * leaf_samples
        assert verdict is Stability.UNDETERMINED
    else:
        assert len(got) == leaf_samples


def _per_sample_stability(system, equilibrium, leaf_samples=200, radius=0.1):
    """The stability probe with one point frame and one G call per sample:
    ``(deltas, isolated, verdict)``, the loop the stacked probe replaced."""
    x_e = np.asarray(equilibrium, dtype=float)
    target = system.leaf_value(x_e)
    g_e = system.dissipated(x_e)
    basis = leaf_tangent_basis(system, x_e)
    free_dim = basis.shape[0]
    rng = np.random.default_rng(structure_mod._PROBE_SEED)

    deltas = []
    isolated = True
    attempts = 0
    while len(deltas) < leaf_samples and attempts < 20 * leaf_samples:
        chunk = min(leaf_samples - len(deltas), 20 * leaf_samples - attempts)
        attempts += chunk
        starts = []
        for _ in range(chunk):
            direction = basis.T @ rng.normal(size=free_dim)
            nrm = float(np.linalg.norm(direction))
            if nrm == 0.0:
                continue
            r = radius * rng.uniform() ** (1.0 / free_dim)
            starts.append(x_e + (r / nrm) * direction)
        if not starts:
            continue
        ys, converged, _ = _project_rows(system, np.array(starts), target)
        for y in ys[converged]:
            dist = float(np.linalg.norm(y - x_e))
            if dist < 1e-12 or dist > 2.0 * radius:
                continue
            if classify_point(system, y).in_invariant_set:
                isolated = False
            deltas.append(system.dissipated(y) - g_e)
    if not deltas:
        return np.array(deltas), isolated, Stability.UNDETERMINED

    deltas = np.array(deltas)
    if isolated and np.all(deltas > 0.0):
        return deltas, isolated, Stability.ASYMPTOTICALLY_STABLE
    if isolated and np.any(deltas < 0.0):
        return deltas, isolated, Stability.UNSTABLE
    return deltas, isolated, Stability.UNDETERMINED


def _stability_cases():
    """(system, point) pairs: the catalog equilibria, a point whose samples
    meet the degeneracy set, and the roots ``find_equilibria`` finds on
    random polynomial systems."""
    rigid, mexhat = rigid_body(), mexican_hat()
    cases = [(rigid.system, x) for x in rigid.known_equilibria]
    cases += [(mexhat.system, np.zeros(3)), (mexhat.system, np.array([0.0, 0.0, 0.4]))]
    # the sphere/weights system of the 4-D basin runs: stable at +-e1,
    # unstable at the other axes
    weights = np.array([0.5, 1.0, 1.5, 2.0])
    sphere = DissipativeSystem(
        X=VectorField(4, lambda x: np.zeros(4)),
        conserved=(ScalarField(4, lambda x: 0.5 * float(x @ x),
                               differential=lambda x: np.array(x, dtype=float)),),
        dissipated=ScalarField(4, lambda x: float(weights @ (x * x)),
                               differential=lambda x: 2.0 * weights * x),
        metric=MetricField.euclidean(4))
    cases += [(sphere, sign * e) for e in np.eye(4) for sign in (1.0, -1.0)]
    # G = x1^4 is critical on the line x1 = 0, so some samples at the origin
    # lie on the degeneracy set
    quartic = DissipativeSystem(
        X=VectorField(2, lambda x: np.zeros(2)), conserved=(),
        dissipated=ScalarField(2, lambda x: float(x[0] ** 4),
                               differential=lambda x: np.array([4.0 * x[0] ** 3, 0.0])),
        metric=MetricField.euclidean(2))
    cases.append((quartic, np.zeros(2)))
    for dim, seed in ((2, 0), (2, 4), (3, 3), (3, 4)):
        system = random_poly(dim, 0, seed).system
        seeds = np.random.default_rng(seed).uniform(-1.5, 1.5, (16, dim))
        cases += [(system, r.location) for r in find_equilibria(system, seeds)[0]]
    return cases


def test_stability_probe_is_the_per_sample_loop_bitwise():
    # each chunk's accepted samples are classified on one stacked frame and
    # their G taken in one call: the deltas, the isolation flag and the
    # verdict are those of one frame and one G call per sample
    verdicts = set()
    for i, (system, x) in enumerate(_stability_cases()):
        deltas, isolated, verdict = _per_sample_stability(system, x)
        got, got_isolated = structure_mod._stability_samples(system, x, 200, 0.1)
        assert got.tobytes() == deltas.tobytes(), i
        assert got_isolated == isolated, i
        assert stability_classify(system, x) is verdict, i
        verdicts.add(verdict)
    assert verdicts == set(Stability)


def test_escape_test_agrees_with_the_verdicts(rigid):
    assert escape_test(rigid.system, np.array([0.0, 1.0, 0.0]),
                       horizon=60.0)
    assert not escape_test(rigid.system, np.array([1.0, 0.0, 0.0]),
                           horizon=60.0)


def test_leaf_diagnostics_hand_values(mexhat):
    d = leaf_diagnostics(mexhat.system, np.array([2.0, 0.0, 0.0]))
    assert d.conformal_factor == pytest.approx(1.0, abs=1e-12)
    assert d.leaf_grad_norm_sq == pytest.approx(36.0, rel=1e-12)
    assert d.g_rate == pytest.approx(-36.0, rel=1e-12)
    rep = d.as_report()
    assert set(rep) == {"conformalFactor", "leafGradNormSq", "gdot"}
    assert rep["gdot"] == d.g_rate


def test_leaf_diagnostics_rate_identity(rigid):
    from geodiss.gram import system_frame
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1.2, 1.2, size=(25, 3)):
        fr = system_frame(rigid.system, x)
        d = leaf_diagnostics(rigid.system, x)
        scale = max(fr.classification_scale(), 1e-300)
        assert abs(d.g_rate + d.leaf_grad_norm_sq) <= 1e-9 * scale
        assert abs(d.g_rate + fr.det_full()) <= 1e-9 * scale
        assert d.conformal_factor == pytest.approx(1.0 / fr.det_conserved(),
                                                   rel=1e-12)


def test_leaf_diagnostics_without_conserved_quantities():
    from geodiss.catalog import gradient_only
    system = gradient_only("quadratic").system
    x = np.array([0.6, -0.8])
    d = leaf_diagnostics(system, x)
    assert d.conformal_factor == 1.0
    assert d.leaf_grad_norm_sq == pytest.approx(1.0, rel=1e-12)
    assert d.g_rate == pytest.approx(-1.0, rel=1e-12)


def test_leaf_diagnostics_warns_once_and_takes_the_kernel_rate(monkeypatch):
    import warnings

    import geodiss.gram
    from geodiss.control import _corrected_rows

    # a positive floor makes the conserved determinant of two gradients warn:
    # once a call, as the corrected-flow kernel at the same point does
    monkeypatch.setattr(geodiss.gram, "GRAM_NEGATIVITY_FLOOR", 0.9)
    system = random_poly(4, 2, seed=3).system
    x = np.array([0.3, -0.2, 0.5, 0.1])

    def messages(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn()
        return out, [str(w.message) for w in caught]

    d, warned = messages(lambda: leaf_diagnostics(system, x))
    (rhs, _, _), kernel_warned = messages(lambda: _corrected_rows(system)(x))
    assert len(warned) == 1 and warned == kernel_warned
    assert d.g_rate == float(system.dissipated.d(x) @ rhs)


def test_leaf_diagnostics_needs_a_regular_leaf(rigid):
    with pytest.raises(SingularLeaf):
        leaf_diagnostics(rigid.system, np.zeros(3))


def test_omega_probe_reaches_the_rim(mexhat):
    probe = omega_limit_probe(mexhat.system, np.array([2.0, 0.0, 0.0]),
                              horizon=40.0, inv_sampler=mexhat.inv_sampler)
    assert probe.final_distance <= 1e-6
    assert probe.monotone_tail
    assert probe.late_g_spread <= 1e-10
    rep = probe.as_report()
    assert set(rep) == {"decaySeries", "finalDistance", "lateGSpread",
                        "monotoneTail"}
    assert len(rep["decaySeries"]) == probe.times.size


def test_omega_probe_without_an_analytic_sampler(mexhat):
    # the degeneracy set is sampled by refining jitter around the trajectory
    probe = omega_limit_probe(mexhat.system, np.array([2.0, 0.0, 0.0]),
                              horizon=40.0)
    assert probe.final_distance <= 1e-6
    assert probe.monotone_tail


def test_omega_probe_on_the_momentum_sphere(rigid):
    probe = omega_limit_probe(rigid.system, UNIT_3, horizon=80.0,
                              inv_sampler=rigid.inv_sampler)
    assert probe.final_distance <= 1e-4
    assert probe.monotone_tail


def test_omega_probe_from_inside_the_set_stays_there(mexhat):
    probe = omega_limit_probe(mexhat.system, np.array([1.0, 0.0, 0.0]),
                              horizon=10.0, inv_sampler=mexhat.inv_sampler)
    assert np.max(probe.distances) <= 1e-6
    assert probe.late_g_spread <= 1e-12


def test_critical_set_of_g_is_flow_invariant(mexhat):
    # trajectories started where the dissipated gradient vanishes keep it small
    for start in (np.array([1.0, 0.0, 0.2]), np.array([0.0, 0.0, 0.5])):
        tr = integrate(mexhat.system, start,
                       IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                                        t_end=10.0))
        worst = max(float(np.linalg.norm(mexhat.system.dissipated.d(p)))
                    for p in tr.states)
        assert worst <= 10.0 * DEFAULT_TOL_G


# The point-by-point Gauss-Newton that the lockstep loop replaced, verbatim:
# the reference each lockstep row is held to, bit for bit.
def _fd_jacobian(func, x, f0=None):
    f0 = func(x) if f0 is None else f0
    m = np.atleast_1d(f0).size
    jac = np.empty((m, x.size))
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    for i in range(x.size):
        h = sqrt_eps * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.atleast_1d(func(xp)) - np.atleast_1d(func(xm))) / (2.0 * h)
    return jac


def _leaf_gauss_newton(field, system, x0, target, max_iter, max_halvings,
                       residual_floor, trust_radius=np.inf, newton_tol=None):
    def residual(p):
        r = field(p)
        if system.k == 0:
            return r
        return np.concatenate([r, system.leaf_value(p) - target])

    x = x0.copy()
    r = residual(x)
    for _ in range(max_iter):
        rn = float(np.linalg.norm(r))
        if rn <= residual_floor:
            return x, r, True
        jac = _fd_jacobian(residual, x, f0=r)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if newton_tol is not None and rn <= newton_tol and (
                float(np.linalg.norm(step)) <= 1e-9 * (1.0 + float(np.linalg.norm(x)))):
            return x, r, True
        lam = 1.0
        for _ in range(max_halvings):
            x_new = x + lam * step
            lam *= 0.5
            if float(np.linalg.norm(x_new - x0)) > trust_radius:
                continue
            r_new = residual(x_new)
            if float(np.linalg.norm(r_new)) < rn:
                x, r = x_new, r_new
                break
        else:
            return x, r, False
    return x, r, False


# the two residual fields: the control field for refinement (floor 1e-14, no
# stationarity exit) and the corrected flow for equilibria (floor 0,
# newton_tol 1e-10), as a point field for the reference and as the slice of
# the evaluator's triple that the lockstep solver reads
_GN_FIELDS = {
    "refine": (lambda s: lambda p: _cofactor_from_frame(system_frame(s, p)),
               slice(1, None), 1e-14, None),
    "equilibria": (lambda s: lambda p: dissipated_rhs(s, p),
                   slice(None, None, 2), 0.0, 1e-10),
}


def _stacked_field(system, part):
    """The slice ``part`` of the corrected-flow evaluator's triple, as the
    solver's stacked field ``(values, ok)``."""
    evaluate = structure_mod._corrected_rows(system)
    return lambda pts: evaluate(pts)[part]


def _gn_parity(system, kind, x0s, targets, trusts, max_iter, max_halvings):
    """Run the lockstep loop and the reference on every row; assert bitwise
    equality, or the same exception as the first reference row that raises.
    Returns the reference results, or None when a row raised."""
    point_field, part, floor, newton_tol = _GN_FIELDS[kind]
    field = point_field(system)
    ref, first_exc = [], None
    for x0, target, trust in zip(x0s, targets, trusts):
        try:
            ref.append(_leaf_gauss_newton(field, system, x0, target, max_iter,
                                          max_halvings, floor, trust, newton_tol))
        except IdentityFailure as exc:
            first_exc = exc
            break
    args = (_stacked_field(system, part), system, x0s, targets, max_iter, max_halvings,
            floor, np.array(trusts), newton_tol)
    if first_exc is not None:
        with pytest.raises(type(first_exc)) as got:
            structure_mod._leaf_gauss_newton_rows(*args)
        assert str(got.value) == str(first_exc)
        return None
    xs, rs, converged = structure_mod._leaf_gauss_newton_rows(*args)
    for i, (x, r, ok) in enumerate(ref):
        assert xs[i].tobytes() == x.tobytes(), i
        assert rs[i].tobytes() == r.tobytes(), i
        assert converged[i] == ok, i
    return ref


def _gn_system(name, seed):
    if name == "rigid":
        return rigid_body(3.0, 2.0, 1.0)
    if name == "sombrero":
        return mexican_hat()
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    entry = random_poly(dim, int(rng.integers(0, dim)), seed=seed)
    if name == "callable_metric":
        return type(entry)(name=entry.name, system=with_callable_metric(entry.system))
    return entry


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(["rigid", "sombrero", "random_poly", "callable_metric"]),
       kind=st.sampled_from(["refine", "equilibria"]),
       seed=st.integers(0, 2 ** 16),
       n_rows=st.integers(1, 6),
       on_set=st.integers(0, 2),
       own_leaf=st.booleans(),
       max_iter=st.sampled_from([0, 1, 3, 25]),
       max_halvings=st.sampled_from([0, 1, 4, 20]))
@example(name="sombrero", kind="refine", seed=0, n_rows=6, on_set=2, own_leaf=True,
         max_iter=3, max_halvings=4)
@example(name="rigid", kind="equilibria", seed=1, n_rows=6, on_set=1, own_leaf=True,
         max_iter=25, max_halvings=20)
def test_lockstep_gauss_newton_rows_are_bitwise_their_solo_runs(
        name, kind, seed, n_rows, on_set, own_leaf, max_iter, max_halvings):
    entry = _gn_system(name, seed)
    system = entry.system
    rng = np.random.default_rng(seed)
    x0s = rng.uniform(-1.2, 1.2, size=(n_rows, system.dim))
    # rows on the degeneracy set itself, where a residual can meet the
    # floor on entry
    if entry.inv_sampler is not None and on_set:
        marks = entry.inv_sampler(system.leaf_value(x0s[0]), 8)
        x0s[:on_set] = marks[rng.integers(len(marks), size=on_set)][:n_rows]
    targets = np.array([system.leaf_value(x) for x in x0s]).reshape(n_rows, system.k)
    if not own_leaf:
        targets[:] = targets[0]
    # a ball no trial fits in, small and large balls, and none
    trusts = [[1e-12, 0.05, 0.5, np.inf][(seed + i) % 4] for i in range(n_rows)]
    _gn_parity(system, kind, x0s, targets, trusts, max_iter, max_halvings)


def _exit_kind(system, kind, x0, target, trust, max_iter, max_halvings, result):
    """How the reference run ended: at the floor on entry, converged later,
    with no trial inside the ball, with its halvings spent, or out of
    iterations."""
    point_field, _, floor, newton_tol = _GN_FIELDS[kind]
    field, calls = point_field(system), []

    def counting(p):
        calls.append(p)
        return field(p)

    x, _, converged = _leaf_gauss_newton(counting, system, x0, target, max_iter,
                                         max_halvings, floor, trust, newton_tol)
    assert x.tobytes() == result[0].tobytes()
    if converged:
        return "entry" if len(calls) == 1 else "converged"
    if len(calls) == 1 + 2 * x0.size and np.array_equal(x, x0):
        return "outside_ball"
    longer = _leaf_gauss_newton(field, system, x0, target, max_iter + 1,
                                max_halvings, floor, trust, newton_tol)
    return "max_iter" if not np.array_equal(longer[0], x) else "halvings_spent"


@pytest.mark.parametrize("kind", ["refine", "equilibria"])
def test_lockstep_gauss_newton_rows_cover_every_exit(kind, mexhat):
    # one batch whose rows end every way a run can end
    system = mexhat.system
    rng = np.random.default_rng(3)
    x0s = np.vstack([[1.0, 0.0, 0.3], [0.0, 0.0, 0.4],
                     rng.uniform(-1.2, 1.2, size=(22, 3))])
    targets = np.array([system.leaf_value(x) for x in x0s])
    trusts = [[np.inf, 1e-12, 0.05, 0.5][i % 4] for i in range(len(x0s))]
    ref = _gn_parity(system, kind, x0s, targets, trusts, 3, 4)
    kinds = {_exit_kind(system, kind, x0, t, trust, 3, 4, res)
             for x0, t, trust, res in zip(x0s, targets, trusts, ref)}
    assert {"entry", "outside_ball", "halvings_spent", "max_iter"} <= kinds


def _breaking_system(failure):
    """F = |x|^2 / 2 and G = x1^2 + 2 x2^2 + 3 x3^2 under the Euclidean
    metric, except wherever x1 > 1: there G's differential is NaN, or the
    metric is indefinite."""
    def g_diff(p):
        if failure == "nan_differential" and p[0] > 1.0:
            return np.full(3, np.nan)
        return np.array([2.0, 4.0, 6.0]) * p

    def metric(p):
        return np.diag([1.0, 1.0, -1.0 if failure == "indefinite_metric" and p[0] > 1.0
                        else 1.0])

    return DissipativeSystem(
        X=VectorField(3, lambda p: np.zeros(3)),
        conserved=(ScalarField(3, lambda p: 0.5 * float(p @ p),
                               differential=lambda p: p.copy()),),
        dissipated=ScalarField(3, lambda p: float(np.array([1.0, 2.0, 3.0]) @ (p * p)),
                               differential=g_diff),
        metric=MetricField(3, metric))


@pytest.mark.parametrize("failure", [
    (NonFiniteValue, "nan_differential"), (NonPositiveDefiniteMetric, "indefinite_metric")])
@pytest.mark.parametrize("kind", ["refine", "equilibria"])
def test_lockstep_gauss_newton_raises_the_first_failing_row(kind, failure):
    # row 2 fails at its start, before row 1 fails at a central-difference
    # point; a run over the rows in turn meets row 1's failure first
    error, failure = failure
    system = _breaking_system(failure)
    x0s = np.array([[0.3, 0.4, 0.5], [1.0 - 1e-9, 0.1, 0.0], [1.5, 0.0, 0.0]])
    targets = np.array([system.leaf_value(x) for x in x0s])
    assert _gn_parity(system, kind, x0s, targets, [0.5, 0.5, 0.5], 25, 20) is None
    assert _gn_parity(system, kind, x0s[[0, 2]], targets[[0, 2]], [0.5, 0.5], 25, 20) is None
    # the message names row 1's point x + h e_1, not row 2's start
    _, part, floor, newton_tol = _GN_FIELDS[kind]
    with pytest.raises(error, match=r"at \[1\.00000001"):
        structure_mod._leaf_gauss_newton_rows(_stacked_field(system, part), system, x0s, targets,
                                              25, 20, floor, 0.5, newton_tol)


@pytest.mark.parametrize("max_iter", [60, 3])
@pytest.mark.parametrize("name", ["rigid", "sombrero"])
def test_find_equilibria_is_the_point_by_point_search(name, max_iter, rigid, mexhat):
    entry = rigid if name == "rigid" else mexhat
    system = entry.system
    # each known equilibrium twice, so that deduplication has work to do
    seeds = 2 * list(entry.known_equilibria) + list(
        np.random.default_rng(0).uniform(-1.5, 1.5, size=(64, 3)))
    reports, unresolved = find_equilibria(system, seeds, max_iter=max_iter)
    roots, ref_unresolved = [], []
    for seed in seeds:
        x, r, converged = _leaf_gauss_newton(
            lambda p: dissipated_rhs(system, p), system, seed, system.leaf_value(seed),
            max_iter=max_iter, max_halvings=25, residual_floor=0.0, newton_tol=1e-10)
        if not converged:
            ref_unresolved.append(seed)
        elif not any(np.linalg.norm(x - r_) <= 1e-6 for r_, _ in roots):
            roots.append((x, float(np.linalg.norm(r[:3]))))
    assert roots and len(roots) < len(seeds) - len(ref_unresolved)
    assert bool(ref_unresolved) == (max_iter == 3)
    assert [(rep.location.tobytes(), rep.residual) for rep in reports] == [
        (x.tobytes(), rn) for x, rn in roots]
    assert [u.tobytes() for u in unresolved] == [u.tobytes() for u in ref_unresolved]
