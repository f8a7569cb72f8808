"""Shared fixtures and deterministic random-system generators."""
import numpy as np
import pytest

import geodiss.fields
import geodiss.integrators
from geodiss.catalog import mexican_hat, random_poly, rigid_body
from geodiss.fields import (
    DissipativeSystem,
    MetricField,
    ScalarField,
    VectorField,
)
from geodiss.poly import random_polynomial


@pytest.fixture(scope="session")
def rigid():
    """Free rigid body with inertia (3, 2, 1)."""
    return rigid_body(3.0, 2.0, 1.0)


@pytest.fixture(scope="session")
def mexhat():
    """Rotation plus sombrero-profile dissipation."""
    return mexican_hat()


@pytest.fixture
def refused_leaf_projection(monkeypatch):
    """The leaf re-projection refuses to move any point.

    ``_project_rows`` reports a row unconverged whenever the real projection
    would move the point; a point already on its leaf, which the real
    projection returns as it is, passes. It is refused where the
    integrators' loop calls it and where ``geodiss.fields.project_to_leaf``
    (the reference loop's re-projection) calls it; the other modules that
    import the projection keep the real one.
    """
    real_rows = geodiss.fields._project_rows

    def refuse_rows(system, pts, leaf_value, tol=1e-12, max_iter=50):
        y, converged, degenerate = real_rows(system, pts, leaf_value, tol, max_iter)
        return y, converged & np.all(y == pts, axis=1), degenerate

    monkeypatch.setattr(geodiss.integrators, "_project_rows", refuse_rows)
    monkeypatch.setattr(geodiss.fields, "_project_rows", refuse_rows)


def seeded_pair(i: int):
    """The i-th deterministic (system, probe point) pair for identity sweeps.

    Dimension 2..6, number of conserved quantities 0..dim-1, random SPD
    metric, degree-3 polynomial fields; the probe point is drawn from the
    same stream so the whole pair is a function of ``i`` alone.
    """
    rng = np.random.default_rng(1000 + i)
    dim = int(rng.integers(2, 7))
    k = int(rng.integers(0, dim))
    entry = random_poly(dim, k, seed=int(rng.integers(0, 2 ** 31 - 1)))
    x = rng.uniform(-1.0, 1.0, size=dim)
    return entry.system, x


def with_callable_metric(system):
    """The system under a point-dependent SPD metric, evaluated point by point."""
    n = system.dim
    base = np.eye(n) + 0.3 * np.ones((n, n))
    return DissipativeSystem(
        X=system.X, conserved=system.conserved, dissipated=system.dissipated,
        metric=MetricField(n, lambda p: base + np.diag(p * p), label="callable"))


def euclid3_pair(i: int):
    """dim=3, k=1, Euclidean-metric pair where the double cross product
    of the two differentials is an independent ground truth for the
    control field."""
    rng = np.random.default_rng(5000 + i)
    pf = random_polynomial(3, 3, rng)
    pg = random_polynomial(3, 3, rng)
    F = ScalarField(3, pf.value, differential=pf.diff, label="f1")
    G = ScalarField(3, pg.value, differential=pg.diff, label="g")
    system = DissipativeSystem(
        X=VectorField(3, lambda x: np.zeros(3), label="zero"),
        conserved=(F,), dissipated=G, metric=MetricField.euclidean(3))
    x = rng.uniform(-1.0, 1.0, size=3)
    return system, x


def closed_form_sombrero(x0, t):
    """Exact corrected-flow solution for the sombrero system.

    The squared radius follows the logistic law u' = 2 u (1 - u), solved by
    u(t) = 1 / (1 + (1/u0 - 1) exp(-2t)); the angle advances at unit rate and
    the height is conserved. Used as an integrator oracle independent of any
    numerical scheme.
    """
    x0 = np.asarray(x0, dtype=float)
    r0 = float(np.hypot(x0[0], x0[1]))
    th0 = float(np.arctan2(x0[1], x0[0]))
    r = 1.0 / np.sqrt(1.0 + (1.0 / r0 ** 2 - 1.0) * np.exp(-2.0 * t))
    th = th0 + t
    return np.array([r * np.cos(th), r * np.sin(th), x0[2]])
