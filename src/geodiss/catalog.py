"""Reference systems with analytically known structure.

Each entry bundles a :class:`DissipativeSystem` with whatever ground truth is
available for it: equilibria, a description and sampler of the degeneracy set
(points where the stacked gradients lose rank), and the critical sublevel
thresholds where basin certification stops working. All numbers here are
derived analytically, never from the code under test.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from .errors import BadInertia, ConfigError
from .fields import DissipativeSystem, MetricField, ScalarField, VectorField
from .poly import random_polynomial, vector_values


@dataclass(frozen=True)
class CatalogEntry:
    """A named system plus its analytically known structure."""

    name: str
    system: DissipativeSystem
    known_equilibria: tuple = ()
    inv_description: str = ""
    # sampler(leaf_value, count) -> points of the degeneracy set on that leaf
    inv_sampler: Callable | None = None
    known_saddle_levels: tuple = ()
    # G's minimum on the leaf the equilibria are listed for, where known
    known_min_level: float | None = None
    identity_only: bool = False
    notes: str = ""


# the columns of a cross product's first and second factors: column j of
# a x b is a[I1[j]] b[I2[j]] - a[I2[j]] b[I1[j]]
_I1 = np.array([1, 2, 0])
_I2 = np.array([2, 0, 1])


def rigid_body(i1: float = 3.0, i2: float = 2.0, i3: float = 1.0) -> CatalogEntry:
    """Free rigid body in angular-momentum coordinates, Euclidean metric.

    State m with dynamics m x (I^-1 m); conserved total squared momentum
    F = |m|^2 / 2, dissipated kinetic energy G = m . I^-1 m / 2. Inertia
    moments must be positive and strictly ordered i1 > i2 > i3.

    The degeneracy set is the union of the three principal axes: there the
    momentum is an eigenvector of I^-1 so both gradients align. On the unit
    momentum sphere the energy has minimum 1/(2 i1) at the major axis, a
    saddle 1/(2 i2) at the middle axis, and maximum 1/(2 i3) at the minor
    axis, which makes 1/(2 i2) the certification threshold.
    """
    if not (i1 > i2 > i3 > 0):
        raise BadInertia(f"need i1 > i2 > i3 > 0, got ({i1}, {i2}, {i3})")
    inertia = np.array([i1, i2, i3])
    j1, j2, j3 = (float(i) for i in inertia)

    def euler(m):
        if m.ndim == 1:
            # np.cross(m, m / inertia) written out on Python floats: the same
            # products and differences, without np.cross's per-call overhead
            a0, a1, a2 = m.tolist()
            b0, b1, b2 = a0 / j1, a1 / j2, a2 / j3
            return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
        # a stack: the same products and differences, on cyclically shifted columns
        b = m / inertia
        return (m.take(_I1, axis=1) * b.take(_I2, axis=1)
                - m.take(_I2, axis=1) * b.take(_I1, axis=1))

    # a point or a stack: a matmul takes each row's dot as the 1-D dot does
    def momentum_sq(m):
        return 0.5 * (m[..., None, :] @ m[..., :, None])[..., 0, 0]

    def kinetic_energy(m):
        return 0.5 * (m[..., None, :] @ (m / inertia)[..., :, None])[..., 0, 0]

    X = VectorField(3, euler, label="euler", stacked=True)
    F = ScalarField(3, momentum_sq, differential=lambda m: m.copy(),
                    label="momentum_sq", stacked=True)
    G = ScalarField(3, kinetic_energy, differential=lambda m: m / inertia,
                    label="kinetic_energy", stacked=True)
    system = DissipativeSystem(X=X, conserved=(F,), dissipated=G,
                               metric=MetricField.euclidean(3))

    def axis_points(leaf_value, count=6):
        radius = float(np.sqrt(max(2.0 * np.asarray(leaf_value).ravel()[0], 0.0)))
        pts = []
        for axis in range(3):
            for sgn in (1.0, -1.0):
                p = np.zeros(3)
                p[axis] = sgn * radius
                pts.append(p)
        return np.array(pts)

    unit_equilibria = tuple(
        sgn * np.eye(3)[axis] for axis in range(3) for sgn in (1.0, -1.0)
    )
    return CatalogEntry(
        name=f"rigid_body:{i1:g},{i2:g},{i3:g}",
        system=system,
        known_equilibria=unit_equilibria,
        inv_description="union of the three principal axes",
        inv_sampler=axis_points,
        known_saddle_levels=(0.5 / i2,),
        notes=(
            "equilibria listed for the unit momentum sphere (scale by radius); "
            f"energy levels there: min {0.5 / i1:.6g}, saddle {0.5 / i2:.6g}, "
            f"max {0.5 / i3:.6g}"
        ),
    )


def mexican_hat() -> CatalogEntry:
    """Planar rotation with a sombrero-profile dissipated quantity.

    X = (-y, x, 0), conserved height F = z, dissipated G = (x^2+y^2-1)^2 / 4.
    On every horizontal plane the degeneracy set is the axis point plus the
    unit circle; squared radius follows the logistic law d(r^2)/dt =
    2 r^2 (1 - r^2) along the corrected flow while the angle advances at unit
    rate. G at the axis is 1/4, which is the certification threshold.
    """
    # each function takes a point or an (m, 3) stack of points, for which
    # it does the same arithmetic column by column; the slopes, which a
    # long solo integration calls at every stage, keep a point branch
    def rotation(p):
        if p.ndim == 1:
            return np.array([-p[1], p[0], 0.0])
        out = np.zeros(p.shape)
        out[:, 0] = -p[:, 1]
        out[:, 1] = p[:, 0]
        return out

    def height(p):
        return p[..., 2].copy()

    def height_diff(p):
        if p.ndim == 1:
            return np.array([0.0, 0.0, 1.0])
        out = np.zeros(p.shape)
        out[:, 2] = 1.0
        return out

    def g_val(p):
        s = p[..., 0] * p[..., 0] + p[..., 1] * p[..., 1] - 1.0
        return 0.25 * s * s

    def g_diff(p):
        if p.ndim == 1:
            # on Python floats: the same products and sums, without numpy
            # scalar overhead
            x, y, _ = p.tolist()
            s = x * x + y * y - 1.0
            return np.array([x * s, y * s, 0.0])
        s = p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1] - 1.0
        out = np.zeros(p.shape)
        out[:, 0] = p[:, 0] * s
        out[:, 1] = p[:, 1] * s
        return out

    X = VectorField(3, rotation, label="rotation", stacked=True)
    F = ScalarField(3, height, differential=height_diff, label="height", stacked=True)
    G = ScalarField(3, g_val, differential=g_diff, label="rim_potential", stacked=True)
    system = DissipativeSystem(X=X, conserved=(F,), dissipated=G,
                               metric=MetricField.euclidean(3))

    def ring_and_axis(leaf_value, count=64):
        z = float(np.asarray(leaf_value).ravel()[0])
        count = max(int(count), 2)
        angles = np.linspace(0.0, 2.0 * np.pi, count - 1, endpoint=False)
        pts = np.zeros((count, 3))
        pts[0] = (0.0, 0.0, z)
        pts[1:, 0] = np.cos(angles)
        pts[1:, 1] = np.sin(angles)
        pts[1:, 2] = z
        return pts

    return CatalogEntry(
        name="mexican_hat",
        system=system,
        known_equilibria=(np.zeros(3),),
        inv_description="vertical axis plus the unit cylinder",
        inv_sampler=ring_and_axis,
        known_saddle_levels=(0.25,),
        notes="axis points are equilibria; the unit circle on each plane is a periodic orbit",
    )


def _half_square(x):
    # a point or a stack: a matmul takes each row's dot as the 1-D dot does
    return 0.5 * (x[..., None, :] @ x[..., :, None])[..., 0, 0]


_GRADIENT_ONLY_PRESETS = {
    "quadratic": (
        2,
        _half_square,
        lambda x: x.copy(),
        "half squared norm in the plane; descent is x(t) = exp(-t) x0",
    ),
}


def gradient_only(target: str | ScalarField = "quadratic") -> CatalogEntry:
    """No conservative dynamics and no conserved quantities: pure descent of G.

    Accepts a preset name or any :class:`ScalarField` to descend; with a
    custom field no equilibria or degeneracy samples are claimed.
    """
    if isinstance(target, ScalarField):
        dim = target.dim
        X = VectorField(dim, lambda x: np.zeros(x.shape), label="zero", stacked=True)
        system = DissipativeSystem(X=X, conserved=(), dissipated=target,
                                   metric=MetricField.euclidean(dim))
        return CatalogEntry(
            name=f"gradient_only:{target.label or 'custom'}",
            system=system,
            inv_description="critical points of the dissipated quantity",
            notes="descent of a user-supplied field",
        )
    if target not in _GRADIENT_ONLY_PRESETS:
        raise ConfigError(
            f"unknown gradient_only preset {target!r}; choices: {sorted(_GRADIENT_ONLY_PRESETS)}"
        )
    dim, val, diff, note = _GRADIENT_ONLY_PRESETS[target]
    X = VectorField(dim, lambda x: np.zeros(x.shape), label="zero", stacked=True)
    G = ScalarField(dim, val, differential=diff, label=f"descent_{target}", stacked=True)
    system = DissipativeSystem(X=X, conserved=(), dissipated=G,
                               metric=MetricField.euclidean(dim))
    return CatalogEntry(
        name=f"gradient_only:{target}",
        system=system,
        known_equilibria=(np.zeros(dim),),
        inv_description="critical points of the dissipated quantity",
        inv_sampler=lambda leaf_value, count=1: np.zeros((1, dim)),
        notes=note,
    )


def rotated_quadric(n: int, seed: int = 0) -> CatalogEntry:
    """A seeded rotated quadric on spheres, whose certification threshold
    is known in closed form.

    The seed draws the weights a = sort(uniform(0.5, 2, n)) and Q from the
    QR factorization of a normal n x n draw. F = |x|^2 / 2 is conserved and
    G = x^T A x / 2, with A = Q diag(a) Q^T, is dissipated, with X = 0
    under the Euclidean metric. The degeneracy set is the union of the
    eigenvector lines of A. On the unit sphere G has its minimum a1 / 2 at
    +-Q e1 and the value a_j / 2 at +-Q e_j, so the first level past the
    minimum, a2 / 2, is the certification threshold of Q e1: a saddle for
    n >= 3, the maximum for n = 2.
    """
    if not n >= 2:
        raise ConfigError(f"rotated_quadric needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    a = np.sort(rng.uniform(0.5, 2.0, n))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = q @ np.diag(a) @ q.T
    A = 0.5 * (A + A.T)
    system = DissipativeSystem(
        X=VectorField(n, lambda x: np.zeros(x.shape), label="zero", stacked=True),
        conserved=(ScalarField(n, lambda x: 0.5 * np.sum(x * x, axis=-1),
                               differential=lambda x: x.copy(), label="half_square",
                               stacked=True),),
        dissipated=ScalarField(n, lambda x: 0.5 * ((x @ A) * x).sum(-1),
                               differential=lambda x: x @ A, label="quadric", stacked=True),
        metric=MetricField.euclidean(n))
    # +-Q e_j in order of the weights, on the unit sphere
    axes = np.stack([sign * q[:, j] for j in range(n) for sign in (1.0, -1.0)])

    def axis_points(leaf_value, count=2 * n):
        return float(np.sqrt(max(2.0 * np.asarray(leaf_value).ravel()[0], 0.0))) * axes

    return CatalogEntry(
        name=f"rotated_quadric:{n},{seed}",
        system=system,
        known_equilibria=tuple(axes),
        inv_description="union of the eigenvector lines of A",
        inv_sampler=axis_points,
        known_saddle_levels=(0.5 * float(a[1]),),
        known_min_level=0.5 * float(a[0]),
        notes=("equilibria listed for the unit sphere (scale by radius); G there is "
               f"a_j / 2 at +-Q e_j, a = {a.tolist()}"),
    )


def random_poly(dim: int, k: int, seed: int) -> CatalogEntry:
    """Seeded random polynomial system for identity tests.

    Degree <= 3 scalar fields with exact differentials and a constant random
    SPD metric A A^T + dim * Id. The vector field is an arbitrary random
    polynomial field, so nothing is actually conserved along it: entries are
    flagged identity-only and must not be integrated as dissipative systems.
    """
    if not (0 <= k <= dim - 1):
        raise ConfigError(f"need 0 <= k <= dim-1, got k={k}, dim={dim}")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    metric = MetricField.constant(a @ a.T + dim * np.eye(dim))

    def poly_field(label: str) -> ScalarField:
        p = random_polynomial(dim, 3, rng)
        return ScalarField(dim, p.value, differential=p.diff, label=label, stacked=True)

    conserved = tuple(poly_field(f"f{i + 1}") for i in range(k))
    dissipated = poly_field("g")
    x_polys = [random_polynomial(dim, 2, rng, scale=0.5) for _ in range(dim)]
    X = VectorField(dim, lambda x: vector_values(x_polys, x),
                    label="random_poly_field", stacked=True)
    system = DissipativeSystem(X=X, conserved=conserved, dissipated=dissipated,
                               metric=metric)
    return CatalogEntry(
        name=f"random_poly:{dim},{k},{seed}",
        system=system,
        identity_only=True,
        notes="random fields; use for algebraic identity tests only",
    )


def from_name(name: str) -> CatalogEntry:
    """Resolve a catalog address like 'rigid_body:3,2,1' or 'mexican_hat'."""
    head, _, arg = name.partition(":")
    try:
        if head == "rigid_body":
            vals = [float(v) for v in arg.split(",")] if arg else []
            return rigid_body(*vals)
        if head == "mexican_hat":
            if arg:
                raise ConfigError("mexican_hat takes no parameters")
            return mexican_hat()
        if head == "gradient_only":
            return gradient_only(arg or "quadratic")
        if head == "rotated_quadric":
            n_s, seed_s = arg.split(",")
            return rotated_quadric(int(n_s), int(seed_s))
        if head == "random_poly":
            dim_s, k_s, seed_s = arg.split(",")
            return random_poly(int(dim_s), int(k_s), int(seed_s))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"could not parse catalog address {name!r}: {exc}") from exc
    raise ConfigError(f"unknown catalog system {head!r}")
