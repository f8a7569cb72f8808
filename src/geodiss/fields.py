"""Scalar fields, vector fields, and Riemannian metrics on a single R^n chart.

Everything downstream works with a :class:`DissipativeSystem`: a conservative
vector field X, a list of conserved quantities, one quantity to be dissipated,
and a metric. Gradients are metric gradients, i.e. the solve g(x) u = df(x).

A :class:`ScalarField` evaluates at one point or, through ``values`` and
``diffs``, at an (m, n) stack of points, and a :class:`VectorField` through
``values``. A field declared ``stacked`` (the polynomial and catalog fields)
is called once for the whole stack; a point-only callable is looped over
the rows there, once. Either way each row gives the bits of the point call.

The paper's premise, that X annihilates every conserved quantity and the
dissipated one, is evaluated here once, ``_premise_rows``, for a stack of
points: :func:`validate_conservation` reports it, ``geodiss verify`` scales
it, and the certificates refuse a point outside it (``_require_premise``).

The one leaf projection of the package lives here, next to the leaf values
it restores, below the integrator that re-projects with it and the
structure probes and leaf tables that sample leaves with it. It is a
lockstep Newton iteration over a stack of points, ``_project_rows``;
:func:`project_to_leaf` is that iteration on a batch of one.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LeafProjectionFailure,
    NonFiniteValue,
    NonPositiveDefiniteMetric,
    PremiseViolation,
)

# Central-difference step follows the usual cube-root-of-eps rule, scaled per
# coordinate so large coordinates do not lose all their significant digits.
_CBRT_EPS = float(np.cbrt(np.finfo(float).eps))
# a leaf residual below this times the largest |leaf value| is roundoff
_LEAF_ROUNDOFF = 4.0 * np.finfo(float).eps
# the largest scaled premise residual |df . X| / (1 + |df| |X|) that a
# certificate (_require_premise) and `geodiss verify`'s conservation check accept
_PREMISE_TOL = 1e-9


def as_point(x, dim: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (dim,):
        raise DimensionMismatch(f"expected a point of dimension {dim}, got shape {p.shape}")
    return p


def as_stack(x, dim: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim != 2 or p.shape[1] != dim:
        raise DimensionMismatch(
            f"expected an (m, {dim}) stack of points, got shape {p.shape}")
    return p


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bitwise ``np.linalg.norm`` of the row.

    That norm is sqrt(x @ x), and a matmul on stacks evaluates each row's
    x @ x as that dot does; ``norm(axis=1)`` sums in another order.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def central_difference(value: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Second-order central differences, step cbrt(eps) * max(1, |x_i|)."""
    out = np.empty(x.size)
    for i in range(x.size):
        h = _CBRT_EPS * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (float(value(xp)) - float(value(xm))) / (2.0 * h)
    return out


@dataclass(frozen=True)
class ScalarField:
    """Smooth scalar function with an optional analytic differential.

    When ``differential`` is None the differential falls back to central
    finite differences; one-sided differences are never used. A ``stacked``
    field's ``value`` and ``differential`` also accept an (m, dim) stack and
    return (m,) values and (m, dim) differentials.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    differential: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    stacked: bool = False

    def __call__(self, x) -> float:
        return float(self.value(as_point(x, self.dim)))

    def d(self, x) -> np.ndarray:
        return self._d_at(as_point(x, self.dim))

    def _d_at(self, p: np.ndarray) -> np.ndarray:
        """:meth:`d` at a point already checked by :func:`as_point`."""
        return self._d_bound()(p)

    def _d_bound(self) -> Callable[[np.ndarray], np.ndarray]:
        """:meth:`_d_at` with the field's attributes looked up once, for a
        caller that takes the differential at many points: central
        differences without an analytic differential, else the differential
        as a float array, refused unless its shape is (dim,)."""
        value, differential = self.value, self.differential
        if differential is None:
            return lambda p: central_difference(value, p)
        shape, label = (self.dim,), self.label or "field"

        def d_at(p):
            df = np.asarray(differential(p), dtype=float)
            if df.shape != shape:
                raise DimensionMismatch(f"differential of {label} returned shape {df.shape}")
            return df

        return d_at

    def values(self, pts) -> np.ndarray:
        """Values at each row of an (m, dim) stack, bitwise ``self(row)``."""
        p = as_stack(pts, self.dim)
        if not self.stacked:
            return np.array([float(self.value(row)) for row in p], dtype=float)
        out = np.asarray(self.value(p), dtype=float)
        if out.shape != (len(p),):
            raise DimensionMismatch(
                f"{self.label or 'field'} returned shape {out.shape} for {len(p)} points")
        return out

    def diffs(self, pts) -> np.ndarray:
        """Differentials at each row of an (m, dim) stack, bitwise ``self.d(row)``."""
        return self._diffs_at(as_stack(pts, self.dim))

    def _diffs_at(self, p: np.ndarray) -> np.ndarray:
        """:meth:`diffs` at a stack already checked by :func:`as_stack`."""
        if not self.stacked or self.differential is None:
            d_at = self._d_bound()
            return np.array([d_at(row) for row in p]).reshape(p.shape)
        df = np.asarray(self.differential(p), dtype=float)
        if df.shape != p.shape:
            raise DimensionMismatch(
                f"differential of {self.label or 'field'} returned shape {df.shape} "
                f"for {len(p)} points")
        return df


@dataclass(frozen=True)
class VectorField:
    """Vector field on the chart; evaluation must be deterministic.

    A ``stacked`` field's ``func`` also accepts an (m, dim) stack and returns
    the (m, dim) values.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    stacked: bool = False

    def __call__(self, x) -> np.ndarray:
        return self._at(as_point(x, self.dim))

    def _at(self, p: np.ndarray) -> np.ndarray:
        """The field at a point already checked by :func:`as_point`."""
        v = np.asarray(self.func(p), dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatch(
                f"vector field {self.label or ''} returned shape {v.shape}"
            )
        return v

    def values(self, pts) -> np.ndarray:
        """The field at each row of an (m, dim) stack, bitwise ``self(row)``."""
        return self._values_at(as_stack(pts, self.dim))

    def _values_at(self, p: np.ndarray) -> np.ndarray:
        """:meth:`values` at a stack already checked by :func:`as_stack`."""
        if not self.stacked:
            return np.array([self._at(row) for row in p]).reshape(p.shape)
        v = np.asarray(self.func(p), dtype=float)
        if v.shape != p.shape:
            raise DimensionMismatch(
                f"vector field {self.label or ''} returned shape {v.shape} "
                f"for {len(p)} points")
        return v


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric given by its matrix in chart coordinates.

    The raw matrix is symmetrized on evaluation; positive definiteness is
    checked with a Cholesky factorization and violations are errors.

    A metric marked ``is_constant`` (as built by :meth:`euclidean` and
    :meth:`constant`) is symmetrized and checked once, on first use, and the
    checked matrix is cached read-only together with its inverse; a callable
    metric is evaluated and checked at every point.
    """

    dim: int
    matrix: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    is_constant: bool = False

    def _checked(self, p: np.ndarray) -> np.ndarray:
        raw = np.asarray(self.matrix(p), dtype=float)
        if raw.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"metric returned shape {raw.shape}")
        sym = 0.5 * (raw + raw.T)
        try:
            np.linalg.cholesky(sym)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveDefiniteMetric(
                f"metric not positive definite at {p.tolist()}"
            ) from exc
        return sym

    def constant_pair(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Checked matrix and inverse of a constant metric, computed on first use.

        A failed check is not cached, so every later call raises again.
        """
        pair = self.__dict__.get("_constant_pair")
        if pair is None:
            sym = self._checked(p)
            inv = np.linalg.inv(sym)
            inv = 0.5 * (inv + inv.T)
            sym.setflags(write=False)
            inv.setflags(write=False)
            pair = (sym, inv)
            # frozen dataclass: a cache, not a field, so eq, repr and
            # dataclasses.replace ignore it
            object.__setattr__(self, "_constant_pair", pair)
        return pair

    def at(self, x) -> np.ndarray:
        p = as_point(x, self.dim)
        if self.is_constant:
            return self.constant_pair(p)[0]
        return self._checked(p)

    @staticmethod
    def euclidean(dim: int) -> "MetricField":
        eye = np.eye(dim)
        return MetricField(dim, lambda _x: eye, label="euclidean", is_constant=True)

    @staticmethod
    def constant(mat) -> "MetricField":
        m = np.array(mat, dtype=float)  # a copy: later edits of mat change nothing
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"constant metric must be square, got {m.shape}")
        return MetricField(m.shape[0], lambda _x: m, label="constant", is_constant=True)


def gradient(f: ScalarField, metric: MetricField, x) -> np.ndarray:
    """Metric gradient: the solution u of g(x) u = df(x)."""
    p = as_point(x, f.dim)
    df = f.d(p)
    if not np.all(np.isfinite(df)):
        raise NonFiniteValue(f"differential of {f.label or 'field'} not finite at {p.tolist()}")
    gmat = metric.at(p)
    return np.linalg.solve(gmat, df)


def inner(metric: MetricField, x, u, v) -> float:
    """Metric inner product of two tangent vectors at x."""
    p = as_point(x, metric.dim)
    uu = as_point(u, metric.dim)
    vv = as_point(v, metric.dim)
    return float(uu @ metric.at(p) @ vv)


@dataclass
class DissipativeSystem:
    """Conservative field X plus conserved quantities, a dissipated quantity, and a metric.

    The count of conserved quantities may be zero (pure gradient descent of
    the dissipated quantity) and must stay below the ambient dimension.
    """

    X: VectorField
    conserved: tuple[ScalarField, ...]
    dissipated: ScalarField
    metric: MetricField

    def __post_init__(self):
        self.conserved = tuple(self.conserved)
        dims = {self.X.dim, self.dissipated.dim, self.metric.dim}
        dims.update(f.dim for f in self.conserved)
        if len(dims) != 1:
            raise DimensionMismatch(f"inconsistent dimensions in system: {sorted(dims)}")
        if not (0 <= self.k <= self.dim - 1):
            raise DimensionMismatch(
                f"need 0 <= k <= dim-1, got k={self.k} with dim={self.dim}"
            )

    @property
    def dim(self) -> int:
        return self.X.dim

    @property
    def k(self) -> int:
        return len(self.conserved)

    def all_fields(self) -> tuple[ScalarField, ...]:
        """Conserved fields followed by the dissipated one."""
        return self.conserved + (self.dissipated,)

    def leaf_value(self, x) -> np.ndarray:
        """Values of the conserved quantities at x (length k)."""
        p = as_point(x, self.dim)
        return np.array([f(p) for f in self.conserved])


def _project_rows(system: DissipativeSystem, pts, leaf_value, tol: float = 1e-12,
                  max_iter: int = 50) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton-project every row of an (m, dim) stack onto a leaf, in lockstep.

    ``leaf_value`` is one leaf for every row, or an (m, k) stack with a leaf
    of each row's own. Returns ``(points, converged, degenerate)``. Each row
    takes the steps of a projection of its own, in the same arithmetic, so
    its bits do not depend on the other rows: an accepted row is frozen, and
    a row whose conserved Gram block is singular stops alone, flagged
    ``degenerate``, at the point where it stopped. A row not accepted within
    ``max_iter`` steps holds its last iterate. With no conserved quantities
    every row is accepted as it is.
    """
    y = as_stack(pts, system.dim).copy()
    converged = np.zeros(len(y), dtype=bool)
    degenerate = np.zeros(len(y), dtype=bool)
    if system.k == 0:
        converged[:] = True
        return y, converged, degenerate
    k, dim = system.k, system.dim
    target = np.asarray(leaf_value, dtype=float)
    target = np.broadcast_to(target if target.ndim == 2 else target.ravel(), (len(y), k))
    # fmax, as max(tol, ...) does, keeps tol against a NaN leaf value
    accept = np.fmax(tol, _LEAF_ROUNDOFF * np.max(np.abs(target), axis=1))
    # the iterates of the active rows; a row leaves them as it stops
    active = np.arange(len(y))
    ya = y
    for _ in range(max_iter):
        res = np.empty((len(active), k))
        for j, f in enumerate(system.conserved):
            res[:, j] = f.values(ya)
        res -= target[active]
        done = np.maximum.reduce(np.abs(res), axis=1) <= accept[active]
        if done.any():
            converged[active[done]] = True
            y[active[done]] = ya[done]
            active, ya, res = active[~done], ya[~done], res[~done]
            if not active.size:
                break
        jac = np.empty((len(active), k, dim))
        for j, f in enumerate(system.conserved):
            jac[:, j] = f.diffs(ya)
        jac_t = jac.transpose(0, 2, 1)
        gram = jac @ jac_t
        try:
            lam = np.linalg.solve(gram, -res[:, :, None])
        except np.linalg.LinAlgError:
            # rare: find the singular rows one by one, then solve the rest
            ok = np.ones(len(active), dtype=bool)
            for i in range(len(active)):
                try:
                    np.linalg.solve(gram[i], -res[i])
                except np.linalg.LinAlgError:
                    ok[i] = False
            degenerate[active[~ok]] = True
            y[active[~ok]] = ya[~ok]
            active, ya, jac_t = active[ok], ya[ok], jac_t[ok]
            if not active.size:
                break
            lam = np.linalg.solve(gram[ok], -res[ok][:, :, None])
        # matmul on stacks evaluates each row as the point call does
        ya = ya + (jac_t @ lam)[:, :, 0]
    y[active] = ya
    return y, converged, degenerate


def project_to_leaf(system: DissipativeSystem, x, leaf_value,
                    tol: float = 1e-12, max_iter: int = 50) -> np.ndarray:
    """Newton-project x onto the level set of the conserved quantities.

    Uses minimum-norm corrections in the span of the conserved differentials.
    A residual is accepted at ``tol`` or at the roundoff floor of the leaf
    values, 4 eps max|leaf_value|, whichever is larger: below that floor no
    Newton step can improve it. Raises :class:`LeafProjectionFailure` when the
    residual will not drop to that. With no conserved quantities x is
    returned as it is. This is :func:`_project_rows` on a batch of one.
    """
    p = as_point(x, system.dim)
    y, converged, degenerate = _project_rows(system, p[None], leaf_value, tol, max_iter)
    if converged[0]:
        return y[0]
    if degenerate[0]:
        raise LeafProjectionFailure(
            f"conserved differentials degenerate near {y[0].tolist()}")
    raise LeafProjectionFailure(
        f"no convergence onto leaf {np.asarray(leaf_value, dtype=float).ravel().tolist()} "
        f"from {np.asarray(x).tolist()}"
    )


def _premise_rows(system: DissipativeSystem, pts) -> tuple[np.ndarray, np.ndarray]:
    """The premise residual |df . X| of every field at each row of an (m, n)
    stack, conserved fields first and the dissipated one last, and its scale
    1 + |df| |X|: two (m, k + 1) arrays whose entries are bitwise the point
    expressions ``abs(float(f.d(p) @ X(p)))`` and
    ``1 + norm(f.d(p)) * norm(X(p))``. The first row where X or a
    differential is not finite raises :class:`NonFiniteValue`.
    """
    p = as_stack(pts, system.dim)
    xv = system.X._values_at(p)
    diffs = [f._diffs_at(p) for f in system.all_fields()]
    ok = np.isfinite(xv).all(axis=1)
    for d in diffs:
        ok &= np.isfinite(d).all(axis=1)
    if not ok.all():
        raise NonFiniteValue(
            f"X or a differential not finite at {p[int(np.argmin(ok))].tolist()}")
    xn = _row_norms(xv)
    # matmul on stacks evaluates each row as the point call's dot does
    res = np.stack([np.abs((d[:, None, :] @ xv[:, :, None])[:, 0, 0]) for d in diffs], axis=1)
    scale = np.stack([1.0 + _row_norms(d) * xn for d in diffs], axis=1)
    return res, scale


def _require_premise(system: DissipativeSystem, pts) -> None:
    """Refuse, with :class:`PremiseViolation`, points where X does not
    annihilate every field: a scaled residual |df . X| / (1 + |df| |X|) of
    :func:`_premise_rows` above ``_PREMISE_TOL``, or NaN, named at the first
    such row and field."""
    res, scale = _premise_rows(system, pts)
    scaled = res / scale
    bad = ~(scaled <= _PREMISE_TOL)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        label = system.all_fields()[j].label or f"field{j}"
        raise PremiseViolation(
            f"X does not annihilate {label} at {as_stack(pts, system.dim)[i].tolist()}: "
            f"scaled residual |d{label} . X| / (1 + |d{label}| |X|) = {scaled[i, j]:.6g} "
            f"exceeds {_PREMISE_TOL:g}, so no certificate applies")


@dataclass(frozen=True)
class ConservationReport:
    """Residuals of directional derivatives of the invariants along X."""

    residuals: dict
    max_residual: float
    tol: float
    passed: bool


def validate_conservation(system: DissipativeSystem, probes: Sequence,
                          tol: float = 1e-12) -> ConservationReport:
    """Check that X annihilates every conserved quantity and the dissipated one.

    The residual at a probe point is |df(x) . X(x)|, the derivative of f along
    the unperturbed flow, from one call of the premise evaluator
    :func:`_premise_rows` over all probes, which raises
    :class:`NonFiniteValue` at the first probe where X or a differential is
    not finite. A field's entry is its largest residual. The certificates
    check the same residuals, scaled, against ``_PREMISE_TOL``.
    """
    pts = np.array([as_point(x, system.dim) for x in probes]).reshape(-1, system.dim)
    res, _ = _premise_rows(system, pts)
    names = [f.label or f"field{i}" for i, f in enumerate(system.all_fields())]
    worst = {name: float(np.max(res[:, [n == name for n in names]], initial=0.0))
             for name in names}
    max_res = float(np.max(res, initial=0.0))
    return ConservationReport(residuals=worst, max_residual=max_res, tol=tol,
                              passed=max_res <= tol)
