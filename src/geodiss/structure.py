"""Classification of points, equilibria, limit-set probes, and leaf diagnostics.

The central object is the degeneracy set: points where the stacked gradients
of the conserved quantities and the dissipated one lose rank, equivalently
where the control field vanishes. It splits into critical points of the
dissipated quantity (its gradient vanishes) and the remaining dependent
points. The corrected flow leaves this set invariant and every trajectory's
limit set lives inside it, which is what the probes here measure: the
escape test, the flow comparison on the set and the omega-limit probe all
run the integrator, which sits below this module and knows nothing of it.
``project_to_leaf`` is re-exported from :mod:`geodiss.fields`.

The equilibrium search and the refinement onto the degeneracy set share one
damped Gauss-Newton on the leaf, ``_leaf_gauss_newton_rows``, which runs a
stack of starts in lockstep on the corrected-flow evaluator
``control._corrected_rows``: its right-hand side for the search, its
control field for the refinement. Each row takes the steps of a run of its
own, bitwise. ``find_equilibria`` searches all its
seeds in one call; ``_refine_rows`` refines all the starts of a witness
scan, a degeneracy-set sample or an omega-limit probe in one call, and
:func:`refine_to_invariant_set` is that call on a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .control import _cofactor_from_frame, _corrected_rows, _projection_from_frame
from .errors import NonPositiveDefiniteMetric, NotOnInvariantSet, UnboundedTrajectory
from .fields import (
    DissipativeSystem,
    _project_rows,
    _row_norms,
    as_point,
    as_stack,
    project_to_leaf,
)
from .gram import _nonfinite_differential, checked_det, system_frame, system_frames
from .integrators import Flow, IntegratorConfig, integrate

DEFAULT_TOL_INV = 1e-9
DEFAULT_TOL_G = 1e-6
# a root counts as a zero of X within max(this, 10 newton_tol)
_EQUILIBRIUM_TOL_FLOOR = 1e-8
# points asked of a system's analytic sampler of the degeneracy set
_INV_SAMPLE_COUNT = 512
# without one, the jittered starts per trajectory state and their trust radius
_JITTER_PER_STATE = 4
_JITTER_TRUST = 1.0
# central-difference step of the Gauss-Newton Jacobian, sqrt(eps) max(1, |x_i|)
_SQRT_EPS = np.sqrt(np.finfo(float).eps)
# step halvings per Gauss-Newton iteration of the equilibrium search
_EQUILIBRIUM_HALVINGS = 25
# converged roots within this distance of a kept root are the same root
_DEDUP_TOL = 1e-6
# refinement onto the degeneracy set: its Gauss-Newton budgets, the residual
# norm at which it stops, and the tolerances its result must meet
_REFINE_MAX_ITER = 25
_REFINE_HALVINGS = 20
_REFINE_RESIDUAL_FLOOR = 1e-14
_REFINE_TOL_INV = 1e-12
_REFINE_TOL_G = 1e-8
_REFINE_LEAF_TOL = 1e-9
# the random stream of the stability and escape probes
_PROBE_SEED = 0
# the escape probe starts this far from the equilibrium along the leaf, and
# a trajectory that leaves this ball around it has escaped
_ESCAPE_OFFSET = 1e-3
_ESCAPE_BALL_RADIUS = 0.5
# the omega-limit probe's checkpoints and bounding ball
_OMEGA_CHECKPOINTS = 40
_OMEGA_BOUND = 1e6


class PointKind(Enum):
    GENERIC = "generic"
    INV_DEPENDENT = "inv_dependent"   # gradients dependent, grad G nonzero
    INV_CRITICAL = "inv_critical"     # grad G vanishes


class Stability(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    UNSTABLE = "unstable"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class PointClass:
    """Classification of a point relative to the degeneracy set."""

    kind: PointKind
    det_full: float
    grad_g_norm: float
    scale: float
    tol_inv: float
    tol_g: float

    @property
    def in_invariant_set(self) -> bool:
        return self.kind is not PointKind.GENERIC

    def as_report(self) -> dict:
        return {
            "kind": self.kind.value,
            "detSigmaFull": self.det_full,
            "gradGNorm": self.grad_g_norm,
            "scale": self.scale,
            "tolInv": self.tol_inv,
            "tolG": self.tol_g,
        }


def classify_point(system: DissipativeSystem, x,
                   tol_inv: float = DEFAULT_TOL_INV,
                   tol_g: float = DEFAULT_TOL_G) -> PointClass:
    """Classify x as generic, dependent, or a critical point of the dissipated field.

    The dependence test compares the full Gram determinant against
    ``tol_inv`` times the product of all squared gradient norms (so the ratio
    is a scale-free measure of gradient dependence, at most 1 by Hadamard's
    bound). The critical branch is checked first because the scale itself
    collapses when the dissipated gradient vanishes. This is
    ``_classify_rows`` on a batch of one.
    """
    return _classify_rows(system, as_point(x, system.dim)[None], tol_inv, tol_g)[0]


def _classify_rows(system: DissipativeSystem, pts: np.ndarray,
                   tol_inv: float, tol_g: float) -> list:
    """:func:`classify_point` at every row of an (m, n) stack, from one stacked frame.

    A row is critical first, then dependent, else generic. Its warnings
    come in row order; a row whose differentials are not finite raises
    :class:`NonFiniteValue` for the first such row.
    """
    frames = system_frames(system, pts)
    frames.require_finite()
    out = []
    for det, norm, scale in zip(frames.det_full().tolist(), frames.grad_g_norm().tolist(),
                                frames.classification_scale().tolist()):
        if norm <= tol_g:
            kind = PointKind.INV_CRITICAL
        elif det <= tol_inv * scale:
            kind = PointKind.INV_DEPENDENT
        else:
            kind = PointKind.GENERIC
        out.append(PointClass(kind=kind, det_full=det, grad_g_norm=norm, scale=scale,
                              tol_inv=tol_inv, tol_g=tol_g))
    return out


@dataclass(frozen=True)
class EquilibriumReport:
    """A root of the corrected flow and its membership breakdown."""

    location: np.ndarray
    in_unperturbed_equilibria: bool
    in_invariant_set: bool
    in_perturbed_equilibria: bool
    residual: float
    classification: PointClass
    leaf_value: np.ndarray
    stability: Stability = Stability.UNDETERMINED

    def as_report(self) -> dict:
        return {
            "location": self.location.tolist(),
            "inUnperturbedEquilibria": self.in_unperturbed_equilibria,
            "inInvariantSet": self.in_invariant_set,
            "inPerturbedEquilibria": self.in_perturbed_equilibria,
            "residual": self.residual,
            "kind": self.classification.kind.value,
            "detSigmaFull": self.classification.det_full,
            "gradGNorm": self.classification.grad_g_norm,
            "stability": self.stability.value,
            "leafValue": self.leaf_value.tolist(),
        }


def _leaf_gauss_newton_rows(field, system: DissipativeSystem, x0: np.ndarray,
                            targets: np.ndarray, max_iter: int, max_halvings: int,
                            residual_floor: float, trust_radius=np.inf,
                            newton_tol: float | None = None,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton for ``field(p) = 0`` from every row of an (m, n) stack, in lockstep.

    Row i stays on the leaf of ``targets[i]``: its residual stacks
    ``field(p)`` with the leaf-value gap. Each iteration takes the
    least-squares step of a central-difference Jacobian and halves it, at
    most ``max_halvings`` times, until the residual norm drops; trials
    outside the row's ball of radius ``trust_radius`` (one for all rows, or
    one per row) around its start are halved without being evaluated. The
    accepted trial's residual is carried into the next iteration, so no
    point is evaluated twice.

    A row converges when its residual norm is at most ``residual_floor``
    (checked before the Jacobian) or, given a ``newton_tol``, when the
    residual is within it and the step is stationary: near a degenerate
    point any absolute residual tolerance is satisfied on a whole ball, so a
    small residual alone is not convergence. It stops unconverged when no
    halving improves the residual or after ``max_iter`` iterations.

    ``field(pts)`` evaluates an (M, n) stack and returns the (M, n) values
    and the rows whose differentials are finite (or None when all are).
    Each iteration evaluates every running row's 2n perturbed points in one
    stacked call, and each halving round the trials inside their balls in
    one more; the Jacobian's least-squares solve is per row. Each row takes
    the steps of a run of its own, in the same arithmetic, so its bits do
    not depend on the other rows. A row that meets a point with non-finite
    differentials, or with a metric that is not positive definite, stops
    there; after the loop the lowest such row raises its error
    (:class:`NonFiniteValue` or :class:`NonPositiveDefiniteMetric`), the
    one a run over the rows in turn meets first.

    Returns the stacks ``(x, residual, converged)``.
    """
    m, n = x0.shape
    if not m:
        return x0.copy(), np.empty((0, n + system.k)), np.zeros(0, dtype=bool)
    trust = np.broadcast_to(np.asarray(trust_radius, dtype=float), (m,))
    failed = {}   # row -> the error it stopped on

    def residuals(pts, owner):
        """Residual rows at the points, owned by the given rows, and the
        mask of bad points, or None; the first bad point of a row fails it."""
        errors = {}
        try:
            vals, ok = field(pts)
        except NonPositiveDefiniteMetric:
            # rare: find the points whose metric fails one at a time
            vals, ok = np.full((len(pts), n), np.nan), np.ones(len(pts), dtype=bool)
            for i in range(len(pts)):
                try:
                    v, o = field(pts[i:i + 1])
                except NonPositiveDefiniteMetric as exc:
                    errors[i], ok[i] = exc, False
                else:
                    vals[i], ok[i] = v[0], o is None or o[0]
        if ok is not None and ok.all():
            ok = None
        # a bad point's row, which nothing reads, holds NaN, not garbage
        res = np.full((len(pts), n + system.k), np.nan)
        res[:, :n] = vals
        at = slice(None) if ok is None else ok
        for j, f in enumerate(system.conserved):
            res[at, n + j] = f.values(pts[at]) - targets[owner[at], j]
        if ok is None:
            return res, None
        for i in np.flatnonzero(~ok):
            failed.setdefault(int(owner[i]), errors.get(i) or _nonfinite_differential(pts[i]))
        return res, ~ok

    x = x0.copy()
    converged = np.zeros(m, dtype=bool)
    r, bad = residuals(x, np.arange(m))
    live = np.arange(m) if bad is None else np.flatnonzero(~bad)
    cols = np.arange(n)
    for _ in range(max_iter):
        rn = _row_norms(r[live])
        done = rn <= residual_floor
        converged[live[done]] = True
        live, rn = live[~done], rn[~done]
        if not live.size:
            break
        # each row's central-difference points, in the order x + h e_0,
        # x - h e_0, x + h e_1, ...; h = sqrt(eps) max(1, |x_i|), where
        # fmax keeps 1 against a NaN coordinate as max does
        xl = x[live]
        h = _SQRT_EPS * np.fmax(1.0, np.abs(xl))
        pts = np.repeat(xl[:, None, :], 2 * n, axis=1)
        pts[:, 2 * cols, cols] += h
        pts[:, 2 * cols + 1, cols] -= h
        res, bad = residuals(pts.reshape(-1, n), np.repeat(live, 2 * n))
        res = res.reshape(len(live), 2 * n, -1)
        if bad is not None:
            keep = ~bad.reshape(len(live), 2 * n).any(axis=1)
            live, rn, xl, h, res = live[keep], rn[keep], xl[keep], h[keep], res[keep]
        jac = ((res[:, 0::2] - res[:, 1::2]) / (2.0 * h)[:, :, None]).transpose(0, 2, 1)
        step = np.empty_like(xl)
        for j, i in enumerate(live):
            step[j] = np.linalg.lstsq(jac[j], -r[i], rcond=None)[0]
        if newton_tol is not None:
            done = (rn <= newton_tol) & (_row_norms(step) <= 1e-9 * (1.0 + _row_norms(xl)))
            converged[live[done]] = True
            live, rn, xl, step = live[~done], rn[~done], xl[~done], step[~done]

        # halving rounds: every searching row tries x + lam step, with the
        # same lam in a round; rows leave as they accept or fail
        accepted = np.zeros(len(live), dtype=bool)
        ended = np.zeros(len(live), dtype=bool)
        search = np.arange(len(live))
        lam = 1.0
        for _ in range(max_halvings):
            if not search.size:
                break
            rows = live[search]
            x_new = xl[search] + lam * step[search]
            lam *= 0.5
            inside = ~(_row_norms(x_new - x0[rows]) > trust[rows])
            if not inside.any():
                continue
            tried = search[inside]
            res, bad = residuals(x_new[inside], rows[inside])
            better = _row_norms(res) < rn[tried]
            if bad is not None:
                better &= ~bad
                ended[tried[bad]] = True
            x[live[tried[better]]] = x_new[inside][better]
            r[live[tried[better]]] = res[better]
            accepted[tried[better]] = True
            ended[tried[better]] = True
            search = search[~ended[search]]
        live = live[accepted]
    if failed:
        raise failed[min(failed)]
    return x, r, converged


def find_equilibria(system: DissipativeSystem, seeds,
                    newton_tol: float = 1e-10,
                    max_iter: int = 60,
                    tol_inv: float = DEFAULT_TOL_INV,
                    tol_g: float = DEFAULT_TOL_G,
                    ) -> tuple[list[EquilibriumReport], list[np.ndarray]]:
    """Damped Gauss-Newton search for roots of the corrected flow.

    The search is leaf-constrained: the corrected flow preserves the conserved
    quantities, so each seed can only ever see equilibria on its own leaf, and
    the leaf-value gap is stacked into the residual. Without the constraint,
    residuals that decay superlinearly toward a degenerate point (all
    gradients vanishing) pull every seed into that point, since shrinking the
    scale always "improves" the residual.

    Returns ``(reports, unresolved)``: converged roots are deduplicated within
    1e-6 and reported with their membership in the zero sets of the
    conservative field and of the control field (a genuine root belongs to the
    corrected equilibria exactly when it belongs to both); seeds that fail to
    converge are collected in ``unresolved`` rather than raising. All seeds
    are searched in one lockstep Gauss-Newton on stacked corrected-flow
    rows, each seed taking the steps of a search of its own; roots and
    unresolved seeds keep the seeds' order.
    """
    eq_tol = max(_EQUILIBRIUM_TOL_FLOOR, 10 * newton_tol)
    starts = [as_point(seed, system.dim) for seed in seeds]
    x0 = np.array(starts).reshape(len(starts), system.dim)
    targets = np.array([system.leaf_value(p) for p in starts]).reshape(len(starts), system.k)
    # a zero residual is an exact root, where the step is zero too
    rows = _corrected_rows(system)
    xs, rs, converged = _leaf_gauss_newton_rows(
        lambda pts: rows(pts)[::2], system, x0, targets,
        max_iter=max_iter, max_halvings=_EQUILIBRIUM_HALVINGS,
        residual_floor=0.0, newton_tol=newton_tol)
    # each root with the norm of the corrected-flow RHS the search ended on
    roots: list[tuple[np.ndarray, float]] = []
    unresolved: list[np.ndarray] = []
    for start, x, r, ok in zip(starts, xs, rs, converged):
        if not ok:
            unresolved.append(start)
            continue
        if any(np.linalg.norm(x - r_) <= _DEDUP_TOL for r_, _ in roots):
            continue
        roots.append((x, float(np.linalg.norm(r[:system.dim]))))

    reports = []
    classes = _classify_rows(
        system, np.array([x for x, _ in roots]).reshape(len(roots), system.dim),
        tol_inv, tol_g)
    for (x, rhs_norm), cls in zip(roots, classes):
        in_unpert = float(np.linalg.norm(system.X(x))) <= eq_tol
        in_inv = cls.in_invariant_set
        reports.append(EquilibriumReport(
            location=x,
            in_unperturbed_equilibria=in_unpert,
            in_invariant_set=in_inv,
            in_perturbed_equilibria=in_unpert and in_inv,
            residual=rhs_norm,
            classification=cls,
            leaf_value=system.leaf_value(x),
        ))
    return reports, unresolved


def leaf_tangent_basis(system: DissipativeSystem, x) -> np.ndarray:
    """Orthonormal chart basis of the leaf tangent space at x, shape (n-k, n)."""
    return _tangent_bases(system, as_point(x, system.dim)[None])[0]


def _tangent_bases(system: DissipativeSystem, pts: np.ndarray) -> np.ndarray:
    """:func:`leaf_tangent_basis` at each row of an (m, n) stack, shape
    (m, n-k, n): the right singular vectors of the conserved differentials
    past the k-th, one stacked SVD, each row bitwise its own."""
    m, n = pts.shape
    if system.k == 0:
        return np.repeat(np.eye(n)[None], m, axis=0)
    jac = np.stack([f.diffs(pts) for f in system.conserved], axis=1)
    return np.linalg.svd(jac)[2][:, system.k:]


def _refine_rows(system: DissipativeSystem, starts: np.ndarray, leaf_value,
                 trust_radii) -> list:
    """:func:`refine_to_invariant_set` from every row of an (m, n) stack, in lockstep.

    Every row keeps the leaf ``leaf_value``; ``trust_radii`` is one radius
    for all rows or one per row. Returns each row's refined point, or None,
    bitwise its solo refinement.
    """
    x0 = as_stack(starts, system.dim)
    target = np.asarray(leaf_value, dtype=float).ravel()
    trust = np.broadcast_to(np.asarray(trust_radii, dtype=float), (len(x0),))
    rows = _corrected_rows(system)
    ys, _, _ = _leaf_gauss_newton_rows(
        lambda pts: rows(pts)[1:], system, x0, np.broadcast_to(target, (len(x0), system.k)),
        max_iter=_REFINE_MAX_ITER, max_halvings=_REFINE_HALVINGS,
        residual_floor=_REFINE_RESIDUAL_FLOOR, trust_radius=trust)
    out = []
    classes = _classify_rows(system, ys, _REFINE_TOL_INV, _REFINE_TOL_G)
    for x, y, radius, cls in zip(x0, ys, trust, classes):
        on_leaf = (system.k == 0
                   or float(np.max(np.abs(system.leaf_value(y) - target))) <= _REFINE_LEAF_TOL)
        within = float(np.linalg.norm(y - x)) <= radius
        out.append(y if cls.in_invariant_set and on_leaf and within else None)
    return out


def refine_to_invariant_set(system: DissipativeSystem, x, leaf_value=None,
                            trust_radius: float = 0.5) -> np.ndarray | None:
    """Gauss-Newton refinement of x toward the degeneracy set, staying on its leaf.

    Solves control_field = 0 together with the leaf constraint in least
    squares, on the leaf ``leaf_value`` (x's own when None). Returns the
    refined point when it classifies inside the set at tight tolerance
    without leaving the trust ball around x; returns None otherwise (the
    honest answer when x is not actually near the set). This is the
    lockstep refinement that the witness scans and the omega-limit probe
    run over all their starts at once, on a batch of one.
    """
    x0 = as_point(x, system.dim)
    target = leaf_value if leaf_value is not None else system.leaf_value(x0)
    return _refine_rows(system, x0[None], target, trust_radius)[0]


def stability_classify(system: DissipativeSystem, equilibrium,
                       leaf_samples: int = 200,
                       radius: float = 0.1) -> Stability:
    """Sampling verdict on leaf-restricted stability of a corrected-flow equilibrium.

    Draws points on the equilibrium's own leaf inside a tangent ball of the
    given radius. The equilibrium is asymptotically stable (within the leaf)
    when the dissipated value is strictly larger at every sample and no sample
    itself touches the degeneracy set; a strictly smaller sample at an
    isolated equilibrium certifies instability. Everything else stays
    undetermined.

    Candidates are drawn in chunks of the still-missing count, in the order
    of a one-at-a-time draw, projected onto the leaf together and accepted in
    order, so the verdict does not depend on the chunking; at most
    ``20 * leaf_samples`` candidates are drawn.
    """
    deltas, isolated = _stability_samples(system, equilibrium, leaf_samples, radius)
    if not deltas.size:
        return Stability.UNDETERMINED
    if isolated and np.all(deltas > 0.0):
        return Stability.ASYMPTOTICALLY_STABLE
    if isolated and np.any(deltas < 0.0):
        return Stability.UNSTABLE
    return Stability.UNDETERMINED


def _stability_samples(system: DissipativeSystem, equilibrium, leaf_samples: int,
                       radius: float) -> tuple[np.ndarray, bool]:
    """The samples of :func:`stability_classify`: each accepted sample's
    G(sample) - G(equilibrium), in acceptance order, and whether no sample
    lies on the degeneracy set.

    A chunk's converged projections within (1e-12, 2 radius] of the
    equilibrium are its accepted samples, each bitwise what a sample at a
    time gives: their distances are ``_row_norms``, their classes one
    stacked frame (``_classify_rows``) and their dissipated values one
    stacked call.
    """
    x_e = as_point(equilibrium, system.dim)
    target = system.leaf_value(x_e)
    g_e = system.dissipated(x_e)
    basis = leaf_tangent_basis(system, x_e)
    free_dim = basis.shape[0]
    rng = np.random.default_rng(_PROBE_SEED)

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
        ys = ys[converged]
        dist = _row_norms(ys - x_e)
        ys = ys[~((dist < 1e-12) | (dist > 2.0 * radius))]
        if not len(ys):
            continue
        classes = _classify_rows(system, ys, DEFAULT_TOL_INV, DEFAULT_TOL_G)
        if any(c.in_invariant_set for c in classes):
            isolated = False
        deltas += (system.dissipated.values(ys) - g_e).tolist()
    return np.array(deltas), isolated


def escape_test(system: DissipativeSystem, equilibrium,
                horizon: float = 100.0) -> bool:
    """True when a leaf perturbation of the equilibrium leaves a ball around it.

    Complements the sampled stability verdict with dynamic evidence: a
    trajectory started ``_ESCAPE_OFFSET`` away that leaves the ball of
    radius ``_ESCAPE_BALL_RADIUS`` within ``horizon`` demonstrates
    instability directly.
    """
    x_e = as_point(equilibrium, system.dim)
    basis = leaf_tangent_basis(system, x_e)
    rng = np.random.default_rng(_PROBE_SEED)
    direction = basis.T @ rng.normal(size=basis.shape[0])
    direction /= float(np.linalg.norm(direction))
    x0 = project_to_leaf(system, x_e + _ESCAPE_OFFSET * direction, system.leaf_value(x_e))
    cfg = IntegratorConfig(t_end=horizon)
    try:
        tr = integrate(system, x0, cfg, flow=Flow.PERTURBED,
                       bound=float(np.linalg.norm(x_e)) + _ESCAPE_BALL_RADIUS)
    except UnboundedTrajectory:
        return True
    dists = np.linalg.norm(tr.states - x_e, axis=1)
    return bool(np.max(dists) > _ESCAPE_BALL_RADIUS)


def compare_on_invariant_set(system: DissipativeSystem, x0,
                             config: IntegratorConfig,
                             n_checkpoints: int = 101) -> float:
    """Max distance between the two flows started at a degeneracy-set point.

    On the set where the stacked gradients lose rank the control field
    vanishes, so both flows must coincide; the returned number is the max
    chart distance over a shared checkpoint grid. Raises
    :class:`NotOnInvariantSet` when x0 classifies as generic.
    """
    cls = classify_point(system, x0)
    if cls.kind is PointKind.GENERIC:
        raise NotOnInvariantSet(
            f"point {np.asarray(x0).tolist()} classifies as generic "
            f"(detFull={cls.det_full:.3e}, scale={cls.scale:.3e})"
        )
    cps = np.linspace(0.0, config.t_end, n_checkpoints)[1:]
    tr_p = integrate(system, x0, config, flow=Flow.PERTURBED, checkpoints=cps)
    tr_u = integrate(system, x0, config, flow=Flow.UNPERTURBED, checkpoints=cps)
    gaps = np.linalg.norm(tr_p.checkpoint_states - tr_u.checkpoint_states, axis=1)
    return float(np.max(gaps))


@dataclass(frozen=True)
class LeafDiagnostics:
    """Leaf-restricted gradient data of the dissipated quantity at a point."""

    conformal_factor: float
    leaf_grad_norm_sq: float
    g_rate: float

    def as_report(self) -> dict:
        return {
            "conformalFactor": self.conformal_factor,
            "leafGradNormSq": self.leaf_grad_norm_sq,
            "gdot": self.g_rate,
        }


def leaf_diagnostics(system: DissipativeSystem, x) -> LeafDiagnostics:
    """Evaluate the leaf-metric gradient data of the dissipated quantity.

    The leaf carries the ambient metric rescaled by the reciprocal of the
    conserved Gram determinant. In that metric the gradient of the restricted
    dissipated quantity is exactly the control field, and minus its squared
    norm is the rate of the dissipated quantity along the corrected flow
    (assuming the conservative field annihilates the dissipated quantity,
    the premise that `validate_conservation` and `geodiss verify` report and
    the certificates require, all through `fields._premise_rows`). Requires
    a regular leaf.
    """
    fr = system_frame(system, as_point(x, system.dim))
    # the cofactor expansion checks the conserved Gram determinant against
    # the negativity floor, so det_f is the same determinant, unchecked
    rhs = system.X(fr.x) - _cofactor_from_frame(fr)
    det_f = checked_det(fr.gram[:fr.k, :fr.k])
    v_leaf = det_f * _projection_from_frame(fr)
    # norm squared in the rescaled leaf metric: (1/det_f) * g(v_leaf, v_leaf)
    leaf_norm_sq = float(v_leaf @ fr.gmat @ v_leaf) / det_f
    g_rate = float(fr.diffs[fr.k] @ rhs)
    return LeafDiagnostics(conformal_factor=1.0 / det_f,
                           leaf_grad_norm_sq=leaf_norm_sq,
                           g_rate=g_rate)


@dataclass(frozen=True)
class OmegaProbe:
    """Decay of the distance from a trajectory to the degeneracy set on its leaf."""

    times: np.ndarray
    distances: np.ndarray
    g_values: np.ndarray
    final_distance: float
    late_g_spread: float
    monotone_tail: bool

    def as_report(self) -> dict:
        return {
            "decaySeries": [[float(t), float(d)]
                            for t, d in zip(self.times, self.distances)],
            "finalDistance": self.final_distance,
            "lateGSpread": self.late_g_spread,
            "monotoneTail": self.monotone_tail,
        }


def _generic_inv_samples(system: DissipativeSystem, trajectory_states: np.ndarray,
                         leaf_value: np.ndarray) -> np.ndarray:
    """Fallback sample set of the degeneracy set: refine from trajectory-shaped jitter."""
    rng = np.random.default_rng(1234)
    starts = [p + rng.normal(scale=0.05, size=p.size)
              for p in trajectory_states[:: max(1, len(trajectory_states) // 32)]
              for _ in range(_JITTER_PER_STATE)]
    found = [y for y in _refine_rows(system, np.array(starts).reshape(-1, system.dim),
                                     leaf_value, _JITTER_TRUST)
             if y is not None]
    if not found:
        return np.zeros((0, system.dim))
    return np.array(found)


def omega_limit_probe(system: DissipativeSystem, x0,
                      horizon: float,
                      inv_sampler=None) -> OmegaProbe:
    """Track the distance from the corrected flow to the degeneracy set on its leaf.

    Distance is chart distance to a sample set of the degeneracy set
    (an analytic sampler when the system provides one, otherwise refined
    jitter around the trajectory), sharpened by a local refinement from each
    checkpoint state. This is an approximation of the intrinsic leaf distance
    and is reported as such.
    """
    x0 = as_point(x0, system.dim)
    cfg = IntegratorConfig(t_end=horizon)
    cps = np.linspace(0.0, horizon, _OMEGA_CHECKPOINTS + 1)[1:]
    tr = integrate(system, x0, cfg, flow=Flow.PERTURBED, checkpoints=cps,
                   bound=_OMEGA_BOUND)

    leaf_value = system.leaf_value(x0)
    if inv_sampler is not None:
        samples = np.asarray(inv_sampler(leaf_value, _INV_SAMPLE_COUNT), dtype=float)
    else:
        samples = _generic_inv_samples(system, tr.checkpoint_states, leaf_value)

    states = tr.checkpoint_states
    if samples.size:
        d_set = [float(np.min(np.linalg.norm(samples - p, axis=1))) for p in states]
    else:
        d_set = [np.inf] * len(states)
    trust = [2.0 * d + 1e-6 if np.isfinite(d) else 1.0 for d in d_set]
    dists = np.empty(cps.size)
    for j, (p, refined) in enumerate(zip(states, _refine_rows(system, states, leaf_value,
                                                                trust))):
        d_ref = float(np.linalg.norm(p - refined)) if refined is not None else np.inf
        dists[j] = min(d_set[j], d_ref)

    g_vals = np.array([system.dissipated(p) for p in tr.checkpoint_states])
    tail = max(2, _OMEGA_CHECKPOINTS // 5)
    late_spread = float(np.max(g_vals[-tail:]) - np.min(g_vals[-tail:]))
    quarter = max(2, _OMEGA_CHECKPOINTS // 4)
    tail_d = dists[-quarter:]
    monotone = bool(np.all(tail_d[1:] <= 1.05 * tail_d[:-1] + 1e-8))
    return OmegaProbe(times=cps, distances=dists, g_values=g_vals,
                      final_distance=float(dists[-1]),
                      late_g_spread=late_spread,
                      monotone_tail=monotone)
