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
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .control import _cofactor_from_frame, _projection_from_frame, dissipated_rhs
from .errors import (
    LeafProjectionFailure,
    NotOnInvariantSet,
    UnboundedTrajectory,
)
from .fields import DissipativeSystem, as_point, project_to_leaf
from .gram import system_frame
from .integrators import Flow, IntegratorConfig, integrate

DEFAULT_TOL_INV = 1e-9
DEFAULT_TOL_G = 1e-6
# a root counts as a zero of X within max(this, 10 newton_tol)
_EQUILIBRIUM_TOL_FLOOR = 1e-8
# points asked of a system's analytic sampler of the degeneracy set
_INV_SAMPLE_COUNT = 512


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
    collapses when the dissipated gradient vanishes.
    """
    fr = system_frame(system, x)
    det_full = fr.det_full()
    grad_g_norm = fr.grad_g_norm()
    scale = fr.classification_scale()
    if grad_g_norm <= tol_g:
        kind = PointKind.INV_CRITICAL
    elif det_full <= tol_inv * scale:
        kind = PointKind.INV_DEPENDENT
    else:
        kind = PointKind.GENERIC
    return PointClass(kind=kind, det_full=det_full, grad_g_norm=grad_g_norm,
                      scale=scale, tol_inv=tol_inv, tol_g=tol_g)


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


def find_equilibria(system: DissipativeSystem, seeds,
                    newton_tol: float = 1e-10,
                    max_iter: int = 60,
                    dedup_tol: float = 1e-6,
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
    ``dedup_tol`` and reported with their membership in the zero sets of the
    conservative field and of the control field (a genuine root belongs to the
    corrected equilibria exactly when it belongs to both); seeds that fail to
    converge are collected in ``unresolved`` rather than raising.
    """
    eq_tol = max(_EQUILIBRIUM_TOL_FLOOR, 10 * newton_tol)
    roots: list[np.ndarray] = []
    unresolved: list[np.ndarray] = []
    for seed in seeds:
        x = as_point(seed, system.dim)
        target = system.leaf_value(x)

        def residual(p):
            r = dissipated_rhs(system, p)
            if system.k == 0:
                return r
            return np.concatenate([r, system.leaf_value(p) - target])

        converged = False
        for _ in range(max_iter):
            r = residual(x)
            rn = float(np.linalg.norm(r))
            jac = _fd_jacobian(residual, x, f0=r)
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            # a small residual alone is not convergence: near a degenerate
            # point any absolute residual tolerance is satisfied on a whole
            # ball, so also require the Newton step to be stationary
            if rn <= newton_tol and (
                    float(np.linalg.norm(step)) <= 1e-9 * (1.0 + float(np.linalg.norm(x)))):
                converged = True
                break
            lam = 1.0
            improved = False
            for _ in range(25):
                x_new = x + lam * step
                if float(np.linalg.norm(residual(x_new))) < rn:
                    x = x_new
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                break
        if not converged:
            unresolved.append(as_point(seed, system.dim))
            continue
        if any(np.linalg.norm(x - r_) <= dedup_tol for r_ in roots):
            continue
        roots.append(x)

    reports = []
    for x in roots:
        cls = classify_point(system, x, tol_inv=tol_inv, tol_g=tol_g)
        in_unpert = float(np.linalg.norm(system.X(x))) <= eq_tol
        in_inv = cls.in_invariant_set
        reports.append(EquilibriumReport(
            location=x,
            in_unperturbed_equilibria=in_unpert,
            in_invariant_set=in_inv,
            in_perturbed_equilibria=in_unpert and in_inv,
            residual=float(np.linalg.norm(dissipated_rhs(system, x))),
            classification=cls,
            leaf_value=system.leaf_value(x),
        ))
    return reports, unresolved


def leaf_tangent_basis(system: DissipativeSystem, x) -> np.ndarray:
    """Orthonormal chart basis of the leaf tangent space at x, shape (n-k, n)."""
    p = as_point(x, system.dim)
    if system.k == 0:
        return np.eye(system.dim)
    jac = np.vstack([f.d(p) for f in system.conserved])
    _, _, vt = np.linalg.svd(jac)
    return vt[system.k:]


def refine_to_invariant_set(system: DissipativeSystem, x, leaf_value=None,
                            trust_radius: float = 0.5,
                            max_iter: int = 25,
                            tol_inv: float = 1e-12,
                            tol_g: float = 1e-8,
                            leaf_tol: float = 1e-9) -> np.ndarray | None:
    """Gauss-Newton refinement of x toward the degeneracy set, staying on its leaf.

    Solves control_field = 0 together with the leaf constraint in least
    squares. Returns the refined point when it classifies inside the set at
    tight tolerance without leaving the trust ball around x; returns None
    otherwise (the honest answer when x is not actually near the set).
    """
    x0 = as_point(x, system.dim)
    target = (np.asarray(leaf_value, dtype=float).ravel()
              if leaf_value is not None else system.leaf_value(x0))

    def residual(p):
        fr = system_frame(system, p)
        v0 = _cofactor_from_frame(fr)
        if system.k == 0:
            return v0
        return np.concatenate([v0, system.leaf_value(p) - target])

    y = x0.copy()
    r = residual(y)
    for _ in range(max_iter):
        rn = float(np.linalg.norm(r))
        if rn <= 1e-14:
            break
        jac = _fd_jacobian(residual, y, f0=r)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam = 1.0
        improved = False
        for _ in range(20):
            y_new = y + lam * step
            if float(np.linalg.norm(y_new - x0)) > trust_radius:
                lam *= 0.5
                continue
            r_new = residual(y_new)
            if float(np.linalg.norm(r_new)) < rn:
                y, r = y_new, r_new
                improved = True
                break
            lam *= 0.5
        if not improved:
            break

    cls = classify_point(system, y, tol_inv=tol_inv, tol_g=tol_g)
    on_leaf = (system.k == 0
               or float(np.max(np.abs(system.leaf_value(y) - target))) <= leaf_tol)
    within = float(np.linalg.norm(y - x0)) <= trust_radius
    if cls.in_invariant_set and on_leaf and within:
        return y
    return None


def stability_classify(system: DissipativeSystem, equilibrium,
                       leaf_samples: int = 200,
                       radius: float = 0.1,
                       seed: int = 0,
                       tol_inv: float = DEFAULT_TOL_INV,
                       tol_g: float = DEFAULT_TOL_G) -> Stability:
    """Sampling verdict on leaf-restricted stability of a corrected-flow equilibrium.

    Draws points on the equilibrium's own leaf inside a tangent ball of the
    given radius. The equilibrium is asymptotically stable (within the leaf)
    when the dissipated value is strictly larger at every sample and no sample
    itself touches the degeneracy set; a strictly smaller sample at an
    isolated equilibrium certifies instability. Everything else stays
    undetermined.
    """
    x_e = as_point(equilibrium, system.dim)
    target = system.leaf_value(x_e)
    g_e = system.dissipated(x_e)
    basis = leaf_tangent_basis(system, x_e)
    free_dim = basis.shape[0]
    rng = np.random.default_rng(seed)

    deltas = []
    isolated = True
    attempts = 0
    while len(deltas) < leaf_samples and attempts < 20 * leaf_samples:
        attempts += 1
        direction = basis.T @ rng.normal(size=free_dim)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            continue
        r = radius * rng.uniform() ** (1.0 / free_dim)
        try:
            y = project_to_leaf(system, x_e + (r / nrm) * direction, target)
        except LeafProjectionFailure:
            continue
        dist = float(np.linalg.norm(y - x_e))
        if dist < 1e-12 or dist > 2.0 * radius:
            continue
        if classify_point(system, y, tol_inv=tol_inv, tol_g=tol_g).in_invariant_set:
            isolated = False
        deltas.append(system.dissipated(y) - g_e)
    if not deltas:
        return Stability.UNDETERMINED

    deltas = np.array(deltas)
    if isolated and np.all(deltas > 0.0):
        return Stability.ASYMPTOTICALLY_STABLE
    if isolated and np.any(deltas < 0.0):
        return Stability.UNSTABLE
    return Stability.UNDETERMINED


def escape_test(system: DissipativeSystem, equilibrium,
                offset: float = 1e-3,
                ball_radius: float = 0.5,
                horizon: float = 100.0,
                seed: int = 0,
                config: IntegratorConfig | None = None) -> bool:
    """True when a leaf perturbation of the equilibrium leaves the given ball.

    Complements the sampled stability verdict with dynamic evidence: a
    trajectory started ``offset`` away that escapes the ball demonstrates
    instability directly.
    """
    x_e = as_point(equilibrium, system.dim)
    basis = leaf_tangent_basis(system, x_e)
    rng = np.random.default_rng(seed)
    direction = basis.T @ rng.normal(size=basis.shape[0])
    direction /= float(np.linalg.norm(direction))
    x0 = project_to_leaf(system, x_e + offset * direction, system.leaf_value(x_e))
    base = config or IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    cfg = replace(base, t_end=horizon)
    try:
        tr = integrate(system, x0, cfg, flow=Flow.PERTURBED,
                       bound=float(np.linalg.norm(x_e)) + ball_radius)
    except UnboundedTrajectory:
        return True
    dists = np.linalg.norm(tr.states - x_e, axis=1)
    return bool(np.max(dists) > ball_radius)


def compare_on_invariant_set(system: DissipativeSystem, x0,
                             config: IntegratorConfig,
                             n_checkpoints: int = 101,
                             tol_inv: float = 1e-9,
                             tol_g: float = 1e-6) -> float:
    """Max distance between the two flows started at a degeneracy-set point.

    On the set where the stacked gradients lose rank the control field
    vanishes, so both flows must coincide; the returned number is the max
    chart distance over a shared checkpoint grid. Raises
    :class:`NotOnInvariantSet` when x0 classifies as generic.
    """
    cls = classify_point(system, x0, tol_inv=tol_inv, tol_g=tol_g)
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
    which `validate_conservation` checks). Requires a regular leaf.
    """
    fr = system_frame(system, as_point(x, system.dim))
    det_f = fr.det_conserved()
    v_leaf = det_f * _projection_from_frame(fr)
    # norm squared in the rescaled leaf metric: (1/det_f) * g(v_leaf, v_leaf)
    leaf_norm_sq = float(v_leaf @ fr.gmat @ v_leaf) / det_f
    rhs = system.X(fr.x) - _cofactor_from_frame(fr)
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
                         leaf_value: np.ndarray, per_state: int = 4,
                         trust: float = 1.0) -> np.ndarray:
    """Fallback sample set of the degeneracy set: refine from trajectory-shaped jitter."""
    rng = np.random.default_rng(1234)
    found = []
    for p in trajectory_states[:: max(1, len(trajectory_states) // 32)]:
        for _ in range(per_state):
            start = p + rng.normal(scale=0.05, size=p.size)
            y = refine_to_invariant_set(system, start, leaf_value, trust_radius=trust)
            if y is not None:
                found.append(y)
    if not found:
        return np.zeros((0, system.dim))
    return np.array(found)


def omega_limit_probe(system: DissipativeSystem, x0,
                      horizon: float,
                      n_checkpoints: int = 40,
                      config: IntegratorConfig | None = None,
                      inv_sampler=None,
                      bound: float = 1e6) -> OmegaProbe:
    """Track the distance from the corrected flow to the degeneracy set on its leaf.

    Distance is chart distance to a sample set of the degeneracy set
    (an analytic sampler when the system provides one, otherwise refined
    jitter around the trajectory), sharpened by a local refinement from each
    checkpoint state. This is an approximation of the intrinsic leaf distance
    and is reported as such.
    """
    x0 = as_point(x0, system.dim)
    base = config or IntegratorConfig()
    cfg = replace(base, t_end=horizon)
    cps = np.linspace(0.0, horizon, n_checkpoints + 1)[1:]
    tr = integrate(system, x0, cfg, flow=Flow.PERTURBED, checkpoints=cps, bound=bound)

    leaf_value = system.leaf_value(x0)
    if inv_sampler is not None:
        samples = np.asarray(inv_sampler(leaf_value, _INV_SAMPLE_COUNT), dtype=float)
    else:
        samples = _generic_inv_samples(system, tr.checkpoint_states, leaf_value)

    dists = np.empty(cps.size)
    for j, p in enumerate(tr.checkpoint_states):
        if samples.size:
            d_set = float(np.min(np.linalg.norm(samples - p, axis=1)))
        else:
            d_set = np.inf
        refined = refine_to_invariant_set(
            system, p, leaf_value,
            trust_radius=2.0 * d_set + 1e-6 if np.isfinite(d_set) else 1.0,
        )
        d_ref = float(np.linalg.norm(p - refined)) if refined is not None else np.inf
        dists[j] = min(d_set, d_ref)

    g_vals = np.array([system.dissipated(p) for p in tr.checkpoint_states])
    tail = max(2, n_checkpoints // 5)
    late_spread = float(np.max(g_vals[-tail:]) - np.min(g_vals[-tail:]))
    quarter = max(2, n_checkpoints // 4)
    tail_d = dists[-quarter:]
    monotone = bool(np.all(tail_d[1:] <= 1.05 * tail_d[:-1] + 1e-8))
    return OmegaProbe(times=cps, distances=dists, g_values=g_vals,
                      final_distance=float(dists[-1]),
                      late_g_spread=late_spread,
                      monotone_tail=monotone)
