"""Construction of the standard dissipative control field.

Given conserved quantities F_1..F_k and a quantity G to dissipate, the control
field is the unique combination of gradients that is metric-orthogonal to all
grad F_i while pairing with grad G to the full Gram determinant. Along the
corrected flow X - control the F_i stay constant and G decreases at rate equal
to that determinant.

Three equivalent constructions are provided: a cofactor expansion (default),
the symmetric-tensor contraction, and scaled tangent projection. Keeping all
three allows cross-checks at roundoff level.

The corrected flow X - v0 has one evaluator, ``_corrected_rows``, bound to
a system once per run: at a point or a stack of points it returns the
right-hand side, the control field and the rows whose differentials are
finite. The integrators' stages, :func:`dissipated_rhs`, the equilibrium
search, the refinement onto the degeneracy set and the automatic horizon
all evaluate it. Its Gram and cofactor arithmetic is the cofactor
expansion ``_cofactors`` of a Gram stack, a point being a one-row stack,
except at a point or a one-row stack of a system with one conserved
quantity, which runs it on Python floats, in numpy's IEEE operations.
That float body is one of the three kinds of point body the package
keeps, all for a long solo integration such as the benchmark's
``sombrero_cycle``, which runs each at every step: it, the unbatched
point mode of the step loop ``integrators._lockstep``, and the catalog's
point slopes ``euler``, ``rotation``, ``height_diff`` and ``g_diff``. A
one-row stack of the array bodies costs more there; everything else is a
batch of one. Tests hold both bodies to the frame path bitwise.

Everything else reads frames. The cofactor expansion of a stack of Gram
matrices, ``_cofactors``, reads a 1x1 minor off a view of the flattened
stack and gathers a larger one; the cofactor field at a point frame,
``_cofactor_from_frame``, is that expansion on a batch of one. An
integration's records read it off their record frames. The three
formulations, the structure probes and ``geodiss verify`` read point
frames.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isfinite

import numpy as np

from .errors import SingularLeaf
from .fields import DissipativeSystem, as_point
from .gram import (
    FrameStack,
    SystemFrame,
    _check_floor,
    _checked_dets,
    _dets_conserved,
    _nonfinite_differential,
    _stack_arrays,
    checked_det,
    system_frame,
)

LEAF_CONDITION_LIMIT = 1e12


class Formulation(Enum):
    COFACTOR = "cofactor"
    TENSOR = "tensor"
    PROJECTION = "projection"


@dataclass(frozen=True)
class ControlEvaluation:
    """Control field at a point plus the Gram determinants used to build it."""

    v0: np.ndarray
    formulation: Formulation
    det_conserved: float
    det_full: float


@lru_cache(maxsize=None)
def _cofactor_minors(k: int) -> tuple:
    """For each conserved index i: the sign of its cofactor, and the flat
    indices of its minor in the (k+1, k+1) Gram matrix, as a (k, k) array and
    as a tuple of ints.

    The minor for i keeps the conserved rows and swaps column i out for the
    dissipated column k.
    """
    out = []
    for i in range(k):
        cols = [c for c in range(k) if c != i] + [k]
        flat = np.array([[r * (k + 1) + c for c in cols] for r in range(k)])
        flat.setflags(write=False)
        out.append((-1.0 if (i + k) % 2 else 1.0, flat, tuple(flat.ravel().tolist())))
    return tuple(out)


def _cofactors(gram: np.ndarray, grads: np.ndarray, minors: tuple) -> np.ndarray:
    """The cofactor control field of each row of an (m, k+1, k+1) Gram stack
    and its (m, k+1, n) gradients, bitwise row for row the point body of
    :func:`_corrected_rows`.

    A 1x1 minor's determinant is read off a column view of the flattened
    Gram stack; a larger minor is gathered for :func:`_checked_dets`.
    """
    k = len(minors)
    v0 = _dets_conserved(gram, k)[:, None] * grads[:, k]
    flat_gram = gram.reshape(len(grads), (k + 1) ** 2)
    for i, (sign, flat, cells) in enumerate(minors):
        if k == 1:
            det = flat_gram[:, cells[0]]
        else:
            det = _checked_dets(flat_gram[:, flat])
        v0 = v0 + (sign * det)[:, None] * grads[:, i]
    return v0


def _cofactor_from_frames(frames: FrameStack) -> np.ndarray:
    """The cofactor control field at every row of a frame stack."""
    return _cofactors(frames.gram, frames.grads, _cofactor_minors(frames.k))


def _cofactor_from_frame(fr: SystemFrame) -> np.ndarray:
    """The cofactor control field at a frame: :func:`_cofactors` on a batch of one."""
    return _cofactors(fr.gram[None], fr.grads[None], _cofactor_minors(fr.k))[0]


def _corrected_rows(system: DissipativeSystem):
    """The corrected flow X - v0, bound to the system, at a point or a stack.

    Returns ``evaluate(pts) -> (rhs, v0, ok)`` for a checked point (n,) or
    stack (m, n): the right-hand side and control field of each row, and
    the rows whose differentials are finite, or None when all are; a row
    that is not gets a NaN right-hand side and a False flag, and its
    control field means nothing. Each row is bitwise
    ``system.X(p) - _cofactor_from_frame(system_frame(system, p))``, its
    warnings too wherever the Gram products stay finite.

    With one conserved quantity, the case of a long solo integration, a
    point or a one-row stack runs a body of its own. It takes each
    differential through its bound point call, so one of the wrong shape
    is refused with the message of the point call ``ScalarField.d``, tests
    their finiteness on Python floats, and runs the Gram cells, floor check
    and cofactor sum on Python floats in numpy's IEEE operations, at less
    cost than a one-row stack of the array bodies; a sum that overflows or
    turns NaN is taken in numpy, for numpy's warnings. Any other input
    runs ``_stack_arrays`` and :func:`_cofactors`, a point as a one-row
    stack.
    """
    fields_ = system.all_fields()
    d_at = tuple(f._d_bound() for f in fields_)
    metric = system.metric
    k = system.k
    minors = _cofactor_minors(k)
    X = system.X
    pair = None  # a constant metric's checked pair, once it exists

    def point(p):
        nonlocal pair
        diffs = np.array([d(p) for d in d_at])
        # their sum is finite unless some entry is not, or the sum
        # overflows; only then is each entry checked
        flat = diffs.ravel().tolist()
        if not (isfinite(sum(flat)) or all(map(isfinite, flat))):
            nan = np.full(p.shape, np.nan)
            return nan, nan, np.False_
        if pair is not None:
            gmat, ginv = pair
        elif metric.is_constant:
            gmat, ginv = pair = metric.constant_pair(p)
        else:
            gmat, ginv = metric._checked(p), None
        if ginv is not None:
            grads = diffs @ ginv
        else:
            grads = np.linalg.solve(gmat, diffs.T).T
        # one conserved quantity: the Gram cells, the floor check and the
        # cofactor sum on Python floats, symmetrized as 0.5 (G + G^T)
        (a, b), (c, _) = (diffs @ grads.T).tolist()
        det_c, minor = 0.5 * (a + a), 0.5 * (b + c)
        _check_floor(det_c, det_c)
        # the minor's cofactor sign is -1; a sum that overflows or turns NaN
        # is taken in numpy, for numpy's warnings
        cof = -1.0 * minor
        f_row, g_row = grads.tolist()
        terms = [det_c * g + cof * f for g, f in zip(g_row, f_row)]
        if isfinite(sum(terms)):
            v0 = np.array(terms)
        else:
            v0 = det_c * grads[1]
            v0 += cof * grads[0]
        return X._at(p) - v0, v0, None

    def evaluate(pts):
        if k == 1 and (pts.ndim == 1 or len(pts) == 1):
            # one call site, so that a floor warning has one location
            row = pts.ndim == 2
            rhs, v0, ok = point(pts[0] if row else pts)
            if not row:
                return rhs, v0, ok
            return rhs[None], v0[None], None if ok is None else ok[None]
        if pts.ndim == 1:
            rhs, v0, ok = evaluate(pts[None])
            return rhs[0], v0[0], None if ok is None else ok[0]
        _, _, grads, gram, ok = _stack_arrays(fields_, metric, pts)
        v0 = _cofactors(gram, grads, minors)
        if ok is None:
            return X._values_at(pts) - v0, v0, None
        out = np.full(pts.shape, np.nan)
        out[ok] = X._values_at(pts[ok]) - v0[ok]
        return out, v0, ok

    return evaluate


def control_field(system: DissipativeSystem, x,
                  formulation: Formulation = Formulation.COFACTOR) -> ControlEvaluation:
    """Evaluate the control field with the requested formulation.

    The projection formulation requires a regular leaf: the conserved
    gradients must be independent enough that their Gram matrix has
    condition number below ``LEAF_CONDITION_LIMIT``; otherwise
    :class:`SingularLeaf` is raised.
    """
    return _control_from_frame(system_frame(system, x), formulation)


def _control_from_frame(fr: SystemFrame, formulation: Formulation) -> ControlEvaluation:
    return ControlEvaluation(
        v0=_V0_BUILDERS[formulation](fr),
        formulation=formulation,
        det_conserved=fr.det_conserved(),
        det_full=fr.det_full(),
    )


def tensor_matrix(system: DissipativeSystem, x) -> np.ndarray:
    """Symmetric contravariant tensor whose contraction with dG gives the control field.

    Assembled from signed minors of the conserved Gram block plus the inverse
    metric scaled by the full conserved determinant. Symmetry is exact by
    construction (minors are computed once per unordered index pair).
    """
    return _tensor_from_frame(system_frame(system, x))


def _tensor_from_frame(fr: SystemFrame) -> np.ndarray:
    k = fr.k
    n = fr.x.size
    det_f = fr.det_conserved()
    g_inv = np.linalg.solve(fr.gmat, np.eye(n))
    g_inv = 0.5 * (g_inv + g_inv.T)
    t = det_f * g_inv
    block = fr.gram[:k, :k]
    for i in range(k):
        for j in range(i, k):
            minor = np.delete(np.delete(block, j, axis=0), i, axis=1)
            sign = -1.0 if (i + j) % 2 == 0 else 1.0  # (-1)^(i+j+1), 1-indexed
            coeff = sign * checked_det(minor)
            outer = np.outer(fr.grads[i], fr.grads[j])
            if i == j:
                t = t + coeff * outer
            else:
                t = t + coeff * (outer + outer.T)
    return t


def _projection_from_frame(fr: SystemFrame) -> np.ndarray:
    """Dissipated gradient minus its part along the conserved gradients.

    Raises :class:`SingularLeaf` when the conserved Gram block has condition
    number above ``LEAF_CONDITION_LIMIT``. With no conserved quantities it is
    the dissipated gradient itself.
    """
    k = fr.k
    if k == 0:
        return fr.grads[0]
    block = fr.gram[:k, :k]
    cond = float(np.linalg.cond(block))
    if not np.isfinite(cond) or cond > LEAF_CONDITION_LIMIT:
        raise SingularLeaf(
            f"conserved gradients nearly dependent (cond {cond:.2e}) at {fr.x.tolist()}"
        )
    alpha = np.linalg.solve(block, fr.gram[:k, k])
    return fr.grads[k] - alpha @ fr.grads[:k]


# the control field v0 at a frame, by formulation: the cofactor expansion
# along the gradient row of the bordered Gram matrix, the tensor contracted
# with dG, and the conserved Gram determinant times the tangent projection
# of the dissipated gradient
_V0_BUILDERS = {
    Formulation.COFACTOR: _cofactor_from_frame,
    Formulation.TENSOR: lambda fr: _tensor_from_frame(fr) @ fr.diffs[fr.k],
    Formulation.PROJECTION: lambda fr: fr.det_conserved() * _projection_from_frame(fr),
}


def dissipated_rhs(system: DissipativeSystem, x) -> np.ndarray:
    """Right-hand side of the corrected flow: X minus the control field.

    Raises :class:`NonFiniteValue` where a differential is not finite."""
    p = as_point(x, system.dim)
    rhs, _, ok = _corrected_rows(system)(p)
    if ok is not None:
        raise _nonfinite_differential(p)
    return rhs


def dissipation_rate(system: DissipativeSystem, x) -> float:
    """Instantaneous rate of change of the dissipated quantity along the corrected flow.

    Equals minus the full Gram determinant whenever X genuinely conserves the
    dissipated quantity; the sign convention makes the returned value <= 0 up
    to roundoff.
    """
    return -system_frame(system, x).det_full()


def identity_scales(fr: SystemFrame) -> dict:
    """Natural magnitudes for the structural identities at a frame.

    Tolerances in tests and reports are taken relative to these: each scale is
    the product of the gradient norms that enter the corresponding identity.
    """
    diag = np.diag(fr.gram)
    k = fr.k
    prod_f = float(np.prod(diag[:k])) if k else 1.0
    norm_g = float(np.sqrt(max(diag[k], 0.0)))
    norms_f = np.sqrt(np.clip(diag[:k], 0.0, None))
    return {
        # magnitude of the control field itself
        "control": prod_f * norm_g,
        # <grad F_i, v0> = 0, one scale per conserved quantity
        "tangency": [prod_f * norm_g * float(nf) for nf in norms_f],
        # <grad G, v0> = full Gram determinant
        "dissipation": prod_f * norm_g * norm_g,
        # classification scale: product of all squared gradient norms
        "classification": float(np.prod(diag)),
    }
