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
all evaluate it. Its body goes by input size: a point or a one-row stack,
the case of a long solo integration, runs on Python floats, in numpy's
IEEE operations, and a larger stack runs the stacked frame arrays and the
cofactor expansion ``_cofactors``. Tests hold both to the frame path
bitwise.

Everything else reads frames. The cofactor expansion of a stack of Gram
matrices, ``_cofactors``, reads 1x1 and 2x2 minors off views of the
flattened stack, with no gathered copy per minor; the cofactor field at a
point frame, ``_cofactor_from_frame``, is that expansion on a batch of
one. An integration's records read it off their record frames. The three
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
    _diag_products,
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

    A 1x1 or 2x2 minor's determinant is read off column views of the
    flattened Gram stack, in the arithmetic of :func:`_checked_dets`; a
    larger minor is gathered for ``np.linalg.det``.
    """
    k = len(minors)
    v0 = _dets_conserved(gram, k)[:, None] * grads[:, k]
    flat_gram = gram.reshape(len(grads), (k + 1) ** 2)
    for i, (sign, flat, cells) in enumerate(minors):
        if k == 1:
            det = flat_gram[:, cells[0]]
        elif k == 2:
            a, b, c, d = [flat_gram[:, j] for j in cells]
            det = a * d - b * c
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
    that is not gets NaN and a False flag. Each row is bitwise
    ``system.X(p) - _cofactor_from_frame(system_frame(system, p))``, its
    warnings too wherever the Gram products stay finite.

    The body goes by input size. A point or a one-row stack, the case of a
    long solo integration, runs on Python floats in numpy's IEEE
    operations, at less cost than a one-row stack of the array bodies; it
    refuses a differential of the wrong shape with the message of the
    point call ``ScalarField.d``. A sum of the terms det times gradient
    that overflows or turns NaN, and any sum for k > 2, is taken in numpy,
    for numpy's warnings. A larger stack runs ``_stack_arrays`` and
    :func:`_cofactors`.
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
        # the Gram matrix row-major, its symmetrization 0.5 (G + G^T) taken
        # on the floats of G
        raw = (diffs @ grads.T).tolist()
        if k == 1:  # the common case, spelt out
            (a, b), (c, d) = raw
            off = 0.5 * (b + c)
            cells = [0.5 * (a + a), off, off, 0.5 * (d + d)]
        else:
            cells = [0.5 * (a + b) for row, col in zip(raw, zip(*raw)) for a, b in zip(row, col)]
        # the conserved block's determinant and the diagonal product it is
        # checked against; a larger block takes its diagonal product even
        # where no floor check needs it, for numpy's overflow warning
        if k > 2:
            gram = np.array(cells).reshape(k + 1, k + 1)
            block = gram[None, :k, :k]
            det_c, scale = float(_checked_dets(block)[0]), float(_diag_products(block)[0])
        elif k == 0:
            det_c = scale = 1.0
        elif k == 1:
            det_c = scale = cells[0]
        else:
            # cells 0, 1, 3 and 4 of the flattened 3x3 matrix
            a, b, _, c, d = cells[:5]
            det_c, scale = a * d - b * c, a * d
        _check_floor(det_c, scale)
        v0 = None
        if k <= 2:
            dets = [cells[idx[0]] if k == 1
                    else cells[idx[0]] * cells[idx[3]] - cells[idx[1]] * cells[idx[2]]
                    for _, _, idx in minors]
            rows = grads.tolist()
            terms = [det_c * g for g in rows[k]]
            for (sign, _, _), det, row in zip(minors, dets, rows):
                c = sign * det
                terms = [v + c * a for v, a in zip(terms, row)]
            if isfinite(sum(terms)):
                v0 = np.array(terms)
        if v0 is None:
            v0 = det_c * grads[k]
            for i, (sign, flat, _) in enumerate(minors):
                det = dets[i] if k <= 2 else checked_det(gram.take(flat))
                v0 += (sign * det) * grads[i]
        return X._at(p) - v0, v0, None

    def evaluate(pts):
        if pts.ndim == 2 and len(pts) != 1:
            _, _, grads, gram, ok = _stack_arrays(fields_, metric, pts)
            v0 = _cofactors(gram, grads, minors)
            if ok is None:
                return X._values_at(pts) - v0, v0, None
            out = np.full(pts.shape, np.nan)
            out[ok] = X._values_at(pts[ok]) - v0[ok]
            return out, v0, ok
        # one call site, so that a floor warning has one location
        row = pts.ndim == 2
        rhs, v0, ok = point(pts[0] if row else pts)
        if not row:
            return rhs, v0, ok
        return rhs[None], v0[None], None if ok is None else ok[None]

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
