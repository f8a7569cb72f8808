"""Construction of the standard dissipative control field.

Given conserved quantities F_1..F_k and a quantity G to dissipate, the control
field is the unique combination of gradients that is metric-orthogonal to all
grad F_i while pairing with grad G to the full Gram determinant. Along the
corrected flow X - control the F_i stay constant and G decreases at rate equal
to that determinant.

Three equivalent constructions are provided: a cofactor expansion (default),
the symmetric-tensor contraction, and scaled tangent projection. Keeping all
three allows cross-checks at roundoff level.

The corrected flow's right-hand side at a point is one kernel bound to a
system, ``_corrected_rhs``, the package's only evaluation at a single
point that is not a batch of one: it binds each field's differential once,
reads a constant metric's checked pair directly once it exists, and runs
the point bodies of :mod:`geodiss.gram` and ``_cofactor`` on Python floats,
without building a :class:`SystemFrame`. The integrators' stages and
:func:`dissipated_rhs` evaluate it, and a test holds it bitwise to the
frame path. Up to two conserved quantities ``_cofactor`` takes the minors
and the sum of the terms det times gradient on the floats, in numpy's IEEE
operations; a sum that overflows or turns NaN is taken again in numpy, for
numpy's warnings. Sizes 3 and up go through ``np.linalg.det``.

Everything else reads frames. The cofactor expansion of a stack of Gram
matrices, ``_cofactors``, reads 1x1 and 2x2 minors off views of the
flattened stack, with no gathered copy per minor; the cofactor field at a
point frame, ``_cofactor_from_frame``, is that expansion on a batch of
one. An integration's records read it off their record frames, and the
integrators' kernel off the frame arrays of a stack. The three formulations,
the structure probes and ``geodiss verify`` read point frames.
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
    _checked_dets,
    _det_conserved,
    _dets_conserved,
    _differential_stack,
    _differentials_at,
    _gram_cells,
    _metric_at,
    _metric_grads,
    _small_det,
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


def _cofactor(cells: list, grads: np.ndarray, minors: tuple) -> np.ndarray:
    """The cofactor control field of a (k+1, k+1) Gram matrix and its k+1 gradients.

    ``cells`` is the Gram matrix row-major as Python floats, and ``minors``
    is ``_cofactor_minors(k)``. The determinants of size at most 2 are taken
    on the floats; a larger minor is gathered for ``np.linalg.det``.

    Up to k = 2 the sum of the terms, det times gradient, is taken on the
    gradients' floats too: the elementwise IEEE operations numpy does,
    without its cost per call. Numpy warns where a value overflows or turns
    NaN, so a sum that is not finite is taken again in numpy, as it is for
    k > 2, where ``np.linalg.det`` may warn between the terms.
    """
    k = len(minors)
    gram = np.array(cells).reshape(k + 1, k + 1) if k > 2 else None
    det_c = _det_conserved(gram, k, cells)
    if k <= 2:
        rows = grads.tolist()
        v0 = [det_c * g for g in rows[k]]
        for (sign, _, idx), row in zip(minors, rows):
            c = sign * _small_det(cells, idx)
            v0 = [v + c * a for v, a in zip(v0, row)]
        if isfinite(sum(v0)):
            return np.array(v0)
    v0 = det_c * grads[k]
    for i, (sign, flat, idx) in enumerate(minors):
        det = _small_det(cells, idx) if k <= 2 else checked_det(gram.take(flat))
        v0 += (sign * det) * grads[i]
    return v0


def _corrected_rhs(system: DissipativeSystem):
    """The corrected flow's right-hand side, as one kernel bound to the system.

    Returns ``evaluate(p) -> (X(p) - v0, v0, None)`` for a point p already
    checked by :func:`geodiss.fields.as_point`: the triple of
    ``integrators._flow_rows`` at a point, whose differentials are finite
    wherever it returns. Its values and checks are those of
    ``system.X(p) - _cofactor_from_frame(system_frame(system, p))``,
    bitwise, and so are its warnings wherever the Gram products stay
    finite, with the differentials bound once, a constant metric's pair
    read directly once the first call has checked it, and no
    :class:`SystemFrame` built. A differential of the wrong shape is
    refused with the message of the point call ``ScalarField.d``, where the
    frame says what ``ScalarField.diffs`` says.
    """
    d_at = _differentials_at(system.all_fields())
    metric_at = _metric_at(system.metric)
    minors = _cofactor_minors(system.k)
    X = system.X
    pair = None  # a constant metric's checked pair, once it exists

    def evaluate(p):
        nonlocal pair
        diffs = _differential_stack(d_at, p)
        gmat, ginv = pair or metric_at(p)
        if pair is None and ginv is not None:
            pair = gmat, ginv
        grads = _metric_grads(diffs, gmat, ginv)
        v0 = _cofactor(_gram_cells(diffs, grads), grads, minors)
        return X._at(p) - v0, v0, None

    return evaluate


def _cofactors(gram: np.ndarray, grads: np.ndarray, minors: tuple) -> np.ndarray:
    """:func:`_cofactor` of each row of an (m, k+1, k+1) Gram stack, bitwise row for row.

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
    """Right-hand side of the corrected flow: X minus the control field."""
    return _corrected_rhs(system)(as_point(x, system.dim))[0]


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
