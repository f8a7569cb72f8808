"""Per-point Gram data of metric gradients and their determinants.

:func:`system_frame` evaluates, at one point, the differentials of the
conserved quantities and of the dissipated one, their metric gradients, and
their pairing matrix, whose entry (i, j) is the metric inner product of
gradients i and j. Determinants of its blocks are the only linear-algebra
primitive the control-field construction needs; the empty determinant is 1
by convention.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import NonFiniteValue, NumericalHealthWarning
from .fields import DissipativeSystem, ScalarField, as_point

# Gram determinants are mathematically nonnegative; anything more negative
# than this (relative to the diagonal product) signals numerical trouble.
GRAM_NEGATIVITY_FLOOR = -1e-10


def _differential_stack(fields_: Sequence[ScalarField], x: np.ndarray) -> np.ndarray:
    if not fields_:
        return np.zeros((0, x.size))
    rows = np.empty((len(fields_), x.size))
    for i, f in enumerate(fields_):
        rows[i] = f.d(x)
    if not np.isfinite(rows).all():
        raise NonFiniteValue(f"non-finite differential among fields at {x.tolist()}")
    return rows


def checked_det(mat: np.ndarray, diag_scale: float | None = None) -> float:
    """Determinant with explicit small-size formulas and a negativity check.

    ``diag_scale`` is the product of diagonal entries of the Gram matrix the
    determinant belongs to; a determinant below the negativity floor relative
    to that scale emits a health warning but is still returned.
    """
    r = mat.shape[0]
    if r == 0:
        det = 1.0
    elif r == 1:
        det = float(mat[0, 0])
    elif r == 2:
        det = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
    else:
        det = float(np.linalg.det(mat))
    if diag_scale is not None and det < GRAM_NEGATIVITY_FLOOR * abs(diag_scale):
        warnings.warn(
            f"Gram determinant {det:.3e} below roundoff floor for scale {diag_scale:.3e}",
            NumericalHealthWarning,
            stacklevel=2,
        )
    return det


@dataclass(frozen=True)
class SystemFrame:
    """Shared per-point evaluation: metric, differentials, gradients, Gram data.

    Rows are ordered conserved quantities first, dissipated quantity last, so
    ``gram[:k, :k]`` is the conserved-only block and index k refers to the
    dissipated quantity throughout.
    """

    x: np.ndarray
    gmat: np.ndarray
    diffs: np.ndarray   # (k+1, n) differentials
    grads: np.ndarray   # (k+1, n) metric gradients
    gram: np.ndarray    # (k+1, k+1) symmetrized pairing matrix

    @property
    def k(self) -> int:
        return self.gram.shape[0] - 1

    def det_conserved(self) -> float:
        block = self.gram[:self.k, :self.k]
        return checked_det(block, diag_scale=_diag_product(block))

    def det_full(self) -> float:
        return checked_det(self.gram, diag_scale=_diag_product(self.gram))

    def grad_g(self) -> np.ndarray:
        return self.grads[self.k]

    def grad_g_norm(self) -> float:
        return float(np.sqrt(max(self.gram[self.k, self.k], 0.0)))

    def classification_scale(self) -> float:
        """Product of squared gradient norms of all fields; empty product is 1."""
        return _diag_product(self.gram)


def _diag_product(mat: np.ndarray) -> float:
    """Product of the diagonal, without a numpy reduction for sizes up to 2."""
    r = mat.shape[0]
    if r == 0:
        return 1.0
    if r == 1:
        return float(mat[0, 0])
    if r == 2:
        return float(mat[0, 0] * mat[1, 1])
    return float(np.prod(np.diag(mat)))


def system_frame(system: DissipativeSystem, x) -> SystemFrame:
    p = as_point(x, system.dim)
    fields_ = system.all_fields()
    diffs = _differential_stack(fields_, p)
    metric = system.metric
    if metric.is_constant:
        gmat, ginv = metric.constant_pair(p)
        grads = diffs @ ginv
    else:
        gmat = metric.at(p)
        grads = np.linalg.solve(gmat, diffs.T).T
    gram = diffs @ grads.T
    gram = 0.5 * (gram + gram.T)
    return SystemFrame(x=p, gmat=gmat, diffs=diffs, grads=grads, gram=gram)
