"""Gram matrices of metric gradients and their determinants.

The pairing matrix of two field lists has entry (i, j) equal to the metric
inner product of the gradient of ``cols[j]`` with the gradient of ``rows[i]``.
Determinants of such matrices are the only linear-algebra primitive the
control-field construction needs; the empty determinant is 1 by convention.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import NonFiniteValue, NumericalHealthWarning
from .fields import DissipativeSystem, MetricField, ScalarField, as_point

# Gram determinants are mathematically nonnegative; anything more negative
# than this (relative to the diagonal product) signals numerical trouble.
GRAM_NEGATIVITY_FLOOR = -1e-10


@dataclass(frozen=True)
class GramMatrix:
    """Pairing matrix of gradients with the labels that produced it."""

    entries: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]


def _differential_stack(fields_: Sequence[ScalarField], x: np.ndarray) -> np.ndarray:
    if not fields_:
        return np.zeros((0, x.size))
    rows = np.empty((len(fields_), x.size))
    for i, f in enumerate(fields_):
        rows[i] = f.d(x)
    if not np.isfinite(rows).all():
        raise NonFiniteValue(f"non-finite differential among fields at {x.tolist()}")
    return rows


def gram_matrix(rows: Sequence[ScalarField], cols: Sequence[ScalarField],
                metric: MetricField, x) -> GramMatrix:
    """Pairing matrix entries[i][j] = <grad cols[j], grad rows[i]>."""
    p = as_point(x, metric.dim)
    drows = _differential_stack(rows, p)
    dcols = _differential_stack(cols, p)
    gmat = metric.at(p)
    if len(cols):
        grads_cols = np.linalg.solve(gmat, dcols.T)  # columns are gradients
        entries = drows @ grads_cols
    else:
        entries = np.zeros((len(rows), 0))
    same = len(rows) == len(cols) and all(r is c for r, c in zip(rows, cols))
    if same:
        entries = 0.5 * (entries + entries.T)
    return GramMatrix(
        entries=entries,
        row_labels=tuple(f.label for f in rows),
        col_labels=tuple(f.label for f in cols),
    )


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


def gram_det(fields_: Sequence[ScalarField], metric: MetricField, x) -> float:
    """Determinant of the Gram matrix of the given fields (empty list gives 1)."""
    gm = gram_matrix(fields_, fields_, metric, x)
    scale = float(np.prod(np.diag(gm.entries))) if len(fields_) else 1.0
    return checked_det(gm.entries, diag_scale=scale)


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


def gram_det_full(system: DissipativeSystem, x) -> float:
    """Gram determinant over conserved quantities plus the dissipated one."""
    return system_frame(system, x).det_full()


def stacked_gradient_rank(system: DissipativeSystem, x,
                          sv_rel_tol: float = 1e-8) -> int:
    """Numerical rank of the stacked gradients in the metric inner product.

    Eigenvalues of the full Gram matrix are the squared singular values of the
    metric-orthonormalized gradient stack; the rank cut is relative to the
    largest singular value.
    """
    fr = system_frame(system, x)
    eigs = np.linalg.eigvalsh(fr.gram)
    eigs = np.clip(eigs, 0.0, None)
    if eigs.size == 0 or eigs[-1] == 0.0:
        return 0
    sv = np.sqrt(eigs)
    return int(np.sum(sv > sv_rel_tol * sv[-1]))
