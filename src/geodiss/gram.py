"""Gram data of metric gradients and their determinants, at a stack of points.

:func:`system_frames` evaluates, at each row of an (m, n) stack of points,
the differentials of the conserved quantities and of the dissipated one,
their metric gradients, and their pairing matrix, whose entry (i, j) is the
metric inner product of gradients i and j, as a :class:`FrameStack`.
Determinants of its blocks are the only linear-algebra primitive the
control-field construction needs; the empty determinant is 1 by
convention. A row whose differentials are not finite is flagged rather
than raised, so one bad row does not stop the others. One reduction over
the whole stack of differentials tells whether any row is flagged, and the
rows are flagged one by one only when some are. The negativity-floor scan
of the determinants, and the diagonal products it compares against, run
only when some row could warn: when the floor is positive or a determinant
negative.

A point frame is a batch of one: :func:`system_frame` is
:func:`system_frames` on one row, raising where that row is flagged, and
the :class:`SystemFrame` methods and :func:`checked_det` run the stacked
determinant bodies (``_checked_dets``, ``_dets_conserved``,
``_diag_products``) on one matrix. The corrected-flow evaluator
``control._corrected_rows`` calls the array body ``_stack_arrays`` on
every input, a point as a one-row stack, except at a point or a one-row
stack of a system with one conserved quantity. There, the step of a long
solo integration such as the benchmark's ``sombrero_cycle``, where a
one-row stack costs more, its own body runs on Python floats and checks
its determinant against the floor with ``_check_floor``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import NonFiniteValue, NumericalHealthWarning
from .fields import DissipativeSystem, MetricField, ScalarField, as_point, as_stack

# Gram determinants are mathematically nonnegative; anything more negative
# than this (relative to the diagonal product) signals numerical trouble.
GRAM_NEGATIVITY_FLOOR = -1e-10


def _nonfinite_differential(x: np.ndarray) -> NonFiniteValue:
    """The error of a point x where some field's differential is not finite."""
    return NonFiniteValue(f"non-finite differential among fields at {x.tolist()}")


def checked_det(mat: np.ndarray, diag_scale: float | None = None) -> float:
    """Determinant with explicit small-size formulas and a negativity check.

    ``diag_scale`` is the product of diagonal entries of the Gram matrix the
    determinant belongs to; a determinant below the negativity floor relative
    to that scale emits a health warning but is still returned. This is
    :func:`_checked_dets` on a batch of one.
    """
    det = float(_checked_dets(mat[None])[0])
    if diag_scale is not None:
        _check_floor(det, diag_scale)
    return det


def _check_floor(det: float, diag_scale: float) -> None:
    """Warn, for the caller's caller, when ``det`` lies below the negativity
    floor relative to ``diag_scale``; the floor is read at call time."""
    if det < GRAM_NEGATIVITY_FLOOR * abs(diag_scale):
        warnings.warn(
            f"Gram determinant {det:.3e} below roundoff floor for scale {diag_scale:.3e}",
            NumericalHealthWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class SystemFrame:
    """Metric, differentials, gradients and Gram data at one point: one row of
    a :class:`FrameStack`.

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
        return float(_dets_conserved(self.gram[None], self.k)[0])

    def det_full(self) -> float:
        return float(_checked_dets(self.gram[None], floor_check=True)[0])

    def grad_g(self) -> np.ndarray:
        return self.grads[self.k]

    def grad_g_norm(self) -> float:
        return float(np.sqrt(max(self.gram[self.k, self.k], 0.0)))

    def classification_scale(self) -> float:
        """Product of squared gradient norms of all fields; empty product is 1."""
        return float(_diag_products(self.gram[None])[0])


def _checked_dets(mats: np.ndarray, floor_check: bool = False) -> np.ndarray:
    """Determinant of each matrix of an (m, r, r) stack: explicit formulas
    up to size 2, ``np.linalg.det`` above.

    With ``floor_check``, each determinant is checked against the
    negativity floor relative to its matrix's diagonal product, and one
    below it warns once for its row, with :func:`checked_det`'s message. A
    determinant of at least 0 never lies below a floor of at most 0, so the
    scan, and the diagonal products it needs, run only when the floor is
    positive or some determinant is negative.
    """
    r = mats.shape[1]
    if r == 0:
        det = np.ones(len(mats))
    elif r == 1:
        det = mats[:, 0, 0].copy()
    elif r == 2:
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    else:
        det = np.linalg.det(mats)
    floor = GRAM_NEGATIVITY_FLOOR
    if floor_check and (floor > 0.0 or np.count_nonzero(det < 0.0)):
        diag_scale = _diag_products(mats)
        for i in np.flatnonzero(det < floor * np.abs(diag_scale)):
            warnings.warn(
                f"Gram determinant {det[i]:.3e} below roundoff floor for scale "
                f"{diag_scale[i]:.3e}",
                NumericalHealthWarning,
                stacklevel=3,
            )
    return det


def _diag_products(mats: np.ndarray) -> np.ndarray:
    """Product of the diagonal of each matrix of an (m, r, r) stack, without
    a numpy reduction for sizes up to 2."""
    r = mats.shape[1]
    if r == 0:
        return np.ones(len(mats))
    if r == 1:
        return mats[:, 0, 0].copy()
    if r == 2:
        return mats[:, 0, 0] * mats[:, 1, 1]
    return np.prod(np.diagonal(mats, axis1=1, axis2=2), axis=1)


@dataclass(frozen=True)
class FrameStack:
    """:class:`SystemFrame` data of an (m, n) stack of points, one row per point.

    ``finite`` flags the rows whose differentials are all finite. A flagged
    row is where :func:`system_frame` raises :class:`NonFiniteValue`; it carries
    zero differentials and gradients instead, so the rest of the stack
    evaluates without warnings, and its values mean nothing. ``gmat`` is
    the metric matrix of each row, the identity at a flagged row; a
    constant metric keeps its one (n, n) matrix, which broadcasts over the
    rows in a stacked matmul.
    """

    x: np.ndarray        # (m, n)
    gmat: np.ndarray     # (m, n, n), or (n, n) for a constant metric
    diffs: np.ndarray    # (m, k+1, n)
    grads: np.ndarray    # (m, k+1, n)
    gram: np.ndarray     # (m, k+1, k+1)
    finite: np.ndarray   # (m,) bool

    @property
    def k(self) -> int:
        return self.gram.shape[1] - 1

    def require_finite(self) -> None:
        """Raise :class:`NonFiniteValue` for the first flagged row, naming its point."""
        if not self.finite.all():
            raise _nonfinite_differential(self.x[int(np.argmin(self.finite))])

    def det_conserved(self) -> np.ndarray:
        return _dets_conserved(self.gram, self.k)

    def det_full(self) -> np.ndarray:
        return _checked_dets(self.gram, floor_check=True)

    def grad_g_norm(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.gram[:, self.k, self.k], 0.0))

    def classification_scale(self) -> np.ndarray:
        return _diag_products(self.gram)


def _dets_conserved(gram: np.ndarray, k: int) -> np.ndarray:
    """Checked determinant of the conserved block of each matrix of an
    (m, k+1, k+1) Gram stack."""
    return _checked_dets(gram[:, :k, :k], floor_check=True)


def system_frame(system: DissipativeSystem, x) -> SystemFrame:
    """The frame at one point: :func:`system_frames` on a batch of one, which
    raises :class:`NonFiniteValue` where a differential is not finite."""
    p = as_point(x, system.dim)
    frames = system_frames(system, p[None])
    frames.require_finite()
    gmat = frames.gmat if frames.gmat.ndim == 2 else frames.gmat[0]
    return SystemFrame(x=p, gmat=gmat, diffs=frames.diffs[0], grads=frames.grads[0],
                       gram=frames.gram[0])


def system_frames(system: DissipativeSystem, pts) -> FrameStack:
    """The frame of every row of an (m, n) stack, as a :class:`FrameStack`.

    Stacked fields are called once for the whole stack and point-only ones
    row by row; the metric solve, the gradients and the Gram matrices are
    stacked matmuls and solves, which numpy evaluates one row at a time, so
    each row's bits do not depend on the other rows. A callable metric is
    evaluated at the finite rows only.
    """
    p = as_stack(pts, system.dim)
    gmat, diffs, grads, gram, finite = _stack_arrays(system.all_fields(), system.metric, p)
    if finite is None:
        finite = np.ones(len(p), dtype=bool)
    return FrameStack(p, gmat, diffs, grads, gram, finite)


def _stack_arrays(fields_: Sequence[ScalarField], metric: MetricField, p: np.ndarray):
    """The arrays of :func:`system_frames` at a stack already checked by :func:`as_stack`.

    Returns ``(gmat, diffs, grads, gram, finite)``, as :class:`FrameStack`
    holds them, except that ``finite`` is None when every row is finite.
    One reduction over the whole differential stack tells that case; only
    when it fails are the rows flagged one by one.
    """
    m, n = p.shape
    diffs = np.empty((m, len(fields_), n))
    for i, f in enumerate(fields_):
        diffs[:, i] = f._diffs_at(p)
    finite = None
    if np.count_nonzero(np.isfinite(diffs)) != diffs.size:
        finite = np.isfinite(diffs.reshape(m, len(fields_) * n)).all(axis=1)
        diffs[~finite] = 0.0
    if metric.is_constant:
        gmat, inv = metric.constant_pair(p[0] if m else np.zeros(n))
        grads = diffs @ inv
    else:
        # a flagged row solves against the identity: its zeros stay zeros
        gmat = np.empty((m, n, n))
        gmat[:] = np.eye(n)
        for i in range(m) if finite is None else np.flatnonzero(finite):
            gmat[i] = metric.at(p[i])
        grads = np.linalg.solve(gmat, diffs.transpose(0, 2, 1)).transpose(0, 2, 1)
    gram = diffs @ grads.transpose(0, 2, 1)
    gram = 0.5 * (gram + gram.transpose(0, 2, 1))
    return gmat, diffs, grads, gram, finite
