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
``_diag_products``) on one matrix. The integrators' stacked kernel calls
the array body ``_stack_arrays`` directly.

The one evaluation at a single point outside this family is the corrected
flow's bound point kernel, ``control._corrected_rhs``, which a long solo
integration calls at every stage, and for which a one-row stack costs more
than the whole kernel. Its bodies live here. Each field's differential is
a callable bound once (``_differentials_at``); the differentials are
stacked by one array call and checked finite on their Python floats
(``_differential_stack``); the Gram matrix is read as Python floats
(``_gram_cells``); and a determinant of size at most 2 and its
negativity-floor check are taken on those floats (``_det_conserved``,
``_small_det``), in the IEEE operations the stacked bodies do on arrays.
Sizes 3 and up go through ``np.linalg.det``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from collections.abc import Sequence
from math import isfinite

import numpy as np

from .errors import NonFiniteValue, NumericalHealthWarning
from .fields import DissipativeSystem, MetricField, ScalarField, as_point, as_stack

# Gram determinants are mathematically nonnegative; anything more negative
# than this (relative to the diagonal product) signals numerical trouble.
GRAM_NEGATIVITY_FLOOR = -1e-10


def _nonfinite_differential(x: np.ndarray) -> NonFiniteValue:
    """The error of a point x where some field's differential is not finite."""
    return NonFiniteValue(f"non-finite differential among fields at {x.tolist()}")


def _differentials_at(fields_: Sequence[ScalarField]) -> tuple:
    """Each field's differential at a checked point, bound once (``ScalarField._d_bound``)."""
    return tuple(f._d_bound() for f in fields_)


def _differential_stack(d_at: tuple, x: np.ndarray) -> np.ndarray:
    """The (k+1, n) differentials of the bound callables ``d_at`` at x, checked
    finite on their Python floats: their sum is finite unless some entry is
    not, or the sum overflows; only then is each entry checked."""
    rows = np.array([d(x) for d in d_at])
    flat = rows.ravel().tolist()
    if not (isfinite(sum(flat)) or all(map(isfinite, flat))):
        raise _nonfinite_differential(x)
    return rows


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


def _small_det(cells: list, idx: tuple) -> float:
    """Determinant of a block of at most 2x2 of a Gram matrix, on Python floats.

    ``cells`` is the matrix read once by ``ravel().tolist()``, and ``idx``
    the block's flat indices in row-major order: one or four. These are the
    IEEE operations :func:`_checked_dets` does on arrays.
    """
    if len(idx) == 1:
        return cells[idx[0]]
    a, b, c, d = [cells[i] for i in idx]
    return a * d - b * c


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


def _det_conserved(gram: np.ndarray, k: int, cells: list) -> float:
    """Checked determinant of the conserved block of a (k+1, k+1) Gram matrix.

    Up to k = 2 the determinant and the diagonal product it is checked
    against are taken on ``cells``, the Gram matrix row-major as Python
    floats, in the IEEE operations :func:`_checked_dets` does on arrays. A
    larger block takes both on a batch of one; its diagonal product is
    taken even where no floor check needs it, for numpy's overflow warning.
    """
    if k > 2:
        block = gram[None, :k, :k]
        det, scale = float(_checked_dets(block)[0]), float(_diag_products(block)[0])
    elif k == 0:
        det = scale = 1.0
    elif k == 1:
        det = scale = cells[0]
    else:
        # cells 0, 1, 3 and 4 of the flattened 3x3 matrix
        a, b, _, c, d = cells[:5]
        det, scale = a * d - b * c, a * d
    _check_floor(det, scale)
    return det


def _metric_at(metric: MetricField):
    """The function p -> (metric matrix at p, its inverse or None), for a checked point p.

    A constant metric gives its checked pair, cached on first use; a
    callable metric gives its checked matrix at p, and no inverse.
    """
    if metric.is_constant:
        return metric.constant_pair
    return lambda p: (metric._checked(p), None)


def _metric_grads(diffs: np.ndarray, gmat: np.ndarray,
                  ginv: np.ndarray | None) -> np.ndarray:
    """Metric gradients of the (k+1, n) differentials; with no inverse, solved against ``gmat``."""
    if ginv is not None:
        return diffs @ ginv
    return np.linalg.solve(gmat, diffs.T).T


def _gram_cells(diffs: np.ndarray, grads: np.ndarray) -> list:
    """The symmetrized Gram matrix of (k+1, n) differentials and their metric
    gradients, row-major, as Python floats.

    Its symmetrization 0.5 (G + G^T) is taken on the floats of G: the IEEE
    operations numpy does on the array, at less cost for so few entries.
    """
    raw = (diffs @ grads.T).tolist()
    if len(raw) == 2:  # one conserved quantity: the common case, spelt out
        (a, b), (c, d) = raw
        off = 0.5 * (b + c)
        return [0.5 * (a + a), off, off, 0.5 * (d + d)]
    return [0.5 * (a + b) for row, col in zip(raw, zip(*raw)) for a, b in zip(row, col)]


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
