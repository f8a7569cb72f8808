"""Multivariate polynomials with exact differentials.

Used for the seeded random test systems and for systems defined inline in a
run configuration, where analytic derivatives keep identity residuals at
roundoff level.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Sum of monomials c * x1^p1 * ... * xn^pn.

    powers : (terms, dim) integer exponent matrix
    coefs  : (terms,) coefficients
    """

    powers: np.ndarray
    coefs: np.ndarray
    # the terms of every partial, axis by axis: coef * p_j, the exponents
    # with p_j lowered by one, and (j, start, stop) row ranges, built once
    _diff_factor: np.ndarray = field(init=False, repr=False)
    _diff_lowered: np.ndarray = field(init=False, repr=False)
    _diff_axes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        pw = np.asarray(self.powers, dtype=int)
        cf = np.asarray(self.coefs, dtype=float)
        if pw.ndim != 2 or cf.shape != (pw.shape[0],):
            raise DimensionMismatch(
                f"powers {pw.shape} and coefs {cf.shape} do not line up"
            )
        object.__setattr__(self, "powers", pw)
        object.__setattr__(self, "coefs", cf)
        # the empty first blocks give the shapes when no term depends on x
        factors = [np.zeros(0)]
        lowered = [np.zeros((0, pw.shape[1]), dtype=int)]
        axes = []
        start = 0
        for j in range(pw.shape[1]):
            pj = pw[:, j]
            sel = pj > 0
            if not sel.any():
                continue
            factors.append(cf[sel] * pj[sel])
            low = pw[sel].copy()
            low[:, j] -= 1
            lowered.append(low)
            axes.append((j, start, start + low.shape[0]))
            start += low.shape[0]
        factor = np.concatenate(factors)
        low = np.concatenate(lowered)
        factor.setflags(write=False)
        low.setflags(write=False)
        object.__setattr__(self, "_diff_factor", factor)
        object.__setattr__(self, "_diff_lowered", low)
        object.__setattr__(self, "_diff_axes", tuple(axes))

    @property
    def dim(self) -> int:
        return self.powers.shape[1]

    def _stack(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,) and (x.ndim != 2 or x.shape[1] != self.dim):
            raise DimensionMismatch(
                f"point shape {x.shape}, expected ({self.dim},) or (m, {self.dim})")
        return x

    def value(self, x):
        """Value at a point, or the (m,) values at an (m, dim) stack of points.

        One body for both: its final dot is a matmul, which numpy evaluates
        as one dot per row, so each stacked row gives the bits of the point
        call.
        """
        x = self._stack(x)
        monomials = np.multiply.reduce(x[..., None, :] ** self.powers, axis=-1)
        return (monomials[..., None, :] @ self.coefs[:, None])[..., 0, 0]

    def diff(self, x) -> np.ndarray:
        """Exact differential at x, as a length-dim array of partials.

        An (m, dim) stack of points gives the (m, dim) differentials, each row
        bitwise the point call's.
        """
        x = self._stack(x)
        # np.prod and np.sum are these reductions; the ufuncs skip the wrappers
        terms = self._diff_factor * np.multiply.reduce(
            x[..., None, :] ** self._diff_lowered, axis=-1)
        out = np.zeros(x.shape)
        for j, start, stop in self._diff_axes:
            out[..., j] = np.add.reduce(terms[..., start:stop], axis=-1)
        return out

    @staticmethod
    def from_terms(dim: int, terms) -> "Polynomial":
        """Build from an iterable of (coef, powers) pairs."""
        terms = list(terms)
        if not terms:
            return Polynomial(np.zeros((0, dim), dtype=int), np.zeros(0))
        pw = np.array([list(p) for _, p in terms], dtype=int)
        if pw.shape[1] != dim:
            raise DimensionMismatch(f"terms have {pw.shape[1]} exponents, dim is {dim}")
        cf = np.array([c for c, _ in terms], dtype=float)
        return Polynomial(pw, cf)


def vector_values(polys, x) -> np.ndarray:
    """The polynomials' values at a point, or their (m, len(polys)) columns at a stack.

    The components of a polynomial vector field; each stacked row gives the
    bits of the point call.
    """
    return np.stack([p.value(x) for p in polys], axis=-1)


def all_monomials(dim: int, max_degree: int) -> np.ndarray:
    """Exponent rows for every monomial with 1 <= total degree <= max_degree."""
    rows = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            if sum(prefix) > 0:
                rows.append(list(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], dim, max_degree)
    return np.array(rows, dtype=int)


def random_polynomial(dim: int, max_degree: int, rng: np.random.Generator,
                      scale: float = 1.0) -> Polynomial:
    """Dense random polynomial with N(0, scale^2) coefficients, zero constant term."""
    powers = all_monomials(dim, max_degree)
    coefs = rng.normal(0.0, scale, size=powers.shape[0])
    return Polynomial(powers, coefs)
