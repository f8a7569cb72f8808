"""Polynomial differentials: the precomputed tables against the per-call formula."""
import dataclasses

import numpy as np
import pytest

from geodiss.catalog import random_poly
from geodiss.errors import DimensionMismatch
from geodiss.poly import Polynomial, random_polynomial, vector_values


def _diff_per_call(p: Polynomial, x: np.ndarray) -> np.ndarray:
    """The differential built from powers and coefs on every call."""
    out = np.zeros(p.dim)
    for j in range(p.dim):
        pj = p.powers[:, j]
        sel = pj > 0
        if not sel.any():
            continue
        lowered = p.powers[sel].copy()
        lowered[:, j] -= 1
        out[j] = np.sum(p.coefs[sel] * pj[sel] * np.prod(x ** lowered, axis=1))
    return out


def _polynomials(entry):
    system = entry.system
    return [f.differential.__self__ for f in (*system.conserved, system.dissipated)]


@pytest.mark.parametrize("dim,k,seed", [(2, 1, 0), (3, 1, 4), (4, 2, 7), (5, 3, 11)])
def test_diff_is_bitwise_the_per_call_formula(dim, k, seed):
    rng = np.random.default_rng(seed)
    for p in _polynomials(random_poly(dim, k, seed)):
        assert isinstance(p, Polynomial)
        for scale in (1e-3, 0.7, 30.0):
            for _ in range(20):
                x = scale * rng.normal(size=dim)
                assert _diff_per_call(p, x).tobytes() == p.diff(x).tobytes()


def test_diff_tables_are_read_only_and_rebuilt_by_replace():
    p = Polynomial.from_terms(2, [(1.5, (2, 1)), (-2.0, (0, 3)), (0.5, (1, 0))])
    x = np.array([0.3, -1.2])
    assert not p._diff_factor.flags.writeable
    assert not p._diff_lowered.flags.writeable
    with pytest.raises(ValueError):
        p._diff_factor[0] = 0.0

    q = dataclasses.replace(p, coefs=np.array([1.0, 1.0, 1.0]))
    assert q._diff_factor is not p._diff_factor
    assert q.diff(x).tobytes() == _diff_per_call(q, x).tobytes()
    assert not np.array_equal(q.diff(x), p.diff(x))

    r = dataclasses.replace(p, powers=np.array([[1, 0], [0, 1], [0, 0]]),
                            coefs=np.array([2.0, 3.0, 4.0]))
    assert np.array_equal(r.diff(x), [2.0, 3.0])


def test_diff_of_a_constant_or_empty_polynomial_is_zero():
    assert np.array_equal(Polynomial.from_terms(3, []).diff(np.ones(3)), np.zeros(3))
    const = Polynomial.from_terms(2, [(4.0, (0, 0))])
    assert np.array_equal(const.diff(np.array([1.0, 2.0])), np.zeros(2))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_stacked_value_and_diff_are_bitwise_the_point_calls(dim):
    # the final dot of a stacked value is a batched matmul: a gemv or a
    # row sum would round differently from the point call's dot
    rng = np.random.default_rng(100 + dim)
    for p in (random_polynomial(dim, 3, rng), Polynomial.from_terms(dim, [])):
        for scale in (1e-3, 0.7, 30.0):
            x = scale * rng.normal(size=(200, dim))
            values, diffs = p.value(x), p.diff(x)
            assert values.shape == (200,) and diffs.shape == (200, dim)
            assert values.tobytes() == np.array([p.value(row) for row in x]).tobytes()
            assert diffs.tobytes() == np.array([p.diff(row) for row in x]).tobytes()
        assert p.value(np.empty((0, dim))).shape == (0,)
        assert p.diff(np.empty((0, dim))).shape == (0, dim)
        for bad in (np.zeros((3, dim + 1)), np.zeros(dim + 1), np.zeros((2, 3, dim))):
            with pytest.raises(DimensionMismatch):
                p.value(bad)
            with pytest.raises(DimensionMismatch):
                p.diff(bad)


def _frozen_point_value(p: Polynomial, x: np.ndarray) -> float:
    """The point branch of ``Polynomial.value`` before the point and the
    stack shared one body: a 1-D dot."""
    return float(np.multiply.reduce(x ** p.powers, axis=1) @ p.coefs)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
def test_value_is_bitwise_its_old_point_branch(dim):
    # at 10,000 points over many orders of magnitude each point value has
    # the bits of the old point branch and of its row of the stack, and so
    # have a vector field's components
    rng = np.random.default_rng(300 + dim)
    p = random_polynomial(dim, 3, rng)
    polys = [random_polynomial(dim, 2, rng) for _ in range(dim)]
    x = rng.normal(size=(10000, dim)) * 10.0 ** rng.uniform(-6.0, 2.0, size=(10000, 1))
    x[::5, 0] = -0.0
    want = np.array([_frozen_point_value(p, row) for row in x])
    assert np.array([float(p.value(row)) for row in x]).tobytes() == want.tobytes()
    assert p.value(x).tobytes() == want.tobytes()
    columns = np.array([[_frozen_point_value(q, row) for q in polys] for row in x])
    assert np.array([vector_values(polys, row) for row in x]).tobytes() == \
        columns.tobytes()
    assert vector_values(polys, x).tobytes() == columns.tobytes()


def test_vector_values_stack_is_bitwise_the_point_calls():
    # the components of a polynomial vector field: a point gives the
    # components' values, a stack their columns, row for row the same bits
    rng = np.random.default_rng(77)
    polys = [random_polynomial(4, 2, rng) for _ in range(4)]
    x = rng.normal(size=(50, 4))
    stacked = vector_values(polys, x)
    assert stacked.shape == (50, 4)
    assert stacked.tobytes() == np.array([vector_values(polys, row) for row in x]).tobytes()
    assert vector_values(polys, x[0]).tolist() == [p.value(x[0]) for p in polys]
