import numpy as np
import pytest
import scipy.linalg

from matchentropy.errors import NumericalError
from matchentropy.tridiag import solve_tridiagonal


def _dominant_system(n, seed):
    """Random strictly diagonally dominant system with n unknowns."""
    rng = np.random.default_rng(seed)
    sub = rng.uniform(-1.0, 1.0, n - 1)
    sup = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.0 + rng.uniform(0.0, 3.0, n)
    diag *= rng.choice([-1.0, 1.0], n)
    rhs = rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, size=n)
    return sub, diag, sup, rhs


@pytest.mark.parametrize("n", [1, 2, 3, 99, 999])
def test_matches_solve_banded_bit_for_bit(n):
    for seed in range(5):
        sub, diag, sup, rhs = _dominant_system(n, 1000 * n + seed)
        ab = np.zeros((3, n))
        ab[0, 1:] = sup
        ab[1, :] = diag
        ab[2, :-1] = sub
        expected = scipy.linalg.solve_banded((1, 1), ab, rhs)
        x = solve_tridiagonal(sub, diag, sup, rhs)
        assert x.shape == (n,)
        assert x.tobytes() == expected.tobytes()


def test_inputs_are_not_mutated():
    # off-diagonals as two views of one array, as the HJB step passes them
    _, diag, _, _ = _dominant_system(50, 3)
    off = np.random.default_rng(4).uniform(-0.5, 0.0, 50)
    # a right-hand side that is a row of a matrix, as the density step passes it
    q = np.random.default_rng(5).normal(size=(4, 52))
    rhs = q[2, 1:51]
    before = (off.copy(), diag.copy(), q.copy())
    x = solve_tridiagonal(off[1:], diag, off[:-1], rhs)
    assert np.array_equal(off, before[0])
    assert np.array_equal(diag, before[1])
    assert np.array_equal(q, before[2])
    assert not np.shares_memory(x, q)
    residual = diag * x
    residual[1:] += off[1:] * x[:-1]
    residual[:-1] += off[:-1] * x[1:]
    assert np.allclose(residual, rhs, rtol=1e-12, atol=1e-12)


def test_singular_system_raises():
    with pytest.raises(NumericalError, match="zero pivot"):
        solve_tridiagonal(np.zeros(1), np.zeros(2), np.zeros(1), np.ones(2))
