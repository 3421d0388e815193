"""Tridiagonal linear solves by direct elimination (LAPACK dgtsv)."""

import functools

import numpy as np

from .errors import NumericalError


@functools.cache
def _dgtsv():
    """scipy's dgtsv, imported on the first solve rather than with the package:
    scipy.linalg costs about 0.3 s to import, and a Monte Carlo worker never
    solves."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve the system with subdiagonal `sub`, diagonal `diag`, superdiagonal `sup`.

    sub[i] couples row i+1 to column i; sup[i] couples row i to column i+1.
    All systems in this package are strictly diagonally dominant M-matrices,
    so elimination is unconditionally stable; a zero pivot is still checked.
    The inputs are never written to: dgtsv works on copies of them.
    """
    if diag.size < 2:
        # dgtsv rejects empty off-diagonals; a 1x1 system is one division
        return rhs / diag
    _, _, _, x, info = _dgtsv()(sub, diag, sup, rhs)
    if info > 0:
        raise NumericalError(f"tridiagonal solve failed: zero pivot in row {info}")
    return x
