"""Gaussian kernel evaluation, Gram matrices, and regularized SPD solves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from .errors import NotPositiveDefiniteError

# Elements of the row panel _max_asymmetry compares at a time.
SYMMETRY_PANEL = 1 << 16


def gaussian_kernel(a, b, beta: float) -> float:
    """exp(-||a - b||^2 / (2 beta^2)), in (0, 1]; equals 1 at zero distance."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d2 = float(np.sum((a - b) ** 2))
    return float(np.exp(-d2 / (2.0 * beta * beta)))


def _max_asymmetry(a: np.ndarray) -> float:
    """max|A - A.T| of a square matrix, without an M x M temporary.

    The upper triangle is compared with the lower one in row panels of about
    SYMMETRY_PANEL elements.
    """
    m = a.shape[0]
    rows = max(1, SYMMETRY_PANEL // m)
    worst = 0.0
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        gap = a[lo:hi, lo:] - a[lo:, lo:hi].T
        worst = max(worst, float(gap.max()), -float(gap.min()))
    return worst


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise Gaussian kernel evaluations over a single point set.

    Symmetric with unit diagonal by construction; positive semi-definite up
    to floating-point noise.
    """

    values: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        v = self.values
        # keep an owned read-only array (as build_gram hands over); copy any
        # other, so that later writes by the caller cannot reach the matrix
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64
                and v.flags.owndata and not v.flags.writeable):
            v = np.array(v, dtype=np.float64, copy=True)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {v.shape}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if v.size and _max_asymmetry(v) > 1e-12:
            raise ValueError("Gram matrix must be symmetric within 1e-12")
        if v.size and np.max(np.abs(np.diagonal(v) - 1.0)) > 1e-12:
            raise ValueError("Gram matrix must have a unit diagonal")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "beta", float(self.beta))


def build_gram(points, beta: float) -> GramMatrix:
    """Evaluate the Gaussian kernel between every pair of points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"points must have shape (M, 3) with M >= 1, got {pts.shape}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    # cdist's squared distances are exactly symmetric, and so is their exp
    values = cdist(pts, pts, "sqeuclidean")
    np.divide(values, -2.0 * beta * beta, out=values)
    np.exp(values, out=values)
    np.fill_diagonal(values, 1.0)
    values.setflags(write=False)
    return GramMatrix(values, beta)


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive-definite A via Cholesky.

    If the first factorization fails, a diagonal jitter of
    1e-9 * trace(A) / M is added and the factorization retried once; a
    second failure raises :class:`NotPositiveDefiniteError`. The returned X
    satisfies ||A X - B||_F / ||B||_F <= 1e-8 for well-posed systems.

    A is rejected as asymmetric when max|A - A.T| > 1e-10 * max(1, max|A|).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"B has {b.shape[0]} rows, A is {a.shape[0]}x{a.shape[1]}")
    if _max_asymmetry(a) > 1e-10 * max(1.0, float(a.max()), -float(a.min())):
        raise ValueError("A is not symmetric")
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        jitter = 1e-9 * float(np.trace(a)) / a.shape[0]
        jittered = a + jitter * np.eye(a.shape[0])
        try:
            factor = scipy.linalg.cho_factor(jittered, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"matrix of size {a.shape[0]} is not positive definite after jitter"
            ) from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)
