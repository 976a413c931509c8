"""Gaussian Gram matrices, pairwise distances, SPD solves, and the
posterior of a field with a Gram-matrix prior."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import issymmetric, lapack, solve_triangular

from .errors import NotPositiveDefiniteError

# The working-set budget, in elements, of every blocked loop over two point
# sets: the row panels of squared_distances and nearest_rows, and the target
# chunks of bcpd.e_step, which reads it at call time.
PANEL_ELEMENTS = 1 << 16


def squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(len(x), len(y)) array of squared Euclidean distances between rows.

    Each entry is summed from exact per-coordinate differences, first
    coordinate first, as ``cdist(x, y, "sqeuclidean")`` sums it, so the two
    agree bitwise; for ``y is x`` the result is exactly symmetric. The
    differences are formed in row panels of about PANEL_ELEMENTS elements,
    so nothing larger than the result is held.
    """
    m, n = len(x), len(y)
    out = np.empty((m, n))
    rows = max(1, PANEL_ELEMENTS // n)
    diff = np.empty((min(rows, m), n))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        panel, d = out[lo:hi], diff[: hi - lo]
        np.subtract(x[lo:hi, 0, None], y[:, 0], out=panel)
        np.multiply(panel, panel, out=panel)
        for axis in range(1, x.shape[1]):
            np.subtract(x[lo:hi, axis, None], y[:, axis], out=d)
            np.multiply(d, d, out=d)
            panel += d
    return out


def nearest_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Index of the row of y nearest each row of x, lowest index on ties.

    The distances are taken in row panels of about PANEL_ELEMENTS
    elements, so no (len(x), len(y)) array is held.
    """
    rows = max(1, PANEL_ELEMENTS // len(y))
    return np.concatenate([squared_distances(x[lo:lo + rows], y).argmin(axis=1)
                           for lo in range(0, len(x), rows)])


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise Gaussian kernel evaluations over a single point set.

    Exactly symmetric with a diagonal of exactly 1.0, as :func:`build_gram`
    builds it; a matrix with a NaN anywhere fails this. Positive
    semi-definite up to floating-point noise. Its bandwidth is not kept
    here: it is the registration's ``params.beta``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        # keep an owned read-only array (as build_gram hands over); copy any
        # other, so that later writes by the caller cannot reach the matrix
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64
                and v.flags.owndata and not v.flags.writeable):
            v = np.array(v, dtype=np.float64, copy=True)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {v.shape}")
        if not issymmetric(v):
            raise ValueError("Gram matrix must be exactly symmetric")
        if not np.all(np.diagonal(v) == 1.0):
            raise ValueError("Gram matrix must have a unit diagonal")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def build_gram(points, beta: float) -> GramMatrix:
    """Evaluate the Gaussian kernel between every pair of points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"points must have shape (M, 3) with M >= 1, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if not beta > 0:
        raise ValueError("beta must be positive")
    # the squared distances are exactly symmetric, and so is their exp
    values = squared_distances(pts, pts)
    np.divide(values, -2.0 * beta * beta, out=values)
    np.exp(values, out=values)
    np.fill_diagonal(values, 1.0)
    values.setflags(write=False)
    return GramMatrix(values)


def solve_spd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B for symmetric positive-definite A via Cholesky, in place.

    A must be a writeable, C-ordered float64 ndarray, and is consumed; any
    other A raises ValueError and is left untouched. Returns (X, low): one
    LAPACK ``dposv`` call factors A and solves with the factor, and ``low``
    is ``A.T``, the Fortran-ordered matrix it factored, whose lower
    triangle is the factor L of A = L L^T that ``cho_factor`` gives (its
    strict upper triangle is not part of L). So the factor overwrites A's
    upper triangle with the diagonal, and A's strict lower triangle is left
    as it was.

    A is factored once and never regularized: if ``dposv`` finds it not
    positive definite, :class:`NotPositiveDefiniteError` is raised. The
    returned X satisfies ||A X - B||_F / ||B||_F <= 1e-8 for well-posed
    systems.

    A must be exactly symmetric, A[i, j] == A[j, i] for every i != j, as
    the displacement system is by construction; so a NaN off the diagonal
    is rejected too.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError("A must be a writeable, C-ordered float64 ndarray")
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"B has {b.shape[0]} rows, A is {a.shape[0]}x{a.shape[1]}")
    if not issymmetric(a):
        raise ValueError("A is not symmetric")
    # a.T is Fortran-ordered, so dposv neither copies it nor touches a's
    # strict lower triangle
    low, x, info = lapack.dposv(a.T, b, lower=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"matrix of size {len(a)} is not positive definite")
    return x, low


def field_posterior(gram: GramMatrix, mass, ratio: float, residual, variance: bool = False):
    """Posterior mean, and optionally variance, of a Gaussian-process field.

    The field v over M points has the prior N(0, G / lam) and observes the
    (M, 3) residual r with per-point precision c * mass, ratio = c / lam.
    Its posterior covariance is Sigma = (lam G^-1 + c diag(mass))^-1 and its
    mean c Sigma (mass * r). Sigma is never formed and G never inverted:
    with S = diag(sqrt(mass)), the push-through identity
    (lam G^-1 + c S^2)^-1 S = (G / lam) S K^-1 gives

        v = ratio * G @ (S K^-1 S r),
        K = I + ratio * S G S,

    one solve that is symmetric positive-definite (I + PSD) even when
    individual masses vanish, and one product with G. The mean subtracts no
    two nearly equal terms, so no rounding error is scaled up by ratio.

    Returns (v, var). With ``variance`` set, var is the (M,) diagonal of
    lam * Sigma = G - ratio * G S K^-1 S G, read off the factor K = L L^T
    that :func:`solve_spd` returns with one triangular solve W = L^-1 S G
    (the Gram's diagonal is 1):

        var = 1 - ratio * colsum(W * W),

    which does subtract nearly equal terms when ratio is large; otherwise
    var is None. K is built once, C-ordered, and factored in place by the
    solve; so next to the Gram this holds one M x M array, or two with the
    variance (K and S G, which W overwrites).
    """
    g = gram.values
    root = np.sqrt(mass)
    k = np.outer(root, root)
    k *= g
    k *= ratio
    k.flat[:: len(g) + 1] += 1.0
    x, low = solve_spd(k, root[:, None] * residual)
    field = ratio * (g @ (root[:, None] * x))
    if not variance:
        return field, None
    # low holds L in its lower triangle; (g * root).T is S G, F-ordered
    w = solve_triangular(low, (g * root).T, lower=True, overwrite_b=True, check_finite=False)
    return field, 1.0 - ratio * np.einsum("ij,ij->j", w, w)
