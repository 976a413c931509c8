"""Bayesian coherent point drift for colored 3D point clouds.

The source cloud is treated as a Gaussian mixture whose centroids are the
source points pushed through a kernel-smoothed displacement field and a
similarity transform. Fitting alternates three closed-form updates until
the residual variance stalls:

1. the match probabilities between moved source and target points, kept
   only as their sufficient statistics (row and column sums and the
   probability-weighted target positions and colors); they are evaluated
   in the log domain, a chunk of targets at a time, with each chunk's
   log-densities read off one matrix product of 4-column point features
   instead of pairwise distances,
2. the displacement field (regularized by the source Gram matrix),
3. the scale/rotation/translation via a weighted Procrustes fit, followed
   by a refresh of the residual variance.

Registration runs in normalized coordinates (both clouds centered and
scaled to unit RMS radius) so the hyperparameters are independent of the
physical units; results carry the normalization records needed to map back.

Everything the updates read that does not change between iterations (the
source cloud, the parameters, the source Gram matrix, the outlier density
and the centered target table) is a :class:`RegistrationProblem`, built
once by :func:`build_problem`. Each update takes the current state and the
problem, so the loop of :func:`register` can be stepped by hand::

    problem = build_problem(source, target, params)
    state = init_state(problem)
    for _ in range(params.max_iters):
        state = e_step(state, problem)
        state = update_displacement(state, problem)
        state = update_similarity(state, problem)

``register`` adds the normalization of both clouds and the stopping rule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import blas

from . import kernel
from .cloudio import NormalizationRecord, PointCloud, denormalize, normalize
from .errors import DegenerateGeometryError, ShapeMismatchError
from .kernel import GramMatrix, build_gram, field_posterior

SIGMA2_FLOOR = 1e-8
MASS_EPS = 1e-12
# Shifted log-densities are raised to this floor before exponentiating.
# exp(-600) is invisible next to each column's largest term, exp(0) = 1,
# and keeps exp and the matrix product off their subnormal and underflow
# paths, which run one to two orders of magnitude slower.
LOG_FLOOR = -600.0


@dataclass(frozen=True)
class SimilarityTransform:
    """Uniform scale, proper rotation, and translation: p -> s * R @ p + t."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.rotation, dtype=np.float64, copy=True)
        t = np.array(self.translation, dtype=np.float64, copy=True).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("rotation and translation must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-8:
            raise ValueError("rotation must be orthogonal within 1e-8")
        if abs(float(np.linalg.det(r)) - 1.0) > 1e-8:
            raise ValueError("rotation must be proper (det +1)")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(1.0, np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map an (N, 3) array of points through the transform."""
        return self.scale * (np.asarray(points, dtype=np.float64) @ self.rotation.T) + self.translation


@dataclass(frozen=True)
class RegistrationParams:
    """Hyperparameters of the registration loop.

    beta: Gaussian kernel bandwidth, in normalized coordinates.
    lam: displacement regularization weight; larger means stiffer.
    omega: outlier probability in [0, 1).
    gamma: scales the initial residual variance.
    kappa: mixing-weight concentration; math.inf keeps weights uniform.
    tol: stop once the relative change of the residual variance drops below
        this (0 disables convergence, inf stops after one iteration). At
        SIGMA2_FLOOR, where that change is 0, the RMS shift of the moved
        source over the iteration must be below it too.
    max_iters: iteration cap, an integer of at least 1.
    use_sigma_correction: carry the field's posterior variance through the
        mixture densities and the variance update, as BCPD does; off, that
        variance is held at exactly 0, which is the uncorrected model.
    """

    beta: float = 0.3
    lam: float = 50.0
    omega: float = 0.05
    gamma: float = 1.0
    kappa: float = math.inf
    tol: float = 1e-5
    max_iters: int = 300
    use_sigma_correction: bool = False

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not 0.0 <= self.omega < 1.0:
            raise ValueError("omega must lie in [0, 1)")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not self.tol >= 0:
            raise ValueError("tol must be non-negative")
        try:
            operator.index(self.max_iters)
        except TypeError:
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}") from None
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def _freeze_arrays(record) -> None:
    """Make every array field of a dataclass instance read-only, in place."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


@dataclass(frozen=True)
class RegistrationProblem:
    """What every iteration reads but none changes, for M source and N
    target points; built once per registration by :func:`build_problem`.

    source:           the source cloud (normalized, when built by register);
                      the target is held only as the tables below.
    params:           the loop's hyperparameters.
    gram:             Gaussian Gram matrix of the source, bandwidth params.beta.
    log_outlier:      log(omega / ((1 - omega) volume)), volume that of the
                      target's bounding box; -inf when omega is 0.
    center:           (3,) target centroid, the origin of both tables below.
    target_table:     (N, 7) rows [x_n - center, 1, color_n]: the E-step's
                      log-densities read the first four columns, and it sums
                      all seven weighted by the match probabilities.
    target_centered_sq: (N,) |x_n - center|^2.

    Every array is made read-only, not copied, when the problem is built,
    as a state's arrays are.
    """

    source: PointCloud
    params: RegistrationParams
    gram: GramMatrix
    log_outlier: float
    center: np.ndarray
    target_table: np.ndarray
    target_centered_sq: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)


def build_problem(
    source: PointCloud, target: PointCloud, params: RegistrationParams
) -> RegistrationProblem:
    """Build the Gram matrix, the outlier term and the target table once.

    The clouds are used as given. Raises DegenerateGeometryError when omega
    is positive and the target's bounding box has zero volume, since the
    outlier component is uniform over that box.
    """
    x = target.vertices
    n = len(target)
    if params.omega == 0.0:
        log_outlier = -math.inf
    else:
        extent = x.max(axis=0) - x.min(axis=0)
        volume = float(np.prod(extent))
        if volume <= 0.0:
            raise DegenerateGeometryError(
                "target bounding box has zero volume; cannot place the outlier component"
            )
        log_outlier = math.log(params.omega / ((1.0 - params.omega) * volume))
    center = x.mean(axis=0)
    xc = x - center
    table = np.hstack([xc, np.ones((n, 1)), target.colors])
    gram = build_gram(source.vertices, params.beta)
    return RegistrationProblem(source, params, gram, log_outlier, center, table,
                               np.einsum("ij,ij->i", xc, xc))


@dataclass(frozen=True)
class RegistrationState:
    """All per-iteration variables, for M source and N target points.

    The M x N match probabilities P (column sums <= 1, the remainder being
    outlier mass) are never stored; the state keeps only the sufficient
    statistics every update reads.

    source_mass:      (M,) row sums of P (matched mass per source point).
    target_mass:      (N,) column sums of P.
    matched_targets:  (M, 3) P-weighted mean target position per source
                      point, P @ x / source_mass.
    matched_colors:   (M, 3) P-weighted mean target color per source point,
                      P @ colors / source_mass.
                      Points with (near) zero matched mass keep their own
                      moved position and color in both.
    mixing_weights:   (M,) mixture weights, non-negative, summing to 1.
    displacement:     (M, 3) current non-rigid offsets.
    displacement_var: (M,) posterior variance of each point's displacement
                      (the diagonal of the field's posterior covariance)
                      when params.use_sigma_correction is on; exactly 0
                      when it is off, so the updates that read it need no
                      branch. The full M x M covariance is never stored.
    sigma2:           residual variance, floored at SIGMA2_FLOOR.
    transform:        current similarity transform.
    moved_source:     (M, 3) source points after displacement + transform.

    Every array is made read-only, not copied, when the state is built.
    """

    source_mass: np.ndarray
    target_mass: np.ndarray
    matched_targets: np.ndarray
    matched_colors: np.ndarray
    mixing_weights: np.ndarray
    displacement: np.ndarray
    displacement_var: np.ndarray
    sigma2: float
    transform: SimilarityTransform
    moved_source: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)


def init_state(problem: RegistrationProblem) -> RegistrationState:
    """Start from the identity transform and zero displacement.

    The initial residual variance is gamma times the mean squared
    source/target distance per coordinate, floored at SIGMA2_FLOOR so
    coincident clouds do not divide by zero. The mean over all M x N pairs
    equals ||mean(y) - mean(x)||^2 + mean ||y - mean(y)||^2
    + mean ||x - mean(x)||^2, which takes O(M + N). The moved source and
    the matched targets and colors are the source's own read-only arrays,
    shared, not copied.

    With the correction on, the displacement variance starts at the
    prior's diagonal, 1 / lam (the Gram has a unit diagonal), not at BCPD's
    Sigma = I: a variance of 1 lowers every first log-density by
    3 / (2 sigma2), which can send all mass to the outlier term when sigma2
    starts small. With it off, the variance is 0 and stays 0.
    """
    source, params = problem.source, problem.params
    y = source.vertices
    m, n = len(source), len(problem.target_table)
    y_bar = y.mean(axis=0)
    mean_d2 = (
        float(np.sum((y_bar - problem.center) ** 2))
        + float(np.sum((y - y_bar) ** 2)) / m
        + float(problem.target_centered_sq.sum()) / n
    )
    sigma2 = max(params.gamma * mean_d2 / 3, SIGMA2_FLOOR)
    return RegistrationState(
        source_mass=np.zeros(m),
        target_mass=np.zeros(n),
        matched_targets=y,
        matched_colors=source.colors,
        mixing_weights=np.full(m, 1.0 / m),
        displacement=np.zeros((m, 3)),
        displacement_var=np.full(m, 1.0 / params.lam if params.use_sigma_correction else 0.0),
        sigma2=sigma2,
        transform=SimilarityTransform.identity(),
        moved_source=y,
    )


def e_step(state: RegistrationState, problem: RegistrationProblem) -> RegistrationState:
    """Update the match statistics and the mixing weights.

    Each moved source point carries an isotropic Gaussian of variance
    sigma2; with omega > 0, an outlier component uniform over the target
    bounding box absorbs the remaining column mass. The match probability
    of source m for target n is P[m, n] = exp(a[m, n]) / (sum_k exp(a[k, n])
    + exp(b)), with log-densities

        a[m, n] = log w_m - 1.5 log(2 pi sigma2) - |x_n - y'_m|^2 / (2 sigma2)
                  - 3 s^2 var_m / (2 sigma2),
        b = log(omega / ((1 - omega) volume)), or -inf when omega is 0.

    With both clouds centered on the target centroid and u2 = 1 / (2 sigma2),
    the squared distance expands so that each log-density is a dot product
    of 4-vectors, less a term of the target alone:

        a[m, n] = [x_n, 1] . [2 u2 y'_m ; c_m - u2 |y'_m|^2] - q_n,
        q_n = u2 |x_n|^2,

    where c_m collects the terms of a[m, n] that do not depend on n. Targets
    are visited in chunks of about kernel.PANEL_ELEMENTS / M points, the
    working-set budget the distance panels use too, and a chunk's a + q is
    one (chunk, 4) x (4, M) matrix product written into a single block
    reused for every chunk. q_n is the same for every source in
    target n's column, so it cancels in the column's normalization; it
    only enters the outlier term, as b + q_n. Each column is shifted by
    max(its largest a + q, b + q_n) and raised to at least LOG_FLOOR before
    exponentiating, so no column can underflow to zero and no M x N array
    is built. The expansion trades exact differences for cancellation: a
    log-density carries a rounding error of about
    eps (|x_n - center|^2 + |y'_m - center|^2) / (2 sigma2), eps = 2^-52,
    and P a relative error of the same order. Centering keeps this
    independent of where the clouds sit; at SIGMA2_FLOOR on clouds of unit
    radius it is about 2e-8. Only the sufficient statistics are accumulated:
    target_mass = P.T @ 1, and P @ target_table, which holds source_mass =
    P @ 1 and gives the matched targets and colors. Source points with
    (near) zero matched mass keep their own moved position and color. The
    mixing weights are

        w_m = (1 + source_mass_m / kappa) / (M + sum(source_mass) / kappa),

    exactly 1 / M at kappa = inf.
    """
    source, params = problem.source, problem.params
    y = state.moved_source
    m, n = len(source), len(problem.target_table)
    log_weight = (np.log(state.mixing_weights) - 1.5 * math.log(2.0 * math.pi * state.sigma2)
                  - state.transform.scale**2 * 3.0 * state.displacement_var / (2.0 * state.sigma2))

    # columns: P @ (x - center), P @ 1, P @ colors
    moments = np.zeros((m, 7))
    target_mass = np.empty(n)
    table = problem.target_table
    # a[m, n] + q_n = [x_n, 1] . coef[:, m], both clouds centered on the
    # target centroid; q_n = u2 |x_n|^2 is common to a target's column
    u2 = 0.5 / state.sigma2
    yc = y - problem.center
    coef = np.vstack([2.0 * u2 * yc.T, log_weight - u2 * np.einsum("ij,ij->i", yc, yc)])
    q = u2 * problem.target_centered_sq
    step = max(1, kernel.PANEL_ELEMENTS // m)
    block = np.empty((min(step, n), m))
    ones = np.ones(m)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        a = block[: hi - lo]
        np.matmul(table[lo:hi, :4], coef, out=a)
        outlier = problem.log_outlier + q[lo:hi]
        top = np.maximum(a.max(axis=1), outlier)
        # a -= top[:, None] as a rank-1 update, in place on the block; about
        # three times faster than NumPy's broadcast subtraction
        a = blas.dger(-1.0, ones, top, a=a.T, overwrite_a=True).T
        np.maximum(a, LOG_FLOOR, out=a)
        np.exp(a, out=a)
        col_mass = a @ ones
        den = col_mass + np.exp(outlier - top)
        target_mass[lo:hi] = col_mass / den
        moments += a.T @ (table[lo:hi] / den[:, None])

    source_mass = moments[:, 3].copy()
    total = float(source_mass.sum())
    weak = source_mass < MASS_EPS
    safe = np.where(weak, 1.0, source_mass)[:, None]
    matched_targets = moments[:, :3] / safe + problem.center
    matched_targets[weak] = y[weak]
    matched_colors = moments[:, 4:] / safe
    matched_colors[weak] = source.colors[weak]
    mixing = (1.0 + source_mass / params.kappa) / (m + total / params.kappa)
    return replace(
        state,
        source_mass=source_mass,
        target_mass=target_mass,
        matched_targets=matched_targets,
        matched_colors=matched_colors,
        mixing_weights=mixing,
    )


def update_displacement(
    state: RegistrationState, problem: RegistrationProblem
) -> RegistrationState:
    """Refit the smooth displacement field to the expected correspondences.

    The residual pulls each expected target back through the current
    transform; the displacement is the posterior mean of the field that
    :func:`~cloudmorph.kernel.field_posterior` fits to it under the Gram
    prior, with ratio = s^2 / (sigma2 lam), and the moved source is
    refreshed under the unchanged transform. With the sigma correction on,
    displacement_var is the field's posterior variance, that function's
    variance divided by lam; with it off, displacement_var keeps its
    value of 0.
    """
    params = problem.params
    y = problem.source.vertices
    tr = state.transform
    ratio = tr.scale * tr.scale / state.sigma2 / params.lam
    residual = ((state.matched_targets - tr.translation) @ tr.rotation) / tr.scale - y
    disp, var = field_posterior(problem.gram, state.source_mass, ratio, residual,
                                params.use_sigma_correction)
    var = state.displacement_var if var is None else var / params.lam
    return replace(state, displacement=disp, displacement_var=var, moved_source=tr.apply(y + disp))


def _procrustes_similarity(a: np.ndarray, b: np.ndarray, weights: np.ndarray | None):
    """Least-squares similarity fit b ~ scale * Q @ a + shift.

    Returns (scale, Q, shift); Q is a proper rotation. With ``weights`` None
    all points count equally.
    """
    w = np.ones(len(a)) if weights is None else weights
    total = float(w.sum())
    a_bar = w @ a / total
    b_bar = w @ b / total
    da = a - a_bar
    db = b - b_bar
    cross = (db * w[:, None]).T @ da / total
    u, _, vt = np.linalg.svd(cross)
    det = float(np.linalg.det(u @ vt))
    q = (u * np.array([1.0, 1.0, det])) @ vt
    var_a = float(w @ np.einsum("ij,ij->i", da, da)) / total
    if var_a <= 0.0:
        raise DegenerateGeometryError("point set has zero scatter; similarity fit undefined")
    scale = float(np.trace(q.T @ cross)) / var_a
    shift = b_bar - scale * (q @ a_bar)
    return scale, q, shift


def update_similarity(
    state: RegistrationState, problem: RegistrationProblem
) -> RegistrationState:
    """Weighted-Procrustes refit of scale/rotation/translation.

    The displacement field is re-gauged first: any similarity component
    left inside it is pulled out, by an unweighted similarity fit of the
    source to the deformed source (source + displacement) and the inverse
    of that fit applied to the deformed source. Without this, the scale and
    a radial displacement field can trade off freely once the residual
    variance bottoms out, and the returned split becomes arbitrary; with
    it, the displacement holds only genuinely non-rigid deformation.

    The re-gauged deformed source is then matched against the expected
    targets with the per-point masses as weights. A similarity fit commutes
    with a similarity map of its input, so this one fit equals the fit of
    the deformed source composed with the gauge, in exact arithmetic. The
    moved source and the residual variance are refreshed under the new
    transform.

    The variance needs sum_mn P[m, n] |x_n - y'_m|^2 over the moved source
    y'. With both clouds centered on the target centroid c, as in the
    E-step, it expands into the E-step's sufficient statistics, so no
    distance is recomputed and an offset of the clouds adds no rounding:

        sum_n target_mass_n |x_n - c|^2 + sum_m source_mass_m |y'_m - c|^2
        - 2 sum_m source_mass_m (y'_m - c) . (matched_targets_m - c).

    The variance also takes the field's own uncertainty, s^2 sum_m
    source_mass_m displacement_var_m / sum_m source_mass_m (BCPD's
    s^2 (nu . var) / N-hat), which is 0 with the sigma correction off.
    """
    y = problem.source.vertices
    mass = state.source_mass
    total = float(mass.sum())
    if total < 1e-9:
        raise DegenerateGeometryError("no matched mass; cannot update the transform")
    disp = state.displacement
    deformed = y + disp
    gauge_scale, gauge_rot, gauge_shift = _procrustes_similarity(y, deformed, None)
    if gauge_scale > 0.0:
        disp = ((deformed - gauge_shift) @ gauge_rot) / gauge_scale - y
        deformed = y + disp
    scale, rot, trans = _procrustes_similarity(deformed, state.matched_targets, mass)
    if scale <= 0.0:
        raise DegenerateGeometryError("estimated scale is not positive")

    new_tr = SimilarityTransform(scale, rot, trans)
    moved = new_tr.apply(deformed)
    moved_c = moved - problem.center
    matched_c = state.matched_targets - problem.center
    residual = (
        float(state.target_mass @ problem.target_centered_sq)
        - 2.0 * float(np.einsum("ij,ij->", moved_c, mass[:, None] * matched_c))
        + float(mass @ np.einsum("ij,ij->i", moved_c, moved_c))
    )
    sigma2 = residual / (3.0 * total) + scale * scale * float(mass @ state.displacement_var) / total
    sigma2 = max(sigma2, SIGMA2_FLOOR)
    return replace(state, transform=new_tr, moved_source=moved, sigma2=sigma2, displacement=disp)


@dataclass(frozen=True)
class RegistrationResult:
    """Everything a caller needs to reuse a finished registration.

    The transform and displacement live in normalized coordinates; the two
    records map results back into the original units of either cloud. A run
    that hit the iteration cap is returned with ``converged`` False rather
    than raised, so its best state remains usable.
    """

    transform: SimilarityTransform
    displacement: np.ndarray
    state: RegistrationState
    source_normalized: PointCloud
    target_normalized: PointCloud
    source_record: NormalizationRecord
    target_record: NormalizationRecord
    converged: bool
    iterations: int
    sigma2_history: tuple[float, ...]

    def aligned_source(self) -> PointCloud:
        """Source cloud after registration, in the target's original units."""
        moved = apply_transform(self.source_normalized, self.transform, self.displacement)
        return denormalize(moved, self.target_record)


def register(
    source: PointCloud,
    target: PointCloud,
    params: RegistrationParams | None = None,
) -> RegistrationResult:
    """Run the full loop until the residual variance stalls or the cap hits.

    At SIGMA2_FLOOR the variance stalls by clamping, not by fitting, so
    there the moved source must have stalled as well: its RMS shift over
    the iteration must be below ``tol``.

    Both clouds are normalized independently first; the problem (Gram
    matrix, outlier term, target table) is built once over the normalized
    clouds. The loop is free of randomness, so identical inputs produce
    bitwise-identical results.
    """
    params = params or RegistrationParams()
    src, src_rec = normalize(source)
    tgt, tgt_rec = normalize(target)
    problem = build_problem(src, tgt, params)
    state = init_state(problem)
    history = [state.sigma2]
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iters + 1):
        moved = state.moved_source
        state = e_step(state, problem)
        state = update_displacement(state, problem)
        state = update_similarity(state, problem)
        history.append(state.sigma2)
        if abs(history[-1] - history[-2]) / history[-2] < params.tol and (
            state.sigma2 > SIGMA2_FLOOR
            or np.linalg.norm(state.moved_source - moved) / math.sqrt(len(moved)) < params.tol
        ):
            converged = True
            break
    return RegistrationResult(
        transform=state.transform,
        displacement=state.displacement,
        state=state,
        source_normalized=src,
        target_normalized=tgt,
        source_record=src_rec,
        target_record=tgt_rec,
        converged=converged,
        iterations=iterations,
        sigma2_history=tuple(history),
    )


def apply_transform(
    source: PointCloud, transform: SimilarityTransform, displacement
) -> PointCloud:
    """Map each vertex through scale * R @ (vertex + displacement) + t.

    Colors are copied through untouched; only the geometry moves.
    """
    v = np.asarray(displacement, dtype=np.float64)
    if v.shape != source.vertices.shape:
        raise ShapeMismatchError(
            f"displacement shape {v.shape} != vertices shape {source.vertices.shape}"
        )
    return PointCloud(transform.apply(source.vertices + v), source.colors, source.id)
