"""Build a blended morph cloud from a completed registration.

The morph inherits the source cardinality: for every source point, the
registration state supplies an expected matching position and color on the
target side (the match-probability-weighted means the E-step accumulates,
``matched_targets`` and ``matched_colors``), and geometry and color are
blended with the same weight. This keeps the blend well-defined even when
the two clouds have different point counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bcpd import MASS_EPS, RegistrationState, apply_transform
from .cloudio import PointCloud
from .errors import ShapeMismatchError
from .kernel import nearest_rows


@dataclass(frozen=True)
class MorphConfig:
    """Blend weight: 1.0 keeps the aligned source, 0.0 keeps the target side."""

    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


# The morph's aligned-source stage: the source deformed and transformed with
# its colors kept, which is exactly apply_transform under the stage's name.
aligned_colored_source = apply_transform


def correspondence_targets(
    state: RegistrationState, target: PointCloud
) -> tuple[np.ndarray, np.ndarray]:
    """Expected matching target position and color for every source point.

    Both come straight from the registration state: ``matched_targets``
    and ``matched_colors``, the match-probability-weighted means of the
    target positions and colors from the last E-step. Source points with
    (near) zero matched mass fall back to the target vertex nearest their
    moved position, ties broken by lowest index, for both position and
    color; :func:`~cloudmorph.kernel.nearest_rows` finds it without holding
    a (weak points x targets) array.
    """
    if len(state.target_mass) != len(target):
        raise ShapeMismatchError(
            f"state has {len(state.target_mass)} target masses, cloud has {len(target)}"
        )
    weak = state.source_mass < MASS_EPS
    coords = state.matched_targets.copy()
    colors = state.matched_colors.copy()
    if np.any(weak):
        nearest = nearest_rows(state.moved_source[weak], target.vertices)
        coords[weak] = target.vertices[nearest]
        colors[weak] = target.colors[nearest]
    return coords, colors


def morph(
    pst1: PointCloud,
    corr_coords: np.ndarray,
    corr_colors: np.ndarray,
    config: MorphConfig,
    target_id: str = "",
) -> PointCloud:
    """Convex-blend the aligned source with its correspondence targets.

    vertex = alpha * aligned + (1 - alpha) * correspondence, and likewise
    for colors, which are clamped to [0, 1] as a safety net against
    floating-point drift. The output id is "morph_<src>_<tgt>_<alpha>".
    """
    coords = np.asarray(corr_coords, dtype=np.float64)
    colors = np.asarray(corr_colors, dtype=np.float64)
    if coords.shape != pst1.vertices.shape:
        raise ShapeMismatchError(
            f"correspondence coords shape {coords.shape} != vertices {pst1.vertices.shape}"
        )
    if colors.shape != pst1.colors.shape:
        raise ShapeMismatchError(
            f"correspondence colors shape {colors.shape} != colors {pst1.colors.shape}"
        )
    a = config.alpha
    verts = a * pst1.vertices + (1.0 - a) * coords
    cols = np.clip(a * pst1.colors + (1.0 - a) * colors, 0.0, 1.0)
    return PointCloud(verts, cols, f"morph_{pst1.id}_{target_id}_{a:g}")
