import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from cloudmorph import (
    MorphConfig,
    PointCloud,
    RegistrationParams,
    SimilarityTransform,
    aligned_colored_source,
    apply_transform,
    correspondence_targets,
    build_problem,
    init_state,
    morph,
    register,
)
from cloudmorph.errors import ShapeMismatchError
from cloudmorph.kernel import squared_distances
from conftest import make_cloud


def state_with(source, target, posterior):
    """State holding the E-step statistics of the given match probabilities."""
    posterior = np.asarray(posterior, dtype=float)
    state = init_state(build_problem(source, target, RegistrationParams(omega=0.0)))
    mass = posterior.sum(axis=1)
    weak = mass < 1e-12
    safe = np.where(weak, 1.0, mass)
    matched = (posterior @ target.vertices) / safe[:, None]
    matched[weak] = state.moved_source[weak]
    colors = (posterior @ target.colors) / safe[:, None]
    colors[weak] = source.colors[weak]
    return replace(
        state,
        source_mass=mass,
        target_mass=posterior.sum(axis=0),
        matched_targets=matched,
        matched_colors=colors,
    )


class TestMorphConfig:
    def test_valid_range(self):
        MorphConfig(0.0)
        MorphConfig(1.0)
        assert MorphConfig().alpha == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            MorphConfig(-0.1)
        with pytest.raises(ValueError):
            MorphConfig(1.2)


class TestAlignedColoredSource:
    def test_identity_is_noop(self, small_cloud):
        out = aligned_colored_source(
            small_cloud, SimilarityTransform.identity(), np.zeros((len(small_cloud), 3))
        )
        npt.assert_array_equal(out.vertices, small_cloud.vertices)
        npt.assert_array_equal(out.colors, small_cloud.colors)

    def test_equals_apply_transform(self, small_cloud, rng):
        tr = SimilarityTransform(1.7, np.eye(3), [0.5, 0.0, -0.5])
        disp = rng.normal(size=(len(small_cloud), 3))
        via_stage = aligned_colored_source(small_cloud, tr, disp)
        via_op = apply_transform(small_cloud, tr, disp)
        npt.assert_array_equal(via_stage.vertices, via_op.vertices)
        npt.assert_array_equal(via_stage.colors, via_op.colors)

    def test_colors_and_count_preserved(self, small_cloud, rng):
        tr = SimilarityTransform(0.5, np.eye(3), [1.0, 2.0, 3.0])
        out = aligned_colored_source(small_cloud, tr, rng.normal(size=(len(small_cloud), 3)))
        assert len(out) == len(small_cloud)
        npt.assert_array_equal(out.colors, small_cloud.colors)


class TestCorrespondenceTargets:
    def test_delta_posterior_returns_exact_vertex(self):
        source = PointCloud([[0.0, 0.0, 0.0]], [[0.5, 0.5, 0.5]], "s")
        target = PointCloud(
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "t"
        )
        state = state_with(source, target, [[0.0, 1.0]])
        coords, colors = correspondence_targets(state, target)
        npt.assert_array_equal(coords, [[4.0, 5.0, 6.0]])
        npt.assert_array_equal(colors, [[0.0, 0.0, 1.0]])

    def test_even_split_blends_color(self):
        source = PointCloud([[0.0, 0.0, 0.0]], [[0.5, 0.5, 0.5]], "s")
        target = PointCloud(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "t"
        )
        state = state_with(source, target, [[0.5, 0.5]])
        coords, colors = correspondence_targets(state, target)
        npt.assert_allclose(coords, [[0.5, 0.5, 0.0]], atol=1e-15)
        npt.assert_allclose(colors, [[0.5, 0.0, 0.5]], atol=1e-15)

    def test_zero_mass_uses_nearest_vertex(self):
        # source point at origin; targets at distance 1 and 2
        source = PointCloud([[0.0, 0.0, 0.0]], [[0.5, 0.5, 0.5]], "s")
        target = PointCloud(
            [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[0.9, 0.1, 0.2], [0.1, 0.9, 0.8]], "t"
        )
        state = state_with(source, target, [[0.0, 0.0]])
        coords, colors = correspondence_targets(state, target)
        npt.assert_array_equal(coords, [[1.0, 0.0, 0.0]])
        npt.assert_array_equal(colors, [[0.9, 0.1, 0.2]])

    def test_zero_mass_tie_breaks_to_lowest_index(self):
        source = PointCloud([[0.0, 0.0, 0.0]], [[0.5, 0.5, 0.5]], "s")
        target = PointCloud(
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]], "t"
        )
        state = state_with(source, target, [[0.0, 0.0]])
        coords, colors = correspondence_targets(state, target)
        npt.assert_array_equal(coords, [[1.0, 0.0, 0.0]])
        npt.assert_array_equal(colors, [[0.2, 0.2, 0.2]])

    def test_weak_points_searched_in_panels(self):
        # every one of 2000 source points is weak against 5000 targets; the
        # (2000, 5000) distance array alone would take 80 MB, and the panel
        # search peaked at 1.2 MB
        source, target = make_cloud(2000, seed=40), make_cloud(5000, seed=41)
        state = init_state(build_problem(source, target, RegistrationParams(omega=0.0)))
        assert not state.source_mass.any()
        tracemalloc.start()
        try:
            coords, colors = correspondence_targets(state, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        nearest = squared_distances(state.moved_source, target.vertices).argmin(axis=1)
        npt.assert_array_equal(coords, target.vertices[nearest])
        npt.assert_array_equal(colors, target.colors[nearest])

    def test_shape_mismatch(self):
        source = PointCloud([[0.0, 0.0, 0.0]], [[0.5, 0.5, 0.5]], "s")
        target = PointCloud(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "t"
        )
        other = PointCloud([[0.0, 0.0, 1.0]], [[0.1, 0.1, 0.1]], "o")
        state = state_with(source, target, [[0.5, 0.5]])
        with pytest.raises(ShapeMismatchError):
            correspondence_targets(state, other)


class TestMorph:
    def test_alpha_one_reproduces_aligned_source(self, rng):
        pst1 = make_cloud(25, seed=31, cloud_id="a")
        coords = rng.normal(size=(25, 3))
        colors = rng.uniform(size=(25, 3))
        out = morph(pst1, coords, colors, MorphConfig(1.0), target_id="b")
        npt.assert_array_equal(out.vertices, pst1.vertices)
        npt.assert_array_equal(out.colors, pst1.colors)

    def test_alpha_zero_reproduces_targets(self, rng):
        pst1 = make_cloud(25, seed=32, cloud_id="a")
        coords = rng.normal(size=(25, 3))
        colors = rng.uniform(size=(25, 3))
        out = morph(pst1, coords, colors, MorphConfig(0.0), target_id="b")
        npt.assert_array_equal(out.vertices, coords)
        npt.assert_array_equal(out.colors, colors)

    def test_midpoint_example(self):
        pst1 = PointCloud([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], "a")
        out = morph(
            pst1,
            np.array([[2.0, 2.0, 2.0]]),
            np.array([[0.0, 0.0, 1.0]]),
            MorphConfig(0.5),
            target_id="b",
        )
        npt.assert_array_equal(out.vertices, [[1.0, 1.0, 1.0]])
        npt.assert_array_equal(out.colors, [[0.5, 0.0, 0.5]])
        assert out.id == "morph_a_b_0.5"

    def test_segment_property_exact(self, rng):
        pst1 = make_cloud(40, seed=33)
        coords = rng.normal(size=(40, 3))
        colors = rng.uniform(size=(40, 3))
        alpha = 0.3
        out = morph(pst1, coords, colors, MorphConfig(alpha))
        expected = alpha * pst1.vertices + (1.0 - alpha) * coords
        npt.assert_array_equal(out.vertices, expected)

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.75])
    def test_swapped_roles_with_complement_alpha(self, rng, alpha):
        # exact equality needs 1 - (1 - alpha) == alpha, true for dyadic alpha
        a = make_cloud(30, seed=34, cloud_id="a")
        b_coords = rng.normal(size=(30, 3))
        b_colors = rng.uniform(size=(30, 3))
        b = PointCloud(b_coords, b_colors, "b")
        forward = morph(a, b_coords, b_colors, MorphConfig(alpha))
        backward = morph(b, a.vertices, a.colors, MorphConfig(1.0 - alpha))
        npt.assert_array_equal(forward.vertices, backward.vertices)
        npt.assert_array_equal(forward.colors, backward.colors)

    def test_swapped_roles_general_alpha(self, rng):
        # non-dyadic alpha: 1 - (1 - alpha) differs from alpha by one ulp
        a = make_cloud(30, seed=34, cloud_id="a")
        b_coords = rng.normal(size=(30, 3))
        b_colors = rng.uniform(size=(30, 3))
        b = PointCloud(b_coords, b_colors, "b")
        forward = morph(a, b_coords, b_colors, MorphConfig(0.3))
        backward = morph(b, a.vertices, a.colors, MorphConfig(0.7))
        npt.assert_allclose(forward.vertices, backward.vertices, rtol=0, atol=1e-14)
        npt.assert_allclose(forward.colors, backward.colors, rtol=0, atol=1e-14)

    def test_colors_stay_in_bounds(self, rng):
        pst1 = make_cloud(50, seed=35)
        coords = rng.normal(size=(50, 3))
        colors = rng.uniform(size=(50, 3))
        out = morph(pst1, coords, colors, MorphConfig(0.42))
        assert out.colors.min() >= 0.0
        assert out.colors.max() <= 1.0

    def test_vertex_count_inherited(self):
        pst1 = make_cloud(17, seed=36)
        out = morph(
            pst1, np.zeros((17, 3)), np.zeros((17, 3)), MorphConfig(0.5), target_id="t"
        )
        assert len(out) == 17

    def test_shape_mismatch(self):
        pst1 = make_cloud(5, seed=37)
        with pytest.raises(ShapeMismatchError):
            morph(pst1, np.zeros((4, 3)), np.zeros((5, 3)), MorphConfig(0.5))
        with pytest.raises(ShapeMismatchError):
            morph(pst1, np.zeros((5, 3)), np.zeros((4, 3)), MorphConfig(0.5))


class TestEndToEndMorph:
    def test_full_chain_produces_blend(self):
        source = make_cloud(120, seed=38, cloud_id="s1")
        target = make_cloud(140, seed=39, cloud_id="s2")
        result = register(source, target)
        aligned = aligned_colored_source(
            result.source_normalized, result.transform, result.displacement
        )
        npt.assert_array_equal(aligned.colors, source.colors)
        coords, colors = correspondence_targets(result.state, result.target_normalized)
        blended = morph(aligned, coords, colors, MorphConfig(0.5), target_id=target.id)
        assert len(blended) == len(source)
        expected = 0.5 * aligned.vertices + 0.5 * coords
        npt.assert_array_equal(blended.vertices, expected)
        assert blended.id == "morph_s1_s2_0.5"


IMPORT_FOOTPRINT_SCRIPT = """
import sys
from dataclasses import replace

import numpy as np

from cloudmorph import PointCloud, RegistrationParams, correspondence_targets, register

rng = np.random.default_rng(5)
source = PointCloud(rng.normal(size=(30, 3)), rng.uniform(size=(30, 3)), "s")
target = PointCloud(rng.normal(size=(40, 3)), rng.uniform(size=(40, 3)), "t")
result = register(source, target, RegistrationParams(max_iters=5))
mass = result.state.source_mass.copy()
mass[0] = 0.0
correspondence_targets(replace(result.state, source_mass=mass), result.target_normalized)
print(sorted(name for name in sys.modules if name.startswith("scipy.spatial")))
"""


def test_run_imports_no_scipy_spatial():
    # a registration and a morph with a weak source point need scipy.linalg
    # only; scipy.spatial alone costs about 9 MB of resident memory
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
