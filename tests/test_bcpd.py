import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from cloudmorph import (
    GramMatrix,
    PointCloud,
    RegistrationParams,
    SimilarityTransform,
    apply_transform,
    build_gram,
    e_step,
    init_state,
    normalize,
    register,
    solve_spd,
    update_displacement,
    update_similarity,
)
from cloudmorph import bcpd
from cloudmorph.bcpd import SIGMA2_FLOOR
from cloudmorph.errors import DegenerateGeometryError, ShapeMismatchError
from conftest import make_cloud, make_normalized_points, rms


def cloud_of(points, cloud_id="c"):
    points = np.asarray(points, dtype=float)
    return PointCloud(points, np.full_like(points, 0.5), cloud_id)


class TestSimilarityTransform:
    def test_identity(self):
        tr = SimilarityTransform.identity()
        assert tr.scale == 1.0
        npt.assert_array_equal(tr.rotation, np.eye(3))
        npt.assert_array_equal(tr.translation, np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            SimilarityTransform(0.0, np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            SimilarityTransform(1.0, np.eye(3) * 2.0, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            SimilarityTransform(1.0, reflection, np.zeros(3))

    def test_apply(self):
        rot = Rotation.from_euler("z", 90, degrees=True).as_matrix()
        tr = SimilarityTransform(2.0, rot, [1.0, 0.0, 0.0])
        out = tr.apply(np.array([[1.0, 0.0, 0.0]]))
        npt.assert_allclose(out, [[1.0, 2.0, 0.0]], atol=1e-12)


class TestRegistrationParams:
    def test_defaults(self):
        params = RegistrationParams()
        assert params.beta == 0.3
        assert params.lam == 50.0
        assert params.omega == 0.05
        assert params.gamma == 1.0
        assert math.isinf(params.kappa)
        assert params.tol == 1e-5
        assert params.max_iters == 300
        assert params.use_sigma_correction is False

    def test_validation(self):
        with pytest.raises(ValueError):
            RegistrationParams(beta=0.0)
        with pytest.raises(ValueError):
            RegistrationParams(omega=1.0)
        with pytest.raises(ValueError):
            RegistrationParams(tol=-1.0)
        RegistrationParams(tol=0.0)  # forced non-convergence is allowed
        RegistrationParams(tol=math.inf)


class TestInitState:
    def test_sigma2_formula(self):
        # one source at (1,0,0), one target at origin, gamma 1:
        # sigma2 = 1 / (1 * 1 * 3) * 1 = 1/3
        state = init_state(
            cloud_of([[1.0, 0.0, 0.0]]), cloud_of([[0.0, 0.0, 0.0]]), RegistrationParams()
        )
        assert state.sigma2 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_identical_clouds_clamped(self):
        state = init_state(
            cloud_of([[1.0, 2.0, 3.0]]), cloud_of([[1.0, 2.0, 3.0]]), RegistrationParams()
        )
        assert state.sigma2 == SIGMA2_FLOOR

    def test_identity_start(self):
        source = make_cloud(10, seed=0)
        target = make_cloud(12, seed=1)
        state = init_state(source, target, RegistrationParams())
        assert state.transform.scale == 1.0
        npt.assert_array_equal(state.transform.rotation, np.eye(3))
        npt.assert_array_equal(state.transform.translation, np.zeros(3))
        npt.assert_array_equal(state.displacement, np.zeros((10, 3)))
        assert state.displacement_var is None
        npt.assert_array_equal(state.moved_source, source.vertices)
        npt.assert_allclose(state.mixing_weights, 0.1)
        corrected = init_state(source, target, RegistrationParams(use_sigma_correction=True))
        npt.assert_array_equal(corrected.displacement_var, np.ones(10))

    def test_gamma_scales(self):
        source = cloud_of([[1.0, 0.0, 0.0]])
        target = cloud_of([[0.0, 0.0, 0.0]])
        s1 = init_state(source, target, RegistrationParams(gamma=1.0))
        s2 = init_state(source, target, RegistrationParams(gamma=2.5))
        assert s2.sigma2 == pytest.approx(2.5 * s1.sigma2, rel=1e-14)

    def test_sigma2_equals_mean_pairwise_distance(self):
        rng = np.random.default_rng(3)
        source = cloud_of(rng.normal(size=(50, 3)) + [0.4, -1.0, 2.0])
        target = cloud_of(1.7 * rng.normal(size=(70, 3)))
        params = RegistrationParams(gamma=1.3)
        expected = params.gamma * cdist(source.vertices, target.vertices, "sqeuclidean").mean() / 3
        assert init_state(source, target, params).sigma2 == pytest.approx(expected, rel=1e-12)


class TestEStep:
    def test_single_pair_certainty(self):
        source = cloud_of([[0.5, 0.5, 0.5]])
        target = cloud_of([[0.5, 0.5, 0.5]])
        params = RegistrationParams(omega=0.0)
        state = e_step(init_state(source, target, params), source, target, params)
        npt.assert_allclose(state.target_mass, [1.0])
        npt.assert_allclose(state.source_mass, [1.0])
        npt.assert_allclose(state.matched_targets, target.vertices)
        npt.assert_allclose(state.matched_colors, target.colors)

    def test_symmetric_sources_split_evenly(self):
        source = cloud_of([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        target = cloud_of([[0.0, 0.0, 0.0]])
        params = RegistrationParams(omega=0.0)
        state = e_step(init_state(source, target, params), source, target, params)
        npt.assert_allclose(state.source_mass, [0.5, 0.5], atol=1e-15)
        npt.assert_allclose(state.target_mass, [1.0], atol=1e-15)

    def test_known_two_by_two_posterior(self):
        # Frozen from an independent scalar-arithmetic evaluation of the
        # density and posterior formulas (sigma2=1, omega=0.1, uniform
        # mixing weights, outlier density 1/0.324).
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        target = PointCloud(
            [[0.1, 0.2, 0.3], [1.0, 0.8, 0.9]], [[0.9, 0.1, 0.2], [0.1, 0.6, 0.8]], "t"
        )
        params = RegistrationParams(omega=0.1)
        state = replace(init_state(source, target, params), sigma2=1.0)
        state = e_step(state, source, target, params)
        expected_posterior = np.array(
            [
                [0.0769703292402705, 0.024335278663759764],
                [0.031293800569338656, 0.08079597051105845],
            ]
        )
        # the posterior itself is not stored; its color-weighted row means are
        expected_colors = (expected_posterior @ target.colors) / expected_posterior.sum(
            axis=1, keepdims=True
        )
        npt.assert_allclose(state.matched_colors, expected_colors, rtol=0, atol=1e-15)
        npt.assert_allclose(
            state.source_mass,
            [0.10130560790403026, 0.11208977108039711],
            rtol=0,
            atol=1e-15,
        )
        npt.assert_allclose(
            state.target_mass,
            [0.10826412980960916, 0.10513124917481823],
            rtol=0,
            atol=1e-15,
        )
        expected_matched = np.array(
            [
                [0.3161948509122215, 0.34412990060814774, 0.44412990060814767],
                [0.748733356835891, 0.6324889045572608, 0.7324889045572607],
            ]
        )
        npt.assert_allclose(state.matched_targets, expected_matched, rtol=0, atol=1e-14)

    def test_zero_omega_far_target_keeps_full_column(self):
        # every density of the far target underflows in the linear domain;
        # shifted by the column's largest log-density, the column keeps its mass
        source = cloud_of([[0.0, 0.0, 0.0]])
        target = cloud_of([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        params = RegistrationParams(omega=0.0)
        state = replace(init_state(source, target, params), sigma2=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = e_step(state, source, target, params)
        npt.assert_array_equal(state.target_mass, [1.0, 1.0])
        for values in (
            state.source_mass,
            state.matched_targets,
            state.matched_colors,
            state.mixing_weights,
        ):
            assert np.all(np.isfinite(values))

    def test_far_target_goes_to_outlier(self):
        source = cloud_of([[0.0, 0.0, 0.0]])
        target = cloud_of([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
        params = RegistrationParams(omega=0.1)
        state = replace(init_state(source, target, params), sigma2=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = e_step(state, source, target, params)
        assert state.target_mass[0] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= state.target_mass[1] < 1e-12
        npt.assert_allclose(state.matched_targets, target.vertices[:1], atol=1e-12)
        assert np.all(np.isfinite(state.matched_colors))

    @pytest.mark.parametrize("sigma2", [0.02, 1e-3])
    @pytest.mark.parametrize("omega", [0.0, 0.1])
    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    def test_streamed_matches_dense_reference(
        self, omega, use_sigma_correction, sigma2, monkeypatch
    ):
        # Every target lies near a moved source, so the linear-domain reference
        # below keeps a non-zero sum in every row and column; at sigma2 = 1e-3
        # most shifted log-densities still lie below bcpd.LOG_FLOOR.
        rng = np.random.default_rng(700)
        m, n = 60, 700
        source = cloud_of(make_normalized_points(m, rng))
        moved = source.vertices + rng.normal(0.0, 0.05, size=(m, 3))
        target_points = moved[rng.integers(m, size=n)] + rng.normal(0.0, 0.02, size=(n, 3))
        target = PointCloud(target_points, rng.uniform(size=(n, 3)), "t")
        params = RegistrationParams(
            omega=omega, kappa=3.0, use_sigma_correction=use_sigma_correction
        )
        rot = Rotation.from_euler("xyz", [5, -10, 15], degrees=True).as_matrix()
        state = replace(
            init_state(source, target, params),
            transform=SimilarityTransform(1.1, rot, [0.05, -0.02, 0.03]),
            moved_source=moved,
            mixing_weights=rng.dirichlet(np.ones(m)),
            sigma2=sigma2,
        )
        if use_sigma_correction:
            # the field's variances lie between 1 / (lam + s^2 / sigma2) and 1 / lam
            c = state.transform.scale**2 / sigma2
            var = 1.0 / (params.lam + c * rng.uniform(0.0, 1.0, size=m))
            state = replace(state, displacement_var=var)
        cdist_calls = []

        def counting_cdist(*args, **kwargs):
            cdist_calls.append(args[0].shape)
            return cdist(*args, **kwargs)

        monkeypatch.setattr(bcpd, "cdist", counting_cdist)
        monkeypatch.setattr(bcpd, "E_STEP_CHUNK", 250 * m)
        out = e_step(state, source, target, params)
        assert len(cdist_calls) >= 3

        # Dense reference: the full M x N posterior in the linear domain.
        x = target.vertices
        d2 = cdist(state.moved_source, x, "sqeuclidean")
        phi = state.mixing_weights[:, None] * (2.0 * math.pi * state.sigma2) ** -1.5
        phi = phi * np.exp(-d2 / (2.0 * state.sigma2))
        if use_sigma_correction:
            trace = state.transform.scale**2 * 3.0 * state.displacement_var
            phi = phi * np.exp(-trace / (2.0 * state.sigma2))[:, None]
        volume = float(np.prod(x.max(axis=0) - x.min(axis=0)))
        den = (1.0 - omega) * phi.sum(axis=0) + omega / volume
        posterior = (1.0 - omega) * phi / den[None, :]
        nu = posterior.sum(axis=1)
        assert nu.min() > 1e-6  # no weak points: every row is a posterior mean
        npt.assert_allclose(out.source_mass, nu, rtol=0, atol=1e-12)
        npt.assert_allclose(out.target_mass, posterior.sum(axis=0), rtol=0, atol=1e-12)
        npt.assert_allclose(out.matched_targets, posterior @ x / nu[:, None], rtol=0, atol=1e-12)
        npt.assert_allclose(
            out.matched_colors, posterior @ target.colors / nu[:, None], rtol=0, atol=1e-12
        )

        # the variance refresh needs no distances beyond the E-step's statistics
        monkeypatch.setattr(bcpd, "cdist", None)
        gram = build_gram(source.vertices, params.beta)
        out = update_displacement(out, source, gram, params)
        out = update_similarity(out, source, target, params)
        residual = (posterior * cdist(out.moved_source, x, "sqeuclidean")).sum()
        expected = residual / (3.0 * posterior.sum())
        if use_sigma_correction:
            expected += out.transform.scale**2 * 3.0 * out.displacement_var.mean()
        assert out.sigma2 == pytest.approx(expected, rel=1e-10)

    def test_e_step_memory_stays_below_quarter_posterior(self):
        rng = np.random.default_rng(20000)
        m, n = 200, 20000
        source = cloud_of(make_normalized_points(m, rng))
        target = cloud_of(make_normalized_points(n, rng))
        params = RegistrationParams()
        state = init_state(source, target, params)
        tracemalloc.start()
        try:
            e_step(state, source, target, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8 / 4

    def test_weak_mass_falls_back_to_moved_source(self):
        source = cloud_of([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
        target = cloud_of([[0.0, 0.1, 0.0], [0.1, 0.0, 0.1]])
        params = RegistrationParams(omega=0.5)
        state = replace(init_state(source, target, params), sigma2=1e-4)
        state = e_step(state, source, target, params)
        assert state.source_mass[1] < 1e-12
        npt.assert_array_equal(state.matched_targets[1], source.vertices[1])

    def test_finite_kappa_mixing_update(self):
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        target = cloud_of([[0.1, 0.2, 0.3], [1.0, 0.8, 0.9]])
        params = RegistrationParams(omega=0.1, kappa=2.0)
        state = replace(init_state(source, target, params), sigma2=1.0)
        state = e_step(state, source, target, params)
        total = state.source_mass.sum()
        expected = (2.0 + state.source_mass) / (2.0 * 2 + total)
        npt.assert_allclose(state.mixing_weights, expected, atol=1e-15)
        assert state.mixing_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_infinite_kappa_keeps_uniform(self):
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        target = cloud_of([[0.1, 0.2, 0.3], [1.0, 0.8, 0.9]])
        params = RegistrationParams(omega=0.1)
        state = replace(init_state(source, target, params), sigma2=1.0)
        state = e_step(state, source, target, params)
        npt.assert_array_equal(state.mixing_weights, [0.5, 0.5])


class TestUpdateDisplacement:
    def test_zero_mass_keeps_prior_mean(self):
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        params = RegistrationParams()
        gram = build_gram(source.vertices, params.beta)
        rot = Rotation.from_euler("y", 30, degrees=True).as_matrix()
        tr = SimilarityTransform(1.5, rot, [0.1, 0.2, 0.3])
        state = replace(
            init_state(source, cloud_of([[0.0, 0.0, 0.0]]), params),
            transform=tr,
            source_mass=np.zeros(2),
        )
        state = update_displacement(state, source, gram, params)
        npt.assert_array_equal(state.displacement, np.zeros((2, 3)))
        npt.assert_allclose(state.moved_source, tr.apply(source.vertices), atol=1e-12)

    def test_huge_lambda_suppresses_deformation(self):
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        target = cloud_of([[0.3, 0.1, 0.2], [1.2, 0.1, -0.1], [0.1, 1.3, 0.3]])
        params = RegistrationParams(lam=1e12)
        gram = build_gram(source.vertices, params.beta)
        state = init_state(source, target, params)
        state = e_step(state, source, target, params)
        state = update_displacement(state, source, gram, params)
        assert np.max(np.abs(state.displacement)) <= 1e-6

    def test_diagonal_gram_closed_form(self):
        # Oracle: with G = I the update decouples per point into
        # (c nu_m / (lam + c nu_m)) * r_m, c = s^2 / sigma2, with posterior
        # variance 1 / (lam + c nu_m).
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        params = RegistrationParams(lam=7.0, use_sigma_correction=True)
        gram = GramMatrix(np.eye(2), beta=params.beta)
        scale, sigma2 = 1.3, 0.25
        trans = np.array([0.1, -0.2, 0.3])
        residual = np.array([[0.2, -0.1, 0.05], [-0.3, 0.2, 0.4]])
        mass = np.array([0.8, 0.4])
        # choose expected targets so that the residual comes out as above
        matched = scale * (source.vertices + residual) + trans
        state = replace(
            init_state(source, cloud_of([[0.0, 0.0, 0.0]]), params),
            transform=SimilarityTransform(scale, np.eye(3), trans),
            sigma2=sigma2,
            source_mass=mass,
            matched_targets=matched,
        )
        state = update_displacement(state, source, gram, params)
        c = scale**2 / sigma2
        expected = (c * mass / (params.lam + c * mass))[:, None] * residual
        npt.assert_allclose(state.displacement, expected, rtol=0, atol=1e-12)
        expected_var = 1.0 / (params.lam + c * mass)
        npt.assert_allclose(state.displacement_var, expected_var, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    def test_matches_dense_covariance_reference(self, use_sigma_correction):
        rng = np.random.default_rng(60)
        source = cloud_of(make_normalized_points(60, rng))
        params = RegistrationParams(lam=2.0, use_sigma_correction=use_sigma_correction)
        gram = build_gram(source.vertices, params.beta)
        mass = rng.uniform(0.0, 1.0, size=60)
        mass[rng.choice(60, size=8, replace=False)] = 0.0
        rot = Rotation.from_euler("xyz", [10, -20, 30], degrees=True).as_matrix()
        tr = SimilarityTransform(1.2, rot, [0.1, -0.3, 0.2])
        state = replace(
            init_state(source, cloud_of([[0.0, 0.0, 0.0]]), params),
            transform=tr,
            sigma2=0.05,
            source_mass=mass,
            matched_targets=source.vertices + rng.normal(0.0, 0.2, size=(60, 3)),
        )
        out = update_displacement(state, source, gram, params)

        # Dense reference: the full posterior covariance of the field.
        g = gram.values
        c = tr.scale**2 / state.sigma2
        root = np.sqrt(mass)
        sg = root[:, None] * g
        k = np.eye(60) + (c / params.lam) * (root[:, None] * g * root[None, :])
        cov = (g - (c / params.lam) * (sg.T @ np.linalg.solve(k, sg))) / params.lam
        residual = ((state.matched_targets - tr.translation) @ tr.rotation) / tr.scale
        residual -= source.vertices
        expected = c * (cov @ (mass[:, None] * residual))
        npt.assert_allclose(out.displacement, expected, rtol=0, atol=1e-10)
        npt.assert_allclose(out.moved_source, tr.apply(source.vertices + expected), atol=1e-10)
        if use_sigma_correction:
            npt.assert_allclose(out.displacement_var, np.diag(cov), rtol=0, atol=1e-10)
        else:
            assert out.displacement_var is None

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    def test_single_solve_per_update(self, use_sigma_correction, monkeypatch):
        # the covariance is never formed: one solve with a 3-column
        # right-hand side, plus M columns for the variances when requested
        rng = np.random.default_rng(61)
        source = cloud_of(make_normalized_points(20, rng))
        target = cloud_of(make_normalized_points(25, rng))
        params = RegistrationParams(use_sigma_correction=use_sigma_correction)
        gram = build_gram(source.vertices, params.beta)
        state = e_step(init_state(source, target, params), source, target, params)
        shapes = []

        def recording_solve(a, b):
            shapes.append((a.shape, b.shape))
            return solve_spd(a, b)

        monkeypatch.setattr(bcpd, "solve_spd", recording_solve)
        update_displacement(state, source, gram, params)
        assert shapes == [((20, 20), (20, 23 if use_sigma_correction else 3))]

    def test_shape_mismatch(self):
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        params = RegistrationParams()
        gram = build_gram(np.zeros((3, 3)), params.beta)
        state = init_state(source, cloud_of([[0.0, 0.0, 0.0]]), params)
        with pytest.raises(ShapeMismatchError):
            update_displacement(state, source, gram, params)


def exact_correspondence_state(source, target_points, params):
    """State with unit masses and expected targets pinned to target_points."""
    m = len(source)
    state = init_state(source, cloud_of(target_points), params)
    return replace(
        state,
        source_mass=np.ones(m),
        target_mass=np.ones(m),
        matched_targets=np.asarray(target_points, dtype=float),
    )


class TestUpdateSimilarity:
    def test_identity_recovery(self):
        source = make_cloud(40, seed=21)
        params = RegistrationParams()
        state = exact_correspondence_state(source, source.vertices, params)
        state = update_similarity(state, source, source, params)
        assert abs(state.transform.scale - 1.0) <= 1e-6
        assert np.linalg.norm(state.transform.rotation - np.eye(3)) <= 1e-6
        assert np.linalg.norm(state.transform.translation) <= 1e-6

    def test_rotation_translation_recovery(self):
        source = make_cloud(50, seed=22)
        rot = Rotation.from_euler("z", 90, degrees=True).as_matrix()
        trans = np.array([1.0, 2.0, 3.0])
        target_points = source.vertices @ rot.T + trans
        params = RegistrationParams()
        state = exact_correspondence_state(source, target_points, params)
        state = update_similarity(state, source, cloud_of(target_points), params)
        npt.assert_allclose(state.transform.rotation, rot, atol=1e-6)
        npt.assert_allclose(state.transform.translation, trans, atol=1e-6)
        assert abs(state.transform.scale - 1.0) <= 1e-6

    def test_scale_recovery(self):
        source = make_cloud(30, seed=23)
        target_points = 2.0 * source.vertices
        params = RegistrationParams()
        state = exact_correspondence_state(source, target_points, params)
        state = update_similarity(state, source, cloud_of(target_points), params)
        assert abs(state.transform.scale - 2.0) <= 1e-6
        npt.assert_allclose(state.transform.rotation, np.eye(3), atol=1e-6)
        npt.assert_allclose(state.transform.translation, np.zeros(3), atol=1e-6)

    def test_gauge_moves_similarity_content_out_of_displacement(self):
        # a pure-scale displacement field must end up in the transform
        source = make_cloud(25, seed=24)
        src_n, _ = normalize(source)
        params = RegistrationParams()
        disp = 0.25 * src_n.vertices
        state = exact_correspondence_state(src_n, src_n.vertices, params)
        state = replace(state, displacement=disp)
        out = update_similarity(state, src_n, src_n, params)
        assert np.max(np.abs(out.displacement)) <= 1e-9
        moved_before = 1.25 * src_n.vertices  # identity transform applied to y + disp
        npt.assert_allclose(
            out.transform.apply(src_n.vertices + out.displacement).mean(axis=0),
            moved_before.mean(axis=0) * 0
            + out.moved_source.mean(axis=0),
            atol=1e-12,
        )

    def test_no_mass_raises(self):
        source = make_cloud(10, seed=25)
        params = RegistrationParams()
        state = replace(init_state(source, source, params), source_mass=np.zeros(10))
        with pytest.raises(DegenerateGeometryError):
            update_similarity(state, source, source, params)

    def test_sigma2_floor_applied(self):
        source = make_cloud(15, seed=26)
        params = RegistrationParams()
        state = exact_correspondence_state(source, source.vertices, params)
        state = update_similarity(state, source, source, params)
        assert state.sigma2 >= SIGMA2_FLOOR


class TestIterationInvariants:
    def test_state_invariants_over_iterations(self):
        for use_sigma_correction in (False, True):
            self.check_invariants(RegistrationParams(use_sigma_correction=use_sigma_correction))

    def check_invariants(self, params):
        rng = np.random.default_rng(42)
        src_pts = make_normalized_points(60, rng)
        tgt_pts = make_normalized_points(70, rng)
        source = cloud_of(src_pts, "s")
        target = cloud_of(tgt_pts, "t")
        gram = build_gram(source.vertices, params.beta)
        state = init_state(source, target, params)
        for _ in range(10):
            state = e_step(state, source, target, params)
            assert np.all(state.source_mass >= 0.0)
            assert np.all(state.target_mass >= 0.0)
            assert np.all(state.target_mass <= 1.0 + 1e-10)
            assert abs(state.source_mass.sum() - state.target_mass.sum()) <= 1e-10
            assert np.all(state.mixing_weights >= 0.0)
            assert state.mixing_weights.sum() == pytest.approx(1.0, abs=1e-10)

            state = update_displacement(state, source, gram, params)
            var = state.displacement_var
            if params.use_sigma_correction:
                # posterior variances of the field, at most the prior's 1/lam
                assert np.all(var > 0.0)
                assert np.all(var <= (1.0 + 1e-12) / params.lam)
            else:
                assert var is None

            state = update_similarity(state, source, target, params)
            rot = state.transform.rotation
            assert np.max(np.abs(rot.T @ rot - np.eye(3))) <= 1e-8
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-8)
            assert state.transform.scale > 0.0
            assert state.sigma2 >= SIGMA2_FLOOR


class TestRegister:
    def test_sigma2_mostly_non_increasing(self):
        # the residual variance may wobble in the first iterations while the
        # transform settles; after iteration 3 it should shrink in nearly
        # every run
        good = 0
        for seed in range(50):
            cloud = make_cloud(120, seed=400 + seed)
            history = register(cloud, cloud).sigma2_history
            tail = history[3:]
            good += all(b <= a * (1.0 + 1e-12) for a, b in zip(tail, tail[1:]))
        assert good >= 48  # 95% of 50

    def test_sigma_correction_toggle_runs(self):
        cloud = make_cloud(60, seed=77)
        result = register(
            cloud, cloud, RegistrationParams(use_sigma_correction=True, max_iters=40)
        )
        assert result.state.sigma2 >= SIGMA2_FLOOR
        assert len(result.sigma2_history) == result.iterations + 1

    def test_self_registration_property(self):
        cloud = make_cloud(300, seed=5)
        result = register(cloud, cloud)
        assert result.converged
        assert np.max(np.abs(result.displacement)) <= 0.02
        assert np.linalg.norm(result.transform.rotation - np.eye(3)) <= 0.02
        assert abs(result.transform.scale - 1.0) <= 0.02
        assert np.linalg.norm(result.transform.translation) <= 0.02

    def test_rigid_recovery(self):
        rng = np.random.default_rng(17)
        base = make_normalized_points(250, rng)
        rot = Rotation.from_rotvec(np.deg2rad(25) * np.array([0.0, 0.0, 1.0])).as_matrix()
        trans = np.array([0.3, -0.2, 0.4])
        target_points = base @ rot.T + trans + rng.normal(0, 0.005, size=base.shape)
        colors = rng.uniform(size=(250, 3))
        source = PointCloud(base, colors, "src")
        target = PointCloud(target_points, colors, "tgt")
        result = register(source, target)
        moved = (
            result.state.moved_source * result.target_record.scale
            + result.target_record.centroid
        )
        assert rms(moved, target_points) <= 0.05

    def test_infinite_tol_stops_after_one_iteration(self):
        cloud = make_cloud(30, seed=6)
        result = register(cloud, cloud, RegistrationParams(tol=math.inf))
        assert result.iterations == 1
        assert result.converged
        assert len(result.sigma2_history) == 2

    def test_zero_tol_never_converges(self):
        cloud = make_cloud(20, seed=7)
        result = register(cloud, cloud, RegistrationParams(tol=0.0, max_iters=3))
        assert not result.converged
        assert result.iterations == 3

    def test_deterministic(self):
        source = make_cloud(80, seed=8, cloud_id="a")
        target = make_cloud(90, seed=9, cloud_id="b")
        r1 = register(source, target)
        r2 = register(source, target)
        assert r1.iterations == r2.iterations
        assert r1.sigma2_history == r2.sigma2_history
        npt.assert_array_equal(r1.displacement, r2.displacement)
        npt.assert_array_equal(r1.transform.rotation, r2.transform.rotation)
        npt.assert_array_equal(r1.transform.translation, r2.transform.translation)
        assert r1.transform.scale == r2.transform.scale
        npt.assert_array_equal(r1.state.matched_colors, r2.state.matched_colors)

    def test_aligned_source_matches_state(self):
        source = make_cloud(60, seed=10, cloud_id="a")
        target = make_cloud(60, seed=11, cloud_id="b")
        result = register(source, target)
        aligned = result.aligned_source()
        expected = (
            result.state.moved_source * result.target_record.scale
            + result.target_record.centroid
        )
        npt.assert_allclose(aligned.vertices, expected, atol=1e-12)
        npt.assert_array_equal(aligned.colors, source.colors)


class TestApplyTransform:
    def test_identity(self, small_cloud):
        out = apply_transform(
            small_cloud, SimilarityTransform.identity(), np.zeros((len(small_cloud), 3))
        )
        npt.assert_array_equal(out.vertices, small_cloud.vertices)
        npt.assert_array_equal(out.colors, small_cloud.colors)

    def test_known_value(self):
        # s=2, R=I, t=(1,1,1), v=0 maps (1,0,0) to (3,1,1)
        cloud = cloud_of([[1.0, 0.0, 0.0]])
        tr = SimilarityTransform(2.0, np.eye(3), [1.0, 1.0, 1.0])
        out = apply_transform(cloud, tr, np.zeros((1, 3)))
        npt.assert_array_equal(out.vertices, [[3.0, 1.0, 1.0]])

    def test_displacement_applied_before_transform(self):
        cloud = cloud_of([[1.0, 0.0, 0.0]])
        tr = SimilarityTransform(2.0, np.eye(3), [0.0, 0.0, 0.0])
        out = apply_transform(cloud, tr, np.array([[0.5, 0.0, 0.0]]))
        npt.assert_array_equal(out.vertices, [[3.0, 0.0, 0.0]])

    def test_colors_untouched(self, small_cloud):
        rot = Rotation.from_euler("x", 45, degrees=True).as_matrix()
        tr = SimilarityTransform(3.0, rot, [1.0, -2.0, 0.5])
        rng = np.random.default_rng(1)
        out = apply_transform(small_cloud, tr, rng.normal(size=(len(small_cloud), 3)))
        npt.assert_array_equal(out.colors, small_cloud.colors)
        assert out.id == small_cloud.id

    def test_shape_mismatch(self, small_cloud):
        with pytest.raises(ShapeMismatchError):
            apply_transform(small_cloud, SimilarityTransform.identity(), np.zeros((3, 3)))
