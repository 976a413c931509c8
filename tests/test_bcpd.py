import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from cloudmorph import (
    PointCloud,
    RegistrationParams,
    RegistrationProblem,
    SimilarityTransform,
    apply_transform,
    build_gram,
    build_problem,
    e_step,
    init_state,
    normalize,
    register,
    solve_spd,
    update_displacement,
    update_similarity,
)
from cloudmorph import bcpd, kernel
from cloudmorph.bcpd import SIGMA2_FLOOR
from cloudmorph.errors import DegenerateGeometryError, ShapeMismatchError
from conftest import make_cloud, make_normalized_points, rms


def cloud_of(points, cloud_id="c"):
    points = np.asarray(points, dtype=float)
    return PointCloud(points, np.full_like(points, 0.5), cloud_id)


def clustered_e_step_input(sigma2, offset=0.0):
    """Clusters of 5 sources, about sqrt(sigma2) apart, on a unit-radius cloud.

    Targets lie near the sources, so each target's posterior is spread over
    its cluster. Coordinates lie on a 2^-40 grid, so adding an offset below
    2^10 moves the clouds exactly.
    """
    rng = np.random.default_rng(900)
    m, n = 200, 400
    centers = np.repeat(make_normalized_points(m // 5, rng), 5, axis=0)
    y = centers + math.sqrt(sigma2) * rng.normal(size=(m, 3))
    x = y[rng.integers(m, size=n)] + math.sqrt(sigma2) * rng.normal(size=(n, 3))
    y, x = (np.round(p * 2.0**40) / 2.0**40 + offset for p in (y, x))
    source = cloud_of(y, "s")
    target = PointCloud(x, rng.uniform(size=(n, 3)), "t")
    params = RegistrationParams(omega=0.1, kappa=3.0)
    state = replace(
        init_state(build_problem(source, target, params)),
        sigma2=sigma2,
        mixing_weights=rng.dirichlet(np.ones(m)),
    )
    return state, source, target, params


def log_domain_reference(state, target, params):
    """(source_mass, target_mass, matched_targets) of the E-step, with the
    log-densities taken from exact coordinate differences (cdist)."""
    x = target.vertices
    volume = float(np.prod(x.max(axis=0) - x.min(axis=0)))
    b = math.log(params.omega / ((1.0 - params.omega) * volume))
    a = np.log(state.mixing_weights)[:, None] - 1.5 * math.log(2.0 * math.pi * state.sigma2)
    a = a - cdist(state.moved_source, x, "sqeuclidean") / (2.0 * state.sigma2)
    top = np.maximum(a.max(axis=0), b)
    p = np.exp(np.maximum(a - top, bcpd.LOG_FLOOR))
    posterior = p / (p.sum(axis=0) + np.exp(b - top))
    nu = posterior.sum(axis=1)
    return nu, posterior.sum(axis=0), posterior @ x / nu[:, None]


def gemm_rounding_unit(state, target):
    """eps (max |x_n - center|^2 + max |y'_m - center|^2) / (2 sigma2), center
    the target centroid: the E-step's stated log-density rounding error."""
    center = target.vertices.mean(axis=0)
    r2 = sum(np.sum((p - center) ** 2, axis=1).max() for p in (target.vertices, state.moved_source))
    return np.finfo(float).eps * r2 / (2.0 * state.sigma2)


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

    @pytest.mark.parametrize(
        "scale, entry, shift",
        [(1.0, math.nan, 0.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (math.inf, 1.0, 0.0)],
        ids=["nan-rotation", "nan-translation", "inf-translation", "inf-scale"],
    )
    def test_non_finite_rejected(self, scale, entry, shift):
        rotation = np.eye(3)
        rotation[2, 2] = entry
        with pytest.raises(ValueError, match="finite"):
            SimilarityTransform(scale, rotation, [0.0, shift, 0.0])

    @pytest.mark.parametrize("shape", [(2, 2), (9,), (3, 4)])
    def test_rotation_must_be_3x3(self, shape):
        with pytest.raises(ValueError, match="rotation must be 3x3"):
            SimilarityTransform(1.0, np.ones(shape), np.zeros(3))

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

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
    def test_max_iters_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="^max_iters must be an integer"):
            RegistrationParams(max_iters=value)

    def test_numpy_integer_max_iters_accepted(self):
        cloud = make_cloud(20, seed=7)
        result = register(cloud, cloud, RegistrationParams(tol=0.0, max_iters=np.int64(2)))
        assert result.iterations == 2

    @pytest.mark.parametrize("name", ["beta", "lam", "gamma", "kappa", "tol"])
    def test_nan_rejected(self, name):
        # NaN fails every comparison; a check written as ``x <= 0`` lets it pass
        message = "tol must be non-negative" if name == "tol" else f"{name} must be positive"
        with pytest.raises(ValueError, match=message):
            RegistrationParams(**{name: math.nan})


class TestInitState:
    def test_sigma2_formula(self):
        # one source at (1,0,0), one target at origin, gamma 1:
        # sigma2 = 1 / (1 * 1 * 3) * 1 = 1/3
        state = init_state(
            build_problem(
                cloud_of([[1.0, 0.0, 0.0]]),
                cloud_of([[0.0, 0.0, 0.0]]),
                RegistrationParams(omega=0.0),
            )
        )
        assert state.sigma2 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_identical_clouds_clamped(self):
        state = init_state(
            build_problem(
                cloud_of([[1.0, 2.0, 3.0]]),
                cloud_of([[1.0, 2.0, 3.0]]),
                RegistrationParams(omega=0.0),
            )
        )
        assert state.sigma2 == SIGMA2_FLOOR

    def test_identity_start(self):
        source = make_cloud(10, seed=0)
        target = make_cloud(12, seed=1)
        state = init_state(build_problem(source, target, RegistrationParams()))
        assert state.transform.scale == 1.0
        npt.assert_array_equal(state.transform.rotation, np.eye(3))
        npt.assert_array_equal(state.transform.translation, np.zeros(3))
        npt.assert_array_equal(state.displacement, np.zeros((10, 3)))
        npt.assert_array_equal(state.displacement_var, np.zeros(10))
        npt.assert_array_equal(state.moved_source, source.vertices)
        npt.assert_allclose(state.mixing_weights, 0.1)
        # the correction starts at the prior's diagonal 1 / lam, not BCPD's ones
        params = RegistrationParams(lam=8.0, use_sigma_correction=True)
        corrected = init_state(build_problem(source, target, params))
        npt.assert_array_equal(corrected.displacement_var, np.full(10, 0.125))

    def test_start_shares_the_problem_arrays(self):
        problem = build_problem(make_cloud(10, seed=0), make_cloud(12, seed=1),
                                RegistrationParams())
        state = init_state(problem)
        assert np.shares_memory(state.moved_source, problem.source.vertices)
        assert np.shares_memory(state.matched_targets, problem.source.vertices)
        assert np.shares_memory(state.matched_colors, problem.source.colors)

    def test_gamma_scales(self):
        source = cloud_of([[1.0, 0.0, 0.0]])
        target = cloud_of([[0.0, 0.0, 0.0]])
        s1 = init_state(build_problem(source, target, RegistrationParams(gamma=1.0, omega=0.0)))
        s2 = init_state(build_problem(source, target, RegistrationParams(gamma=2.5, omega=0.0)))
        assert s2.sigma2 == pytest.approx(2.5 * s1.sigma2, rel=1e-14)

    def test_sigma2_equals_mean_pairwise_distance(self):
        rng = np.random.default_rng(3)
        source = cloud_of(rng.normal(size=(50, 3)) + [0.4, -1.0, 2.0])
        target = cloud_of(1.7 * rng.normal(size=(70, 3)))
        params = RegistrationParams(gamma=1.3)
        expected = params.gamma * cdist(source.vertices, target.vertices, "sqeuclidean").mean() / 3
        assert init_state(build_problem(source, target, params)).sigma2 == pytest.approx(
            expected, rel=1e-12
        )


class TestBuildProblem:
    def test_flat_target_has_no_outlier_volume(self):
        rng = np.random.default_rng(31)
        source = cloud_of(make_normalized_points(20, rng))
        flat = rng.normal(size=(30, 3))
        flat[:, 2] = 0.5
        target = cloud_of(flat)
        with pytest.raises(DegenerateGeometryError):
            build_problem(source, target, RegistrationParams(omega=0.05))
        problem = build_problem(source, target, RegistrationParams(omega=0.0))
        assert problem.log_outlier == -math.inf

    def test_tables_match_their_definitions_and_are_read_only(self):
        source = make_cloud(15, seed=32)
        target = make_cloud(25, seed=33)
        params = RegistrationParams()
        problem = build_problem(source, target, params)
        x = target.vertices
        npt.assert_array_equal(problem.gram.values, build_gram(source.vertices, params.beta).values)
        xc = x - x.mean(axis=0)
        npt.assert_array_equal(problem.center, x.mean(axis=0))
        npt.assert_array_equal(problem.target_table, np.hstack([xc, np.ones((25, 1)), target.colors]))
        npt.assert_array_equal(problem.target_centered_sq, np.einsum("ij,ij->i", xc, xc))
        for table in (problem.center, problem.target_table, problem.target_centered_sq):
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_constructor_makes_arrays_read_only(self):
        # the problem freezes its own arrays, as a state does, without
        # copying them; build_problem is not the only way to make one
        built = build_problem(make_cloud(15, seed=32), make_cloud(25, seed=33),
                              RegistrationParams())
        tables = {name: getattr(built, name).copy()
                  for name in ("center", "target_table", "target_centered_sq")}
        assert all(table.flags.writeable for table in tables.values())
        problem = RegistrationProblem(built.source, built.params, built.gram,
                                      built.log_outlier, **tables)
        for name, table in tables.items():
            assert getattr(problem, name) is table
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    def test_stepping_by_hand_equals_register(self, use_sigma_correction):
        source = make_cloud(70, seed=34, cloud_id="a")
        target = make_cloud(90, seed=35, cloud_id="b")
        params = RegistrationParams(
            kappa=4.0, max_iters=25, use_sigma_correction=use_sigma_correction
        )
        result = register(source, target, params)
        problem = build_problem(result.source_normalized, result.target_normalized, params)
        state = init_state(problem)
        history = [state.sigma2]
        for _ in range(result.iterations):
            state = e_step(state, problem)
            state = update_displacement(state, problem)
            state = update_similarity(state, problem)
            history.append(state.sigma2)
        assert tuple(history) == result.sigma2_history
        for field in ("displacement", "moved_source", "matched_colors", "target_mass"):
            npt.assert_array_equal(getattr(state, field), getattr(result.state, field))
        npt.assert_array_equal(state.transform.rotation, result.transform.rotation)
        npt.assert_array_equal(state.transform.translation, result.transform.translation)
        assert state.transform.scale == result.transform.scale


class TestRegistrationState:
    def test_arrays_are_read_only(self):
        params = RegistrationParams(max_iters=3, use_sigma_correction=True)
        result = register(make_cloud(30, seed=36), make_cloud(40, seed=37), params)
        arrays = {name: value for name, value in vars(result.state).items()
                  if isinstance(value, np.ndarray)}
        assert len(arrays) == 8
        arrays["result.displacement"] = result.displacement
        for name, value in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0

    def test_arrays_are_not_copied(self):
        state = init_state(build_problem(make_cloud(10, seed=38), make_cloud(12, seed=39),
                                         RegistrationParams()))
        mass = np.ones(10)
        assert replace(state, source_mass=mass).source_mass is mass
        assert not mass.flags.writeable


class TestEStep:
    def test_single_pair_certainty(self):
        source = cloud_of([[0.5, 0.5, 0.5]])
        target = cloud_of([[0.5, 0.5, 0.5]])
        params = RegistrationParams(omega=0.0)
        problem = build_problem(source, target, params)
        state = e_step(init_state(problem), problem)
        npt.assert_allclose(state.target_mass, [1.0])
        npt.assert_allclose(state.source_mass, [1.0])
        npt.assert_allclose(state.matched_targets, target.vertices)
        npt.assert_allclose(state.matched_colors, target.colors)

    def test_symmetric_sources_split_evenly(self):
        source = cloud_of([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        target = cloud_of([[0.0, 0.0, 0.0]])
        params = RegistrationParams(omega=0.0)
        problem = build_problem(source, target, params)
        state = e_step(init_state(problem), problem)
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
        problem = build_problem(source, target, params)
        state = replace(init_state(problem), sigma2=1.0)
        state = e_step(state, problem)
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
        problem = build_problem(source, target, params)
        state = replace(init_state(problem), sigma2=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = e_step(state, problem)
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
        problem = build_problem(source, target, params)
        state = replace(init_state(problem), sigma2=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = e_step(state, problem)
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
        problem = build_problem(source, target, params)
        state = replace(
            init_state(problem),
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
        monkeypatch.setattr(kernel, "PANEL_ELEMENTS", 250 * m)
        assert math.ceil(n / (kernel.PANEL_ELEMENTS // m)) >= 3
        out = e_step(state, problem)
        monkeypatch.setattr(kernel, "PANEL_ELEMENTS", m * n)
        whole = e_step(state, problem)
        for field in ("source_mass", "target_mass", "matched_targets", "matched_colors"):
            npt.assert_allclose(getattr(out, field), getattr(whole, field), rtol=1e-14, atol=1e-14)

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

        # neither the E-step nor the variance refresh computes pairwise distances
        assert not hasattr(bcpd, "cdist")
        out = update_displacement(out, problem)
        out = update_similarity(out, problem)
        residual = (posterior * cdist(out.moved_source, x, "sqeuclidean")).sum()
        expected = residual / (3.0 * posterior.sum())
        if use_sigma_correction:
            # BCPD's s^2 (nu . var) / N-hat
            expected += out.transform.scale**2 * (nu @ out.displacement_var) / nu.sum()
        assert out.sigma2 == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-6, SIGMA2_FLOOR])
    def test_gemm_log_densities_within_rounding_bound(self, sigma2):
        state, source, target, params = clustered_e_step_input(sigma2)
        out = e_step(state, build_problem(source, target, params))
        nu, nu_t, matched = log_domain_reference(state, target, params)
        assert nu.min() > 1e-3 and nu_t.min() > 0.5  # every sum is a sizeable mass
        # a log-density error e gives P a relative error of at most about 2e;
        # the rest of the factor 4 covers the reference's own rounding
        bound = 4.0 * gemm_rounding_unit(state, target)
        assert np.max(np.abs(out.source_mass - nu) / nu) <= bound
        assert np.max(np.abs(out.target_mass - nu_t) / nu_t) <= bound
        extent = float(np.ptp(target.vertices, axis=0).max())
        npt.assert_allclose(out.matched_targets, matched, rtol=0, atol=bound * extent)

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-6, SIGMA2_FLOOR])
    def test_offset_clouds_match_centered_clouds(self, sigma2):
        # the expansion runs on clouds centered on the target centroid, so an
        # offset of 1e3 (|x|^2 ~ 1e6 uncentered) adds no rounding error
        offset = 1e3
        state, source, target, params = clustered_e_step_input(sigma2)
        far_state, far_source, far_target, _ = clustered_e_step_input(sigma2, offset)
        npt.assert_array_equal(far_target.vertices - offset, target.vertices)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near = e_step(state, build_problem(source, target, params))
            far = e_step(far_state, build_problem(far_source, far_target, params))
        # each result lies within the rounding bound of the exact one
        bound = 2 * 4.0 * gemm_rounding_unit(state, target)
        for field in ("source_mass", "target_mass"):
            ref = getattr(near, field)
            assert np.max(np.abs(getattr(far, field) - ref) / ref) <= bound
        extent = float(np.ptp(target.vertices, axis=0).max())
        npt.assert_allclose(
            far.matched_targets - offset, near.matched_targets, rtol=0, atol=bound * extent
        )
        npt.assert_allclose(far.matched_colors, near.matched_colors, rtol=0, atol=bound)

    def test_e_step_memory_stays_below_quarter_posterior(self):
        rng = np.random.default_rng(20000)
        m, n = 200, 20000
        source = cloud_of(make_normalized_points(m, rng))
        target = cloud_of(make_normalized_points(n, rng))
        params = RegistrationParams()
        problem = build_problem(source, target, params)
        state = init_state(problem)
        tracemalloc.start()
        try:
            e_step(state, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8 / 4

    def test_weak_mass_falls_back_to_moved_source(self):
        source = cloud_of([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
        target = cloud_of([[0.0, 0.1, 0.0], [0.1, 0.0, 0.1]])
        params = RegistrationParams(omega=0.5)
        problem = build_problem(source, target, params)
        state = replace(init_state(problem), sigma2=1e-4)
        state = e_step(state, problem)
        assert state.source_mass[1] < 1e-12
        npt.assert_array_equal(state.matched_targets[1], source.vertices[1])

    @pytest.mark.parametrize("kappa", [2.0, 3.0])
    def test_finite_kappa_mixing_update(self, kappa):
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        target = cloud_of([[0.1, 0.2, 0.3], [1.0, 0.8, 0.9]])
        params = RegistrationParams(omega=0.1, kappa=kappa)
        problem = build_problem(source, target, params)
        state = replace(init_state(problem), sigma2=1.0)
        state = e_step(state, problem)
        total = state.source_mass.sum()
        expected = (kappa + state.source_mass) / (kappa * 2 + total)
        npt.assert_allclose(state.mixing_weights, expected, atol=1e-15)
        assert state.mixing_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_infinite_kappa_keeps_uniform(self):
        # the one mixing formula gives exactly 1 / M at kappa = inf, also
        # for M = 3, whose reciprocal is not exact in binary
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.0, 1.0]])
        target = cloud_of([[0.1, 0.2, 0.3], [1.0, 0.8, 0.9]])
        params = RegistrationParams(omega=0.1)
        problem = build_problem(source, target, params)
        state = replace(init_state(problem), sigma2=1.0)
        state = e_step(state, problem)
        assert state.source_mass.sum() > 0
        npt.assert_array_equal(state.mixing_weights, np.full(3, 1.0 / 3))


class TestUpdateDisplacement:
    def test_zero_mass_keeps_prior_mean(self):
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        params = RegistrationParams(omega=0.0)
        problem = build_problem(source, cloud_of([[0.0, 0.0, 0.0]]), params)
        rot = Rotation.from_euler("y", 30, degrees=True).as_matrix()
        tr = SimilarityTransform(1.5, rot, [0.1, 0.2, 0.3])
        state = replace(
            init_state(problem),
            transform=tr,
            source_mass=np.zeros(2),
        )
        state = update_displacement(state, problem)
        npt.assert_array_equal(state.displacement, np.zeros((2, 3)))
        npt.assert_allclose(state.moved_source, tr.apply(source.vertices), atol=1e-12)

    def test_huge_lambda_suppresses_deformation(self):
        source = cloud_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        target = cloud_of([[0.3, 0.1, 0.2], [1.2, 0.1, -0.1], [0.1, 1.3, 0.3]])
        params = RegistrationParams(lam=1e12)
        problem = build_problem(source, target, params)
        state = init_state(problem)
        state = e_step(state, problem)
        state = update_displacement(state, problem)
        assert np.max(np.abs(state.displacement)) <= 1e-6

    def test_diagonal_gram_closed_form(self):
        # Oracle: with G = I the update decouples per point into
        # (c nu_m / (lam + c nu_m)) * r_m, c = s^2 / sigma2, with posterior
        # variance 1 / (lam + c nu_m).
        # two points 100 apart: exp(-100^2 / (2 beta^2)) is exactly 0
        source = cloud_of([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        params = RegistrationParams(lam=7.0, omega=0.0, use_sigma_correction=True)
        problem = build_problem(source, cloud_of([[0.0, 0.0, 0.0]]), params)
        npt.assert_array_equal(problem.gram.values, np.eye(2))
        scale, sigma2 = 1.3, 0.25
        trans = np.array([0.1, -0.2, 0.3])
        residual = np.array([[0.2, -0.1, 0.05], [-0.3, 0.2, 0.4]])
        mass = np.array([0.8, 0.4])
        # choose expected targets so that the residual comes out as above
        matched = scale * (source.vertices + residual) + trans
        state = replace(
            init_state(problem),
            transform=SimilarityTransform(scale, np.eye(3), trans),
            sigma2=sigma2,
            source_mass=mass,
            matched_targets=matched,
        )
        state = update_displacement(state, problem)
        c = scale**2 / sigma2
        expected = (c * mass / (params.lam + c * mass))[:, None] * residual
        npt.assert_allclose(state.displacement, expected, rtol=0, atol=1e-12)
        expected_var = 1.0 / (params.lam + c * mass)
        npt.assert_allclose(state.displacement_var, expected_var, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    def test_matches_dense_covariance_reference(self, use_sigma_correction):
        rng = np.random.default_rng(60)
        source = cloud_of(make_normalized_points(60, rng))
        params = RegistrationParams(lam=2.0, omega=0.0, use_sigma_correction=use_sigma_correction)
        problem = build_problem(source, cloud_of([[0.0, 0.0, 0.0]]), params)
        gram = build_gram(source.vertices, params.beta)
        mass = rng.uniform(0.0, 1.0, size=60)
        mass[rng.choice(60, size=8, replace=False)] = 0.0
        rot = Rotation.from_euler("xyz", [10, -20, 30], degrees=True).as_matrix()
        tr = SimilarityTransform(1.2, rot, [0.1, -0.3, 0.2])
        state = replace(
            init_state(problem),
            transform=tr,
            sigma2=0.05,
            source_mass=mass,
            matched_targets=source.vertices + rng.normal(0.0, 0.2, size=(60, 3)),
        )
        out = update_displacement(state, problem)

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
            npt.assert_array_equal(out.displacement_var, np.zeros(60))

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    @pytest.mark.parametrize("sigma2", [1e-3, 1e-6, SIGMA2_FLOOR])
    def test_field_equation_residual_at_small_sigma2(self, sigma2, use_sigma_correction):
        # The field v solves (lam G^-1 + c diag(nu)) v = c (nu * r), that is
        # lam v + c G (nu * v) = c G (nu * r), c = s^2 / sigma2. A form that
        # subtracts two nearly equal terms and scales the difference by
        # c / lam (2e6 at the floor) misses this by 1e-8; the push-through
        # form stays at rounding level.
        rng = np.random.default_rng(62)
        points = make_normalized_points(300, rng)
        source = cloud_of(points)
        target = cloud_of(points + rng.normal(0.0, 0.01, size=points.shape))
        params = RegistrationParams(use_sigma_correction=use_sigma_correction)
        problem = build_problem(source, target, params)
        state = replace(e_step(init_state(problem), problem), sigma2=sigma2)
        v = update_displacement(state, problem).displacement

        g = problem.gram.values
        nu = state.source_mass
        tr = state.transform
        c = tr.scale**2 / sigma2
        r = ((state.matched_targets - tr.translation) @ tr.rotation) / tr.scale
        r -= source.vertices
        rhs = c * (g @ (nu[:, None] * r))
        lhs = params.lam * v + c * (g @ (nu[:, None] * v))
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-12

    @pytest.mark.parametrize("beta", [0.3, 2.0, 5.0])
    @pytest.mark.parametrize("m", [50, 300])
    def test_system_factors_without_jitter(self, m, beta):
        # K = I + ratio S G S is the identity plus a PSD matrix, so solve_spd
        # needs no regularization: even at the variance floor, with one
        # source holding mass M, rounding in G cannot pull K's spectrum
        # near 0
        rng = np.random.default_rng(m)
        source = cloud_of(make_normalized_points(m, rng))
        target = cloud_of(make_normalized_points(m, rng))
        params = RegistrationParams(beta=beta)
        problem = build_problem(source, target, params)
        mass = np.full(m, 1e-3)
        mass[0] = m
        state = replace(
            e_step(init_state(problem), problem), sigma2=SIGMA2_FLOOR, source_mass=mass
        )
        out = update_displacement(state, problem)
        assert np.all(np.isfinite(out.displacement))
        assert np.all(np.isfinite(out.moved_source))

        tr = state.transform
        ratio = tr.scale**2 / SIGMA2_FLOOR / params.lam
        root = np.sqrt(mass)
        k = np.eye(m) + ratio * (np.outer(root, root) * problem.gram.values)
        assert np.linalg.eigvalsh(k).min() >= 0.5

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    @pytest.mark.parametrize("m", [50, 300])
    def test_system_exactly_symmetric(self, m, use_sigma_correction, monkeypatch):
        # solve_spd accepts only an exactly symmetric A; K = I + ratio S G S
        # is one, since G is and each factor multiplies elementwise. K is
        # consumed by the solve, so it is checked on the way in.
        rng = np.random.default_rng(m + 7)
        source = cloud_of(make_normalized_points(m, rng))
        target = cloud_of(make_normalized_points(m, rng))
        params = RegistrationParams(use_sigma_correction=use_sigma_correction)
        problem = build_problem(source, target, params)
        mass = rng.uniform(0.0, 2.0, size=m)
        mass[rng.choice(m, size=m // 5, replace=False)] = 0.0
        state = replace(
            e_step(init_state(problem), problem), sigma2=SIGMA2_FLOOR, source_mass=mass
        )
        symmetric = []

        def checking_solve(a, b):
            symmetric.append(np.array_equal(a, a.T))
            return solve_spd(a, b)

        monkeypatch.setattr(kernel, "solve_spd", checking_solve)
        out = update_displacement(state, problem)
        assert symmetric == [True]
        assert np.all(np.isfinite(out.displacement))

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    def test_single_solve_per_update(self, use_sigma_correction, monkeypatch):
        # the covariance is never formed: one solve with a 3-column
        # right-hand side, with the correction on or off; the variances are
        # read off the factor that solve leaves behind
        rng = np.random.default_rng(61)
        source = cloud_of(make_normalized_points(20, rng))
        target = cloud_of(make_normalized_points(25, rng))
        params = RegistrationParams(use_sigma_correction=use_sigma_correction)
        problem = build_problem(source, target, params)
        state = e_step(init_state(problem), problem)
        shapes = []

        def recording_solve(a, b):
            shapes.append((a.shape, b.shape))
            return solve_spd(a, b)

        monkeypatch.setattr(kernel, "solve_spd", recording_solve)
        update_displacement(state, problem)
        assert shapes == [((20, 20), (20, 3))]

    def test_correction_leaves_the_displacement_bitwise_unchanged(self):
        rng = np.random.default_rng(63)
        source = cloud_of(make_normalized_points(200, rng))
        target = cloud_of(make_normalized_points(220, rng))
        off, on = (build_problem(source, target, RegistrationParams(use_sigma_correction=flag))
                   for flag in (False, True))
        state = replace(e_step(init_state(off), off), sigma2=1e-3)
        plain, corrected = (update_displacement(state, problem) for problem in (off, on))
        npt.assert_array_equal(corrected.displacement, plain.displacement)
        npt.assert_array_equal(corrected.moved_source, plain.moved_source)
        assert np.all(corrected.displacement_var > 0.0)

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    def test_equals_the_inline_update_bitwise(self, use_sigma_correction):
        # Reference: the whole update written out inline, K, its factor and
        # all; moving it behind kernel.field_posterior changes no arithmetic
        rng = np.random.default_rng(64)
        source = cloud_of(make_normalized_points(150, rng))
        target = cloud_of(make_normalized_points(170, rng))
        params = RegistrationParams(use_sigma_correction=use_sigma_correction)
        problem = build_problem(source, target, params)
        state = update_similarity(update_displacement(e_step(init_state(problem), problem),
                                                      problem), problem)
        state = e_step(state, problem)
        out = update_displacement(state, problem)

        y = source.vertices
        m = len(y)
        tr = state.transform
        ratio = tr.scale * tr.scale / state.sigma2 / params.lam
        g = problem.gram.values
        root = np.sqrt(state.source_mass)
        k = np.outer(root, root)
        k *= g
        k *= ratio
        k.flat[:: m + 1] += 1.0
        residual = ((state.matched_targets - tr.translation) @ tr.rotation) / tr.scale - y
        x, low = solve_spd(k, root[:, None] * residual)
        disp = ratio * (g @ (root[:, None] * x))
        var = state.displacement_var
        if use_sigma_correction:
            w = solve_triangular(low, (g * root).T, lower=True, overwrite_b=True,
                                 check_finite=False)
            var = (1.0 - ratio * np.einsum("ij,ij->j", w, w)) / params.lam
        npt.assert_array_equal(out.displacement, disp)
        npt.assert_array_equal(out.displacement_var, var)
        npt.assert_array_equal(out.moved_source, tr.apply(y + disp))

    @pytest.mark.parametrize("use_sigma_correction, bound", [(False, 1.25), (True, 2.25)])
    def test_update_peak_memory(self, use_sigma_correction, bound):
        # K is factored where it is built: besides the Gram, one update holds
        # one M x M array, or two with the correction (K, and S G, which the
        # triangular solve overwrites); a copy of K or of S G would add one
        m = 1000
        rng = np.random.default_rng(1000)
        source = cloud_of(make_normalized_points(m, rng))
        target = cloud_of(make_normalized_points(m, rng))
        params = RegistrationParams(use_sigma_correction=use_sigma_correction)
        problem = build_problem(source, target, params)
        state = e_step(init_state(problem), problem)
        tracemalloc.start()
        try:
            update_displacement(state, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * m * m) <= bound


def exact_correspondence_state(source, target_points, params):
    """State with unit masses and expected targets pinned to target_points."""
    m = len(source)
    state = init_state(build_problem(source, cloud_of(target_points), params))
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
        state = update_similarity(state, build_problem(source, source, params))
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
        state = update_similarity(state, build_problem(source, cloud_of(target_points), params))
        npt.assert_allclose(state.transform.rotation, rot, atol=1e-6)
        npt.assert_allclose(state.transform.translation, trans, atol=1e-6)
        assert abs(state.transform.scale - 1.0) <= 1e-6

    def test_scale_recovery(self):
        source = make_cloud(30, seed=23)
        target_points = 2.0 * source.vertices
        params = RegistrationParams()
        state = exact_correspondence_state(source, target_points, params)
        state = update_similarity(state, build_problem(source, cloud_of(target_points), params))
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
        out = update_similarity(state, build_problem(src_n, src_n, params))
        assert np.max(np.abs(out.displacement)) <= 1e-9
        moved_before = 1.25 * src_n.vertices  # identity transform applied to y + disp
        npt.assert_allclose(
            out.transform.apply(src_n.vertices + out.displacement).mean(axis=0),
            moved_before.mean(axis=0) * 0
            + out.moved_source.mean(axis=0),
            atol=1e-12,
        )

    @pytest.mark.parametrize("use_sigma_correction", [False, True])
    def test_gauge_first_equals_composed_fit(self, use_sigma_correction):
        # The fit on the re-gauged source equals the fit on source +
        # displacement composed with the gauge; here that composition is
        # computed the long way, from a state a few iterations in whose
        # field is given a similarity component for the gauge to remove.
        src, _ = normalize(make_cloud(80, seed=26, cloud_id="s"))
        tgt, _ = normalize(make_cloud(90, seed=27, cloud_id="t"))
        params = RegistrationParams(kappa=4.0, use_sigma_correction=use_sigma_correction)
        problem = build_problem(src, tgt, params)
        state = init_state(problem)
        for _ in range(3):
            state = update_similarity(update_displacement(e_step(state, problem), problem), problem)
        state = update_displacement(e_step(state, problem), problem)
        y = src.vertices
        rigid = Rotation.from_euler("xyz", [8, -5, 12], degrees=True).as_matrix()
        warp = SimilarityTransform(1.2, rigid, [0.05, -0.1, 0.02])
        state = replace(state, displacement=warp.apply(y + state.displacement) - y)
        out = update_similarity(state, problem)

        mass = state.source_mass
        deformed = y + state.displacement
        scale, rot, trans = bcpd._procrustes_similarity(deformed, state.matched_targets, mass)
        g_scale, g_rot, g_shift = bcpd._procrustes_similarity(y, deformed, None)
        assert g_scale == pytest.approx(1.2, rel=0.05)
        disp = ((deformed - g_shift) @ g_rot) / g_scale - y
        tr = SimilarityTransform(scale * g_scale, rot @ g_rot, scale * (rot @ g_shift) + trans)
        moved = tr.apply(y + disp)
        moved_c, matched_c = moved - problem.center, state.matched_targets - problem.center
        residual = (state.target_mass @ problem.target_centered_sq
                    - 2.0 * np.sum(mass[:, None] * moved_c * matched_c)
                    + mass @ np.sum(moved_c * moved_c, axis=1))
        sigma2 = (residual / 3.0 + tr.scale**2 * (mass @ state.displacement_var)) / mass.sum()

        assert out.transform.scale == pytest.approx(tr.scale, rel=1e-12)
        npt.assert_allclose(out.transform.rotation, tr.rotation, rtol=0, atol=1e-12)
        npt.assert_allclose(out.transform.translation, tr.translation, rtol=0, atol=1e-12)
        npt.assert_allclose(out.displacement, disp, rtol=0, atol=1e-12)
        npt.assert_allclose(out.moved_source, moved, rtol=0, atol=1e-12)
        assert out.sigma2 == pytest.approx(sigma2, rel=1e-12)

    def test_no_mass_raises(self):
        source = make_cloud(10, seed=25)
        params = RegistrationParams()
        problem = build_problem(source, source, params)
        state = replace(init_state(problem), source_mass=np.zeros(10))
        with pytest.raises(DegenerateGeometryError):
            update_similarity(state, problem)

    def test_targets_at_one_point_give_no_positive_scale(self):
        # the weighted fit of the source onto a single point has scale 0
        source = make_cloud(12, seed=28)
        params = RegistrationParams()
        state = exact_correspondence_state(source, source.vertices, params)
        state = replace(state, matched_targets=np.zeros((12, 3)))
        with pytest.raises(DegenerateGeometryError, match="scale is not positive"):
            update_similarity(state, build_problem(source, source, params))

    def test_one_point_source_raises(self):
        source = cloud_of([[0.1, 0.2, 0.3]])
        target = make_cloud(10, seed=27)
        problem = build_problem(source, target, RegistrationParams())
        state = replace(init_state(problem), source_mass=np.ones(1))
        with pytest.raises(DegenerateGeometryError, match="zero scatter"):
            update_similarity(state, problem)

    def test_sigma2_floor_applied(self):
        source = make_cloud(15, seed=26)
        params = RegistrationParams()
        state = exact_correspondence_state(source, source.vertices, params)
        state = update_similarity(state, build_problem(source, source, params))
        assert state.sigma2 >= SIGMA2_FLOOR

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-6, 1e-7])
    def test_offset_clouds_refresh_the_same_variance(self, sigma2):
        # the refresh runs in the E-step's frame, centered on the target
        # centroid, so an offset of 1e3 adds no more than the E-step's error
        def refreshed_sigma2(offset):
            state, source, target, params = clustered_e_step_input(sigma2, offset)
            problem = build_problem(source, target, params)
            state = update_displacement(e_step(state, problem), problem)
            return update_similarity(state, problem).sigma2

        state, _, target, _ = clustered_e_step_input(sigma2)
        bound = 2 * 4.0 * gemm_rounding_unit(state, target)
        near, far = refreshed_sigma2(0.0), refreshed_sigma2(1e3)
        assert abs(far - near) / near <= bound


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
        problem = build_problem(source, target, params)
        state = init_state(problem)
        for _ in range(10):
            state = e_step(state, problem)
            assert np.all(state.source_mass >= 0.0)
            assert np.all(state.target_mass >= 0.0)
            assert np.all(state.target_mass <= 1.0 + 1e-10)
            assert abs(state.source_mass.sum() - state.target_mass.sum()) <= 1e-10
            assert np.all(state.mixing_weights >= 0.0)
            assert state.mixing_weights.sum() == pytest.approx(1.0, abs=1e-10)

            state = update_displacement(state, problem)
            var = state.displacement_var
            if params.use_sigma_correction:
                # posterior variances of the field, at most the prior's 1/lam
                assert np.all(var > 0.0)
                assert np.all(var <= (1.0 + 1e-12) / params.lam)
            else:
                npt.assert_array_equal(var, np.zeros(60))

            state = update_similarity(state, problem)
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

    def test_variance_is_zero_in_every_state_without_correction(self, monkeypatch):
        states = []
        for name in ("init_state", "e_step", "update_displacement", "update_similarity"):
            def recorded(*args, _step=getattr(bcpd, name)):
                states.append(_step(*args))
                return states[-1]
            monkeypatch.setattr(bcpd, name, recorded)
        result = register(make_cloud(60, seed=78), make_cloud(70, seed=79),
                          RegistrationParams(max_iters=20))
        assert len(states) == 1 + 3 * result.iterations
        for state in states:
            npt.assert_array_equal(state.displacement_var, np.zeros(60))

    def test_sigma_correction_toggle_runs(self):
        cloud = make_cloud(60, seed=77)
        result = register(
            cloud, cloud, RegistrationParams(use_sigma_correction=True, max_iters=40)
        )
        assert result.state.sigma2 >= SIGMA2_FLOOR
        assert len(result.sigma2_history) == result.iterations + 1

    def test_sigma_correction_first_e_step_keeps_matches(self):
        # with a small gamma the start sigma2 is tiny; a displacement variance
        # of 1 would lower every log-density by 3 s^2 / (2 sigma2), hundreds
        # of nats, and send all mass to the outlier term
        rng = np.random.default_rng(0)
        y = rng.normal(size=(500, 3))
        x = y + 0.01 * rng.normal(size=(500, 3))
        source, target = cloud_of(y, "s"), cloud_of(x, "t")
        params = RegistrationParams(gamma=0.01, use_sigma_correction=True)
        problem = build_problem(*(normalize(c)[0] for c in (source, target)), params)
        first = e_step(init_state(problem), problem)
        assert first.source_mass.sum() > 0.5 * len(y)
        result = register(source, target, params)
        assert result.converged
        assert result.state.sigma2 < 1e-3

    @pytest.mark.parametrize("noise", [0.003, 0.01])
    def test_sigma_correction_keeps_injected_variance(self, noise):
        # a one-to-one surface sheet with per-axis noise of the given size:
        # with the field's variance counted as BCPD counts it, s^2 (nu . var)
        # / N-hat, the residual variance ends near the injected one
        rng = np.random.default_rng(36)
        u, v = rng.uniform(-1.0, 1.0, size=(2, 400))
        sheet = np.column_stack([u, v, 0.4 * np.exp(-(u * u + v * v) / 0.4)])
        source = cloud_of(sheet - sheet.mean(axis=0), "s")
        target = cloud_of(source.vertices + rng.normal(0.0, noise, size=sheet.shape), "t")
        result = register(source, target, RegistrationParams(use_sigma_correction=True))
        injected = noise**2 / result.target_record.scale**2
        assert injected / 2.0 <= result.state.sigma2 <= 2.0 * injected

    def test_self_registration_property(self):
        cloud = make_cloud(300, seed=5)
        result = register(cloud, cloud)
        assert result.converged
        assert np.max(np.abs(result.displacement)) <= 0.02
        assert np.linalg.norm(result.transform.rotation - np.eye(3)) <= 0.02
        assert abs(result.transform.scale - 1.0) <= 0.02
        assert np.linalg.norm(result.transform.translation) <= 0.02

    def test_floor_hit_is_not_convergence_while_the_source_moves(self, monkeypatch):
        # criterion 2's first rigid pair reaches the variance floor while the
        # moved source still shifts by more than tol per iteration; a sigma2
        # clamped at the floor twice changes by 0, which alone must not stop
        # the run
        rng = np.random.default_rng(2000)
        base = make_normalized_points(300, rng)
        angle = np.deg2rad(rng.uniform(5.0, 30.0))
        axis = rng.normal(size=3)
        rot = Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()
        trans = rng.uniform(-0.5, 0.5, size=3)
        noisy = base @ rot.T + trans + rng.normal(0.0, 0.005, size=base.shape)
        colors = rng.uniform(size=(300, 3))
        moved = []

        def recorded(*args, _step=bcpd.update_similarity):
            state = _step(*args)
            moved.append(state.moved_source)
            return state

        monkeypatch.setattr(bcpd, "update_similarity", recorded)
        params = RegistrationParams()
        result = register(PointCloud(base, colors, "src"), PointCloud(noisy, colors, "tgt"), params)
        shifts = [rms(a, b) for a, b in zip(moved, moved[1:])]
        floored = [s == SIGMA2_FLOOR for s in result.sigma2_history[1:]]
        # at some iteration sigma2 sat on the floor twice with the source
        # still moving, and the run went on past it
        assert any(floored[i - 1] and floored[i] and shifts[i - 1] >= params.tol
                   for i in range(1, len(floored)))
        assert result.converged
        assert result.iterations < params.max_iters
        assert result.state.sigma2 == SIGMA2_FLOOR
        assert shifts[-1] < params.tol

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
