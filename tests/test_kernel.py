import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from cloudmorph import GramMatrix, build_gram, kernel, solve_spd
from cloudmorph.errors import NotPositiveDefiniteError


class TestSquaredDistances:
    # cdist is the oracle: the panel-wise sums must match it bit for bit
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("m, n", [(300, 300), (400, 400), (1000, 1000),
                                      (2000, 2000), (7, 6000)])
    def test_equals_cdist(self, m, n, offset):
        rng = np.random.default_rng(m + n)
        x = rng.normal(size=(m, 3)) + offset
        y = x if m == n else rng.normal(size=(n, 3)) + offset
        d2 = kernel.squared_distances(x, y)
        npt.assert_array_equal(d2, cdist(x, y, "sqeuclidean"))
        if y is x:
            assert np.array_equal(d2, d2.T)


class TestBuildGram:
    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    def test_non_positive_beta_rejected_everywhere(self, beta):
        points = np.eye(3)
        with pytest.raises(ValueError, match="beta must be positive"):
            build_gram(points, beta=beta)

    @pytest.mark.parametrize("m", [1, 300, 1000])
    def test_equals_cdist_gram(self, m):
        # the Gram is exp(-d2 / (2 beta^2)) of cdist's squared distances, unit diagonal
        pts = np.random.default_rng(m).normal(size=(m, 3))
        expected = np.exp(cdist(pts, pts, "sqeuclidean") / (-2.0 * 0.3 * 0.3))
        np.fill_diagonal(expected, 1.0)
        npt.assert_array_equal(build_gram(pts, beta=0.3).values, expected)

    def test_identical_points(self):
        gram = build_gram([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], beta=0.5)
        npt.assert_array_equal(gram.values, np.ones((2, 2)))

    def test_single_point(self):
        gram = build_gram([[0.0, 0.0, 0.0]], beta=1.0)
        npt.assert_array_equal(gram.values, [[1.0]])

    def test_collinear_spacing(self):
        # three points on a line, spacing 1, beta 1: neighbors exp(-1/2),
        # endpoints exp(-2)
        pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        gram = build_gram(pts, beta=1.0)
        assert gram.values[0, 1] == pytest.approx(0.6065306597126334, abs=1e-15)
        assert gram.values[1, 2] == pytest.approx(0.6065306597126334, abs=1e-15)
        assert gram.values[0, 2] == pytest.approx(0.1353352832366127, abs=1e-15)

    def test_matches_scalar_kernel(self, rng):
        # oracle: exp(-||a - b||^2 / (2 beta^2)), one pair at a time
        pts = rng.normal(size=(12, 3))
        gram = build_gram(pts, beta=0.4)
        for i in range(12):
            for j in range(12):
                d2 = sum((a - b) ** 2 for a, b in zip(pts[i].tolist(), pts[j].tolist()))
                assert gram.values[i, j] == pytest.approx(
                    math.exp(-d2 / (2.0 * 0.4 * 0.4)), abs=1e-14
                )

    @pytest.mark.parametrize("m", [2, 20, 100, 500])
    def test_eigenvalue_floor(self, m):
        rng = np.random.default_rng(m)
        gram = build_gram(rng.normal(size=(m, 3)), beta=0.3)
        eigs = np.linalg.eigvalsh(gram.values)
        assert eigs.min() >= -1e-8

    @pytest.mark.parametrize("m", [2, 300, 1000])
    def test_exactly_symmetric(self, m):
        rng = np.random.default_rng(m)
        gram = build_gram(rng.normal(size=(m, 3)), beta=0.3)
        assert np.array_equal(gram.values, gram.values.T)

    def test_asymmetry_in_last_panel_rejected(self):
        # symmetry is exact: an entry in the last row off by 2e-12, or by a
        # single ulp, is caught
        m = 600
        values = build_gram(np.random.default_rng(601).normal(size=(m, 3)), beta=0.3).values
        GramMatrix(values)
        beyond = values.copy()
        beyond[m - 1, m - 2] += 2e-12
        with pytest.raises(ValueError, match="exactly symmetric"):
            GramMatrix(beyond)
        ulp = values.copy()
        ulp[m - 1, m - 2] = np.nextafter(ulp[m - 1, m - 2], np.inf)
        with pytest.raises(ValueError, match="exactly symmetric"):
            GramMatrix(ulp)

    def test_nan_pair_off_diagonal_rejected(self):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = np.nan
        with pytest.raises(ValueError, match="exactly symmetric"):
            GramMatrix(values)

    @pytest.mark.parametrize("entry", [np.nan, np.nextafter(1.0, 2.0)])
    def test_diagonal_not_exactly_one_rejected(self, entry):
        values = build_gram(np.random.default_rng(5).normal(size=(4, 3)), beta=0.3).values.copy()
        values[2, 2] = entry
        with pytest.raises(ValueError, match="unit diagonal"):
            GramMatrix(values)

    @pytest.mark.parametrize("shape", [(5, 2), (5,), (0, 3)])
    def test_points_must_be_m_by_3(self, shape):
        with pytest.raises(ValueError, match=r"points must have shape \(M, 3\)"):
            build_gram(np.zeros(shape), beta=0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        points = [[bad, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        with pytest.raises(ValueError, match="points must be finite"):
            build_gram(points, beta=0.3)

    def test_peak_memory_one_matrix(self):
        # the M x M result is built once and handed over without a copy
        points = np.random.default_rng(1000).normal(size=(1000, 3))
        tracemalloc.start()
        try:
            build_gram(points, beta=0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_caller_array_is_copied(self):
        values = build_gram(np.random.default_rng(7).normal(size=(5, 3)), beta=0.3).values
        mine = values.copy()
        gram = GramMatrix(mine)
        mine[0, 1] = mine[1, 0] = 0.25
        npt.assert_array_equal(gram.values, values)
        assert not gram.values.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_gram_must_be_square(self, shape):
        with pytest.raises(ValueError, match="Gram matrix must be square"):
            GramMatrix(np.ones(shape))

    def test_invariants_validated(self):
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            GramMatrix(bad)
        bad_diag = np.array([[0.5, 0.1], [0.1, 0.5]])
        with pytest.raises(ValueError):
            GramMatrix(bad_diag)


class TestSolveSpd:
    def test_identity_system(self, rng):
        b = rng.normal(size=(6, 2))
        x, _ = solve_spd(np.eye(6), b)
        npt.assert_allclose(x, b, atol=1e-14)

    def test_scalar_system(self):
        x, _ = solve_spd(2.0 * np.eye(4), np.ones((4, 3)))
        npt.assert_allclose(x, 0.5 * np.ones((4, 3)), atol=1e-14)

    def test_random_spd_residual(self):
        # Oracle: the residual norm of the returned solution.
        rng = np.random.default_rng(99)
        for trial in range(100):
            m = int(rng.integers(2, 200))
            q, _ = np.linalg.qr(rng.normal(size=(m, m)))
            diag = rng.uniform(0.1, 10.0, size=m)
            a = (q * diag) @ q.T
            a = 0.5 * (a + a.T)
            b = rng.normal(size=(m, 3))
            x, _ = solve_spd(a.copy(), b)
            residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
            assert residual <= 1e-8

    @pytest.mark.parametrize(
        "a_shape, b_shape, message",
        [((3, 4), (3, 1), "A must be square"), ((3,), (3, 1), "A must be square"),
         ((3, 3), (4, 2), "B has 4 rows, A is 3x3")],
        ids=["wide-A", "vector-A", "B-rows"],
    )
    def test_shapes_must_agree(self, a_shape, b_shape, message):
        with pytest.raises(ValueError, match=message):
            solve_spd(np.ones(a_shape), np.ones(b_shape))

    def test_singular_psd_raises(self):
        # A is never regularized: a PSD matrix of rank 1 is not solved
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(np.ones((3, 3)), np.ones(3))

    def test_indefinite_raises(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(a, np.ones(2))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_spd(a, np.ones(2))

    def test_asymmetry_in_last_panel_rejected(self):
        # symmetry is exact: an entry in the last row off by 2e-10 relative
        # to max|A|, or by a single ulp, is caught
        rng = np.random.default_rng(600)
        m = 600
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        a = (q * rng.uniform(1.0, 5.0, size=m)) @ q.T
        a = 0.5 * (a + a.T)
        solve_spd(a.copy(), np.ones(m))
        ulp = a.copy()
        ulp[m - 1, m - 2] = np.nextafter(ulp[m - 1, m - 2], np.inf)
        with pytest.raises(ValueError, match="not symmetric"):
            solve_spd(ulp, np.ones(m))
        a[m - 1, m - 2] += 2e-10 * max(1.0, float(np.max(np.abs(a))))
        with pytest.raises(ValueError, match="not symmetric"):
            solve_spd(a, np.ones(m))

    def test_nan_pair_off_diagonal_rejected(self):
        a = np.array([[2.0, np.nan], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            solve_spd(a, np.ones(2))

    def test_consumes_c_ordered_writeable(self):
        # the factor is cho_factor's, returned as A.T and so written over
        # the upper triangle; the strict lower triangle is left as it was
        rng = np.random.default_rng(41)
        m = 40
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        a = (q * rng.uniform(0.5, 2.0, size=m)) @ q.T
        a = np.triu(a) + np.triu(a, 1).T
        original = a.copy()
        b = rng.normal(size=(m, 3))
        factor = cho_factor(original, lower=True)
        x, low = solve_spd(a, b)
        npt.assert_array_equal(x, cho_solve(factor, b))
        assert np.shares_memory(low, a) and low.flags.f_contiguous
        npt.assert_array_equal(np.tril(low), np.tril(factor[0]))
        npt.assert_array_equal(np.triu(a), np.tril(factor[0]).T)
        npt.assert_array_equal(np.tril(a, -1), np.tril(original, -1))

    @pytest.mark.parametrize("kind", ["read_only", "fortran", "integer"])
    def test_other_inputs_rejected_intact(self, kind):
        # A is factored in place, so only a writeable C-ordered float64 A is
        # taken; any other is neither copied nor touched
        a = np.array([[4, 1, 0, 1], [1, 3, 1, 0], [0, 1, 2, 0], [1, 0, 0, 5]])
        if kind == "read_only":
            a = a.astype(np.float64)
            a.setflags(write=False)
        elif kind == "fortran":
            a = np.asfortranarray(a, dtype=np.float64)
        original = a.copy()
        with pytest.raises(ValueError, match="writeable, C-ordered float64"):
            solve_spd(a, np.arange(8.0).reshape(4, 2))
        npt.assert_array_equal(a, original)


class TestFieldPosterior:
    @pytest.mark.parametrize("variance", [False, True])
    def test_matches_dense_covariance_reference(self, variance):
        rng = np.random.default_rng(60)
        gram = build_gram(rng.normal(size=(60, 3)), 0.3)
        mass = rng.uniform(0.0, 1.0, size=60)
        mass[rng.choice(60, size=8, replace=False)] = 0.0
        residual = rng.normal(0.0, 0.2, size=(60, 3))
        ratio = 12.0
        field, var = kernel.field_posterior(gram, mass, ratio, residual, variance)

        # Dense reference: lam times the full posterior covariance of the field.
        g = gram.values
        sg = np.sqrt(mass)[:, None] * g
        k = np.eye(60) + ratio * (sg * np.sqrt(mass)[None, :])
        cov = g - ratio * (sg.T @ np.linalg.solve(k, sg))
        npt.assert_allclose(field, ratio * (cov @ (mass[:, None] * residual)), rtol=0, atol=1e-10)
        if variance:
            npt.assert_allclose(var, np.diag(cov), rtol=0, atol=1e-10)
        else:
            assert var is None

    def test_diagonal_gram_closed_form(self):
        # Oracle: with G = I the posterior decouples per point into the
        # mean (ratio m / (1 + ratio m)) r and the variance 1 / (1 + ratio m)
        gram = GramMatrix(np.eye(3))
        mass = np.array([0.8, 0.0, 2.5])
        residual = np.array([[0.2, -0.1, 0.05], [-0.3, 0.2, 0.4], [1.0, 0.0, -2.0]])
        ratio = 0.75
        field, var = kernel.field_posterior(gram, mass, ratio, residual, variance=True)
        shrink = ratio * mass / (1.0 + ratio * mass)
        npt.assert_allclose(field, shrink[:, None] * residual, rtol=0, atol=1e-15)
        npt.assert_allclose(var, 1.0 / (1.0 + ratio * mass), rtol=0, atol=1e-15)
