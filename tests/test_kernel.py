import numpy as np
import numpy.testing as npt
import pytest

from cloudmorph import GramMatrix, build_gram, gaussian_kernel, kernel, solve_spd
from cloudmorph.errors import NotPositiveDefiniteError


class TestGaussianKernel:
    def test_zero_distance(self):
        assert gaussian_kernel([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], beta=0.7) == 1.0

    def test_known_value(self):
        # ||a - b|| = sqrt(2), beta = 1 -> exp(-1)
        value = gaussian_kernel([1.0, 1.0, 0.0], [0.0, 0.0, 0.0], beta=1.0)
        assert value == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            beta = float(rng.uniform(0.1, 2.0))
            assert gaussian_kernel(a, b, beta) == gaussian_kernel(b, a, beta)

    def test_range(self, rng):
        for _ in range(20):
            v = gaussian_kernel(rng.normal(size=3), rng.normal(size=3), beta=0.3)
            assert 0.0 < v <= 1.0

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            gaussian_kernel([0, 0, 0], [1, 1, 1], beta=0.0)


class TestBuildGram:
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
        pts = rng.normal(size=(12, 3))
        gram = build_gram(pts, beta=0.4)
        for i in range(12):
            for j in range(12):
                assert gram.values[i, j] == pytest.approx(
                    gaussian_kernel(pts[i], pts[j], 0.4), abs=1e-14
                )

    @pytest.mark.parametrize("m", [2, 20, 100, 500])
    def test_eigenvalue_floor(self, m):
        rng = np.random.default_rng(m)
        gram = build_gram(rng.normal(size=(m, 3)), beta=0.3)
        eigs = np.linalg.eigvalsh(gram.values)
        assert eigs.min() >= -1e-8

    def test_invariants_validated(self):
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            GramMatrix(bad, beta=1.0)
        bad_diag = np.array([[0.5, 0.1], [0.1, 0.5]])
        with pytest.raises(ValueError):
            GramMatrix(bad_diag, beta=1.0)


class TestSolveSpd:
    def test_identity_system(self, rng):
        b = rng.normal(size=(6, 2))
        npt.assert_allclose(solve_spd(np.eye(6), b), b, atol=1e-14)

    def test_scalar_system(self):
        x = solve_spd(2.0 * np.eye(4), np.ones((4, 3)))
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
            x = solve_spd(a, b)
            residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
            assert residual <= 1e-8

    def test_jitter_rescues_singular_psd(self):
        a = np.ones((3, 3))  # PSD, rank 1
        b = np.ones(3)
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-6

    def test_indefinite_raises(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(a, np.ones(2))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_spd(a, np.ones(2))

    def test_asymmetry_in_last_panel_rejected(self):
        # the check runs over row panels; one entry in the last of several
        # panels, off by twice the tolerance, must still be caught
        rng = np.random.default_rng(600)
        m = 600
        assert m > 2 * (kernel.SYMMETRY_PANEL // m)
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        a = (q * rng.uniform(1.0, 5.0, size=m)) @ q.T
        a = 0.5 * (a + a.T)
        scale = max(1.0, float(np.max(np.abs(a))))
        within = a.copy()
        within[m - 1, m - 2] += 0.5e-10 * scale
        solve_spd(within, np.ones(m))
        a[m - 1, m - 2] += 2e-10 * scale
        with pytest.raises(ValueError):
            solve_spd(a, np.ones(m))
