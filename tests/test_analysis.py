import numpy as np
import pytest

from dlame.analysis import SweepReport, csurface_sweep, curve_sweep, rate_fit, ribaucour_sweep, run_sweep
from dlame.curves import warped_circle_curve
from dlame.errors import DegenerateFit, SingularPoint
from dlame.oracles import EllipticOracle, FlatOracle, SphericalOracle


class TestEllipticOracle:
    def test_values_at_quarter_period(self):
        # offset zero, evaluated at (0, pi/2): the net point sits at the origin
        oracle = EllipticOracle(offset=(0.0, 0.0))
        assert np.allclose(oracle.F(0.0, np.pi / 2), [0.0, 0.0])
        assert abs(oracle.h_i(1, 0.0, np.pi / 2) - 1.0) < 1e-15
        assert abs(oracle.beta(1, 2, 0.0, np.pi / 2)) < 1e-15
        assert abs(oracle.beta(2, 1, 0.0, np.pi / 2)) < 1e-15
        # gamma equals d1 beta12 there, which evaluates to 1 (see the
        # finite-difference cross-check below)
        assert abs(oracle.gamma_ij(1, 2, 0.0, np.pi / 2) - 1.0) < 1e-14

    def test_focus_is_singular(self):
        oracle = EllipticOracle(offset=(0.0, 0.0))
        with pytest.raises(SingularPoint):
            oracle.h_i(1, 0.0, 0.0)

    def test_conformality_by_finite_differences(self, rng):
        oracle = EllipticOracle()
        d = 1e-6
        for _ in range(20):
            u, v = rng.uniform(0.1, 1.5, 2)
            d1F = (oracle.F(u + d, v) - oracle.F(u - d, v)) / (2 * d)
            d2F = (oracle.F(u, v + d) - oracle.F(u, v - d)) / (2 * d)
            h = oracle.h_i(1, u, v)
            assert abs(np.dot(d1F, d2F)) < 1e-7
            assert abs(np.linalg.norm(d1F) - h) < 1e-7
            assert abs(np.linalg.norm(d2F) - h) < 1e-7

    def test_splitting_field_matches_derivatives(self, rng):
        # gamma = d1 beta12 = -d2 beta21 for this conformal net; central
        # differences at 1e-4 decide the normalization of the closed form
        oracle = EllipticOracle()
        d = 1e-4
        for _ in range(20):
            u, v = rng.uniform(0.2, 1.4, 2)
            d1b12 = (oracle.beta(1, 2, u + d, v) - oracle.beta(1, 2, u - d, v)) / (2 * d)
            d2b21 = (oracle.beta(2, 1, u, v + d) - oracle.beta(2, 1, u, v - d)) / (2 * d)
            g = oracle.gamma_ij(1, 2, u, v)
            assert abs(d1b12 - g) < 1e-6
            assert abs(d2b21 + g) < 1e-6


class TestSphericalOracle:
    def test_coordinate_directions_orthogonal(self, rng):
        oracle = SphericalOracle()
        d = 1e-6
        for _ in range(10):
            u = rng.uniform(0.05, 0.4, 3)
            partials = []
            for k in range(3):
                e = np.zeros(3)
                e[k] = d
                partials.append((oracle.F(*(u + e)) - oracle.F(*(u - e))) / (2 * d))
            for a in range(3):
                for b in range(a + 1, 3):
                    assert abs(np.dot(partials[a], partials[b])) < 1e-6
                hk = oracle.h_i(a + 1, *u)
                assert abs(np.linalg.norm(partials[a]) - hk) < 1e-6

    def test_rotation_coefficients_match_metric_derivatives(self, rng):
        # d_i h_j = h_i beta_ij, probed with central differences
        oracle = SphericalOracle()
        d = 1e-5
        for _ in range(10):
            u = rng.uniform(0.05, 0.4, 3)
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    e = np.zeros(3)
                    e[i - 1] = d
                    dh = (oracle.h_i(j, *(u + e)) - oracle.h_i(j, *(u - e))) / (2 * d)
                    rhs = oracle.h_i(i, *u) * oracle.beta(i, j, *u)
                    assert abs(dh - rhs) < 1e-6

    def test_splitting_matches_derivatives(self, rng):
        oracle = SphericalOracle()
        d = 1e-5
        for _ in range(10):
            u = rng.uniform(0.05, 0.4, 2)
            db23 = (oracle.beta(2, 3, 0.0, u[0] + d, u[1]) - oracle.beta(2, 3, 0.0, u[0] - d, u[1])) / (2 * d)
            db32 = 0.0  # beta_32 vanishes identically
            g = oracle.gamma_ij(2, 3, u[0], u[1])
            assert abs((db23 - db32) / 2.0 - g) < 1e-6


class TestRateFit:
    def test_exact_first_order(self):
        fit = rate_fit([0.4, 0.2, 0.1], [0.1, 0.05, 0.025])
        assert abs(fit.slope - 1.0) < 1e-12
        assert fit.residual < 1e-12

    def test_exact_second_order(self):
        fit = rate_fit([0.4, 0.2, 0.1], [0.01, 0.0025, 0.000625])
        assert abs(fit.slope - 2.0) < 1e-12

    def test_too_few_points(self):
        with pytest.raises(DegenerateFit):
            rate_fit([0.4, 0.2], [0.1, 0.05])

    def test_zero_error_rejected(self):
        with pytest.raises(DegenerateFit):
            rate_fit([0.4, 0.2, 0.1], [0.1, 0.0, 0.025])


class TestSweeps:
    def test_flat_oracle_is_exact(self):
        report = csurface_sweep(FlatOracle(), [0.2, 0.1, 0.05], 1.0, l_max=0)
        assert report.exact
        assert report.slopes[0] is None

    def test_elliptic_sup_norm_rate(self):
        report = csurface_sweep(EllipticOracle(), [np.pi / 10, np.pi / 20, np.pi / 40], 4 * np.pi / 10)
        assert 0.8 < report.slopes[0] < 1.2
        assert 0.8 < report.slopes[1] < 1.2
        # error monotonicity
        for ell in (0, 1):
            errs = report.errors[ell]
            assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_curve_sweep_rate(self):
        report = curve_sweep(warped_circle_curve(1.0, 0.35), [np.pi / 10, np.pi / 20, np.pi / 40],
                             16 * np.pi / 10)
        assert 0.8 < report.slopes[0] < 1.2

    def test_ribaucour_sweep_rate(self):
        # the enveloping defect of the curve/transform pair decays at first order
        report = ribaucour_sweep(warped_circle_curve(1.0, 0.3), lambda t: -1.0 + 0.3 * np.sin(1.5 * t),
                                 np.array([0.55, 0.0]), [np.pi / 20, np.pi / 40, np.pi / 80], 8 * np.pi / 20)
        assert report.kind == "ribaucour" and sorted(report.errors) == [0]
        assert 0.8 < report.slopes[0] < 1.2

    def test_report_requires_decreasing_eps(self):
        with pytest.raises(ValueError):
            SweepReport("x", [0.1, 0.2], {0: [1.0, 2.0]})

    def test_report_serialization_roundtrip(self):
        report = csurface_sweep(EllipticOracle(), [np.pi / 10, np.pi / 20, np.pi / 40], 4 * np.pi / 10, l_max=0)
        doc = report.to_dict()
        assert doc["kind"] == "csurface"
        assert len(doc["eps"]) == 3
        assert "0" in doc["slopes"]

    def test_orthosys_sweep_keeps_requested_orders(self):
        # the spherical assembly converges at first order in C^0..C^2
        report = run_sweep("orthosys", SphericalOracle(), [0.1, 0.05, 0.025], 0.4, l_max=2)
        assert sorted(report.errors) == [0, 1, 2]
        for ell in (0, 1, 2):
            assert 0.8 <= report.slopes[ell] <= 1.2
