import warnings

import numpy as np
import pytest

from dlame.circles import (
    circularity_residual,
    circularity_residual_batch,
    circumcircle,
    miquel_eighth_vertex,
    point_on_circumcircle,
)
from dlame.conjugate import CornerState, elementary_hexahedron, extract_rotation_coeffs
from dlame.errors import CoincidentPoints, DegenerateEdges


class TestCircularityResidual:
    def test_points_on_circle(self, rng):
        angles = np.sort(rng.uniform(0, 2 * np.pi, 4))
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=-1) * 1.7 + np.array([0.3, -0.2])
        assert circularity_residual(pts) < 1e-13

    def test_unit_square(self):
        sq = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        assert circularity_residual(sq) < 1e-13

    def test_off_circle_detected(self):
        bad = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1.1]])
        assert circularity_residual(bad) > 1e-2

    @pytest.mark.parametrize("N", [2, 3])
    def test_single_matches_batch_bitwise(self, rng, N):
        quads = rng.normal(size=(40, 4, N))
        assert [circularity_residual(q) for q in quads] == circularity_residual_batch(quads).tolist()

    def test_coincident_points(self):
        pts = np.array([[0.0, 0], [0, 0], [1, 0], [0, 1]])
        with pytest.raises(CoincidentPoints):
            circularity_residual(pts)

    def test_three_dimensional_circle(self, rng):
        # a planar circle embedded in R^3, randomly rotated
        angles = np.sort(rng.uniform(0, 2 * np.pi, 4))
        flat = np.stack([np.cos(angles), np.sin(angles), np.zeros(4)], axis=-1)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert circularity_residual(flat @ Q.T + rng.normal(size=3)) < 1e-12


class TestCircumcircle:
    def test_square_cell(self):
        c, r, _ = circumcircle(np.zeros(2), np.array([1.0, 0]), np.array([0.0, 1]))
        assert np.allclose(c, [0.5, 0.5]) and abs(r - np.sqrt(0.5)) < 1e-14

    def test_collinear_points(self):
        with pytest.raises(DegenerateEdges):
            circumcircle(np.zeros(2), np.array([1.0, 0]), np.array([2.0, 0]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batched_matches_per_cell_calls(self, rng, dim):
        a, b, c = rng.normal(size=(3, 4, 5, dim))
        center, radius, basis = circumcircle(a, b, c)
        assert center.shape == (4, 5, dim) and radius.shape == (4, 5) and basis.shape == (4, 5, dim, 2)
        tol = 8 * np.finfo(float).eps
        for idx in np.ndindex(4, 5):
            c1, r1, b1 = circumcircle(a[idx], b[idx], c[idx])
            assert np.max(np.abs(center[idx] - c1)) <= tol * (1 + np.max(np.abs(c1)))
            assert abs(radius[idx] - r1) <= tol * (1 + r1)
            assert np.max(np.abs(basis[idx] - b1)) <= tol

    def test_collinear_cell_among_good_cells(self, rng):
        a, b, c = rng.normal(size=(3, 6, 2))
        c[2] = 2.0 * b[2] - a[2]
        with pytest.raises(DegenerateEdges) as err:
            circumcircle(a, b, c)
        assert err.value.row == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_fails_closed(self, rng, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateEdges, match="non-finite") as err:
                circumcircle([0, 0], [1, 0], [bad, 1])
            assert err.value.row == 0
            # the first bad entry over both gates: a non-finite point at 2 before a collinear triple at 4
            a, b, c = rng.normal(size=(3, 6, 2))
            c[4] = 2.0 * b[4] - a[4]
            a[2, 1] = bad
            with pytest.raises(DegenerateEdges, match="non-finite") as err:
                circumcircle(a, b, c)
            assert err.value.row == 2
            with pytest.raises(DegenerateEdges, match="collinear") as err:
                circumcircle(a[3:], b[3:], c[3:])
            assert err.value.row == 1

    def test_point_parametrization_stays_on_circle(self, rng):
        a, b, c = rng.normal(size=(3, 3))
        center, radius, _ = circumcircle(a, b, c)
        for ang in rng.uniform(0, 2 * np.pi, 8):
            p = point_on_circumcircle(a, b, c, ang)
            assert abs(np.linalg.norm(p - center) - radius) < 1e-12 * (1 + radius)


    def test_batched_points_match_per_corner_calls(self, rng):
        a, b, c = rng.normal(size=(3, 4, 5, 3))
        angle = rng.uniform(0, 2 * np.pi, (4, 5))
        p = point_on_circumcircle(a, b, c, angle)
        assert p.shape == (4, 5, 3)
        tol = 8 * np.finfo(float).eps
        for idx in np.ndindex(4, 5):
            single = point_on_circumcircle(a[idx], b[idx], c[idx], angle[idx])
            assert np.max(np.abs(p[idx] - single)) <= tol * (1 + np.max(np.abs(single)))


class TestMiquel:
    def _circular_hexahedron(self, rng):
        x = rng.normal(size=3)
        xi = [x + rng.normal(size=3) for _ in range(3)]
        xij = {}
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            xij[(i, j)] = point_on_circumcircle(x, xi[i], xi[j], rng.uniform(0.5, 2.5))
        return x, xi, xij

    def test_eighth_vertex_on_all_three_circles(self, rng):
        for _ in range(50):
            x, xi, xij = self._circular_hexahedron(rng)
            v = miquel_eighth_vertex(x, xi[0], xi[1], xi[2], xij[(0, 1)], xij[(0, 2)], xij[(1, 2)])
            # the new vertex is concircular with each shifted face triple
            r1 = circularity_residual(np.stack([xi[0], xij[(0, 1)], xij[(0, 2)], v]))
            r2 = circularity_residual(np.stack([xi[1], xij[(0, 1)], xij[(1, 2)], v]))
            r3 = circularity_residual(np.stack([xi[2], xij[(0, 2)], xij[(1, 2)], v]))
            assert max(r1, r2, r3) < 1e-9

    def test_matches_plane_intersection(self, rng):
        worst = 0.0
        tried = 0
        for _ in range(100):
            x, xi, xij = self._circular_hexahedron(rng)
            w = np.stack([xi[k] - x for k in range(3)])
            if abs(np.linalg.det(w)) < 0.05:
                continue
            c = np.zeros((3, 3))
            try:
                for (i, j) in ((0, 1), (0, 2), (1, 2)):
                    cij, cji = extract_rotation_coeffs(x, xi[i], xi[j], xij[(i, j)], 1.0, 1.0)
                    c[i, j], c[j, i] = cij, cji
                planes = elementary_hexahedron(CornerState(x, w, c), (1.0, 1.0, 1.0))
                miquel = miquel_eighth_vertex(x, xi[0], xi[1], xi[2],
                                              xij[(0, 1)], xij[(0, 2)], xij[(1, 2)])
            except Exception:
                continue
            tried += 1
            scale = max(1.0, float(np.max(np.abs(w))))
            worst = max(worst, float(np.max(np.abs(planes - miquel))) / scale)
        assert tried > 50
        assert worst < 1e-9
