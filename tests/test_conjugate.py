import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlame import conjugate
from dlame.conjugate import (
    ConjugateSystem,
    CornerState,
    check_4d_consistency,
    cname,
    coplanarity_residual,
    dcn_step_c,
    elementary_hexahedron,
    extract_rotation_coeffs,
    hexahedron_algebraic,
    net_planarity_residual,
    shift_state,
    solve_conjugate_net,
)
from dlame.errors import DegenerateEdges, DegenerateHexahedron, DomainViolation, NonPlanarQuad
from dlame.lattice import MeshSpec, consistency_residual
from dlame.oracles import EllipticOracle, SphericalOracle, csurface_data_from_oracle
from dlame.orthogonal import csurface_solve, orthosys_assemble

from goursat_reference import per_row, plan_rows, record_systems


def random_corner(rng, M=3, N=3, cmax=0.2):
    w = rng.normal(size=(M, N))
    c = rng.uniform(-cmax, cmax, (M, M))
    np.fill_diagonal(c, 0.0)
    return CornerState(rng.normal(size=N), w, c)


def stack_corners(corners):
    return CornerState(*(np.stack([getattr(s, f) for s in corners]) for f in ("x", "w", "c")))


def reference_hexahedron(state, eps):
    """Single-corner face-plane intersection of elementary_hexahedron before
    it was batched, with its edge-span gate."""
    basis, rdiag = np.linalg.qr(state.w.T)
    if np.min(np.abs(np.diagonal(rdiag))) < 1e-10 * max(1.0, float(np.max(np.abs(rdiag)))):
        raise DegenerateHexahedron("corner edges do not span a three-space")
    A = np.zeros((3, 3))
    rhs = np.zeros(3)
    for a in range(3):
        s = shift_state(state, a, eps)
        jj, kk = [d for d in range(3) if d != a]
        normal = np.cross(basis.T @ s.w[jj], basis.T @ s.w[kk])
        A[a] = normal / np.linalg.norm(normal)
        rhs[a] = A[a] @ (basis.T @ (s.x - state.x))
    return state.x + basis @ np.linalg.solve(A, rhs)


def reference_far_vertices(state, eps):
    """The per-lead loop of check_4d_consistency before it was batched."""
    far = []
    for lead in range(4):
        s = shift_state(state, lead, eps)
        rest = [d for d in range(4) if d != lead]
        sub = CornerState(s.x, s.w[rest], s.c[rest][:, rest])
        far.append(reference_hexahedron(sub, [eps[d] for d in rest]))
    return np.array(far)


def random_cvals(rng, M=3, cmax=0.2):
    vals = {"x": rng.normal(size=3)}
    for i in range(M):
        vals[f"w{i + 1}"] = rng.normal(size=3)
    for i, j in itertools.permutations(range(M), 2):
        vals[cname(i + 1, j + 1)] = rng.uniform(-cmax, cmax)
    return vals


class TestBlockSolve:
    def test_zero_coefficients_stay_zero(self):
        delta = dcn_step_c(np.zeros((3, 3)), (1.0, 1.0, 1.0))
        assert all(v == 0.0 for v in delta.values())

    def test_jonas_determinant_identity(self, rng):
        # as the continuous mesh sizes vanish, the block matrix determinant
        # tends to (1 + c_{M i})(1 + c_{M j}) for the transform direction M
        c = rng.uniform(-0.5, 0.5, (3, 3))
        np.fill_diagonal(c, 0.0)
        perms = list(itertools.permutations(range(3)))
        idx = {p: r for r, p in enumerate(perms)}
        for e in (1e-3, 1e-5):
            A = np.zeros((6, 6))
            eps = (e, e, 1.0)
            for p in perms:
                a, b, k = p
                A[idx[p], idx[p]] += 1 + eps[a] * c[a, b]
                A[idx[p], idx[(b, k, a)]] += -eps[b] * c[k, b]
                A[idx[p], idx[(b, a, k)]] += -eps[b] * c[a, b]
            target = (1 + c[2, 0]) * (1 + c[2, 1])
            assert abs(np.linalg.det(A) - target) < 50 * e

    def test_jonas_degenerate_factor(self, rng):
        c = rng.uniform(-0.2, 0.2, (3, 3))
        np.fill_diagonal(c, 0.0)
        c[2, 0] = -1.0
        with pytest.raises(DegenerateHexahedron):
            dcn_step_c(c, (0.1, 0.1, 1.0), triple=(0, 1, 2), tail_dirs=(2,))

    def test_nan_tail_factor_is_inadmissible(self, rng):
        c = rng.uniform(-0.2, 0.2, (3, 3))
        np.fill_diagonal(c, 0.0)
        c[2, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateHexahedron, match="inadmissible"):
                dcn_step_c(c, (0.1, 0.1, 1.0), triple=(0, 1, 2), tail_dirs=(2,))

    def test_near_degenerate_errors_out(self, rng):
        c = rng.uniform(-0.2, 0.2, (3, 3))
        np.fill_diagonal(c, 0.0)
        c[2, 0] = -1.0 + 1e-13
        with pytest.raises(DegenerateHexahedron):
            dcn_step_c(c, (0.1, 0.1, 1.0), triple=(0, 1, 2), tail_dirs=(2,))


    def test_batch_axes_match_single_calls(self, rng):
        c = rng.uniform(-0.3, 0.3, (2, 3, 4, 4))
        eps = (0.1, 0.2, 0.3, 1.0)
        batch = dcn_step_c(c, eps, tail_dirs=(3,))
        for idx in np.ndindex(2, 3):
            single = dcn_step_c(c[idx], eps, tail_dirs=(3,))
            assert single.keys() == batch.keys()
            assert all(np.array_equal(batch[k][idx], single[k]) for k in single)

    def test_gate_reports_first_failing_row(self, rng):
        # flat row 2 has a vanishing tail factor; flat row 4 a singular block
        # (all c_ij = 1 at unit mesh size) whose tail factors are fine
        c = rng.uniform(-0.2, 0.2, (2, 3, 3, 3))
        c[1, 1] = 1.0
        c[0, 2, 2, 1] = -1.0
        eps = (1.0, 1.0, 1.0)
        with pytest.raises(DegenerateHexahedron, match="inadmissible") as err:
            dcn_step_c(c, eps, tail_dirs=(2,))
        assert err.value.row == 2
        with pytest.raises(DegenerateHexahedron, match=r"triple \(0, 1, 2\) is singular") as err:
            dcn_step_c(c[1], eps, tail_dirs=(2,))
        assert err.value.row == 1

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2, 3]),
           st.sampled_from([(), (3,)]))
    def test_stacked_states_match_single_step_calls(self, K, seed, direction, tail_dirs):
        rng = np.random.default_rng(seed)
        system = ConjugateSystem(4, 3, tail_dirs=tail_dirs)
        eps = (0.1, 0.2, 0.15, 1.0 if tail_dirs else 0.1)
        states = [random_cvals(rng, M=4) for _ in range(K)]
        for vals in states:
            vals["w4"] = rng.normal(size=3)
        stacked = {k: np.stack([np.asarray(v[k], dtype=float) for v in states]) for k in states[0]}
        batch = system.step(direction, stacked, eps)
        for r, vals in enumerate(states):
            single = system.step(direction, vals, eps)
            assert set(single) == set(batch)
            assert all(np.array_equal(batch[k][r], v) for k, v in single.items())


    def test_per_entry_mesh_sizes_match_single_calls(self, rng):
        c = rng.uniform(-0.3, 0.3, (2, 3, 4, 4))
        eps = rng.uniform(0.1, 1.0, (2, 3, 4))
        eps[..., 3] = 1.0
        batch = dcn_step_c(c, eps, tail_dirs=(3,))
        for idx in np.ndindex(2, 3):
            single = dcn_step_c(c[idx], eps[idx], tail_dirs=(3,))
            assert all(np.array_equal(batch[k][idx], single[k]) for k in single)
        # one corner under three sets of mesh sizes
        shared = dcn_step_c(c[0, 0], eps[0])
        for r in range(3):
            single = dcn_step_c(c[0, 0], eps[0, r])
            assert all(np.array_equal(shared[k][r], single[k]) for k in single)


class TestHexahedron:
    def test_flat_cube(self):
        st = CornerState(np.zeros(3), np.eye(3), np.zeros((3, 3)))
        for eps in ((1.0, 1.0, 1.0), (0.5, 0.5, 0.5)):
            v = elementary_hexahedron(st, eps)
            assert np.allclose(v, np.full(3, eps[0]))
            assert np.allclose(hexahedron_algebraic(st, eps), v)

    def test_algebraic_equals_geometric(self, rng):
        eps = (1.0, 1.0, 1.0)
        for _ in range(300):
            st = random_corner(rng)
            if abs(np.linalg.det(st.w)) < 0.05:
                continue
            v1 = elementary_hexahedron(st, eps)
            v2 = hexahedron_algebraic(st, eps)
            scale = max(1.0, float(np.max(np.abs(st.w))))
            assert np.max(np.abs(v1 - v2)) < 1e-10 * scale

    def test_route_symmetry(self, rng):
        from dlame.conjugate import shift_state

        eps = (1.0, 1.0, 1.0)
        st = random_corner(rng)
        s12 = shift_state(shift_state(st, 0, eps), 1, eps)
        s21 = shift_state(shift_state(st, 1, eps), 0, eps)
        scale = max(1.0, float(np.max(np.abs(st.w))))
        assert np.max(np.abs(s12.x - s21.x)) < 1e-13 * scale

    def test_degenerate_edges_rejected(self, rng):
        st = random_corner(rng)
        st.w[2] = st.w[0]  # edges span a plane only
        with pytest.raises(DegenerateHexahedron):
            elementary_hexahedron(st, (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("check,M", [(hexahedron_algebraic, 4), (elementary_hexahedron, 4),
                                         (check_4d_consistency, 3)])
    def test_wrong_number_of_directions_rejected(self, rng, check, M):
        with pytest.raises(ValueError, match="directions"):
            check(random_corner(rng, M=M), (1.0,) * M)


class TestBatchedCorners:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from([3, 4]), st.sampled_from([3, 4]))
    def test_stacked_corners_match_single_corners(self, K, seed, M, N):
        rng = np.random.default_rng(seed)
        corners = [random_corner(rng, M=M, N=N) for _ in range(K)]
        stacked = stack_corners(corners)
        eps = rng.uniform(0.2, 1.0, (K, M))

        def same(batch, single):
            return all(np.array_equal(getattr(batch, f), getattr(single, f), equal_nan=True)
                       for f in ("x", "w", "c"))

        # one direction per entry, blocks solved inside the step
        dirs = rng.integers(0, M, K)
        batch = shift_state(stacked, dirs, eps)
        for k, s in enumerate(corners):
            assert same(CornerState(batch.x[k], batch.w[k], batch.c[k]), shift_state(s, int(dirs[k]), eps[k]))
        # every direction at once, from blocks solved once per corner
        batch = shift_state(stacked, np.arange(M)[:, None], eps)
        assert batch.x.shape == (M, K, N)
        for k, s in enumerate(corners):
            for a in range(M):
                single = shift_state(s, a, eps[k])
                assert same(CornerState(batch.x[a, k], batch.w[a, k], batch.c[a, k]), single)
        # three-direction corners closed by one hexahedron call
        far = elementary_hexahedron(CornerState(stacked.x, stacked.w[:, :3], stacked.c[:, :3, :3]), eps[:, :3])
        for k, s in enumerate(corners):
            single = elementary_hexahedron(CornerState(s.x, s.w[:3], s.c[:3, :3]), eps[k, :3])
            assert np.array_equal(far[k], single)

    def test_single_corner_matches_reference(self, rng):
        for eps in ((1.0, 1.0, 1.0), (1.0, 0.5, 0.8)):
            for _ in range(50):
                s = random_corner(rng)
                ref = reference_hexahedron(s, eps)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(elementary_hexahedron(s, eps) - ref)) <= 64 * np.finfo(float).eps * scale

    def test_earlier_entry_failing_a_later_gate_wins(self, rng):
        # a singular implicit block (every c_ij = 1 at unit mesh size) is met
        # after the edge-span gate, yet a per-entry loop meets it first when
        # its entry comes first
        good, singular, flat = random_corner(rng), random_corner(rng), random_corner(rng)
        singular.c[:] = 1.0
        flat.w[2] = flat.w[0]
        eps = (1.0, 1.0, 1.0)
        with pytest.raises(DegenerateHexahedron, match="is singular") as err:
            elementary_hexahedron(stack_corners([good, singular, flat]), eps)
        assert err.value.row == 1
        with pytest.raises(DegenerateHexahedron, match="three-space") as err:
            elementary_hexahedron(stack_corners([good, flat, singular]), eps)
        assert err.value.row == 1


class TestExtractRotationCoeffs:
    def test_flat_quad(self):
        out = extract_rotation_coeffs(np.zeros(2), np.array([1.0, 0]), np.array([0, 1.0]),
                                      np.array([1.0, 1.0]), 1.0, 1.0)
        assert out == (0.0, 0.0)

    def test_round_trip(self, rng):
        for _ in range(100):
            w1, w2 = rng.normal(size=3), rng.normal(size=3)
            if np.linalg.norm(np.cross(w1, w2)) < 0.1:
                continue
            cij, cji = rng.uniform(-0.5, 0.5, 2)
            x = rng.normal(size=3)
            ei, ej = 0.3, 0.7
            xi, xj = x + ei * w1, x + ej * w2
            xij = xi + xj - x + ei * ej * (cji * w1 + cij * w2)
            got = extract_rotation_coeffs(x, xi, xj, xij, ei, ej)
            assert abs(got[0] - cij) < 1e-10 and abs(got[1] - cji) < 1e-10

    def test_collinear_edges(self):
        with pytest.raises(DegenerateEdges):
            extract_rotation_coeffs(np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0]),
                                    np.array([3.0, 0, 0]), 1.0, 1.0)

    @staticmethod
    def _lstsq_reference(x, xi, xj, xij, ei, ej):
        """Per-quad least squares inversion of the planarity relation."""
        E = np.stack([(xi - x) / ei, (xj - x) / ej], axis=1)
        m = (xij - xi - xj + x) / (ei * ej)
        coef, *_ = np.linalg.lstsq(E, m, rcond=None)
        sv = np.linalg.svd(E, compute_uv=False)
        # round-off scale of the solve: |m| / sigma_min times the condition number
        scale = np.linalg.norm(m) / sv[-1] * (sv[0] / sv[-1])
        return coef[1], coef[0], E.size + m.size, scale

    def _check_against_reference(self, quads, ei, ej):
        c_ij, c_ji = extract_rotation_coeffs(*quads, ei, ej)
        assert c_ij.shape == c_ji.shape == quads[0].shape[:-1]
        for idx in np.ndindex(c_ij.shape):
            ref_ij, ref_ji, size, scale = self._lstsq_reference(*(q[idx] for q in quads), ei, ej)
            bound = size * np.finfo(float).eps * scale
            assert abs(c_ij[idx] - ref_ij) <= bound and abs(c_ji[idx] - ref_ji) <= bound

    def test_batched_matches_per_quad_lstsq_on_surface(self):
        eps = np.pi / 40
        x = csurface_solve(csurface_data_from_oracle(EllipticOracle(), eps, 4 * np.pi / 10)).x
        self._check_against_reference((x[:-1, :-1], x[1:, :-1], x[:-1, 1:], x[1:, 1:]), eps, eps)

    def test_batched_matches_per_quad_lstsq_on_random_planar_quads(self, rng):
        K, ei, ej = 64, 0.3, 0.7
        x, w1, w2 = rng.normal(size=(3, K, 3))
        c = rng.uniform(-0.5, 0.5, (2, K, 1))
        xi, xj = x + ei * w1, x + ej * w2
        xij = xi + xj - x + ei * ej * (c[1] * w1 + c[0] * w2)
        self._check_against_reference((x, xi, xj, xij), ei, ej)

    def test_first_failing_quad_is_named(self, rng):
        x, w1, w2 = rng.normal(size=(3, 5, 3))
        xi, xj = x + w1, x + w2
        xij = xi + xj - x
        collinear, nonplanar = xj.copy(), xij.copy()
        collinear[1] = x[1] + 2.0 * w1[1]
        nonplanar[3] += np.cross(w1[3], w2[3])
        with pytest.raises(DegenerateEdges) as err:
            extract_rotation_coeffs(x, xi, collinear, nonplanar, 1.0, 1.0)
        assert err.value.row == 1
        collinear, nonplanar = xj.copy(), xij.copy()
        collinear[3] = x[3] + 2.0 * w1[3]
        nonplanar[1] += np.cross(w1[1], w2[1])
        with pytest.raises(NonPlanarQuad) as err:
            extract_rotation_coeffs(x, xi, collinear, nonplanar, 1.0, 1.0)
        assert err.value.row == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_fails_closed(self, rng, bad):
        x, w1, w2 = rng.normal(size=(3, 5, 3))
        xi, xj = x + w1, x + w2
        xij = xi + xj - x
        xij[3, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateEdges, match="non-finite vertex") as err:
                extract_rotation_coeffs(x, xi, xj, xij, 1.0, 1.0)
            assert err.value.row == 3
            # a collinear quad before it is named first
            collinear = xj.copy()
            collinear[1] = x[1] + 2.0 * w1[1]
            with pytest.raises(DegenerateEdges, match="collinear") as err:
                extract_rotation_coeffs(x, xi, collinear, xij, 1.0, 1.0)
            assert err.value.row == 1

    @pytest.mark.parametrize("bad", [
        [((1, 2, 3), np.nan)],
        [((2, 0, 1), np.nan), ((1, 4, 4), np.inf)],
        [((2, 0, 0), np.nan), ((0, 5, 5), -np.inf)],
    ])
    def test_stacked_surfaces_name_the_per_surface_quad(self, bad):
        # three coordinate surfaces (m + 1, m + 1) side by side: the stacked call names the quad
        # the per-surface calls meet first, surface by surface
        eps = 0.1
        res = orthosys_assemble(SphericalOracle().surface_spec(eps, 0.5))
        x = np.stack([surf.x for surf in res.surfaces.values()])
        for (s, i, j), value in bad:
            x[s, i, j, 1] = value

        def quads(v):
            return v[..., :-1, :-1, :], v[..., 1:, :-1, :], v[..., :-1, 1:, :], v[..., 1:, 1:, :]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateEdges) as err:
                extract_rotation_coeffs(*quads(x), eps, eps)
            singles = []
            for surface in x:
                try:
                    extract_rotation_coeffs(*quads(surface), eps, eps)
                except DegenerateEdges as e:
                    singles.append(e)
                else:
                    singles.append(None)
        s, single = next((s, e) for s, e in enumerate(singles) if e is not None)
        m = x.shape[1] - 1
        assert err.value.row == s * m * m + single.row
        assert str(err.value) == str(single) == "quadrilateral has a non-finite vertex"
        # the first quad holding the first bad vertex in surface-major order
        s0, i0, j0 = min(at for at, _ in bad)
        assert (s, *divmod(single.row, m)) == (s0, max(i0 - 1, 0), max(j0 - 1, 0))


class TestConsistency:
    def test_three_directional_system(self, rng):
        system = ConjugateSystem(3, 3)
        worst = 0.0
        for _ in range(100):
            worst = max(worst, consistency_residual(system, random_cvals(rng), (1.0, 1.0, 1.0)))
        assert worst < 1e-10

    def test_broken_rule_detected(self, rng):
        class Broken(ConjugateSystem):
            def step(self, direction, vals, eps, outputs=None, sources=None):
                out = super().step(direction, vals, eps, outputs, sources)
                rows = np.asarray(direction)
                for a, b in itertools.combinations(range(self.M), 2):
                    name = cname(a + 1, b + 1)
                    for j in set(range(self.M)) - {a, b}:
                        if name in out:
                            # drop one product term of the evolution equation, in the rows stepping in j
                            term = eps[j] * vals[cname(a + 1, j + 1)] * vals[cname(j + 1, b + 1)]
                            out[name] = np.where(rows == j, out[name] + term, out[name])
                return out

        system = Broken(3, 3)
        worst = max(consistency_residual(system, random_cvals(rng), (1.0, 1.0, 1.0)) for _ in range(20))
        assert worst > 1e-3

    def test_four_dimensional_consistency(self, rng):
        worst = 0.0
        for _ in range(200):
            st = random_corner(rng, M=4)
            scale = max(1.0, float(np.max(np.abs(st.w))))
            worst = max(worst, check_4d_consistency(st, (1.0,) * 4) / scale)
        assert worst < 1e-9

    def test_corner_blocks_are_solved_once(self, rng, monkeypatch):
        # one call for the four triples of the corner; the shifted cubes are gated, not solved
        calls = []

        def counting(c, eps, triple=None, tail_dirs=(), blocks=None, reads=None):
            out = dcn_step_c(c, eps, triple, tail_dirs, blocks, reads)
            calls.append(len(out) // 6)
            return out

        monkeypatch.setattr(conjugate, "dcn_step_c", counting)
        check_4d_consistency(random_corner(rng, M=4), (1.0,) * 4)
        assert calls == [4]

    def test_zero_coefficients_close_exactly(self, rng):
        st = random_corner(rng, M=4, cmax=0.0)
        assert check_4d_consistency(st, (1.0,) * 4) < 1e-14

    @pytest.mark.parametrize("eps", [(1.0, 1.0, 1.0, 1.0), (1.0, 0.5, 0.25, 0.8)])
    def test_matches_per_lead_loop(self, rng, monkeypatch, eps):
        far = []

        def recording(state, eps):
            far.append(elementary_hexahedron(state, eps))
            return far[-1]

        monkeypatch.setattr(conjugate, "elementary_hexahedron", recording)
        for _ in range(50):
            st = random_corner(rng, M=4)
            residual = check_4d_consistency(st, eps)
            ref = reference_far_vertices(st, eps)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(far[-1] - ref)) <= 64 * np.finfo(float).eps * scale
            gaps = [np.linalg.norm(a - b) for a, b in itertools.combinations(ref, 2)]
            assert abs(residual - max(gaps)) <= 64 * np.finfo(float).eps * scale

    def test_first_failing_lead_is_named(self, rng):
        st = random_corner(rng, M=4, cmax=0.0)
        st.w[3] = st.w[0] + st.w[1]  # only lead 2's cube, directions (0, 1, 3), is flat
        eps = (1.0,) * 4
        subs = []
        for lead in range(4):
            s = shift_state(st, lead, eps)
            rest = [d for d in range(4) if d != lead]
            subs.append(CornerState(s.x, s.w[rest], s.c[rest][:, rest]))
        for lead in (0, 1, 3):
            elementary_hexahedron(subs[lead], eps[:3])
        with pytest.raises(DegenerateHexahedron, match="three-space") as err:
            elementary_hexahedron(stack_corners(subs), eps[:3])
        assert err.value.row == 2
        with pytest.raises(DegenerateHexahedron):
            reference_far_vertices(st, eps)
        with pytest.raises(DegenerateHexahedron, match="three-space") as err:
            check_4d_consistency(st, eps)
        assert err.value.row == 2


class TestGoursatNets:
    def test_identity_net(self):
        eps, r = 0.25, 1.0
        mesh = MeshSpec.box(2, eps, r)
        n = mesh.npts[0]
        t = np.arange(n + 1) * eps
        X1 = np.stack([t, np.zeros_like(t)], axis=-1)
        X2 = np.stack([np.zeros_like(t), t], axis=-1)
        w = {0: (X1[1:] - X1[:-1])[:n] / eps, 1: (X2[1:] - X2[:-1])[:n] / eps}
        out = solve_conjugate_net(mesh, np.zeros(2), w, {(0, 1): 0.0, (1, 0): 0.0}, N=2)
        g1, g2 = np.meshgrid(t[:n], t[:n], indexing="ij")
        assert np.max(np.abs(out["x"].values - np.stack([g1, g2], axis=-1))) < 1e-14

    def _elliptic_conjugate(self, eps, r):
        oracle = EllipticOracle()
        npts = int(np.floor(r / eps + 1e-9)) + 1
        t = np.arange(npts + 1) * eps
        X1, X2 = oracle.F(t, 0.0), oracle.F(0.0, t)
        w = {0: (X1[1:] - X1[:-1])[:npts] / eps, 1: (X2[1:] - X2[:-1])[:npts] / eps}
        tg = t[:npts]
        g1, g2 = np.meshgrid(tg, tg, indexing="ij")
        c = {(0, 1): oracle.c_ij(1, 2, g1, g2), (1, 0): oracle.c_ij(2, 1, g1, g2)}
        mesh = MeshSpec.box(2, eps, r)
        return solve_conjugate_net(mesh, oracle.F(0.0, 0.0), w, c, N=2)["x"].values

    def test_richardson_rate(self):
        # coarse solves against a fine-grid reference: the error halves with eps
        r = 0.8
        ref = self._elliptic_conjugate(0.0125, r)
        e1 = self._elliptic_conjugate(0.1, r)
        e2 = self._elliptic_conjugate(0.05, r)
        err1 = np.max(np.linalg.norm(e1 - ref[::8, ::8], axis=-1))
        err2 = np.max(np.linalg.norm(e2 - ref[::4, ::4], axis=-1))
        assert 1.7 < err1 / err2 < 2.3

    def test_planarity_of_solved_net(self):
        x = self._elliptic_conjugate(0.1, 0.8)
        from dlame.lattice import LatticeField

        field = LatticeField(MeshSpec.box(2, 0.1, 0.8), x)
        assert net_planarity_residual(field, 0, 1) < 1e-10

    def test_defining_relation_holds_on_solved_fields(self):
        # delta_i delta_j x = c_ji delta_i x + c_ij delta_j x, read off the
        # solved fields themselves rather than the construction
        oracle = EllipticOracle()
        eps, r = 0.1, 0.8
        npts = int(np.floor(r / eps + 1e-9)) + 1
        t = np.arange(npts + 1) * eps
        X1, X2 = oracle.F(t, 0.0), oracle.F(0.0, t)
        w = {0: (X1[1:] - X1[:-1])[:npts] / eps, 1: (X2[1:] - X2[:-1])[:npts] / eps}
        tg = t[:npts]
        g1, g2 = np.meshgrid(tg, tg, indexing="ij")
        c = {(0, 1): oracle.c_ij(1, 2, g1, g2), (1, 0): oracle.c_ij(2, 1, g1, g2)}
        mesh = MeshSpec.box(2, eps, r)
        fields = solve_conjugate_net(mesh, oracle.F(0.0, 0.0), w, c, N=2)
        x = fields["x"].values
        c12 = fields["c1_2"].values
        c21 = fields["c2_1"].values
        di = (x[1:, :-1] - x[:-1, :-1]) / eps
        dj = (x[:-1, 1:] - x[:-1, :-1]) / eps
        dij = (x[1:, 1:] - x[1:, :-1] - x[:-1, 1:] + x[:-1, :-1]) / eps**2
        rhs = c21[:-1, :-1, None] * di + c12[:-1, :-1, None] * dj
        scale = np.max(np.linalg.norm(di, axis=-1))
        assert np.max(np.abs(dij - rhs)) < 1e-10 * max(1.0, scale)


class PerSiteConjugateSystem(per_row(ConjugateSystem)):
    """The conjugate system stepped one site per call, as the per-site Goursat driver stepped it."""


def _random_net_data(rng, npts, tail_layers):
    M = 3 + tail_layers
    mesh = MeshSpec(eps=(0.1,) * 3 + (1.0,) * tail_layers, npts=(npts,) * 3 + (2,) * tail_layers,
                    tail=tail_layers)
    w = {i: rng.normal(size=(mesh.npts[i], 3)) * 0.3 + np.eye(3)[i % 3] for i in range(M)}
    c = {}
    for i, j in itertools.permutations(range(M), 2):
        lo, hi = sorted((i, j))
        c[(i, j)] = rng.uniform(-0.2, 0.2, (mesh.npts[lo], mesh.npts[hi]))
    return mesh, rng.normal(size=3), w, c


class TestBatchedConjugateSolve:
    @pytest.mark.parametrize("tail_layers,request_", [(0, None), (0, ("x",)), (1, ("x",)), (2, ("x",))])
    def test_matches_per_site_solve(self, rng, monkeypatch, tail_layers, request_):
        mesh, x0, w, c = _random_net_data(rng, 5, tail_layers)
        batched = solve_conjugate_net(mesh, x0, w, c, N=3, request=request_)
        systems = record_systems(monkeypatch, conjugate, "ConjugateSystem", PerSiteConjugateSystem)
        per_site = solve_conjugate_net(mesh, x0, w, c, N=3, request=request_)
        assert [s.calls for s in systems] == [plan_rows(systems[0], mesh, request_)] and systems[0].calls > 0
        for name, field in batched.items():
            assert np.array_equal(field.values, per_site[name].values, equal_nan=True), name
        if request_ is not None:
            assert np.isnan(batched["x"].values).sum() == 0
            assert any(np.isnan(f.values).any() for f in batched.values())

    def test_nan_coefficient_sample_fails_the_block_gate(self, rng):
        # a nan c_12 gives its blocks a nan Hadamard ratio, which fails the gate at the first
        # site that reads one, with no warning on the way; the solve returns no nan points
        mesh, x0, w, c = _random_net_data(rng, 5, 0)
        c[(0, 1)][2, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation, match=r"triple \(0, 1, 2\) is singular") as err:
                solve_conjugate_net(mesh, x0, w, c, N=3)
        assert (err.value.site, err.value.direction) == (mesh.coords((2, 3, 0)), 2)


class TestJonas:
    def _jonas_pair(self, eps, r, rng_seed=3):
        """Two plane curves and a transform pair; N = 2 makes any data admissible."""
        rng = np.random.default_rng(rng_seed)
        npts = int(np.floor(r / eps + 1e-9)) + 1
        t = np.arange(npts + 1) * eps

        def curve(a0, a1, b0, b1):
            return np.stack([a0 * t + a1 * np.sin(t), b0 * t + b1 * (np.cos(t) - 1)], axis=-1)

        X1 = curve(1.0, 0.2, 0.0, 0.3)
        X2 = curve(0.0, -0.25, 1.0, 0.15)
        X1p = X1 + np.stack([0.1 + 0.05 * np.sin(t), 0.4 + 0.1 * t], axis=-1)
        X2p = X2 + np.stack([0.1 - 0.04 * t, 0.4 + 0.08 * np.sin(t)], axis=-1)
        # transform curves must share a common seed
        X1p[0] = X2p[0]
        mesh = MeshSpec(eps=(eps, eps, 1.0), npts=(npts, npts, 2), tail=1)
        w = {
            0: (X1[1:] - X1[:-1])[:npts] / eps,
            1: (X2[1:] - X2[:-1])[:npts] / eps,
            2: np.broadcast_to(X1p[0] - X1[0], (2, 2)).copy(),
        }
        c12 = rng.uniform(-0.2, 0.2, (npts, npts))
        c21 = rng.uniform(-0.2, 0.2, (npts, npts))
        c = {(0, 1): c12, (1, 0): c21}
        for axis, (X, Xp) in ((0, (X1, X1p)), (1, (X2, X2p))):
            ciM = np.zeros(npts)
            cMi = np.zeros(npts)
            for s in range(npts):
                ciM[s], cMi[s] = extract_rotation_coeffs(X[s], X[s + 1], Xp[s], Xp[s + 1], eps, 1.0)
            c[(axis, 2)] = np.stack([ciM, ciM], axis=1)
            c[(2, axis)] = np.stack([cMi, cMi], axis=1)
        return solve_conjugate_net(mesh, X1[0], w, c, N=2, request=("x",))["x"].values

    def test_jonas_layers_converge(self):
        # Richardson with reference mesh eps/8: both the net and its transform
        # converge at first order, so the error ratio is (1 - 1/8)/(1/2 - 1/8)
        r = 0.8
        ref = self._jonas_pair(0.0125, r)
        e1 = self._jonas_pair(0.1, r)
        e2 = self._jonas_pair(0.05, r)
        for layer in (0, 1):
            err1 = np.max(np.linalg.norm(e1[..., layer, :] - ref[::8, ::8, layer, :], axis=-1))
            err2 = np.max(np.linalg.norm(e2[..., layer, :] - ref[::4, ::4, layer, :], axis=-1))
            assert 1.7 < err1 / err2 < 2.6

    def test_vanishing_tail_factor_site_is_pinned(self, rng):
        # 1 + c_{3,0} vanishes at one site of its data plane: the first block
        # of the transform direction that reads it is genuinely singular, and
        # the driver names that site in fill order
        mesh, x0, w, c = _random_net_data(rng, 5, 1)
        c[(3, 0)][2, 0] = -1.0
        with pytest.raises(DomainViolation) as err:
            solve_conjugate_net(mesh, x0, w, c, N=3)
        assert err.value.site == (0.2, 0.0, 0.0, 0.0)
        assert all(type(v) is float for v in err.value.site)
        assert err.value.direction == 3
        assert isinstance(err.value.cause, DegenerateHexahedron)
        assert str(err.value.cause) == "transform block (0, 1, 3) is inadmissible: (1+c[3,i]) factors vanish"

    def test_trivial_transform_coplanar(self):
        # a constant displacement is a Jonas transform with vanishing coefficients
        eps, r = 0.25, 1.0
        mesh = MeshSpec(eps=(eps, 1.0, 1.0), npts=(5, 2, 2), tail=2)
        t = np.arange(6) * eps
        X = np.stack([t, 0.3 * np.sin(t), np.zeros_like(t)], axis=-1)
        v1, v2 = np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.5])
        w = {
            0: (X[1:] - X[:-1])[:5] / eps,
            1: np.broadcast_to(v1, (2, 3)).copy(),
            2: np.broadcast_to(v2, (2, 3)).copy(),
        }
        c = {pair: 0.0 for pair in itertools.permutations(range(3), 2)}
        x = solve_conjugate_net(mesh, X[0], w, c, N=3, request=("x",))["x"].values
        worst = 0.0
        for s in range(5):
            pts = np.stack([x[s, 0, 0], x[s, 1, 0], x[s, 0, 1], x[s, 1, 1]])
            worst = max(worst, coplanarity_residual(pts))
        assert worst < 1e-12

    def test_double_transform_coplanarity(self, rng):
        # theorem content: corresponding points of the four nets stay coplanar
        eps, npts = 0.25, 5
        mesh = MeshSpec(eps=(eps, eps, 1.0, 1.0), npts=(npts, npts, 2, 2), tail=2)
        w = {
            0: rng.normal(size=(npts, 3)) * 0.4 + np.array([1.0, 0, 0]),
            1: rng.normal(size=(npts, 3)) * 0.4 + np.array([0, 1.0, 0]),
            2: np.broadcast_to(rng.normal(size=3) * 0.4 + np.array([0, 0, 1.0]), (2, 3)).copy(),
            3: np.broadcast_to(rng.normal(size=3) * 0.4 + np.array([0.3, 0.3, 1.0]), (2, 3)).copy(),
        }
        c = {}
        shapes = {
            (0, 1): (npts, npts), (0, 2): (npts, 2), (0, 3): (npts, 2),
            (1, 2): (npts, 2), (1, 3): (npts, 2), (2, 3): (2, 2),
        }
        for (a, b), shape in shapes.items():
            c[(a, b)] = rng.uniform(-0.2, 0.2, shape)
            c[(b, a)] = rng.uniform(-0.2, 0.2, shape)
        x = solve_conjugate_net(mesh, rng.normal(size=3), w, c, N=3, request=("x",))["x"].values
        worst = 0.0
        scale = 0.0
        for i in range(npts):
            for j in range(npts):
                pts = np.stack([x[i, j, 0, 0], x[i, j, 1, 0], x[i, j, 0, 1], x[i, j, 1, 1]])
                worst = max(worst, coplanarity_residual(pts))
                scale = max(scale, np.max(np.linalg.norm(pts[1:] - pts[0], axis=-1)))
        assert worst < 1e-9 * scale

    def test_triple_transform_exists_without_extra_data(self, rng):
        # the far transform corner emerges from the block solves alone
        eps, npts = 0.25, 4
        mesh = MeshSpec(eps=(eps, 1.0, 1.0, 1.0), npts=(npts, 2, 2, 2), tail=3)
        w = {0: rng.normal(size=(npts, 3)) * 0.3 + np.array([1.0, 0, 0])}
        for a, d in ((1, [0, 1.0, 0]), (2, [0, 0, 1.0]), (3, [0.4, 0.4, 0.9])):
            w[a] = np.broadcast_to(rng.normal(size=3) * 0.3 + np.array(d), (2, 3)).copy()
        c = {}
        shapes = {(0, 1): (npts, 2), (0, 2): (npts, 2), (0, 3): (npts, 2),
                  (1, 2): (2, 2), (1, 3): (2, 2), (2, 3): (2, 2)}
        for (a, b), shape in shapes.items():
            c[(a, b)] = rng.uniform(-0.2, 0.2, shape)
            c[(b, a)] = rng.uniform(-0.2, 0.2, shape)
        x = solve_conjugate_net(mesh, rng.normal(size=3), w, c, N=3, request=("x",))["x"].values
        assert np.all(np.isfinite(x[:, 1, 1, 1, :]))
        # every transform-pair quad of the solved net is planar
        for (a, b) in itertools.combinations(range(1, 4), 2):
            for s in range(npts):
                idx0 = [s, 0, 0, 0]

                def corner(da, db):
                    ii = list(idx0)
                    ii[a] = da
                    ii[b] = db
                    return x[tuple(ii)]

                pts = np.stack([corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)])
                assert coplanarity_residual(pts) < 1e-10
