import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlame.clifford import algebra
from dlame.errors import AtInfinity, DegenerateBasis, NullVector

from conftest import random_frame

ALG2 = algebra(2)
ALG3 = algebra(3)

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def vec(alg, *coords):
    out = np.zeros(alg.dim)
    out[: len(coords)] = coords
    return out


class TestLorentzDot:
    def test_signature(self):
        for alg in (ALG2, ALG3):
            for k in range(1, alg.dim):
                assert alg.lorentz_dot(alg.basis_vector(k), alg.basis_vector(k)) == 1.0
            assert alg.lorentz_dot(alg.basis_vector(alg.dim), alg.basis_vector(alg.dim)) == -1.0

    def test_null_pair(self):
        assert ALG3.lorentz_dot(ALG3.e0, ALG3.einf) == -0.5
        assert ALG3.lorentz_dot(ALG3.e0, ALG3.e0) == 0.0
        assert ALG3.lorentz_dot(ALG3.einf, ALG3.einf) == 0.0

    def test_lightlike_combination(self):
        # e0 + e1 + einf is the lift of the unit point, hence on the cone
        u = ALG3.e0 + ALG3.basis_vector(1) + ALG3.einf
        assert abs(ALG3.lorentz_dot(u, u)) < 1e-15
        assert np.allclose(u, ALG3.lift_point(np.array([1.0, 0.0, 0.0])))


class TestGeometricProduct:
    def test_generator_squares(self):
        e1 = ALG3.vector(ALG3.basis_vector(1))
        et = ALG3.vector(ALG3.basis_vector(ALG3.dim))
        assert ALG3.geometric_product(e1, e1)[0] == -1.0
        assert ALG3.geometric_product(et, et)[0] == 1.0

    @settings(max_examples=60, derandomize=True)
    @given(st.lists(coord, min_size=5, max_size=5), st.lists(coord, min_size=5, max_size=5))
    def test_anticommutator_is_minus_twice_dot(self, u, v):
        u, v = np.array(u), np.array(v)
        um, vm = ALG3.vector(u), ALG3.vector(v)
        lhs = ALG3.geometric_product(um, vm) + ALG3.geometric_product(vm, um)
        expected = ALG3.scalar(-2.0 * ALG3.lorentz_dot(u, v))
        assert np.max(np.abs(lhs - expected)) < 1e-12 * (1 + np.abs(u).max() * np.abs(v).max())

    def test_five_dimensional_identities(self, rng):
        # N = 5 (128 blades) runs the same left-multiplication tables as N <= 4
        alg = algebra(5)
        u, v = rng.normal(size=(2, 20, alg.dim))
        um, vm = alg.vector(u), alg.vector(v)
        lhs = alg.geometric_product(um, vm) + alg.geometric_product(vm, um)
        expected = alg.vector(np.zeros((20, alg.dim)))
        expected[:, 0] = -2.0 * alg.lorentz_dot(u, v)
        assert np.max(np.abs(lhs - expected)) < 1e-12 * (1 + np.abs(u).max() * np.abs(v).max())
        a, b, c = rng.normal(size=(3, 10, alg.size))
        left = alg.geometric_product(alg.geometric_product(a, b), c)
        right = alg.geometric_product(a, alg.geometric_product(b, c))
        assert np.max(np.abs(left - right)) < 1e-10 * np.abs(left).max()

    def test_associative(self, rng):
        a, b, c = (rng.normal(size=ALG3.size) for _ in range(3))
        left = ALG3.geometric_product(ALG3.geometric_product(a, b), c)
        right = ALG3.geometric_product(a, ALG3.geometric_product(b, c))
        assert np.max(np.abs(left - right)) < 1e-10

    def test_reversion_antiautomorphism(self, rng):
        a, b = rng.normal(size=ALG3.size), rng.normal(size=ALG3.size)
        lhs = ALG3.reverse(ALG3.geometric_product(a, b))
        rhs = ALG3.geometric_product(ALG3.reverse(b), ALG3.reverse(a))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((), ()), ((100,), (100,)), ((), (300,)), ((3, 200), (3, 200)), ((600,), ()),
    ])
    def test_table_matches_einsum_contraction(self, rng, shape_a, shape_b):
        # reference: contraction with the dense structure tensor
        # T[a, b, a ^ b] = sign(a, b); rounding of a sum of `size` products is
        # bounded by size * eps * (the same sum over absolute values)
        for alg in (ALG2, ALG3):
            size = alg.size
            tensor = np.zeros((size, size, size))
            cols = np.arange(size)
            for blade in range(size):
                tensor[blade, cols, blade ^ cols] = alg._sign[blade]
            a = rng.normal(size=shape_a + (size,))
            b = rng.normal(size=shape_b + (size,))
            ref = np.einsum("...a,...b,abc->...c", a, b, tensor)
            bound = size * np.finfo(float).eps * np.einsum(
                "...a,...b,abc->...c", np.abs(a), np.abs(b), np.abs(tensor))
            got = alg.geometric_product(a, b)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= bound)

    def test_batched_matches_scalar(self, rng):
        a = rng.normal(size=(7, ALG2.size))
        b = rng.normal(size=(7, ALG2.size))
        batch = ALG2.geometric_product(a, b)
        for k in range(7):
            assert np.allclose(batch[k], ALG2.geometric_product(a[k], b[k]))


class TestInvertVector:
    def test_unit_vectors(self):
        e1 = ALG3.basis_vector(1)
        assert np.allclose(ALG3.invert_vector(e1), -e1)
        assert np.allclose(ALG3.invert_vector(2.0 * e1), -e1 / 2.0)

    def test_null_vector_rejected(self):
        with pytest.raises(NullVector):
            ALG3.invert_vector(ALG3.e0)

    def test_product_with_inverse_is_one(self, rng):
        for _ in range(20):
            u = rng.normal(size=ALG3.dim)
            if abs(ALG3.lorentz_dot(u, u)) < 0.1:
                continue
            inv = ALG3.invert_vector(u)
            prod = ALG3.geometric_product(ALG3.vector(u), ALG3.vector(inv))
            assert np.max(np.abs(prod - ALG3.scalar(1.0))) < 1e-12


class TestAdjoint:
    def test_orthogonal_generator_flips(self):
        e1 = ALG3.vector(ALG3.basis_vector(1))
        out = ALG3.adjoint(e1, ALG3.basis_vector(2))
        assert np.allclose(out, -ALG3.basis_vector(2))

    def test_fixed_direction(self):
        e1 = ALG3.vector(ALG3.basis_vector(1))
        out = ALG3.adjoint(e1, ALG3.basis_vector(1))
        assert np.allclose(out, ALG3.basis_vector(1))

    def test_closed_form(self, rng):
        for _ in range(50):
            u = rng.normal(size=ALG3.dim)
            q = ALG3.lorentz_dot(u, u)
            if q <= 0.1:
                continue
            u = u / np.sqrt(q)
            v = rng.normal(size=ALG3.dim)
            assert np.max(np.abs(ALG3.adjoint(ALG3.vector(u), v) - ALG3.reflect(u, v))) < 1e-11

    def test_isometry(self, rng):
        psi, _, _ = random_frame(ALG3, rng)
        for _ in range(20):
            u, v = rng.normal(size=ALG3.dim), rng.normal(size=ALG3.dim)
            lhs = ALG3.lorentz_dot(ALG3.adjoint(psi, u), ALG3.adjoint(psi, v))
            assert abs(lhs - ALG3.lorentz_dot(u, v)) < 1e-10 * (1 + abs(lhs))


class TestLiftAndProjections:
    def test_lift_origin_is_e0(self):
        assert np.allclose(ALG3.lift_point(np.zeros(3)), ALG3.e0)

    def test_lift_unit_point(self):
        lifted = ALG3.lift_point(np.array([1.0, 0, 0]))
        expected = ALG3.basis_vector(1) + ALG3.basis_vector(ALG3.dim)
        assert np.allclose(lifted, expected)

    def test_lift_on_cone_and_section(self, rng):
        x = rng.normal(size=(40, 3))
        lifts = ALG3.lift_point(x)
        assert np.max(np.abs(ALG3.lorentz_dot(lifts, lifts))) < 1e-13 * (1 + (x**2).sum(-1).max()) ** 2
        assert np.max(np.abs(ALG3.dot_einf(lifts) + 0.5)) < 1e-13

    def test_isometry_of_lift(self, rng):
        for _ in range(200):
            x = rng.normal(size=(4, 3))
            lifted = ALG3.lift_point(x)
            lhs = ALG3.lorentz_dot(lifted[0] - lifted[1], lifted[2] - lifted[3])
            rhs = np.dot(x[0] - x[1], x[2] - x[3])
            assert abs(lhs - rhs) < 1e-11 * (1 + abs(rhs))

    def test_projection_of_e0_is_north_pole(self):
        assert np.allclose(ALG3.project_sphere(ALG3.e0), [0, 0, 0, 1])

    def test_drop_round_trip(self, rng):
        x = rng.normal(size=(30, 3))
        assert np.max(np.abs(ALG3.drop_to_euclidean(ALG3.lift_point(x)) - x)) < 1e-13

    def test_drop_origin(self):
        assert np.allclose(ALG3.drop_to_euclidean(ALG3.e0), np.zeros(3))

    def test_drop_explicit_point(self):
        assert np.allclose(ALG2.drop_to_euclidean(ALG2.lift_point(np.array([3.0, 4.0]))), [3.0, 4.0])

    def test_at_infinity(self):
        with pytest.raises(AtInfinity):
            ALG3.drop_to_euclidean(ALG3.einf)
        with pytest.raises(AtInfinity):
            ALG3.project_sphere(np.concatenate([np.ones(ALG3.dim - 1), [0.0]]))


class TestStereographic:
    def test_origin_maps_to_pole(self):
        out = ALG3.stereographic_inverse(np.zeros(3))
        assert np.allclose(out, [0, 0, 0, 1])

    def test_unit_sphere_maps_to_equator(self):
        x = np.array([1.0, 0.0, 0.0])
        assert np.allclose(ALG3.stereographic_inverse(x), [1, 0, 0, 0])

    def test_factors_through_lift(self, rng):
        x = rng.normal(size=(100, 3))
        si = ALG3.stereographic_inverse(x)
        pl = ALG3.project_sphere(ALG3.lift_point(x))
        assert np.max(np.abs(si - pl)) < 1e-12
        assert np.max(np.abs(np.sum(si * si, axis=-1) - 1.0)) < 1e-12


class TestFrames:
    def test_identity_frame(self):
        psi = ALG3.frame_from_adapted_basis(ALG3.e0, [ALG3.basis_vector(1), ALG3.basis_vector(2)])
        assert np.max(np.abs(psi - ALG3.scalar(1.0))) < 1e-12

    def test_translation_frame(self):
        t = np.array([0.4, -1.1, 0.7])
        xhat = ALG3.lift_point(t)
        basis = [ALG3.tangent_lift(t, np.eye(3)[k]) for k in range(3)]
        psi = ALG3.frame_from_adapted_basis(xhat, basis)
        assert np.max(np.abs(ALG3.adjoint(psi, ALG3.e0) - xhat)) < 1e-12
        for k in range(3):
            assert np.max(np.abs(ALG3.adjoint(psi, ALG3.basis_vector(k + 1)) - basis[k])) < 1e-12
        # it agrees with the explicit two-reflection translation element
        a = t / np.linalg.norm(t)
        u1 = np.zeros(ALG3.dim)
        u1[:3] = a
        u2 = u1 + np.linalg.norm(t) * ALG3.einf
        explicit = ALG3.normalize_pin_sign(
            ALG3.geometric_product(ALG3.vector(u1), ALG3.vector(u2))
        )
        assert np.max(np.abs(psi - explicit)) < 1e-13

    def test_random_full_and_partial_frames(self, rng):
        for m in (2, 3):
            for _ in range(20):
                x0 = rng.normal(size=3)
                Q, _ = np.linalg.qr(rng.normal(size=(3, m)))
                if m == 3 and np.linalg.det(Q) < 0:
                    Q[:, 2] *= -1
                xhat = ALG3.lift_point(x0)
                basis = [ALG3.tangent_lift(x0, Q[:, k]) for k in range(m)]
                psi = ALG3.frame_from_adapted_basis(xhat, basis)
                assert np.max(np.abs(ALG3.adjoint(psi, ALG3.e0) - xhat)) < 1e-10
                for k in range(m):
                    assert np.max(np.abs(ALG3.adjoint(psi, ALG3.basis_vector(k + 1)) - basis[k])) < 1e-10
                assert ALG3.euclid_pin_defect(psi) < 1e-10
                assert ALG3.parity(psi) == "even"

    def test_negatively_oriented_full_basis_rejected(self):
        basis = [ALG2.basis_vector(2), ALG2.basis_vector(1)]
        with pytest.raises(DegenerateBasis):
            ALG2.frame_from_adapted_basis(ALG2.e0, basis)

    def test_non_orthonormal_basis_rejected(self):
        v1 = ALG3.basis_vector(1)
        v2 = (ALG3.basis_vector(1) + ALG3.basis_vector(2)) / np.sqrt(2)
        with pytest.raises(DegenerateBasis):
            ALG3.frame_from_adapted_basis(ALG3.e0, [v1, (v1 + v2)])

    def test_sign_normalization_deterministic(self, rng):
        psi, _, _ = random_frame(ALG3, rng)
        assert psi[int(np.argmax(np.abs(psi)))] > 0


class TestFrameMatrix:
    """L(psi), the Lorentz matrix of the adjoint action that the solver stores."""

    @pytest.mark.parametrize("alg", [ALG2, ALG3])
    def test_matches_adjoint(self, alg, rng):
        for _ in range(10):
            psi, _, _ = random_frame(alg, rng)
            v = rng.normal(size=(5, alg.dim))
            assert np.max(np.abs(v @ alg.frame_matrix(psi).T - alg.adjoint(psi, v))) < 1e-12 * (1 + np.abs(v).max())

    @pytest.mark.parametrize("alg", [ALG2, ALG3])
    def test_lorentz_and_fixes_einf(self, alg, rng):
        eta = np.diag(alg.lorentz_dot(np.eye(alg.dim), np.eye(alg.dim)))
        for _ in range(10):
            L = alg.frame_matrix(random_frame(alg, rng)[0])
            scale = np.max(np.abs(L)) ** 2
            assert np.max(np.abs(L.T @ eta @ L - eta)) < 1e-13 * scale
            assert np.max(np.abs(L @ alg.einf - alg.einf)) < 1e-13 * scale

    def test_composition_and_sign(self, rng):
        for _ in range(10):
            a, _, _ = random_frame(ALG3, rng)
            b, _, _ = random_frame(ALG3, rng)
            La, Lb = ALG3.frame_matrix(a), ALG3.frame_matrix(b)
            Lab = ALG3.frame_matrix(ALG3.geometric_product(a, b))
            scale = np.max(np.abs(La)) * np.max(np.abs(Lb))
            assert np.max(np.abs(Lab - Lb @ La)) < 1e-12 * scale
            assert np.array_equal(ALG3.frame_matrix(-a), La)

    def test_batched(self, rng):
        psis = np.stack([random_frame(ALG3, rng)[0] for _ in range(4)]).reshape(2, 2, ALG3.size)
        stacked = ALG3.frame_matrix(psis)
        assert stacked.shape == (2, 2, ALG3.dim, ALG3.dim)
        for idx in np.ndindex(2, 2):
            assert np.array_equal(stacked[idx], ALG3.frame_matrix(psis[idx]))
