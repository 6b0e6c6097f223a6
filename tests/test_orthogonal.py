import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlame import orthogonal
from dlame.circles import circularity_residual, circularity_residual_batch, miquel_eighth_vertex
from dlame.clifford import algebra
from dlame.curves import circle_curve, line_curve, warped_circle_curve
from dlame.errors import (
    DegenerateCircle,
    DomainViolation,
    ImmersionFailure,
    OutsideDomain,
    SqrtDomain,
)
from dlame.lattice import MeshSpec, consistency_residual, mesh_points
from dlame.oracles import EllipticOracle, SphericalOracle, csurface_data_from_oracle
from dlame.orthogonal import (
    CSurfaceData,
    CurveData,
    FrameSurfaceSystem,
    canonical_discretization,
    csurface_solve,
    double_ribaucour_net,
    enveloping_residual,
    frame_points,
    iterated_ribaucour_net,
    lame_residuals,
    normal_factor,
    orthosys_assemble,
    quad_stack,
    read_off_curve,
    ribaucour_data,
    ribaucour_pair_3d,
    ribaucour_solve,
    sigma_vector,
    suited_frame,
    triple_ribaucour_net,
)

from conftest import random_surface_state
import frame_reference
from goursat_reference import per_row, plan_rows, record_systems
from test_goursat_plan import _spherical_pair_inputs

ALG2 = algebra(2)
ALG3 = algebra(3)


class TestFrameSystemIdentities:
    def test_sigma_is_unit_and_e0_free(self, rng):
        for _ in range(30):
            beta = rng.uniform(-0.8, 0.8, 3)
            beta[0] = 0.0
            n1 = normal_factor(0.2, beta, 0)
            sig = sigma_vector(ALG3, 1, 0.2, rng.uniform(0.5, 2.0), beta, n1)
            assert abs(ALG3.lorentz_dot(sig, sig) - 1.0) < 1e-12
            # no component along e0 means <sigma, einf> = 0
            assert abs(ALG3.dot_einf(sig)) < 1e-12

    @pytest.mark.parametrize("splitting,eps", [("gamma", (0.1, 0.1)), ("alpha", (0.1, 1.0))])
    def test_consistency_on_random_states(self, rng, splitting, eps):
        system = FrameSurfaceSystem(ALG3, (1, 2), splitting)
        worst = 0.0
        for _ in range(100):
            worst = max(worst, consistency_residual(system, random_surface_state(ALG3, rng), eps))
        assert worst < 1e-10

    def test_rotation_and_mirror_laws(self, rng):
        # tau_i xhat = xhat + eps h_i vhat_i and n tau_i vhat_j = vhat_j + rho_ji vhat_i
        system = FrameSurfaceSystem(ALG3, (1, 2), "gamma")
        eps = (0.15, 0.15)
        for _ in range(25):
            vals = random_surface_state(ALG3, rng)
            rho12, rho21, n, n1, n2 = system.splitting_rhos(vals, eps)
            sig1 = sigma_vector(ALG3, 1, eps[0], vals["h1"], vals["b1"], n1)
            sig2 = sigma_vector(ALG3, 2, eps[1], vals["h2"], vals["b2"], n2)
            # frame read-offs: vhat_i = L(e_i psi) Sigma_i = L(psi) R_{e_i} Sigma_i
            v1 = vals["psi"] @ ALG3.reflect(ALG3.basis_vector(1), sig1)
            v2 = vals["psi"] @ ALG3.reflect(ALG3.basis_vector(2), sig2)
            xhat = vals["psi"] @ ALG3.e0
            # circularity constraint couples the splitting to the angle
            assert abs(rho12 + rho21 + 2 * ALG3.lorentz_dot(v1, v2)) < 1e-12
            assert abs(n * n - (1 - rho12 * rho21)) < 1e-12
            stepped = {**vals, **system.step(0, vals, eps)}
            xhat1 = stepped["psi"] @ ALG3.e0
            assert np.max(np.abs(xhat1 - (xhat + eps[0] * vals["h1"] * v1))) < 1e-11
            # mirror law: tau_i xhat = -A_{vhat_i}(xhat)
            assert np.max(np.abs(xhat1 + ALG3.reflect(v1, xhat))) < 1e-11
            sig2n = sigma_vector(ALG3, 2, eps[1], stepped["h2"], stepped["b2"],
                                 normal_factor(eps[1], stepped["b2"], 1))
            v2n = stepped["psi"] @ ALG3.reflect(ALG3.basis_vector(2), sig2n)
            assert np.max(np.abs(n * v2n - (v2 + rho21 * v1))) < 1e-11

    def test_transport_identity_on_random_frames(self, rng):
        # literal check of the multivector transport law that encodes the
        # h/beta evolution: n * (Sigma_j after an i-step) =
        #   -A_{e_i}(Sigma_j) - rho_ij * A_{e_j}(Sigma_i)
        system = FrameSurfaceSystem(ALG3, (1, 2), "gamma")
        eps = (0.2, 0.2)
        for _ in range(25):
            vals = random_surface_state(ALG3, rng)
            rho12, rho21, n, n1, n2 = system.splitting_rhos(vals, eps)
            sig1 = sigma_vector(ALG3, 1, eps[0], vals["h1"], vals["b1"], n1)
            sig2 = sigma_vector(ALG3, 2, eps[1], vals["h2"], vals["b2"], n2)
            e1, e2 = ALG3.basis_vector(1), ALG3.basis_vector(2)
            a1_sig2 = ALG3.reflect(e1, sig2)
            a2_sig1 = ALG3.reflect(e2, sig1)
            stepped1 = {**vals, **system.step(0, vals, eps)}
            sig2_new = sigma_vector(ALG3, 2, eps[1], stepped1["h2"], stepped1["b2"],
                                    normal_factor(eps[1], stepped1["b2"], 1))
            assert np.max(np.abs(n * sig2_new + a1_sig2 + rho12 * a2_sig1)) < 1e-12
            stepped2 = {**vals, **system.step(1, vals, eps)}
            sig1_new = sigma_vector(ALG3, 1, eps[0], stepped2["h1"], stepped2["b1"],
                                    normal_factor(eps[0], stepped2["b1"], 0))
            assert np.max(np.abs(n * sig1_new + a2_sig1 + rho21 * a1_sig2)) < 1e-12

    def test_sqrt_domain_gate(self, rng):
        vals = random_surface_state(ALG3, rng)
        vals["b1"] = np.array([0.0, 3.0, 3.0])  # sum beta^2 = 18, eps = 1 would fail
        system = FrameSurfaceSystem(ALG3, (1, 2), "gamma")
        with pytest.raises(SqrtDomain):
            system.step(0, vals, (1.0, 1.0))

    @pytest.mark.parametrize("name,outputs", [
        ("b1", None), ("b2", None), ("split", None),
        # a row that owns psi alone is gated on N_1^2 > 0 only
        ("b1", {"psi": np.True_, "h2": np.False_, "b2": np.False_}),
    ], ids=["N1", "N2", "n", "psi-alone"])
    def test_nan_fails_the_gates(self, rng, name, outputs):
        vals = random_surface_state(ALG3, rng)
        if name == "split":
            vals[name] = np.nan
        else:
            vals[name][2] = np.nan  # slot 2 enters N_1^2, N_2^2 and theta
        system = FrameSurfaceSystem(ALG3, (1, 2), "gamma")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SqrtDomain):
                system.step(0, vals, (0.1, 0.1), outputs)

    def test_normal_factor_fails_closed(self):
        with pytest.raises(SqrtDomain):
            normal_factor(0.1, np.array([0.0, np.nan, 0.0]), 0)


class PerSiteFrameSystem(per_row(FrameSurfaceSystem)):
    """The frame system stepped one site per call, as the per-site Goursat driver stepped it."""


def _same_fields(a, b):
    for name in a:
        assert np.array_equal(a[name].values, b[name].values, equal_nan=True), name


class TestBatchedFrameSolve:
    def test_gamma_surface_matches_per_site_solve(self, monkeypatch):
        data = csurface_data_from_oracle(EllipticOracle(), np.pi / 20, 4 * np.pi / 10)
        batched = csurface_solve(data).fields
        systems = record_systems(monkeypatch, orthogonal, "FrameSurfaceSystem", PerSiteFrameSystem)
        owned, inner = [], FrameSurfaceSystem.step

        def step(self, direction, vals, eps, outputs=None, sources=None):
            owned.append(outputs)
            return inner(self, direction, vals, eps, outputs=outputs, sources=sources)

        monkeypatch.setattr(FrameSurfaceSystem, "step", step)
        res = csurface_solve(data)
        _same_fields(batched, res.fields)
        # the frame is transported after the solve, which steps h and beta alone: one row per call, none owning psi
        assert [s.calls for s in systems] == [plan_rows(systems[0], res.mesh, ("h1", "h2", "b1", "b2"))]
        assert len(owned) == systems[0].calls > 0
        assert not any("psi" in outputs for outputs in owned)

    def test_alpha_transform_matches_per_site_solve(self, monkeypatch):
        def solve():
            return ribaucour_solve(ALG3, warped_circle_curve(1.0, 0.3, dim=3), lambda t: -1.0 + 0.2 * t,
                                   np.array([0.55, 0.0, 0.1]), np.pi / 40, 0.6).result

        batched = solve().fields
        systems = record_systems(monkeypatch, orthogonal, "FrameSurfaceSystem", PerSiteFrameSystem)
        res = solve()
        _same_fields(batched, res.fields)
        # h1 and b1 on the box minus its last base row; the frame is transported after the solve
        part = MeshSpec(res.mesh.eps, (res.mesh.npts[0] - 1, 2), tail=1)
        assert [s.calls for s in systems] == [plan_rows(systems[0], part, ("h1", "b1"))] and systems[0].calls > 0

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from(["gamma", "alpha"]),
           st.sampled_from([0, 1]))
    def test_stacked_states_match_single_calls(self, K, seed, splitting, direction):
        rng = np.random.default_rng(seed)
        system = FrameSurfaceSystem(ALG3, (1, 2), splitting)
        eps = (0.1, 0.1) if splitting == "gamma" else (0.1, 1.0)
        states = [random_surface_state(ALG3, rng) for _ in range(K)]
        stacked = {k: np.stack([np.asarray(v[k], dtype=float) for v in states]) for k in states[0]}
        batch = system.step(direction, stacked, eps)
        for r, vals in enumerate(states):
            single = system.step(direction, vals, eps)
            assert set(single) == set(batch)
            for name, value in single.items():
                assert np.array_equal(batch[name][r], value), name

    def test_gates_report_first_failing_row(self, rng):
        # row 3 fails the first gate (N_1^2 > 0), row 1 only the second
        # (N_2^2 > 0, an admissibility bound under the alpha splitting)
        system = FrameSurfaceSystem(ALG3, (1, 2), "alpha")
        states = [random_surface_state(ALG3, rng) for _ in range(4)]
        stacked = {k: np.stack([np.asarray(v[k], dtype=float) for v in states]) for k in states[0]}
        stacked["b1"][3] = [0.0, 15.0, 15.0]
        stacked["b2"][1] = [3.0, 0.0, 3.0]
        with pytest.raises(OutsideDomain) as err:
            system.step(0, stacked, (0.1, 1.0))
        assert err.value.row == 1
        with pytest.raises(SqrtDomain) as err:
            system.step(0, {k: v[2:] for k, v in stacked.items()}, (0.1, 1.0))
        assert err.value.row == 1


def _elliptic_surface(eps):
    return lambda: orthogonal.csurface_solve(csurface_data_from_oracle(EllipticOracle(), eps, 4 * np.pi / 10))


def _ribaucour_curve_pair():
    return ribaucour_solve(ALG2, warped_circle_curve(1.0, 0.3), lambda t: -1.0 + 0.3 * np.sin(t),
                           np.array([0.55, 0.0]), np.pi / 40, 0.5)


def _ribaucour_pair_3d():
    spec, seed = _spherical_pair_inputs()
    return ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)


class KinkedTransform(FrameSurfaceSystem):
    """The frame system with the transform-layer b1 stepped from the base site whose alpha is MARK
    set to 3 / eps_1 in every slot, out of N_1^2 > 0; nothing else reads that value."""

    MARK = -1.25

    def step(self, direction, vals, eps, outputs=None, sources=None):
        out = super().step(direction, vals, eps, outputs=outputs, sources=sources)
        if "b1" in out:
            hit = (np.asarray(direction) == 1) & (np.asarray(vals["split"]) == self.MARK)
            out["b1"] = np.where(hit[..., None], 3.0 / eps[0], out["b1"])
        return out


def _same_surface(res, ref):
    """A solved surface bitwise equal to the reference: fields, nan patterns, points and mesh."""
    assert list(res.fields) == list(ref.fields) == ["psi", "h1", "h2", "b1", "b2", "split"]
    for name, field in ref.fields.items():
        assert res.fields[name].values.shape == field.values.shape
        assert res.fields[name].values.tobytes() == field.values.tobytes(), name
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.mesh == ref.mesh
    assert (res.dirs, res.splitting) == (ref.dirs, ref.splitting)


class TestFrameTransport:
    """The frame transported after the (h, beta) solve against the fused level-by-level solve
    (frame_reference.py): bitwise fields and nan patterns, the same DomainViolation, and no
    step call that owns psi.  An assembled system's coordinate surfaces, solved as one stack,
    are held to the reference surface by surface."""

    @pytest.mark.parametrize("run,splittings", [
        (_elliptic_surface(np.pi / 20), ["gamma"]),
        (_elliptic_surface(np.pi / 160), ["gamma"]),
        # the three coordinate surfaces are one stacked solve, which makes no csurface_solve call
        (lambda: orthosys_assemble(SphericalOracle().surface_spec(0.025, 0.4)), []),
        (_ribaucour_curve_pair, ["alpha"]),
        # the stacked coordinate surfaces, then the three curve/transform pair solves
        (_ribaucour_pair_3d, ["alpha"] * 3),
    ], ids=["elliptic-pi/20", "elliptic-pi/160", "spherical-0.025", "ribaucour-pi/40", "pair-3d"])
    def test_fields_match_fused_solve(self, monkeypatch, run, splittings):
        solves, inner = [], orthogonal.csurface_solve

        def checked(data):
            res = inner(data)
            _same_surface(res, frame_reference.csurface_solve(data))
            solves.append(data.splitting)
            return res

        monkeypatch.setattr(orthogonal, "csurface_solve", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = run()
        assert solves == splittings
        assembled = out.base if isinstance(out, orthogonal.RibaucourPair3D) else out
        if isinstance(assembled, orthogonal.OrthosysResult):
            spec = assembled.spec
            assert list(assembled.surfaces) == [(1, 2), (1, 3), (2, 3)]
            for (i, j), surf in assembled.surfaces.items():
                _same_surface(surf, frame_reference.csurface_solve(frame_reference.coordinate_surface_data(spec, i, j)))
            ref = frame_reference.coordinate_surfaces(spec)[1]
            assert list(assembled.cdata) == list(ref)
            assert all(assembled.cdata[key].tobytes() == c.tobytes() for key, c in ref.items())

    @pytest.mark.parametrize("bad", [
        # the (2, 3) surface fails at level 4, the (1, 2) surface at level 10 in fill order: both the stack and
        # the one-at-a-time solves meet the (2, 3) failure first, and the assembly reports the (1, 2) one
        {(1, 2): (4, 5), (2, 3): (1, 2)},
        {(1, 3): (6, 2), (2, 3): (0, 3)},
        {(1, 3): (3, 3)},
    ], ids=["first-and-last", "second-and-last", "second"])
    def test_first_failing_surface_in_call_order(self, bad):
        spec = SphericalOracle().surface_spec(0.05, 0.4)
        for pair, site in bad.items():
            spec.gamma[pair] = spec.gamma[pair].copy()
            spec.gamma[pair][site] = np.nan
        errors = []
        for assemble in (orthosys_assemble, frame_reference.coordinate_surfaces, orthogonal._stacked_surfaces):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DomainViolation) as err:
                    assemble(spec)
            e = err.value
            errors.append((e.site, e.direction, type(e.cause), str(e.cause), str(e)))
        new, ref, stacked = errors
        first = min(bad)
        assert new == ref and ref[0] == tuple(k * spec.eps for k in bad[first])
        # the stack names the failure that comes first in fill order
        assert stacked[0] == tuple(k * spec.eps for k in min(bad.values(), key=lambda site: (sum(site), site)))

    @pytest.mark.parametrize("mode", ["error", "default"])
    def test_infinite_splitting_value_fails_its_gate_without_a_warning(self, mode):
        # rho12 + rho21 is inf - inf at that site: the line-circle gate must report it,
        # with warnings as errors too, where the warning used to be the exception
        spec = SphericalOracle().surface_spec(0.05, 0.4)
        spec.gamma[(2, 3)] = spec.gamma[(2, 3)].copy()
        spec.gamma[(2, 3)][5, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter(mode)
            with pytest.raises(DomainViolation) as err:
                orthosys_assemble(spec)
        assert err.value.site == (5 * spec.eps, 1 * spec.eps)
        assert isinstance(err.value.cause, DegenerateCircle)

    def test_no_step_call_owns_psi(self, monkeypatch):
        owned, inner = [], FrameSurfaceSystem.step

        def step(self, direction, vals, eps, outputs=None, sources=None):
            owned.append(set(outputs))
            return inner(self, direction, vals, eps, outputs=outputs, sources=sources)

        monkeypatch.setattr(FrameSurfaceSystem, "step", step)
        _elliptic_surface(np.pi / 40)()
        _ribaucour_curve_pair()
        assert owned and not any("psi" in outputs for outputs in owned)

    @staticmethod
    def _violations(run):
        """(site, direction, cause type, cause message) of run() through csurface_solve and the reference."""
        out = []
        for solve in (orthogonal.csurface_solve, frame_reference.csurface_solve):
            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                mp.setattr(orthogonal, "csurface_solve", solve)
                with pytest.raises(DomainViolation) as err:
                    run()
            e = err.value
            out.append((e.site, e.direction, type(e.cause), str(e.cause)))
        return out

    def test_violation_on_the_last_base_row(self):
        # b1 at the last-but-one base site leaves N_1^2 > 0: the (h, beta) solve fails first
        alg, curve, seed, eps, r = ALG2, warped_circle_curve(1.0, 0.3), np.array([0.55, 0.0]), np.pi / 40, 0.5
        psi0 = _ribaucour_curve_pair().result.fields["psi"].values[0, 0]
        axis = read_off_curve(alg, curve, psi0, 1, np.arange(mesh_points(r, eps)) * eps, substep=eps / 4.0)
        axis.beta[-2, 1] = 3.0 / eps
        new, ref = self._violations(lambda: ribaucour_solve(alg, curve, lambda t: -1.0 + 0.3 * np.sin(t), seed,
                                                            eps, r, psi0=psi0, axis=axis))
        assert new == ref and ref[2] is SqrtDomain

    def test_violation_on_the_transform_layer(self, monkeypatch):
        # the (h, beta) solve passes; the frame step from (3 eps, 1) fails N_1^2 > 0 on the transform layer
        monkeypatch.setattr(orthogonal, "FrameSurfaceSystem", KinkedTransform)
        eps = np.pi / 40
        alpha = lambda t: KinkedTransform.MARK if abs(t - 3 * eps) < 1e-12 else -1.0
        run = lambda: ribaucour_solve(ALG2, warped_circle_curve(1.0, 0.3), alpha, np.array([0.55, 0.0]), eps, 0.5)
        new, ref = self._violations(run)
        assert new == ref and ref[:3] == ((3 * eps, 1.0), 0, SqrtDomain)

    def test_nan_in_the_surface_splitting(self):
        # a nan fails the gates: n^2 > 0 is the first that reads split[3, 4]
        eps = np.pi / 20
        data = csurface_data_from_oracle(EllipticOracle(), eps, 4 * np.pi / 10)
        data.split[3, 4] = np.nan
        new, ref = self._violations(lambda: orthogonal.csurface_solve(data))
        assert new == ref and ref[:3] == ((3 * eps, 4 * eps), 1, SqrtDomain)
        assert ref[3].startswith("normalizer n^2")

    def test_violation_in_the_surface_splitting(self):
        eps = np.pi / 40
        data = csurface_data_from_oracle(EllipticOracle(), eps, 4 * np.pi / 10)
        data.b2 = data.b2.copy()
        data.b2[4, 0] = 3.0 / eps
        new, ref = self._violations(lambda: orthogonal.csurface_solve(data))
        assert new == ref and ref[:3] == ((0.0, 4 * eps), 1, SqrtDomain)


def _direction_tables(alg, d):
    """(bivector stack e_k e_d for k = 1..N with row d zeroed, einf e_d)."""
    ed = alg.vector(alg.basis_vector(d))
    biv = np.zeros((alg.n, alg.size))
    for k in range(1, alg.n + 1):
        if k == d:
            continue
        biv[k - 1] = alg.geometric_product(alg.vector(alg.basis_vector(k)), ed)
    einf_ed = alg.geometric_product(alg.vector(alg.einf), ed)
    return biv, einf_ed


def frame_step_multiplier(alg, d, eps, h, beta, n_fac, biv, einf_ed):
    """Multivector G with tau psi = G psi, equal to -Sigma_i e_d as a product."""
    G = -(eps / 2.0) * (np.asarray(beta, dtype=float) @ biv) \
        + (eps * np.asarray(h, dtype=float))[..., None] * einf_ed
    G[..., 0] += n_fac
    return G


def _multivector_frame(alg, x0, tangents, slots=None):
    basis = [alg.tangent_lift(x0, t) for t in tangents]
    return alg.frame_from_adapted_basis(alg.lift_point(x0), basis, slots=slots)


def _multivector_axis(alg, psi0, d, eps, h, beta):
    """Frames along one lattice axis stepped with the multivector rule tau psi = G psi."""
    n_fac = normal_factor(eps, beta, d - 1)
    G = frame_step_multiplier(alg, d, eps, h, beta, n_fac, *_direction_tables(alg, d))
    frames = [psi0]
    for g in G[:-1]:
        frames.append(alg.geometric_product(g, frames[-1]))
    return np.stack(frames)


class TestSolverAgainstCliffordModel:
    """The solver's frame matrices against multivector frames of the paper's model."""

    def _check_axes(self, alg, res, psi0):
        assert np.array_equal(alg.frame_matrix(psi0), res.fields["psi"].values[0, 0])
        eps = res.mesh.eps
        d1, d2 = res.dirs
        f = {k: res.fields[k].values for k in ("h1", "b1", "h2", "b2", "psi")}
        row = _multivector_axis(alg, psi0, d1, eps[0], f["h1"][:, 0], f["b1"][:, 0])
        col = _multivector_axis(alg, psi0, d2, eps[1], f["h2"][0], f["b2"][0])
        tiny = np.finfo(float).eps
        for frames, solved, x in ((row, f["psi"][:, 0], res.x[:, 0]), (col, f["psi"][0], res.x[0])):
            assert np.max(np.abs(alg.frame_matrix(frames) - solved)) <= 64 * tiny * np.max(np.abs(solved))
            model_x = alg.drop_to_euclidean(alg.adjoint(frames, alg.e0))
            assert np.max(np.abs(x - model_x)) <= 64 * tiny * max(1.0, np.max(np.abs(x)))

    def test_elliptic_surface(self):
        oracle = EllipticOracle()
        tangents = [oracle.curve(a).dx(0.0) / np.linalg.norm(oracle.curve(a).dx(0.0)) for a in (1, 2)]
        psi0 = _multivector_frame(ALG2, oracle.F(0.0, 0.0), tangents)
        res = csurface_solve(csurface_data_from_oracle(oracle, np.pi / 40, 4 * np.pi / 10))
        self._check_axes(ALG2, res, psi0)

    def test_ribaucour_transform(self):
        curve = warped_circle_curve(1.0, 0.3)
        x0 = curve.x(0.0)
        t1 = curve.dx(0.0) / np.linalg.norm(curve.dx(0.0))
        psi0 = _multivector_frame(ALG2, x0, [t1, np.array([-t1[1], t1[0]])])
        pair = ribaucour_solve(ALG2, curve, lambda t: -1.0 + 0.3 * np.sin(1.5 * t),
                               np.array([0.55, 0.0]), np.pi / 40, 8 * np.pi / 40,
                               psi0=ALG2.frame_matrix(psi0))
        self._check_axes(ALG2, pair.result, psi0)


class TestReadOff:
    def test_straight_line(self):
        curve = line_curve(np.zeros(2), np.array([1.0, 0.0]))
        psi0 = suited_frame(ALG2, np.zeros(2), [np.array([1.0, 0]), np.array([0.0, 1])])
        data = read_off_curve(ALG2, curve, psi0, 1, np.linspace(0, 2, 9))
        assert np.allclose(data.h, 1.0)
        assert np.max(np.abs(data.beta)) < 1e-13

    def test_circle_curvature(self):
        R = 1.7
        curve = circle_curve(R)
        x0, t0 = curve.x(0.0), curve.dx(0.0)
        psi0 = suited_frame(ALG2, x0, [t0, np.array([-t0[1], t0[0]])])
        data = read_off_curve(ALG2, curve, psi0, 1, np.linspace(0, 2, 9))
        assert np.allclose(data.h, 1.0, atol=1e-12)
        assert np.allclose(np.abs(data.beta[:, 1]), 1.0 / R, atol=1e-9)

    def test_elliptic_closed_forms(self):
        oracle = EllipticOracle()
        curve = oracle.curve(1)
        x0 = curve.x(0.0)
        d1 = curve.dx(0.0)
        d2 = oracle.curve(2).dx(0.0)
        psi0 = suited_frame(ALG2, x0, [d1 / np.linalg.norm(d1), d2 / np.linalg.norm(d2)])
        t = np.linspace(0, 1.2, 13)
        data = read_off_curve(ALG2, curve, psi0, 1, t, substep=0.02)
        assert np.max(np.abs(data.h - oracle.h_i(1, t, 0.0))) < 1e-9
        assert np.max(np.abs(data.beta[:, 1] - oracle.beta(2, 1, t, 0.0))) < 1e-9

    def test_elliptic_axis_is_straight(self):
        # on the first coordinate axis the curve is a straight segment:
        # h = sinh and all rotation coefficients vanish
        oracle = EllipticOracle(offset=(0.3, 0.0))
        curve = oracle.curve(1)
        x0 = curve.x(0.0)
        psi0 = suited_frame(ALG2, x0, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        t = np.linspace(0, 1.0, 9)
        data = read_off_curve(ALG2, curve, psi0, 1, t)
        assert np.max(np.abs(data.h - np.sinh(0.3 + t))) < 1e-12
        assert np.max(np.abs(data.beta)) < 1e-10

    def test_immersion_failure(self):
        from dlame.curves import SmoothCurve

        curve = SmoothCurve(
            2,
            lambda t: np.stack([t**3 / 3.0, np.zeros_like(t)], axis=-1),
            lambda t: np.stack([t**2, np.zeros_like(t)], axis=-1),
            lambda t: np.stack([2 * t, np.zeros_like(t)], axis=-1),
        )
        psi0 = suited_frame(ALG2, np.zeros(2), [np.array([1.0, 0]), np.array([0.0, 1])])
        with pytest.raises(ImmersionFailure):
            read_off_curve(ALG2, curve, psi0, 1, np.linspace(0, 1, 5))

    def test_frame_drift_guard(self):
        # a grossly oversized integrator substep wrecks orthonormality,
        # which the transport refuses to paper over
        from dlame.errors import FrameDrift

        curve = circle_curve(0.05)  # curvature 20
        x0, t0 = curve.x(0.0), curve.dx(0.0)
        psi0 = suited_frame(ALG2, x0, [t0, np.array([-t0[1], t0[0]])])
        with pytest.raises(FrameDrift):
            read_off_curve(ALG2, curve, psi0, 1, np.linspace(0, 1.0, 3), substep=0.5)


class TestCanonicalDiscretization:
    def test_line_exact(self):
        curve = line_curve(np.zeros(2), np.array([1.0, 0.0]))
        psi0 = suited_frame(ALG2, np.zeros(2), [np.array([1.0, 0]), np.array([0.0, 1])])
        dc = canonical_discretization(ALG2, curve, psi0, 1, 0.25, 1.0)
        exact = np.stack([np.arange(5) * 0.25, np.zeros(5)], axis=-1)
        assert np.max(np.abs(dc.points - exact)) < 1e-13

    def test_warped_circle_rate(self):
        curve = warped_circle_curve(1.0, 0.35)
        x0, d0 = curve.x(0.0), curve.dx(0.0)
        t1 = d0 / np.linalg.norm(d0)
        psi0 = suited_frame(ALG2, x0, [t1, np.array([-t1[1], t1[0]])])
        errs = []
        eps_list = [np.pi / 10, np.pi / 20, np.pi / 40, np.pi / 80]
        for eps in eps_list:
            dc = canonical_discretization(ALG2, curve, psi0, 1, eps, 16 * np.pi / 10)
            exact = np.stack([curve.x(k * eps) for k in range(len(dc.points))])
            errs.append(np.max(np.linalg.norm(dc.points - exact, axis=1)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 0.8 < slope < 1.2

    def test_unit_speed_circle_superconverges(self):
        # constant-coefficient steps trace an inscribed polygon on the circle:
        # vertices stay on the circle exactly, the parameter drifts at O(eps^2)
        curve = circle_curve(1.0)
        x0, t0 = curve.x(0.0), curve.dx(0.0)
        psi0 = suited_frame(ALG2, x0, [t0, np.array([-t0[1], t0[0]])])
        errs = []
        for eps in (np.pi / 10, np.pi / 20, np.pi / 40):
            dc = canonical_discretization(ALG2, curve, psi0, 1, eps, 16 * np.pi / 10)
            radii = np.linalg.norm(dc.points, axis=1)
            assert np.max(np.abs(radii - 1.0)) < 1e-12
            exact = np.stack([curve.x(k * eps) for k in range(len(dc.points))])
            errs.append(np.max(np.linalg.norm(dc.points - exact, axis=1)))
        slope = np.polyfit(np.log([np.pi / 10, np.pi / 20, np.pi / 40]), np.log(errs), 1)[0]
        assert slope > 1.8

    def test_elliptic_axis_endpoint(self):
        oracle = EllipticOracle()
        curve = oracle.curve(1)
        x0 = curve.x(0.0)
        d1 = curve.dx(0.0)
        d2 = oracle.curve(2).dx(0.0)
        psi0 = suited_frame(ALG2, x0, [d1 / np.linalg.norm(d1), d2 / np.linalg.norm(d2)])
        eps = np.pi / 20
        dc = canonical_discretization(ALG2, curve, psi0, 1, eps, 1.2)
        endpoint = curve.x((len(dc.points) - 1) * eps)
        assert np.linalg.norm(dc.points[-1] - endpoint) < 1.5 * eps


class TestCSurface:
    def test_flat_data_gives_identity_grid(self):
        n = 6
        eps = 0.2
        psi0 = suited_frame(ALG2, np.zeros(2), [np.array([1.0, 0]), np.array([0.0, 1])])
        data = CSurfaceData(
            alg=ALG2, psi0=psi0, eps=(eps, eps), npts=(n, n), dirs=(1, 2),
            h1=np.ones(n), b1=np.zeros((n, 2)), h2=np.ones(n), b2=np.zeros((n, 2)),
            split=np.zeros((n, n)), splitting="gamma",
        )
        res = csurface_solve(data)
        t = np.arange(n) * eps
        g1, g2 = np.meshgrid(t, t, indexing="ij")
        assert np.max(np.abs(res.x - np.stack([g1, g2], axis=-1))) < 1e-13

    def test_elliptic_invariants(self):
        oracle = EllipticOracle()
        data = csurface_data_from_oracle(oracle, np.pi / 20, 4 * np.pi / 10)
        res = csurface_solve(data)
        resid = lame_residuals(res)
        assert resid["pin_drift"] < 1e-10
        assert resid["frame_residual"] < 1e-12
        assert resid["edge_law"] < 1e-11
        assert resid["edge_law_2"] < 1e-11
        assert resid["rho_identity"] < 1e-12
        assert resid["rotation_law"] < 1e-11
        assert resid["sigma_unit"] < 1e-12
        assert resid["circularity"] < 1e-12

    def test_axis_matches_canonical_discretization(self):
        oracle = EllipticOracle()
        eps = np.pi / 20
        data = csurface_data_from_oracle(oracle, eps, 4 * np.pi / 10)
        res = csurface_solve(data)
        curve = oracle.curve(1)
        dc = canonical_discretization(ALG2, curve, data.psi0, 1, eps, 4 * np.pi / 10,
                                      data=CurveData(np.arange(data.npts[0]) * eps, data.h1, data.b1))
        assert np.max(np.abs(res.x[:, 0, :] - dc.points)) < 1e-10

    def test_surface_splitting_needs_equal_mesh_sizes(self):
        data = csurface_data_from_oracle(EllipticOracle(), np.pi / 20, 4 * np.pi / 10)
        data.eps = (np.pi / 20, np.pi / 40)
        with pytest.raises(ValueError, match="equal mesh sizes"):
            csurface_solve(data)

    def test_unknown_splitting_rejected(self):
        with pytest.raises(ValueError, match="splitting must be"):
            FrameSurfaceSystem(ALG2, (1, 2), "beta")

    def test_frame_to_point_trivials(self):
        assert np.allclose(frame_points(ALG2, np.eye(ALG2.dim)), np.zeros(2))
        t = np.array([0.7, -0.2])
        psi = suited_frame(ALG2, t, [np.array([1.0, 0]), np.array([0.0, 1])])
        assert np.allclose(frame_points(ALG2, psi), t)

    def test_splitting_and_orthogonality_limits(self):
        # the discrete difference quotients of the rotation coefficients
        # recover twice the splitting field, and the coordinate directions
        # become orthogonal, both at first order in the mesh size
        oracle = EllipticOracle()
        gaps, angles = [], []
        for eps in (np.pi / 20, np.pi / 40):
            data = csurface_data_from_oracle(oracle, eps, 4 * np.pi / 10)
            res = csurface_solve(data)
            b12 = res.fields["b2"].values[..., 0]
            b21 = res.fields["b1"].values[..., 1]
            gam = res.fields["split"].values
            d1b12 = (b12[1:, :-1] - b12[:-1, :-1]) / eps
            d2b21 = (b21[:-1, 1:] - b21[:-1, :-1]) / eps
            gaps.append(float(np.max(np.abs(d1b12 - d2b21 - 2 * gam[:-1, :-1]))))
            resid = lame_residuals(res)
            # <v1, v2> = -(rho12 + rho21)/2; bound it through the rho identity
            system = FrameSurfaceSystem(ALG2, (1, 2), "gamma")
            worst_angle = 0.0
            for i in range(0, res.mesh.npts[0], 2):
                for j in range(0, res.mesh.npts[1], 2):
                    vals = {k: res.fields[k].values[i, j] for k in
                            ("psi", "h1", "h2", "b1", "b2", "split")}
                    rho12, rho21, _, _, _ = system.splitting_rhos(vals, res.mesh.eps)
                    worst_angle = max(worst_angle, abs(rho12 + rho21) / 2.0)
            angles.append(worst_angle)
        assert gaps[1] < 0.6 * gaps[0]
        assert angles[1] < 0.6 * angles[0]
        assert angles[0] < 0.5

    def test_staggered_mode_converges(self):
        oracle = EllipticOracle()
        errs = []
        eps_list = [np.pi / 20, np.pi / 40]
        for eps in eps_list:
            data = csurface_data_from_oracle(oracle, eps, 4 * np.pi / 10, stagger=True)
            res = csurface_solve(data)
            t = np.arange(res.mesh.npts[0]) * eps
            g1, g2 = np.meshgrid(t, t, indexing="ij")
            errs.append(np.max(np.linalg.norm(res.x - oracle.F(g1, g2), axis=-1)))
        assert errs[1] < 0.65 * errs[0]
        # midpoint sampling carries a visibly smaller constant
        data = csurface_data_from_oracle(oracle, np.pi / 20, 4 * np.pi / 10, stagger=False)
        res = csurface_solve(data)
        t = np.arange(res.mesh.npts[0]) * (np.pi / 20)
        g1, g2 = np.meshgrid(t, t, indexing="ij")
        err_plain = np.max(np.linalg.norm(res.x - oracle.F(g1, g2), axis=-1))
        assert errs[0] < err_plain


class TestRibaucour:
    def test_combescure_line(self):
        curve = line_curve(np.zeros(2), np.array([1.0, 0.0]))
        res = ribaucour_solve(ALG2, curve, lambda t: 0.0, np.array([0.0, 0.7]), 0.125, 1.0)
        offsets = res.transform - res.base
        assert np.max(np.abs(offsets - np.array([0.0, 0.7]))) < 1e-12
        assert enveloping_residual(res.base, res.transform, 0.125) < 1e-9

    def test_concentric_circles(self):
        curve = circle_curve(1.0)
        res = ribaucour_solve(ALG2, curve, lambda t: -1.0, np.array([0.55, 0.0]), np.pi / 40, 1.0)
        assert np.max(np.abs(np.linalg.norm(res.base, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(res.transform, axis=1) - 0.55)) < 1e-12

    def test_cross_layer_quads_concircular(self):
        curve = warped_circle_curve(1.0, 0.3)
        res = ribaucour_solve(ALG2, curve, lambda t: -1.0 + 0.3 * np.sin(1.5 * t),
                              np.array([0.55, 0.0]), np.pi / 40, 8 * np.pi / 40)
        assert np.max(circularity_residual_batch(quad_stack(res.x))) < 1e-12

    def test_envelope_rate(self):
        curve = warped_circle_curve(1.0, 0.3)
        errs = []
        eps_list = [np.pi / 20, np.pi / 40, np.pi / 80]
        for eps in eps_list:
            res = ribaucour_solve(ALG2, curve, lambda t: -1.0 + 0.3 * np.sin(1.5 * t),
                                  np.array([0.55, 0.0]), eps, 8 * np.pi / 20)
            errs.append(enveloping_residual(res.base, res.transform, eps))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 0.8 < slope < 1.2

    def test_domain_gate(self):
        # seed data with sum of transverse coefficients squared at 4.5
        psi0 = suited_frame(ALG2, np.zeros(2), [np.array([1.0, 0]), np.array([0.0, 1])])
        axis = CurveData(np.arange(5) * 0.1, np.ones(5), np.zeros((5, 2)))
        data = CSurfaceData(
            alg=ALG2, psi0=psi0, eps=(0.1, 1.0), npts=(5, 2), dirs=(1, 2),
            h1=axis.h, b1=axis.beta, h2=np.full(2, 0.5),
            b2=np.broadcast_to(np.array([np.sqrt(4.5), 0.0]), (2, 2)).copy(),
            split=np.zeros((5, 2)), splitting="alpha",
        )
        with pytest.raises((OutsideDomain, DomainViolation)) as err:
            csurface_solve(data)
        if isinstance(err.value, DomainViolation):
            assert isinstance(err.value.cause, OutsideDomain)

    def test_wrong_side_seed_rejected(self):
        curve = warped_circle_curve(1.0, 0.3)
        with pytest.raises(OutsideDomain):
            ribaucour_solve(ALG2, curve, lambda t: 0.0, np.array([1.45, 0.2]), np.pi / 40, 0.5)

    def test_seed_at_curve_start_rejected(self):
        # the suited frame leans towards the seed, which gives no direction at the curve start
        curve = warped_circle_curve(1.0, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutsideDomain, match="transform seed coincides with the curve start"):
                ribaucour_solve(ALG2, curve, lambda t: -1.0, curve.x(0.0), np.pi / 80, 1.2)

    @pytest.mark.parametrize("seed,nan_column,match", [
        ([0.0, 0.0], None, "coincides with the curve start"),
        # a nan seed has its own message; a nan in the frame fails each gate of the seed data
        ([np.nan, 0.0], None, "transform seed is not finite"),
        ([0.5, 0.5], 0, "admissible set"),
        ([0.5, 0.5], 1, "points against the frame slot"),
    ], ids=["at-start", "nan-seed", "nan-beta", "nan-slot"])
    def test_seed_gates_with_a_given_frame(self, seed, nan_column, match):
        psi0 = suited_frame(ALG2, np.zeros(2), [np.array([1.0, 0]), np.array([0.0, 1])])
        if nan_column is not None:
            psi0[0, nan_column] = np.nan
        axis = CurveData(np.arange(5) * 0.1, np.ones(5), np.zeros((5, 2)))
        with pytest.raises(OutsideDomain, match=match):
            ribaucour_data(ALG2, axis, np.zeros(5), np.zeros(2), np.array(seed), psi0, (1, 2), 0.1)

    @pytest.mark.parametrize("seed", [[np.nan, 0.0], [0.55, np.inf]])
    @pytest.mark.parametrize("given_frame", [False, True])
    def test_non_finite_seed_rejected_before_the_read_off(self, monkeypatch, seed, given_frame):
        def read_off(*args, **kwargs):
            raise AssertionError("the curve was read off for a non-finite seed")

        monkeypatch.setattr(orthogonal, "read_off_curve", read_off)
        psi0 = suited_frame(ALG2, np.zeros(2), [np.array([1.0, 0]), np.array([0.0, 1])]) if given_frame else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutsideDomain, match="^transform seed is not finite$"):
                ribaucour_solve(ALG2, line_curve(np.zeros(2), np.array([1.0, 0.0])), lambda t: -1.0,
                                np.array(seed), np.pi / 40, 0.5, psi0=psi0)

    def test_tangential_seed_rejected(self):
        psi0 = suited_frame(ALG2, np.zeros(2), [np.array([1.0, 0]), np.array([0.0, 1])])
        axis = CurveData(np.arange(5) * 0.1, np.ones(5), np.zeros((5, 2)))
        with pytest.raises(OutsideDomain):
            # the seed sits on the tangent line: beta_12 = -2, sum = 4
            ribaucour_data(ALG2, axis, np.zeros(5), np.zeros(2), np.array([0.5, 0.0]),
                           psi0, (1, 2), 0.1)


class TestOrthosys:
    def test_flat_planes_give_cubic_grid(self):
        from dlame.orthogonal import OrthoSurfaceSpec

        eps, npts = 0.25, 5
        psi0 = suited_frame(ALG3, np.zeros(3), [np.eye(3)[k] for k in range(3)])
        t = np.arange(npts) * eps
        axis = {i: CurveData(t.copy(), np.ones(npts), np.zeros((npts, 3))) for i in (1, 2, 3)}
        gamma = {pair: np.zeros((npts, npts)) for pair in ((1, 2), (1, 3), (2, 3))}
        spec = OrthoSurfaceSpec(ALG3, psi0, eps, npts, axis, gamma, np.zeros(3))
        res = orthosys_assemble(spec)
        n = npts - 1
        tt = np.arange(n) * eps
        g = np.meshgrid(tt, tt, tt, indexing="ij")
        assert np.max(np.abs(res.x - np.stack(g, axis=-1))) < 1e-12

    def test_spherical_convergence_and_circularity(self):
        oracle = SphericalOracle()
        errs = []
        for eps in (0.2, 0.1, 0.05):
            spec = oracle.surface_spec(eps, 0.4)
            res = orthosys_assemble(spec)
            n = res.x.shape[0]
            t = np.arange(n) * eps
            g = np.meshgrid(t, t, t, indexing="ij")
            errs.append(np.max(np.linalg.norm(res.x - oracle.F(*g), axis=-1)))
            worst = max(
                float(np.max(circularity_residual_batch(quad_stack(res.x, a, b))))
                for a, b in itertools.combinations(range(3), 2)
            )
            assert worst < 1e-12
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(errs), 1)[0]
        assert 0.8 < slope < 1.2

    def test_interior_hexahedron_matches_miquel(self, rng):
        oracle = SphericalOracle()
        spec = oracle.surface_spec(0.1, 0.4)
        res = orthosys_assemble(spec)
        n = res.x.shape[0]
        for _ in range(5):
            i, j, k = rng.integers(0, n - 1, 3)
            x = res.x
            v = miquel_eighth_vertex(
                x[i, j, k], x[i + 1, j, k], x[i, j + 1, k], x[i, j, k + 1],
                x[i + 1, j + 1, k], x[i + 1, j, k + 1], x[i, j + 1, k + 1],
            )
            scale = np.linalg.norm(x[i + 1, j, k] - x[i, j, k])
            assert np.linalg.norm(v - x[i + 1, j + 1, k + 1]) < 1e-9 * max(1.0, scale)

    def test_axes_match_canonical_discretizations(self):
        oracle = SphericalOracle()
        spec = oracle.surface_spec(0.1, 0.4)
        res = orthosys_assemble(spec)
        n = res.x.shape[0]
        assert np.max(np.abs(res.x[:, 0, 0, :] - res.curves[1].points[:n])) < 1e-11
        assert np.max(np.abs(res.x[0, :, 0, :] - res.curves[2].points[:n])) < 1e-11
        assert np.max(np.abs(res.x[0, 0, :, :] - res.curves[3].points[:n])) < 1e-11


class TestRibaucourPair3D:
    def _spec_and_seed(self, eps=0.1, r=0.4):
        oracle = SphericalOracle()
        spec = oracle.surface_spec(eps, r)
        tangents = []
        for i in (1, 2, 3):
            d = oracle.curve(i).dx(0.0)
            tangents.append(d / np.linalg.norm(d))
        seed = spec.x0 + 0.45 * tangents[0] + 0.40 * tangents[1] + 0.42 * tangents[2]
        return spec, seed

    def test_base_layer_matches_plain_assembly(self):
        spec, seed = self._spec_and_seed()
        pair = ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        assert np.max(np.abs(pair.x[..., 0, :] - pair.base.x)) == 0.0

    def test_all_quads_concircular(self):
        spec, seed = self._spec_and_seed()
        pair = ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        worst = max(
            float(np.max(circularity_residual_batch(quad_stack(pair.x, a, b))))
            for a, b in itertools.combinations(range(4), 2)
        )
        assert worst < 1e-10

    def test_fine_mesh_solves_with_circular_quads(self):
        # at eps = 0.025 the transform blocks reach entries of several hundred
        # yet stay well conditioned; a scale-invariant block gate lets the
        # bulk propagation through
        spec, seed = self._spec_and_seed(eps=0.025)
        pair = ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        assert not np.isnan(pair.x).any()
        worst = max(
            float(np.max(circularity_residual_batch(quad_stack(pair.x, a, b))))
            for a, b in itertools.combinations(range(4), 2)
        )
        assert worst < 1e-10

    def test_transform_layer_converges_at_first_order(self):
        # Cauchy differences of the transform layer, on the sites of the coarsest grid, between successive halvings
        eps_list = (0.1, 0.05, 0.025, 0.0125)
        layers = []
        for eps in eps_list:
            spec, seed = self._spec_and_seed(eps=eps)
            x = ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed).x[..., 1, :]
            k = round(eps_list[0] / eps)
            layers.append(x[::k, ::k, ::k])
        gaps = [np.max(np.linalg.norm(a - b, axis=-1)) for a, b in zip(layers, layers[1:])]
        slope = np.polyfit(np.log(eps_list[:-1]), np.log(gaps), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_transform_axes_match_independent_pair_solves(self):
        # the bulk conjugate propagation and the per-axis frame solves are two
        # independent routes to the transform curves; they must agree
        spec, seed = self._spec_and_seed()
        pair = ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        n = pair.x.shape[0]
        axes = {1: pair.x[:, 0, 0, 1, :], 2: pair.x[0, :, 0, 1, :], 3: pair.x[0, 0, :, 1, :]}
        for i in (1, 2, 3):
            assert np.max(np.abs(axes[i] - pair.pairs[i].transform[:n])) < 1e-9


class TestPermutability:
    def test_single_transform_matches_pair_solve(self):
        # k = 1: the conjugate propagation of one transform reproduces the
        # curve/transform frame solve it was built from
        curve = warped_circle_curve(1.0, 0.3)
        alpha, seed = (lambda t: -1.0 + 0.2 * np.sin(t)), np.array([0.55, 0.0])
        eps, r = np.pi / 40, 8 * np.pi / 40
        x = iterated_ribaucour_net(ALG2, curve, [alpha], [seed], (), eps, r)
        pair = ribaucour_solve(ALG2, curve, alpha, seed, eps, r + eps)
        n = x.shape[0]
        assert x.shape == (9, 2, 2)
        assert np.max(np.abs(x[:, 0] - pair.base[:n])) < 1e-13
        assert np.max(np.abs(x[:, 1] - pair.transform[:n])) < 1e-13

    def test_double_transform_concircular(self):
        curve = warped_circle_curve(1.0, 0.3)
        x = double_ribaucour_net(
            ALG2, curve,
            [lambda t: -1.0 + 0.2 * np.sin(t), lambda t: -0.9],
            [np.array([0.55, 0.0]), np.array([0.70, -0.1])],
            corner_angle=1.2, eps=np.pi / 40, r=8 * np.pi / 40,
        )
        worst = 0.0
        scale = 0.0
        for s in range(x.shape[0]):
            pts = np.stack([x[s, 0, 0], x[s, 1, 0], x[s, 1, 1], x[s, 0, 1]])
            worst = max(worst, circularity_residual(pts))
            scale = max(scale, float(np.max(np.linalg.norm(pts[1:] - pts[0], axis=-1))))
        assert worst < 1e-9 * scale

    def test_triple_transform_closes_to_miquel_point(self):
        curve = warped_circle_curve(1.0, 0.3, dim=3)
        seeds = [np.array([0.55, 0.0, 0.1]), np.array([0.70, -0.1, -0.15]),
                 np.array([0.8, 0.05, 0.25])]
        x = triple_ribaucour_net(
            ALG3, curve,
            [lambda t: -1.0, lambda t: -0.9, lambda t: -1.1],
            seeds, corner_angles=(1.2, 0.9, 1.4), eps=np.pi / 40, r=8 * np.pi / 40,
        )
        m = miquel_eighth_vertex(
            x[0, 0, 0, 0], x[0, 1, 0, 0], x[0, 0, 1, 0], x[0, 0, 0, 1],
            x[0, 1, 1, 0], x[0, 1, 0, 1], x[0, 0, 1, 1],
        )
        assert np.linalg.norm(m - x[0, 1, 1, 1]) < 1e-9
        # every transform-pair quad along the curve stays concircular
        for s in range(x.shape[0]):
            for (a, b) in itertools.combinations(range(3), 2):
                for lev in (0, 1):
                    def corner(da, db):
                        ii = [s, 0, 0, 0]
                        ii[1 + a] = da
                        ii[1 + b] = db
                        other = [c for c in range(3) if c not in (a, b)][0]
                        ii[1 + other] = lev
                        return x[tuple(ii)]

                    pts = np.stack([corner(0, 0), corner(1, 0), corner(1, 1), corner(0, 1)])
                    assert circularity_residual(pts) < 1e-10
