import numpy as np
import pytest

from dlame.conjugate import ConjugateSystem
from dlame.errors import (
    DomainViolation,
    OrderTooLarge,
    OutOfBounds,
    SqrtDomain,
    SystemStructureError,
    raise_first,
)
from dlame.lattice import (
    Component,
    HyperbolicSystem,
    LatticeField,
    MeshSpec,
    _fill_plan,
    cl_norm,
    consistency_residual,
    goursat_solve,
)

from goursat_reference import per_row


def coordinate_field(mesh, axis=0):
    grids = np.meshgrid(*(np.arange(n) * eps for n, eps in zip(mesh.npts, mesh.eps)), indexing="ij")
    return LatticeField(mesh, grids[axis].copy())


class LinearSystem(HyperbolicSystem):
    """delta_j u = A_j u with constant matrices."""

    def __init__(self, mats):
        M = len(mats)
        super().__init__(M, [Component("u", (mats[0].shape[0],), (), {j: ("u",) for j in range(M)})])
        self.mats = np.array(mats)

    def step(self, j, vals, eps, outputs=None, sources=None):
        u = np.asarray(vals["u"], dtype=float)
        return {"u": u + np.asarray(eps)[j][..., None] * (self.mats[j] @ u[..., None])[..., 0]}


class TestShiftDiff:
    def test_constant_field_has_zero_diff(self):
        mesh = MeshSpec.box(2, 0.5, 2.0)
        f = LatticeField(mesh, np.full(mesh.shape, 7.0))
        assert np.all(f.diff(0).values == 0.0)

    def test_linear_field_diff_is_one(self):
        mesh = MeshSpec.box(2, 0.25, 1.0)
        f = coordinate_field(mesh, 0)
        assert np.allclose(f.diff(0).values, 1.0)

    def test_mixed_differences_commute(self, rng):
        # exact on exactly representable data; tight relative bound in general
        mesh = MeshSpec.box(2, 0.125, 1.0)
        f = LatticeField(mesh, rng.integers(-8, 8, size=mesh.shape).astype(float))
        assert np.array_equal(f.diff(0).diff(1).values, f.diff(1).diff(0).values)
        g = LatticeField(mesh, rng.normal(size=mesh.shape))
        d1 = g.diff(0).diff(1).values
        d2 = g.diff(1).diff(0).values
        assert np.max(np.abs(d1 - d2)) < 1e-12 * np.max(np.abs(d1))

    def test_shift_is_identity_plus_eps_diff(self, rng):
        mesh = MeshSpec.box(1, 0.25, 2.0)
        f = LatticeField(mesh, rng.integers(-64, 64, size=mesh.shape).astype(float))
        lhs = f.shift(0).values
        rhs = f.values[:-1] + 0.25 * f.diff(0).values
        assert np.array_equal(lhs, rhs)
        g = LatticeField(mesh, rng.normal(size=mesh.shape))
        gap = g.shift(0).values - (g.values[:-1] + 0.25 * g.diff(0).values)
        assert np.max(np.abs(gap)) < 1e-15 * (1 + np.max(np.abs(g.values)))

    def test_out_of_bounds(self):
        mesh = MeshSpec(eps=(1.0,), npts=(1,))
        f = LatticeField(mesh, np.zeros(1))
        with pytest.raises(OutOfBounds):
            f.shift(0)


class TestClNorm:
    def test_constant(self):
        mesh = MeshSpec.box(2, 0.25, 1.0)
        f = LatticeField(mesh, np.full(mesh.shape, -3.0))
        assert cl_norm(f, 1) == 3.0

    def test_linear(self):
        mesh = MeshSpec.box(2, 0.25, 1.0)
        assert cl_norm(coordinate_field(mesh), 1) == 1.0

    def test_sine_approaches_analytic_sup(self):
        # max over |alpha|<=2 of |delta^alpha sin| tends to 1 at rate O(eps)
        prev_gap = None
        for eps in (0.1, 0.05, 0.025):
            mesh = MeshSpec.box(1, eps, 3.0)
            f = LatticeField(mesh, np.sin(np.arange(mesh.npts[0]) * eps))
            gap = abs(cl_norm(f, 2) - 1.0)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 0.05

    def test_order_too_large(self):
        mesh = MeshSpec(eps=(1.0,), npts=(2,))
        f = LatticeField(mesh, np.zeros(2))
        with pytest.raises(OrderTooLarge):
            cl_norm(f, 3)

    def test_tail_directions_excluded(self, rng):
        mesh = MeshSpec(eps=(0.5, 1.0), npts=(3, 2), tail=1)
        vals = rng.normal(size=(3, 2))
        f = LatticeField(mesh, vals)
        # order 2 fits in the continuous direction even though the tail has 2 layers
        assert cl_norm(f, 2) >= 0.0


class TestGoursat:
    def test_constant_rule(self):
        class Const(HyperbolicSystem):
            def __init__(self):
                super().__init__(1, [Component("u", (), (), {0: ("u",)})])

            def step(self, j, vals, eps, outputs=None, sources=None):
                return {"u": vals["u"]}

        mesh = MeshSpec(eps=(0.5,), npts=(6,))
        out = goursat_solve(Const(), mesh, {"u": np.array(2.5)})
        assert np.all(out["u"].values == 2.5)

    def test_linear_closed_form(self, rng):
        A1 = 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        A2 = 0.2 * np.eye(2)
        system = LinearSystem([A1, A2])
        mesh = MeshSpec.box(2, 0.125, 1.0)
        u0 = np.array([1.0, 2.0])
        out = goursat_solve(system, mesh, {"u": u0})
        for i, j in ((3, 5), (8, 8), (0, 7)):
            M1 = np.linalg.matrix_power(np.eye(2) + 0.125 * A1, i)
            M2 = np.linalg.matrix_power(np.eye(2) + 0.125 * A2, j)
            assert np.max(np.abs(out["u"].values[i, j] - M1 @ M2 @ u0)) < 1e-12

    def test_noncommuting_linear_consistency_fails(self, rng):
        A1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        A2 = np.array([[0.0, 0.0], [1.0, 0.0]])
        system = LinearSystem([A1, A2])
        r = consistency_residual(system, {"u": np.array([1.0, 2.0])}, (0.5, 0.5))
        assert r > 1e-3

    def test_solution_independent_of_request_subset(self, rng):
        A1 = 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        A2 = 0.2 * np.eye(2)
        system = LinearSystem([A1, A2])
        mesh = MeshSpec.box(2, 0.25, 1.0)
        u0 = np.array([1.0, 2.0])
        full = goursat_solve(system, mesh, {"u": u0})
        part = goursat_solve(system, mesh, {"u": u0}, request=("u",))
        assert np.array_equal(full["u"].values, part["u"].values)

    def test_domain_violation_reports_site(self):
        class Fails(HyperbolicSystem):
            def __init__(self):
                super().__init__(1, [Component("u", (), (), {0: ("u",)})])

            def step(self, j, vals, eps, outputs=None, sources=None):
                # one site per level on a 1D box: the failing row is row 0
                if np.any(vals["u"] > 2.5):
                    raise ValueError("left the domain")
                return {"u": vals["u"] + 1.0}

        mesh = MeshSpec(eps=(1.0,), npts=(6,))
        with pytest.raises(DomainViolation) as err:
            goursat_solve(Fails(), mesh, {"u": np.array(0.0)})
        assert err.value.site == (3.0,)

    def test_structural_check(self):
        # the rule for u in direction 0 reads v, but v does not evolve in direction 1
        comps = [
            Component("u", (), (), {0: ("u", "v"), 1: ("u",)}),
            Component("v", (), (1,), {0: ("v",)}),
        ]
        with pytest.raises(SystemStructureError, match=r"rule for u in direction 0 reads v, "
                                                       r"whose evolution directions do not cover \[1\]"):
            HyperbolicSystem(2, comps)

    def test_structural_check_derives_each_evolution_once(self, monkeypatch):
        # the closure condition reads one evolution set per component, not one per declared read
        calls, inner = [], Component.evolution
        monkeypatch.setattr(Component, "evolution", lambda c, M: calls.append(c.name) or inner(c, M))
        system = ConjugateSystem(4, 3, tail_dirs=(3,))
        assert sorted(calls) == sorted(c.name for c in system.components)

    @pytest.mark.parametrize("comps,match", [
        ([Component("u", (), (), {0: ("u",)}), Component("u", (), (), {1: ("u",)})], "duplicate"),
        ([Component("u", (), (0,), {0: ("u",), 1: ("u",)})], "non-evolution direction 0"),
        ([Component("u", (), (), {0: ("u", "w"), 1: ("u",)})], "unknown component w"),
    ], ids=["duplicate-name", "static-direction-read", "unknown-read"])
    def test_malformed_declarations(self, comps, match):
        with pytest.raises(SystemStructureError, match=match):
            HyperbolicSystem(2, comps)

    @pytest.mark.parametrize("mesh,data,request_,error,match", [
        (MeshSpec((0.5,), (3,)), {"u": np.ones(2)}, None, ValueError, "mesh dimension"),
        (MeshSpec((0.5, 0.5), (3, 3)), {"u": np.ones(2)}, ("v",), ValueError, "unknown components"),
        (MeshSpec((0.5, 0.5), (3, 3)), {"u": lambda *xi: np.ones(2)}, None, TypeError, "callable"),
    ], ids=["mesh-dimension", "unknown-request", "callable-data"])
    def test_rejected_inputs(self, mesh, data, request_, error, match):
        system = LinearSystem([np.eye(2), np.eye(2)])
        with pytest.raises(error, match=match):
            goursat_solve(system, mesh, data, request=request_)


class TestMeshSpec:
    @pytest.mark.parametrize("eps,npts,match", [
        ((0.5, 0.5), (3,), "agree in length"),
        ((0.5, 0.0), (3, 3), "strictly positive"),
        ((0.5,), (0,), "at least one site"),
    ])
    def test_validation(self, eps, npts, match):
        with pytest.raises(ValueError, match=match):
            MeshSpec(eps, npts)


class SiteGate(HyperbolicSystem):
    """u carries its own site index; stepping a listed (source, direction) fails."""

    def __init__(self, bad):
        super().__init__(2, [Component("u", (2,), (), {0: ("u",), 1: ("u",)})])
        self.bad = bad

    def step(self, j, vals, eps, outputs=None, sources=None):
        u = np.asarray(vals["u"], dtype=float)
        hit = np.zeros(u.shape[:-1], dtype=bool)
        for site, d in self.bad:
            hit |= (np.asarray(j) == d) & np.all(u == site, axis=-1)
        raise_first([(hit, lambda row: SqrtDomain("left the domain"))])
        return {"u": u + np.eye(2)[j]}


class ScalarSiteGate(per_row(SiteGate)):
    """SiteGate stepped one row per call, each with a plain int direction."""


class TestDomainViolationSite:
    # level 4 of a 6 x 6 box in fill order: (0, 4) stepped from (0, 3) in
    # direction 1, then (1, 3), (2, 2), (3, 1), (4, 0) stepped in direction 0
    mesh = MeshSpec(eps=(0.5, 0.25), npts=(6, 6))

    @pytest.mark.parametrize("system_cls", [SiteGate, ScalarSiteGate])
    @pytest.mark.parametrize("bad,site,direction", [
        # two failures on one level in different directions: the earlier one
        # in fill order wins, although its direction is stepped second
        ([((2, 1), 0), ((0, 3), 1)], (0.0, 0.75), 1),
        # a failure on a later row of a batch is named, not the batch's first row
        ([((2, 1), 0)], (1.0, 0.25), 0),
        ([((3, 0), 0), ((1, 2), 0)], (0.5, 0.5), 0),
    ])
    def test_first_failure_in_fill_order(self, system_cls, bad, site, direction):
        with pytest.raises(DomainViolation) as err:
            goursat_solve(system_cls(bad), self.mesh, {"u": np.zeros(2)})
        assert err.value.site == site
        assert all(type(v) is float for v in err.value.site)
        assert err.value.direction == direction
        assert isinstance(err.value.cause, SqrtDomain)

    def test_solution_reproduces_site_indices(self):
        out = goursat_solve(SiteGate([]), self.mesh, {"u": np.zeros(2)})["u"].values
        assert np.array_equal(out, np.stack(np.indices(self.mesh.shape), axis=-1))


class TestConsistencyResidual:
    def test_commuting_linear_system_is_consistent(self):
        A1 = 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        A2 = 0.2 * np.eye(2)
        system = LinearSystem([A1, A2])
        assert consistency_residual(system, {"u": np.array([1.0, 2.0])}, (0.25, 0.25)) < 1e-13

    def test_single_evolution_direction_has_no_cross_difference(self):
        system = LinearSystem([0.3 * np.eye(2)])
        assert consistency_residual(system, {"u": np.array([1.0, 2.0])}, (0.25,)) == 0.0


class TestFillOrderInvariance:
    def test_reversed_site_enumeration_is_bitwise_identical(self, rng, monkeypatch):
        # values are pulled from a canonical producer, so enumeration order
        # within a level cannot influence the arithmetic
        A1 = 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        A2 = np.array([[0.1, 0.4], [0.0, 0.2]])  # deliberately non-commuting
        system = LinearSystem([A1, A2])
        mesh = MeshSpec.box(2, 0.25, 1.0)
        u0 = np.array([1.0, 2.0])
        plain = goursat_solve(system, mesh, {"u": u0})

        original = MeshSpec.levels
        patched_calls = []

        def reversed_levels(self):
            patched_calls.append(self.npts)
            return [list(reversed(sites)) for sites in original(self)]

        monkeypatch.setattr(MeshSpec, "levels", reversed_levels)
        # the fill plan caches its site order: without a fresh plan the second
        # solve would reuse the first one's and compare nothing
        _fill_plan.cache_clear()
        try:
            flipped = goursat_solve(system, mesh, {"u": u0})
        finally:
            _fill_plan.cache_clear()
        assert patched_calls == [mesh.npts]
        assert np.array_equal(plain["u"].values, flipped["u"].values)


class TestCrossModuleCube:
    def test_driver_reproduces_elementary_hexahedron(self, rng):
        from dlame.conjugate import (
            CornerState,
            elementary_hexahedron,
            solve_conjugate_net,
        )

        w = rng.normal(size=(3, 3))
        c = rng.uniform(-0.2, 0.2, (3, 3))
        np.fill_diagonal(c, 0.0)
        x0 = rng.normal(size=3)
        mesh = MeshSpec(eps=(1.0, 1.0, 1.0), npts=(2, 2, 2))
        w_axis = {i: np.broadcast_to(w[i], (2, 3)).copy() for i in range(3)}
        c_data = {(i, j): np.full((2, 2), c[i, j])
                  for i in range(3) for j in range(3) if i != j}
        fields = solve_conjugate_net(mesh, x0, w_axis, c_data, N=3)
        far = elementary_hexahedron(CornerState(x0, w, c), (1.0, 1.0, 1.0))
        assert np.max(np.abs(fields["x"].values[1, 1, 1] - far)) < 1e-10 * max(
            1.0, float(np.max(np.abs(w)))
        )
