"""The compiled Goursat fill plan: differential tests against the per-call
driver it replaced (goursat_reference.py), the vectorised level enumeration
and the safety of the plan cache."""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dlame import conjugate, orthogonal
from dlame.clifford import algebra
from dlame.conjugate import ConjugateSystem, solve_conjugate_net
from dlame.curves import warped_circle_curve
from dlame.errors import DomainViolation
from dlame.lattice import Component, HyperbolicSystem, MeshSpec, _fill_plan, _signature, goursat_solve
from dlame.oracles import EllipticOracle, SphericalOracle, csurface_data_from_oracle
from dlame.orthogonal import csurface_solve, ribaucour_pair_3d, ribaucour_solve

import goursat_reference
from test_lattice import LinearSystem, ScalarSiteGate, SiteGate

SRC = Path(__file__).resolve().parents[1] / "src"


def _recorded(system, solve, mesh, data, request):
    """Run one solve with the system's step calls recorded as
    (direction, outputs, shape of the first gathered value)."""
    calls = []
    inner = system.step

    def step(j, vals, eps, outputs=None):
        calls.append((j, outputs, np.shape(next(iter(vals.values())))))
        return inner(j, vals, eps, outputs=outputs)

    system.step = step
    try:
        return solve(system, mesh, data, request=request), calls
    finally:
        del system.step


def solve_both(system, mesh, data, request=None):
    """Planned solve, checked against the reference driver: the same step
    calls in the same order and bitwise-equal fields (nan patterns included)."""
    ref, ref_calls = _recorded(system, goursat_reference.goursat_solve, mesh, data, request)
    new, new_calls = _recorded(system, goursat_solve, mesh, data, request)
    assert new_calls == ref_calls
    assert list(new) == list(ref)
    for name in ref:
        assert new[name].values.dtype == ref[name].values.dtype
        assert new[name].values.shape == ref[name].values.shape
        assert new[name].values.tobytes() == ref[name].values.tobytes(), name
    return new


@pytest.fixture
def differential(monkeypatch):
    """Route the package's own solves through solve_both and record their requests."""
    solves = []

    def checked(system, mesh, data, request=None):
        solves.append(request)
        return solve_both(system, mesh, data, request)

    monkeypatch.setattr(conjugate, "goursat_solve", checked)
    monkeypatch.setattr(orthogonal, "goursat_solve", checked)
    return solves


def _spherical_pair_inputs(eps=0.1, r=0.4):
    oracle = SphericalOracle()
    spec = oracle.surface_spec(eps, r)
    tangents = [oracle.curve(i).dx(0.0) for i in (1, 2, 3)]
    seed = spec.x0 + sum(k * t / np.linalg.norm(t) for k, t in zip((0.45, 0.40, 0.42), tangents))
    return spec, seed


class ThreeGate(SiteGate):
    """SiteGate with three site-carrying components; b is static in direction 0."""

    def __init__(self, bad):
        HyperbolicSystem.__init__(self, 2, [
            Component("a", (2,), (), {0: ("a",), 1: ("a",)}),
            Component("b", (2,), (0,), {1: ("b",)}),
            Component("c", (2,), (), {0: ("c",), 1: ("c",)}),
        ])
        self.bad = bad

    def step(self, j, vals, eps, outputs=None):
        super().step(j, {"u": vals["a"]}, eps)      # raises at a listed (source, direction)
        return {name: np.asarray(vals[name]) + np.eye(2)[j] for name in outputs}


class Wide(HyperbolicSystem):
    """70 scalar components, more than a 64-bit word has bits, so an output
    set cannot be encoded as one integer.  Every third is static in direction
    0; a rule reads its own component and, where the closure condition
    allows, its successor."""

    batched = True

    def __init__(self, n=70):
        names = [f"u{k:02d}" for k in range(n)]
        static = [(0,) if k % 3 == 0 else () for k in range(n)]
        self.reads = {(name, j): (name,) if j and not static[k] else (name, names[(k + 1) % n])
                      for k, name in enumerate(names) for j in (0, 1) if j or not static[k]}
        HyperbolicSystem.__init__(self, 2, [
            Component(name, (), static[k], {j: self.reads[name, j] for j in (0, 1) if (name, j) in self.reads})
            for k, name in enumerate(names)])

    def step(self, j, vals, eps, outputs=None):
        return {name: 0.9 * vals[name] + 0.1 * vals[self.reads[name, j][-1]] + j + 1.0 for name in outputs}


class TestAgainstReferenceDriver:
    def test_scalar_linear_system(self, rng):
        A = [0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.1, 0.4], [0.0, 0.2]]),
             0.2 * np.eye(2)]
        for M, npts in ((2, (5, 4)), (3, (3, 1, 4))):
            system = LinearSystem(A[:M])
            assert not system.batched
            mesh = MeshSpec(eps=(0.25,) * M, npts=npts)
            for request in (None, ("u",), ()):
                solve_both(system, mesh, {"u": rng.normal(size=2)}, request)

    def test_batched_site_gate(self):
        mesh = MeshSpec(eps=(0.5, 0.25), npts=(6, 6))
        out = solve_both(SiteGate([]), mesh, {"u": np.zeros(2)})
        assert np.array_equal(out["u"].values, np.stack(np.indices(mesh.shape), axis=-1))

    def test_conjugate_full_and_requested(self, rng):
        mesh = MeshSpec(eps=(0.1, 0.1, 0.1), npts=(3, 4, 5))
        w_axis = {i: np.eye(3)[i] + 0.1 * rng.normal(size=(mesh.npts[i], 3)) for i in range(3)}
        c_data = {(i, j): rng.uniform(-0.2, 0.2, (mesh.npts[min(i, j)], mesh.npts[max(i, j)]))
                  for i, j in itertools.permutations(range(3), 2)}
        x0, solves = rng.normal(size=3), []
        for request in (None, ("x",), ["w1", "x", "w1"]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(conjugate, "goursat_solve",
                           lambda s, m, d, request=None: solves.append(solve_both(s, m, d, request)))
                solve_conjugate_net(mesh, x0, w_axis, c_data, N=3, request=request)
        full, part, _ = solves
        assert not np.isnan(full["c1_2"].values).any()
        assert np.isnan(part["c1_2"].values).any()
        assert full["x"].values.tobytes() == part["x"].values.tobytes()

    def test_more_components_than_int64_bits(self, rng):
        system = Wide()
        mesh = MeshSpec(eps=(0.5, 0.25), npts=(4, 5))
        data = {c.name: rng.normal(size=mesh.npts[0] if c.static else ()) for c in system.components}
        for request in (None, ("u00",), ("u69", "u01"), ("u02", "u65")):
            out = solve_both(system, mesh, data, request)
            assert not any(np.isnan(out[name].values).any() for name in request or out)

    def test_eight_direction_conjugate_net(self, rng):
        # M^2 + 1 = 65 components on a (2,) * 8 box
        mesh = MeshSpec(eps=(0.1,) * 8, npts=(2,) * 8)
        w_axis = {i: np.eye(8)[i] + 0.05 * rng.normal(size=(2, 8)) for i in range(8)}
        c_data = {(i, j): rng.uniform(-0.1, 0.1, (2, 2)) for i, j in itertools.permutations(range(8), 2)}
        solves = []
        for request in (None, ("x",)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(conjugate, "goursat_solve",
                           lambda s, m, d, request=None: solves.append(solve_both(s, m, d, request)))
                solve_conjugate_net(mesh, rng.normal(size=8), w_axis, c_data, N=8, request=request)
        full, part = solves
        assert not any(np.isnan(f.values).any() for f in full.values())
        assert not np.isnan(part["x"].values).any()

    def test_conjugate_tail_direction(self, differential):
        # orthosys assembly (frame surfaces, requested x) plus the tail-direction
        # bulk solve and the per-axis alpha-splitting transform solves
        spec, seed = _spherical_pair_inputs()
        ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        assert None in differential and ("x",) in differential and ("psi",) in differential

    def test_frame_surface_gamma_and_alpha(self, differential):
        csurface_solve(csurface_data_from_oracle(EllipticOracle(), np.pi / 40, 4 * np.pi / 10))
        ribaucour_solve(algebra(2), warped_circle_curve(1.0, 0.3), lambda t: -1.0 + 0.3 * np.sin(t),
                        np.array([0.55, 0.0]), np.pi / 40, 0.5)
        assert differential == [None, ("psi",)]

    @pytest.mark.parametrize("batched", [True, False])
    def test_two_groups_failing_at_one_site(self, batched):
        # at (1, 1), a and c are pulled in direction 0 and b in direction 1:
        # both groups fail, and the one holding the earlier component wins
        mesh = MeshSpec(eps=(0.5, 0.25), npts=(4, 3))
        system = ThreeGate([((0, 1), 0), ((1, 0), 1)])
        system.batched = batched
        data = {"a": np.zeros(2), "b": np.stack([np.arange(4.0), np.zeros(4)], axis=-1), "c": np.zeros(2)}
        for solve in (goursat_reference.goursat_solve, goursat_solve):
            with pytest.raises(DomainViolation) as err:
                solve(system, mesh, data)
            assert (err.value.site, err.value.direction) == ((0.0, 0.25), 0)
        solve_both(ThreeGate([]), mesh, data)

    @pytest.mark.parametrize("system_cls", [SiteGate, ScalarSiteGate])
    @pytest.mark.parametrize("bad", [
        [((2, 1), 0), ((0, 3), 1)],
        [((2, 1), 0)],
        [((3, 0), 0), ((1, 2), 0)],
        [((0, 0), 1), ((1, 0), 0)],
        [((4, 1), 1), ((5, 0), 1), ((2, 3), 0)],
    ])
    def test_same_domain_violation(self, system_cls, bad):
        mesh = MeshSpec(eps=(0.5, 0.25), npts=(6, 6))
        errors = []
        for solve in (goursat_reference.goursat_solve, goursat_solve):
            with pytest.raises(DomainViolation) as err:
                solve(system_cls(bad), mesh, {"u": np.zeros(2)})
            errors.append(err.value)
        ref, new = errors
        assert new.site == ref.site
        assert [type(v) for v in new.site] == [float, float]
        assert new.direction == ref.direction
        assert type(new.cause) is type(ref.cause)


class TestLevels:
    @pytest.mark.parametrize("npts,tail", [
        ((1,), 0), ((5,), 0), ((1, 4), 0), ((4, 1, 3), 0), ((3, 3, 2), 1), ((2, 1, 4, 2), 1),
        ((1, 1, 2, 2), 2),
    ])
    def test_matches_itertools_enumeration(self, npts, tail):
        mesh = MeshSpec(eps=(0.5,) * (len(npts) - tail) + (1.0,) * tail, npts=npts, tail=tail)
        expected = [[] for _ in range(sum(n - 1 for n in npts) + 1)]
        for idx in itertools.product(*(range(n) for n in npts)):
            expected[sum(idx)].append(idx)
        levels = mesh.levels()
        assert [[tuple(site) for site in sites.tolist()] for sites in levels] == expected
        assert all(sites.shape == (len(exp), len(npts)) for sites, exp in zip(levels, expected))


class TwoComponent(HyperbolicSystem):
    """u and v, both stepped by adding v + 1; the read sets and the static
    directions of u vary, the component names do not."""

    batched = True

    def __init__(self, reads_u, static_u=()):
        super().__init__(2, [Component("u", (), static_u, reads_u),
                             Component("v", (), (), {0: ("v",), 1: ("v",)})])

    def step(self, j, vals, eps, outputs=None):
        return {name: vals[name] + vals["v"] + 1.0 for name in outputs}


class TestPlanCache:
    mesh = MeshSpec(eps=(0.5, 0.5), npts=(4, 3))

    def test_equal_names_different_structure_get_different_plans(self):
        systems = [
            TwoComponent({0: ("u",), 1: ("u",)}),
            TwoComponent({0: ("u", "v"), 1: ("u",)}),
            TwoComponent({0: ("u", "v")}, static_u=(1,)),
        ]
        assert len({_signature(s) for s in systems}) == 3
        _fill_plan.cache_clear()
        results = [solve_both(s, self.mesh, {"u": 0.0, "v": 1.0}, ("u",)) for s in systems]
        assert _fill_plan.cache_info().misses == 3
        # v is filled only where a rule for u declares that it reads v
        assert [int(np.isnan(r["v"].values).sum()) for r in results] == [11, 3, 3]

    def test_request_spellings_share_one_entry(self):
        system = TwoComponent({0: ("u", "v"), 1: ("u",)})
        _fill_plan.cache_clear()
        outs = [goursat_solve(system, self.mesh, {"u": 0.0, "v": 1.0}, request=request)
                for request in (["u"], ("u",), ("u", "u"), ["u", "u"])]
        info = _fill_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        assert len({o["v"].values.tobytes() for o in outs}) == 1

    def test_plan_arrays_are_read_only(self):
        system = ConjugateSystem(3, 3)
        plan = _fill_plan(_signature(system), (3, 4, 2), ("x",))
        steps = [step for level in plan for step in level]
        assert steps
        for _, _, *arrays, _ in steps:
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0
                with pytest.raises(ValueError):
                    arr.flags.writeable = True

    def test_cold_and_warm_solves_are_bitwise_equal(self):
        data = csurface_data_from_oracle(EllipticOracle(), np.pi / 40, 4 * np.pi / 10)
        _fill_plan.cache_clear()
        cold = csurface_solve(data).fields
        assert _fill_plan.cache_info().misses == 1
        warm = csurface_solve(data).fields
        assert _fill_plan.cache_info().hits == 1
        for name in cold:
            assert cold[name].values.tobytes() == warm[name].values.tobytes()

    def test_import_and_construction_build_no_plan(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import dlame, dlame.cli\n"
            "from dlame.clifford import algebra\n"
            "from dlame.conjugate import ConjugateSystem\n"
            "from dlame.lattice import _fill_plan\n"
            "from dlame.orthogonal import FrameSurfaceSystem\n"
            "ConjugateSystem(3, 3); ConjugateSystem(4, 3, tail_dirs=(3,))\n"
            "FrameSurfaceSystem(algebra(2), (1, 2), 'gamma'); FrameSurfaceSystem(algebra(3), (1, 2), 'alpha')\n"
            "info = _fill_plan.cache_info()\n"
            "print(info.hits + info.misses, info.currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                              timeout=120, check=True)
        assert proc.stdout.split() == ["0", "0"]
