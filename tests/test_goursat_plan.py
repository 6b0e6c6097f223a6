"""The compiled Goursat fill plan: differential tests against the per-call
driver it replaced (goursat_reference.py), per-row gating inside the one step
call of a level, the vectorised level enumeration and the safety of the plan
cache."""

import itertools
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dlame import conjugate, orthogonal
from dlame.clifford import algebra
from dlame.conjugate import ConjugateSystem, _implicit_blocks, cname, dcn_step_c, solve_conjugate_net
from dlame.curves import warped_circle_curve
from dlame.errors import DegenerateHexahedron, DomainViolation, SqrtDomain
from dlame.lattice import Component, HyperbolicSystem, MeshSpec, _fill_plan, _signature, goursat_solve
from dlame.oracles import EllipticOracle, SphericalOracle, csurface_data_from_oracle
from dlame.orthogonal import FrameSurfaceSystem, csurface_solve, ribaucour_pair_3d, ribaucour_solve

import frame_reference
import goursat_reference
from test_lattice import LinearSystem, ScalarSiteGate, SiteGate

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_rows(system, mesh, data, request=None):
    """The reference driver's fields, and its step calls split into rows
    (flat source site, direction, outputs) in fill order: by the destination's
    position in `MeshSpec.levels()` order, then by the declaration index of
    the row's first output."""
    calls, inner = [], goursat_reference._fill

    def fill(system, j, outputs, src, dst, full, eps):
        calls.append((j, outputs, np.ravel_multi_index(tuple(src.T), mesh.shape),
                      np.ravel_multi_index(tuple(dst.T), mesh.shape)))
        return inner(system, j, outputs, src, dst, full, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(goursat_reference, "_fill", fill)
        fields = goursat_reference.goursat_solve(system, mesh, data, request=request)
    seq = np.concatenate([np.ravel_multi_index(tuple(sites.T), mesh.shape) for sites in mesh.levels()])
    position = np.argsort(seq)
    rank = {c.name: k for k, c in enumerate(system.components)}
    rows = sorted((int(position[d]), min(rank[name] for name in outputs), s, j, outputs)
                  for j, outputs, src, dst in calls for s, d in zip(src.tolist(), dst.tolist()))
    return fields, [row[2:] for row in rows]


def planned_rows(system, mesh, data, request=None):
    """The planned driver's fields, and its step calls split into rows (flat
    source site, direction, the outputs the row owns) in call order: one call
    per level with work, with per-row directions and a per-row output mask."""
    calls, tables, inner = [], [], system.step

    def step(j, vals, eps, outputs=None, sources=None):
        assert np.shape(j) == np.shape(next(iter(vals.values())))[:1]
        calls.append([(int(d), tuple(name for name in outputs if outputs[name][r]))
                      for r, d in enumerate(np.asarray(j).tolist())])
        tables.append(sources)
        return inner(j, vals, eps, outputs=outputs, sources=sources)

    system.step = step
    try:
        fields = goursat_solve(system, mesh, data, request=request)
    finally:
        del system.step
    plan = _fill_plan(_signature(system), tuple(mesh.npts), None if request is None else tuple(sorted(set(request))), 1)
    assert len(calls) == len(plan)
    for call, table, (outputs, dirs, level_src, _, _, sources) in zip(calls, tables, plan):
        assert [d for d, _ in call] == dirs.tolist()
        assert sorted(set().union(*(own for _, own in call))) == list(outputs)
        # the call's distinct source sites in site order, each named by its first row
        first, inv = table
        assert table is sources
        assert level_src[first].tolist() == sorted(set(level_src.tolist()))
        assert np.array_equal(level_src[first][inv], level_src)
        assert np.array_equal(first, [np.flatnonzero(level_src == s)[0] for s in level_src[first]])
    src = [s for _, _, level_src, *_ in plan for s in level_src.tolist()]
    rows = [row for call in calls for row in call]
    assert len(rows) == len(src)
    return fields, [(s, d, own) for s, (d, own) in zip(src, rows)]


def assert_same_fields(new, ref):
    """Equal names in equal order, and bitwise-equal values (nan patterns included)."""
    assert list(new) == list(ref)
    for name in ref:
        assert new[name].values.dtype == ref[name].values.dtype
        assert new[name].values.shape == ref[name].values.shape
        assert new[name].values.tobytes() == ref[name].values.tobytes(), name


def solve_both(system, mesh, data, request=None):
    """Planned solve, checked against the reference driver: fused step calls
    whose rows are the reference calls' rows in fill order, and bitwise-equal
    fields (nan patterns included).  A stacked solve must equal its problems
    solved one at a time, each of them checked so."""
    if goursat_reference.problems(system, data) is not None:
        new = goursat_solve(system, mesh, data, request)
        assert_same_fields(new, goursat_reference.by_problem(solve_both, system, mesh, data, request))
        return new
    ref, ref_rows = reference_rows(system, mesh, data, request)
    new, new_rows = planned_rows(system, mesh, data, request)
    assert new_rows == ref_rows
    assert_same_fields(new, ref)
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


@pytest.fixture
def alpha_fill(monkeypatch, differential):
    """Hold every transform (h, beta) fill to the Goursat solve it replaced, through solve_both
    (and so the reference driver): bitwise-equal fields, nan patterns included."""
    inner = orthogonal._coefficients

    def checked(system, mesh, data):
        new = inner(system, mesh, data)
        if system.splitting == "alpha":
            assert_same_fields(new, frame_reference.coefficients(system, mesh, data, solve=solve_both))
            fills.append(mesh.npts)
        return new

    fills = []
    monkeypatch.setattr(orthogonal, "_coefficients", checked)
    return fills


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

    def step(self, j, vals, eps, outputs=None, sources=None):
        super().step(j, {"u": vals["a"]}, eps)      # raises at a listed (source, direction)
        return {name: np.asarray(vals[name]) + np.eye(2)[j] for name in outputs}


class Wide(HyperbolicSystem):
    """70 scalar components, more than a 64-bit word has bits, so an output
    set cannot be encoded as one integer.  Every third is static in direction
    0; a rule reads its own component and, where the closure condition
    allows, its successor."""

    def __init__(self, n=70):
        names = [f"u{k:02d}" for k in range(n)]
        static = [(0,) if k % 3 == 0 else () for k in range(n)]
        self.reads = {(name, j): (name,) if j and not static[k] else (name, names[(k + 1) % n])
                      for k, name in enumerate(names) for j in (0, 1) if j or not static[k]}
        HyperbolicSystem.__init__(self, 2, [
            Component(name, (), static[k], {j: self.reads[name, j] for j in (0, 1) if (name, j) in self.reads})
            for k, name in enumerate(names)])

    def step(self, j, vals, eps, outputs=None, sources=None):
        # each row reads per its own direction; a component static in 0 has no rule in 0 and no row there
        nxt = {name: vals[self.reads.get((name, 0), (name,))[-1]] for name in outputs}
        return {name: 0.9 * vals[name] + 0.1 * np.where(np.asarray(j) == 0, nxt[name], vals[self.reads[name, 1][-1]])
                + j + 1.0 for name in outputs}


class TestAgainstReferenceDriver:
    def test_scalar_linear_system(self, rng):
        A = [0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.1, 0.4], [0.0, 0.2]]),
             0.2 * np.eye(2)]
        for M, npts in ((2, (5, 4)), (3, (3, 1, 4))):
            system = LinearSystem(A[:M])
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

    def test_conjugate_tail_direction(self, differential, alpha_fill):
        # the coordinate surfaces (h, beta alone), the per-axis alpha-splitting transform solves and
        # the tail-direction net for x, whose tail-0 layer is the base: no full three-direction bulk
        spec, seed = _spherical_pair_inputs()
        ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        assert None not in differential and differential.count(("x",)) == 1
        # each transform solve lays out its Goursat data; the recurrence fills h1, b1 without the driver
        assert differential.count(()) == len(alpha_fill) == 3 and ("h1", "b1") not in differential

    def test_frame_surface_gamma_and_alpha(self, differential, alpha_fill):
        csurface_solve(csurface_data_from_oracle(EllipticOracle(), np.pi / 40, 4 * np.pi / 10))
        ribaucour_solve(algebra(2), warped_circle_curve(1.0, 0.3), lambda t: -1.0 + 0.3 * np.sin(t),
                        np.array([0.55, 0.0]), np.pi / 40, 0.5)
        # h and beta alone; a transform solve lays out its Goursat data, and its h1, b1 short of the
        # last base row are held to the Goursat solve of that box
        assert differential == [("h1", "h2", "b1", "b2"), ()] and len(alpha_fill) == 1

    @pytest.mark.parametrize("batched", [True, False])
    def test_two_groups_failing_at_one_site(self, batched):
        # at (1, 1), a and c are pulled in direction 0 and b in direction 1:
        # both groups fail, and the one holding the earlier component wins
        mesh = MeshSpec(eps=(0.5, 0.25), npts=(4, 3))
        system = (ThreeGate if batched else goursat_reference.per_row(ThreeGate))([((0, 1), 0), ((1, 0), 1)])
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


def _first_violation(solve, run):
    """(site, direction, cause type) of the DomainViolation run() raises with the package's solves routed
    through `solve`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjugate, "goursat_solve", solve)
        mp.setattr(orthogonal, "goursat_solve", solve)
        with pytest.raises(DomainViolation) as err:
            run()
    return err.value.site, err.value.direction, type(err.value.cause)


class TestFusedLevels:
    """Per-row gating inside the one step call of a level."""

    def test_one_step_call_per_level_with_work(self, rng):
        mesh = MeshSpec(eps=(0.025,) * 3, npts=(17,) * 3)
        w_axis = {i: np.eye(3)[i] + 0.01 * rng.normal(size=(17, 3)) for i in range(3)}
        c_data = {(i, j): rng.uniform(-0.1, 0.1, (17, 17)) for i, j in itertools.permutations(range(3), 2)}
        system, calls = ConjugateSystem(3, 3), []
        inner = system.step

        def step(j, vals, eps, outputs=None, sources=None):
            calls.append(len(j))
            return inner(j, vals, eps, outputs=outputs, sources=sources)

        system.step = step
        data = {"x": rng.normal(size=3), **{f"w{i + 1}": w_axis[i] for i in range(3)},
                **{f"c{i + 1}_{j + 1}": c for (i, j), c in c_data.items()}}
        goursat_solve(system, mesh, data)
        # levels 1 to 48 of the 17^3 box; level 0 holds the Goursat data only
        assert len(calls) == 48
        assert sum(calls) == 3 * 16 ** 3 + 3 * 2 * 16 ** 2 + 3 * 16

    def test_ribaucour_psi_request(self, differential, alpha_fill):
        # a transform solve steps h1, b1 on the box minus its last base row, and transports the frame after
        alg, curve, seed, eps, r = algebra(2), warped_circle_curve(1.0, 0.3), np.array([0.55, 0.0]), np.pi / 40, 0.5
        alpha = lambda t: -1.0 + 0.3 * np.sin(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = ribaucour_solve(alg, curve, alpha, seed, eps, r)
        assert differential == [()] and alpha_fill == [res.result.mesh.npts]
        # the last base site leaves N_1^2 > 0: the row stepping it in 0 owns psi alone, the one
        # stepping it in 1 owns h1 and b1
        psi0 = res.result.fields["psi"].values[0, 0]
        axis = orthogonal.read_off_curve(alg, curve, psi0, 1, np.arange(res.result.mesh.npts[0]) * eps,
                                         substep=eps / 4.0)
        axis.beta[-2, 1] = 3.0 / eps
        run = lambda: ribaucour_solve(alg, curve, alpha, seed, eps, r, psi0=psi0, axis=axis)
        ref = _first_violation(lambda s, m, d, request=None: goursat_reference.goursat_solve(s, m, d, request), run)
        assert _first_violation(goursat_solve, run) == ref
        assert ref[2] is SqrtDomain

    def test_singular_block_that_no_row_needs(self, rng):
        # on this box and request, the call of level 2 solves the blocks of (1, 2, 3): its rows step in
        # 3 and own c_12 (0-based), but no row owns c_12 as a step in 3
        system, mesh = ConjugateSystem(4, 3), MeshSpec(eps=(1.0,) * 4, npts=(3, 2, 2, 2))
        outputs, dirs, *_ = _fill_plan(_signature(system), mesh.npts, ("x",))[1]
        assert (1, 2, 3) in conjugate._step_plan(4, tuple(sorted(set(dirs.tolist()))), outputs)[1]
        data = {"x": rng.normal(size=3), **{f"w{i + 1}": np.eye(4)[i, :3] + 0.05 * rng.normal(size=(mesh.npts[i], 3))
                                            for i in range(4)}}
        data.update({cname(i + 1, j + 1): rng.uniform(-0.2, 0.2, (mesh.npts[min(i, j)], mesh.npts[max(i, j)]))
                     for i, j in itertools.permutations(range(4), 2)})
        # make the (1, 2, 3) block singular at the level-1 site e_1 through the data c_12 there
        c = goursat_solve(system, mesh, data)
        corner = np.zeros((4, 4))
        for i, j in itertools.permutations(range(4), 2):
            corner[i, j] = c[cname(i + 1, j + 1)].values[0, 1, 0, 0]

        plan, eps = conjugate._block_plan(4, (1, 2, 3), ()), np.asarray(mesh.eps, dtype=float)

        def det(v):  # the one block of the one source corner
            corner[1, 2] = v
            return np.linalg.det(_implicit_blocks(corner[None], eps, plan, np.array([0]), np.array([[0]]))[0][0])

        grid = np.linspace(-2.0, 2.0, 9)
        roots = np.roots(np.polyfit(grid, [det(v) for v in grid], 8))
        corner[1, 2] = min(roots[np.isreal(roots)].real, key=abs)
        with pytest.raises(DegenerateHexahedron):
            dcn_step_c(corner, mesh.eps, (1, 2, 3))
        data["c2_3"] = data["c2_3"].copy()
        data["c2_3"][1, 0] = corner[1, 2]
        out = solve_both(system, mesh, data, ("x",))
        assert not np.isnan(out["x"].values).any()


def _stacked(problems, shared=()):
    """The data of `problems` on a leading problem axis; a name in `shared` keeps problem 0's datum, unstacked."""
    return {name: problems[0][name] if name in shared else np.stack([np.asarray(p[name], dtype=float) for p in problems])
            for name in problems[0]}


class TestStackedProblems:
    """Independent problems on one box, stacked on a leading data axis and folded into the fill
    plan's rows: each problem bitwise equal to its solve alone (which is held to the reference
    driver), the one-problem plan unchanged, and a failure charged to the site of its plan row."""

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_linear_system(self, rng, B):
        A = [0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.1, 0.4], [0.0, 0.2]]), 0.2 * np.eye(2)]
        for M, npts in ((2, (5, 4)), (3, (3, 1, 4))):
            system, mesh = LinearSystem(A[:M]), MeshSpec(eps=(0.25,) * M, npts=npts)
            for request in (None, ("u",), ()):
                out = solve_both(system, mesh, {"u": rng.normal(size=(B, 2))}, request)
                assert out["u"].values.shape == npts + (B, 2)

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_conjugate_tail_direction(self, rng, B):
        # the blocks of each (source site, problem) are solved once, through the source table's fold
        mesh = MeshSpec(eps=(0.1, 0.1, 1.0), npts=(4, 3, 2), tail=1)
        system = ConjugateSystem(3, 3, tail_dirs=(2,))
        problems = [{"x": rng.normal(size=3),
                     **{f"w{i + 1}": np.eye(3)[i] + 0.1 * rng.normal(size=(mesh.npts[i], 3)) for i in range(3)},
                     **{cname(i + 1, j + 1): rng.uniform(-0.2, 0.2, (mesh.npts[min(i, j)], mesh.npts[max(i, j)]))
                        for i, j in itertools.permutations(range(3), 2)}} for _ in range(B)]
        for shared in ((), ("x", "c1_3")):
            out = solve_both(system, mesh, _stacked(problems, shared), ("x",))
            assert out["x"].values.shape == mesh.shape + (B, 3) and not np.isnan(out["x"].values).any()
            assert np.isnan(out["c1_2"].values).any()

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_frame_surface(self, B):
        base = csurface_data_from_oracle(EllipticOracle(), np.pi / 20, 4 * np.pi / 10)
        problems = [{"psi": base.psi0, "h1": base.h1 * (1.0 + 0.1 * b), "h2": base.h2, "b1": base.b1,
                     "b2": base.b2 * (1.0 - 0.2 * b), "split": base.split + 0.1 * b} for b in range(B)]
        system, mesh = FrameSurfaceSystem(base.alg, base.dirs), MeshSpec(base.eps, base.npts)
        for request in (("h1", "h2", "b1", "b2"), None):
            out = solve_both(system, mesh, _stacked(problems, ("psi", "h2")), request)
            assert out["b1"].values.shape == mesh.shape + (B, 2)

    @pytest.mark.parametrize("B", [2, 3])
    def test_folded_plan(self, B):
        system, npts = ConjugateSystem(3, 3, tail_dirs=(2,)), (4, 3, 2)
        one, folded = (_fill_plan(_signature(system), npts, ("x",), k) for k in (1, B))
        assert len(folded) == len(one) > 0
        for (outputs, dirs, src, dst, mask, _), call in zip(one, folded):
            f_outputs, f_dirs, f_src, f_dst, f_mask, (first, inv) = call
            assert f_outputs == outputs
            assert f_dirs.tolist() == [d for d in dirs.tolist() for _ in range(B)]
            assert f_src.tolist() == [s * B + b for s in src.tolist() for b in range(B)]
            assert f_dst.tolist() == [s * B + b for s in dst.tolist() for b in range(B)]
            assert np.array_equal(f_mask, np.repeat(mask, B, axis=0))
            # the source table of the folded rows, as the plan builder makes it for a call
            _, ref_first, ref_inv = np.unique(f_src, return_index=True, return_inverse=True)
            assert first.tolist() == ref_first.tolist() and inv.tolist() == ref_inv.ravel().tolist()
            for arr in (f_dirs, f_src, f_dst, f_mask, first, inv):
                with pytest.raises(ValueError):
                    arr.flags.writeable = True

    def test_one_problem_runs_the_unstacked_plan(self, rng):
        system, mesh = LinearSystem([0.3 * np.eye(2), np.array([[0.1, 0.4], [0.0, 0.2]])]), MeshSpec((0.25, 0.5), (5, 4))
        calls, inner = [], system.step

        def step(j, vals, eps, outputs=None, sources=None):
            calls.append((j, sources))
            return inner(j, vals, eps, outputs=outputs, sources=sources)

        system.step = step
        u0 = rng.normal(size=2)
        plain, stacked = goursat_solve(system, mesh, {"u": u0}), goursat_solve(system, mesh, {"u": u0[None]})
        assert stacked["u"].values.shape == mesh.shape + (1, 2)
        assert stacked["u"].values.tobytes() == plain["u"].values.tobytes()
        n = len(calls) // 2
        assert n > 0 and all(a is b and s is t for (a, s), (b, t) in zip(calls[:n], calls[n:]))

    @pytest.mark.parametrize("system_cls", [SiteGate, ScalarSiteGate])
    @pytest.mark.parametrize("bad,problem", [
        ([((12, 1), 0)], 1),
        # two problems failing on one level: the earlier row in fill order wins, whatever its problem
        ([((2, 1), 0), ((20, 3), 1)], 2),
        ([((21, 2), 0), ((0, 3), 1)], 0),
        # one (site, direction) row failing in two problems: the lower problem first
        ([((21, 2), 0), ((11, 2), 0)], 1),
    ])
    def test_failure_names_the_site_of_its_plan_row(self, system_cls, bad, problem):
        # problem b starts at (10 b, 0), so its u at site (i, j) is (10 b + i, j)
        mesh = MeshSpec(eps=(0.5, 0.25), npts=(6, 6))
        starts = np.array([[10.0 * b, 0.0] for b in range(3)])
        with pytest.raises(DomainViolation) as err:
            goursat_solve(system_cls(bad), mesh, {"u": starts})
        with pytest.raises(DomainViolation) as alone:
            goursat_solve(system_cls(bad), mesh, {"u": starts[problem]})
        assert (err.value.site, err.value.direction) == (alone.value.site, alone.value.direction)
        assert [type(v) for v in err.value.site] == [float, float]
        assert type(err.value.cause) is type(alone.value.cause)

    def test_problem_counts_must_agree(self):
        mesh = MeshSpec(eps=(0.5, 0.25), npts=(4, 3))
        with pytest.raises(ValueError, match="number of problems"):
            goursat_solve(ThreeGate([]), mesh, {"a": np.zeros((2, 2)), "b": np.zeros((3, 4, 2)), "c": np.zeros(2)})


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

    def __init__(self, reads_u, static_u=()):
        super().__init__(2, [Component("u", (), static_u, reads_u),
                             Component("v", (), (), {0: ("v",), 1: ("v",)})])

    def step(self, j, vals, eps, outputs=None, sources=None):
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
        assert plan
        for _, *arrays, (first, inv) in plan:
            for arr in (*arrays, first, inv):
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
