"""Compiled conjugate step tables and the one-net 3D Ribaucour pair.

Every conjugate level call of a Goursat solve reads its index tables (the
blocks to solve, the slot each row reads, the gather of each row's quotients)
from the memo of its fill-plan call, compiled on the first solve that runs the
call.  The tests hold every kind of conjugate solve to the reference driver
(goursat_reference.py, which steps without source tables) with cold and warm
plan caches, bitwise and nan patterns included, and compare errors, the memo
key and the reuse of the tables.  `ribaucour_pair_3d` solves one conjugate net
and reads its base off the net's tail-0 layer; the base is held to
`orthosys_assemble`, and its errors to the order of assembling the base first.
"""

import itertools
import warnings

import numpy as np
import pytest

from dlame import conjugate, orthogonal
from dlame.clifford import algebra
from dlame.conjugate import ConjugateSystem, cname
from dlame.curves import warped_circle_curve
from dlame.errors import DegenerateHexahedron, DLameError, DomainViolation
from dlame.lattice import MeshSpec, _fill_plan, _signature, goursat_solve
from dlame.oracles import SphericalOracle
from dlame.orthogonal import iterated_ribaucour_net, orthosys_assemble, ribaucour_pair_3d

import goursat_reference
from test_goursat_plan import _spherical_pair_inputs, assert_same_fields, solve_both

ALG2, ALG3 = algebra(2), algebra(3)


class PlainTable(ConjugateSystem):
    """The conjugate rule given its source tables as plain (first, inv) tuples, which carry no memo."""

    def step(self, direction, vals, eps, outputs=None, sources=None):
        return super().step(direction, vals, eps, outputs, None if sources is None else tuple(sources))


def checked_run(run, cache):
    """run() with every Goursat solve of the package held to the reference driver by solve_both
    (fields and nan patterns bitwise, rows in fill order).  "cold" empties the plan cache first,
    so each plan compiles its tables during the checked run; "warm" runs run() once before, so
    none does.  Returns run()'s result, the number of conjugate solves and the number of table
    compilations during the checked run."""
    compiled, solves = [], []

    def checked(system, mesh, data, request=None):
        solves.append(type(system))
        return solve_both(system, mesh, data, request)

    _fill_plan.cache_clear()
    if cache == "warm":
        run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjugate, "_step_tables", _recorded(conjugate._step_tables, compiled))
        mp.setattr(conjugate, "goursat_solve", checked)
        mp.setattr(orthogonal, "goursat_solve", checked)
        out = run()
    return out, solves.count(ConjugateSystem), len(compiled)


def _pair_3d(eps):
    spec, seed = _spherical_pair_inputs(eps)
    return lambda: ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)


def _iterated(k):
    if k == 3:  # the benchmark's triple net in R^3
        return lambda: iterated_ribaucour_net(
            ALG3, warped_circle_curve(1.0, 0.3, dim=3), [lambda t: -1.0, lambda t: -0.9, lambda t: -1.1],
            [np.array([0.55, 0.0, 0.1]), np.array([0.70, -0.1, -0.15]), np.array([0.8, 0.05, 0.25])],
            (1.2, 0.9, 1.4), np.pi / 80, 8 * np.pi / 40)
    alphas, seeds = [lambda t: -1.0 + 0.2 * np.sin(t), lambda t: -0.9], [np.array([0.55, 0.0]), np.array([0.6, 0.1])]
    return lambda: iterated_ribaucour_net(ALG2, warped_circle_curve(1.0, 0.3), alphas[:k], seeds[:k], (1.1,)[:k - 1],
                                          np.pi / 40, 8 * np.pi / 40)


def _tail_net(seed, B=None):
    """A random conjugate net of M = 3..8 directions, up to two of them tail directions, on a small
    box, with small coefficients; B problems stacked on a leading data axis unless None."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(3, 9))
    tail = int(rng.integers(0, 3))
    npts = tuple(int(n) for n in rng.integers(2, 5 if M <= 4 else 3, size=M - tail)) + (2,) * tail
    mesh = MeshSpec(eps=tuple(rng.uniform(0.05, 0.2, M - tail).tolist()) + (1.0,) * tail, npts=npts, tail=tail)
    N = int(rng.integers(3, 5))
    lead = () if B is None else (B,)
    data = {"x": rng.normal(size=lead + (N,))}
    for i in range(M):
        data[f"w{i + 1}"] = np.eye(M, N)[i] + 0.05 * rng.normal(size=lead + (npts[i], N))
    for i, j in itertools.permutations(range(M), 2):
        data[cname(i + 1, j + 1)] = rng.uniform(-0.1, 0.1, lead + (npts[min(i, j)], npts[max(i, j)]))
    request = (None, ("x",), ("x", "w1"))[int(rng.integers(0, 3))]
    return ConjugateSystem(M, N, tuple(range(M - tail, M))), mesh, data, request


CACHES = ["cold", "warm"]


class TestAgainstReferenceDriver:
    """Each conjugate solve kind: planned with compiled tables equals the reference driver."""

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
    def test_orthosys_bulks(self, cache, eps):
        spec = SphericalOracle().surface_spec(eps, 0.4)
        _, solves, compiled = checked_run(lambda: orthosys_assemble(spec), cache)
        assert solves == 1
        assert (compiled > 0) == (cache == "cold")

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_iterated_ribaucour_nets(self, cache, k):
        x, solves, compiled = checked_run(_iterated(k), cache)
        assert solves == 1 and not np.isnan(x).any()
        assert (compiled > 0) == (cache == "cold")

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_ribaucour_pair_3d(self, cache, eps):
        pair, solves, compiled = checked_run(_pair_3d(eps), cache)
        assert solves == 1 and not np.isnan(pair.x).any()
        assert (compiled > 0) == (cache == "cold")

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_tail_nets(self, cache, seed):
        system, mesh, data, request = _tail_net(seed)
        _fill_plan.cache_clear()
        if cache == "warm":
            goursat_solve(system, mesh, data, request)
        new = solve_both(system, mesh, data, request)
        # a plain (first, inv) tuple compiles the same tables on every call
        assert_same_fields(goursat_solve(PlainTable(system.M, system.N, system.tail_dirs), mesh, data, request), new)

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("seed,B", [(0, 2), (3, 3), (5, 2), (7, 4)])
    def test_stacked_problems(self, cache, seed, B):
        # the folded plan's calls carry tables of their own; each problem equals its solve alone
        system, mesh, data, request = _tail_net(seed, B)
        _fill_plan.cache_clear()
        if cache == "warm":
            goursat_solve(system, mesh, data, request)
        new = solve_both(system, mesh, data, request)
        assert all(f.values.shape[mesh.M] == B for f in new.values())


def _violation(solve, system, mesh, data, request):
    with pytest.raises(DomainViolation) as err:
        solve(system, mesh, data, request)
    exc = err.value
    return type(exc), exc.site, exc.direction, str(exc), type(exc.cause), str(exc.cause)


class TestErrors:
    """A failing block or tail factor raises the uncompiled path's error: type, site, direction, message."""

    @staticmethod
    def _assert_same_error(system, mesh, data, request):
        ref = _violation(goursat_reference.goursat_solve, system, mesh, data, request)
        _fill_plan.cache_clear()
        cold = _violation(goursat_solve, system, mesh, data, request)
        warm = _violation(goursat_solve, system, mesh, data, request)
        plain = _violation(goursat_solve, PlainTable(system.M, system.N, system.tail_dirs), mesh, data, request)
        assert cold == warm == plain == ref
        assert ref[4] is DegenerateHexahedron
        return ref

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_failing_block(self, seed, at):
        system, mesh, data, request = _tail_net(seed)
        name = cname(1, 2)
        c = data[name].copy()
        flat = {"first": 0, "middle": c.size // 2, "last": c.size - 1}[at]
        c.reshape(-1)[flat] = np.nan  # a nan coefficient makes the blocks that read it fail their gate
        data[name] = c
        try:
            goursat_reference.goursat_solve(system, mesh, data, request)
        except DomainViolation:
            # a nan in a transform triple fails its tail factors' gate, which a row meets first
            message = self._assert_same_error(system, mesh, data, request)[5]
            assert "is singular" in message or "inadmissible" in message
        else:  # no row that the request needs reads the datum
            solve_both(system, mesh, data, request)

    @pytest.mark.parametrize("site", [0, 1, 2, 3])
    @pytest.mark.parametrize("request_", [None, ("x",)])
    def test_failing_tail_factor(self, site, request_):
        # c_{4,i} = -1 makes the factor 1 + c_{4,i} of the transform blocks vanish
        rng = np.random.default_rng(site)
        M, N = 4, 3
        mesh = MeshSpec(eps=(0.1, 0.15, 0.2, 1.0), npts=(4, 3, 3, 2), tail=1)
        data = {"x": rng.normal(size=N)}
        for i in range(M):
            data[f"w{i + 1}"] = np.eye(M, N)[i] + 0.05 * rng.normal(size=(mesh.npts[i], N))
        for i, j in itertools.permutations(range(M), 2):
            data[cname(i + 1, j + 1)] = rng.uniform(-0.1, 0.1, (mesh.npts[min(i, j)], mesh.npts[max(i, j)]))
        data[cname(4, 1)][site, 0] = -1.0
        system = ConjugateSystem(M, N, (3,))
        if site == 3 and request_ is not None:  # the last site of direction 0 feeds no value x reads
            solve_both(system, mesh, data, request_)
            return
        message = self._assert_same_error(system, mesh, data, request_)[5]
        assert "inadmissible" in message


class TestTables:
    def test_tail_and_plain_systems_get_separate_tables(self, rng):
        # equal signatures, one plan: the memo of each call keys its tables by the tail directions
        plain, tail = ConjugateSystem(3, 3), ConjugateSystem(3, 3, tail_dirs=(2,))
        assert _signature(plain) == _signature(tail)
        mesh = MeshSpec(eps=(0.1, 0.2, 1.0), npts=(4, 3, 2), tail=1)
        data = {"x": rng.normal(size=3),
                **{f"w{i + 1}": np.eye(3)[i] + 0.05 * rng.normal(size=(mesh.npts[i], 3)) for i in range(3)},
                **{cname(i + 1, j + 1): rng.uniform(-0.2, 0.2, (mesh.npts[min(i, j)], mesh.npts[max(i, j)]))
                   for i, j in itertools.permutations(range(3), 2)}}
        _fill_plan.cache_clear()
        for system in (tail, plain, tail):
            solve_both(system, mesh, data, ("x",))
        plan = _fill_plan(_signature(plain), mesh.npts, ("x",), 1)
        memos = [sources.memo for *_, sources in plan if sources.memo]
        assert memos and _fill_plan.cache_info().currsize == 1
        for memo in memos:
            assert set(memo) == {("conjugate", ()), ("conjugate", (2,))}
            assert memo["conjugate", ()] is not memo["conjugate", (2,)]

    def test_second_solve_derives_no_tables(self, monkeypatch):
        # the second of two identical solves compiles nothing and passes the first's block lists and slot
        # tables, the very arrays, to every block solve
        spec, seed = _spherical_pair_inputs(0.05)
        alphas = {i: (lambda t: -1.0) for i in (1, 2, 3)}
        compiled, solved, plans = [], [], []
        solve_blocks = conjugate.dcn_step_c

        def recording(c, eps, triple=None, tail_dirs=(), blocks=None, reads=None):
            solved.append((blocks, reads))
            return solve_blocks(c, eps, triple, tail_dirs, blocks, reads)

        monkeypatch.setattr(conjugate, "_step_tables", _recorded(conjugate._step_tables, compiled))
        monkeypatch.setattr(conjugate, "_step_plan", _recorded(conjugate._step_plan, plans))
        monkeypatch.setattr(conjugate, "dcn_step_c", recording)
        _fill_plan.cache_clear()
        first = ribaucour_pair_3d(spec, alphas, seed)
        calls, steps = len(compiled), len(plans)
        assert calls > 0 and steps == calls
        half = len(solved)
        second = ribaucour_pair_3d(spec, alphas, seed)
        assert len(compiled) == calls and len(plans) == steps
        assert len(solved) == 2 * half
        for (blocks, reads), (again, reads_again) in zip(solved[:half], solved[half:]):
            assert again is blocks and reads_again is reads
            assert blocks.dtype == reads.dtype == np.int32
        assert first.x.tobytes() == second.x.tobytes()


def _recorded(fn, calls):
    """`fn` with the arguments of each call appended to `calls`."""

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    return recorded


def _corrupt_cdata(monkeypatch, key, at):
    """Make the coordinate data of the assembled systems hold nan at cdata[key][at]."""
    inner = orthogonal._coordinate_surfaces

    def corrupted(spec):
        curves, surfaces, cdata = inner(spec)
        cdata = dict(cdata)
        cdata[key] = cdata[key].copy()
        cdata[key][at] = np.nan
        return curves, surfaces, cdata

    monkeypatch.setattr(orthogonal, "_coordinate_surfaces", corrupted)


def _error(run):
    with pytest.raises(DLameError) as err:
        run()
    exc = err.value
    return type(exc), str(exc), getattr(exc, "site", None), type(getattr(exc, "cause", None))


class TestRibaucourPair3D:
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_base_is_the_assembled_system(self, eps):
        spec, seed = _spherical_pair_inputs(eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pair = ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        full = orthosys_assemble(spec)
        assert pair.base.x.tobytes() == full.x.tobytes()
        assert np.ascontiguousarray(pair.x[..., 0, :]).tobytes() == full.x.tobytes()
        assert list(pair.base.fields) == list(full.fields)
        skipped = {}
        for name, f in full.fields.items():
            base = pair.base.fields[name]
            assert base.mesh == f.mesh and base.values.shape == f.values.shape
            known = ~np.isnan(base.values)
            assert base.values[known].tobytes() == f.values[known].tobytes(), name
            # the layer is the four-direction net's tail-0 layer, nan where x reads no value
            assert base.values.tobytes() == np.ascontiguousarray(pair.fields[name].values[:, :, :, 0]).tobytes()
            skipped[name] = 1.0 - known.mean()
        assert skipped["x"] == 0.0 and not np.isnan(full.x).any()
        assert skipped["w3"] > 0.75
        assert pair.base.cdata is not None and list(pair.base.surfaces) == [(1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("at", [(1, 1), (0, 2), (2, 0)])
    def test_bulk_failure_raises_the_assembly_error(self, monkeypatch, at):
        # x reads this datum: the net fails too, at a site of its own four-direction box, and the pair
        # raises the error of the assembled base, as assembling the base first would
        spec, seed = _spherical_pair_inputs()
        _corrupt_cdata(monkeypatch, (1, 2), at)
        expected = _error(lambda: orthosys_assemble(spec))
        assert expected[0] is DomainViolation and len(expected[2]) == 3
        net = []
        inner = orthogonal.solve_conjugate_net

        def recording(mesh, *args, **kwargs):
            try:
                return inner(mesh, *args, **kwargs)
            except DLameError as exc:
                net.append((mesh.M, exc))
                raise

        monkeypatch.setattr(orthogonal, "solve_conjugate_net", recording)
        assert _error(_pair_3d(0.1)) == expected
        assert [M for M, _ in net] == [4, 3]  # the net failed first, then the bulk solve that names the error
        assert str(net[0][1]) != expected[1]

    def test_failure_that_no_x_reads_does_not_abort_the_pair(self, monkeypatch):
        # c_12 at the last site of direction 1 feeds no value that x reads: the full bulk fails on it,
        # the pair's net never steps it
        spec, seed = _spherical_pair_inputs()
        n = spec.npts - 1
        _corrupt_cdata(monkeypatch, (1, 2), (n - 1, n - 1))
        assert _error(lambda: orthosys_assemble(spec))[0] is DomainViolation
        pair = _pair_3d(0.1)()
        monkeypatch.undo()
        clean = _pair_3d(0.1)()
        assert pair.x.tobytes() == clean.x.tobytes()
        assert np.isnan(pair.base.fields["c1_2"].values[n - 1, n - 1]).all()

    @pytest.mark.parametrize("bulk_fails", [False, True])
    def test_transform_failure_keeps_the_error_order(self, monkeypatch, bulk_fails):
        # a transform solve that fails raises its own error only when the assembled base solves
        spec, seed = _spherical_pair_inputs()
        alphas = {1: lambda t: -1.0, 2: lambda t: np.nan, 3: lambda t: -1.0}
        if bulk_fails:
            _corrupt_cdata(monkeypatch, (1, 3), (1, 1))
        expected = _error(lambda: orthosys_assemble(spec)) if bulk_fails else None
        got = _error(lambda: ribaucour_pair_3d(spec, alphas, seed))
        if bulk_fails:
            assert got == expected
        else:
            pair_error = _error(lambda: orthogonal.csurface_solve(orthogonal.ribaucour_data(
                spec.alg, spec.axis[2], np.full(spec.npts, np.nan), spec.x0, seed, spec.psi0, (2, 3), spec.eps)))
            assert got == pair_error
