"""The shared conjugate step kernel, per-row step directions and the two-call
consistency check: differential tests against the single-direction rules they
replaced (step_reference.py) and the per-row step contract of both systems."""

import itertools
import warnings

import numpy as np
import pytest

from dlame import conjugate, orthogonal
from dlame.clifford import algebra
from dlame.conjugate import ConjugateSystem, CornerState, check_4d_consistency, cname, dcn_step_c, solve_conjugate_net
from dlame.curves import warped_circle_curve
from dlame.errors import DegenerateHexahedron, OutsideDomain, SqrtDomain
from dlame.lattice import MeshSpec, _fill_plan, _signature, consistency_residual, goursat_solve
from dlame.oracles import EllipticOracle, SphericalOracle, csurface_data_from_oracle
from dlame.orthogonal import FrameSurfaceSystem, csurface_solve, orthosys_assemble, ribaucour_pair_3d, ribaucour_solve

import frame_reference
import goursat_reference
import step_reference as ref
from conftest import random_surface_state
from test_goursat_plan import assert_same_fields, planned_rows, reference_rows

ALG3 = algebra(3)
REFERENCE_SYSTEMS = [(conjugate, "ConjugateSystem", ref.ReferenceConjugateSystem),
                     (orthogonal, "FrameSurfaceSystem", ref.ReferenceFrameSurfaceSystem)]


def _solves(run, patches, solve):
    """Every Goursat solve that run() makes, as (system class, step-call rows,
    fields), through `solve` and with the package's systems replaced per `patches`;
    the problems of a stacked solve count as solves of their own."""
    solves = []

    def recording(system, mesh, data, request=None):
        if goursat_reference.problems(system, data) is not None:  # a stacked solve, problem by problem
            return goursat_reference.by_problem(recording, system, mesh, data, request)
        fields, rows = solve(system, mesh, data, request)
        solves.append((type(system).__name__, rows, {name: f.values for name, f in fields.items()}))
        return fields

    with pytest.MonkeyPatch.context() as mp:
        for module, name, value in patches:
            mp.setattr(module, name, value)
        mp.setattr(conjugate, "goursat_solve", recording)
        mp.setattr(orthogonal, "goursat_solve", recording)
        run()
    return solves


def assert_same_solves(run):
    """run() with the current systems and the planned driver gives bitwise-equal
    fields, nan patterns included, to run() with the reference systems and the
    reference driver, and its fused step calls split into the reference calls'
    rows in fill order."""
    new = _solves(run, [], planned_rows)
    old = _solves(run, REFERENCE_SYSTEMS, reference_rows)
    assert len(new) == len(old) > 0
    for (new_cls, new_rows, new_fields), (old_cls, old_rows, old_fields) in zip(new, old):
        assert old_cls == "Reference" + new_cls
        assert new_rows == old_rows
        assert list(new_fields) == list(old_fields)
        for name, values in old_fields.items():
            assert new_fields[name].shape == values.shape
            assert new_fields[name].tobytes() == values.tobytes(), name
    return new


def assert_same_alpha_fills(run, count):
    """The (h, beta) fill of each of the `count` transform solves run() makes, by the recurrence
    along each transform layer, is bitwise (nan patterns included) the Goursat fill of that box
    with the reference system and the reference driver."""
    fills, inner = [], orthogonal._coefficients

    def checked(system, mesh, data):
        new = inner(system, mesh, data)
        if system.splitting == "alpha":
            old = frame_reference.coefficients(ref.ReferenceFrameSurfaceSystem(system.alg, system.dirs, "alpha"),
                                               mesh, data, lambda *args, request: reference_rows(*args, request)[0])
            fills.append(mesh.npts)
            assert_same_fields(new, old)
        return new

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orthogonal, "_coefficients", checked)
        run()
    assert len(fills) == count


def _conjugate_data(rng, npts, cmax=0.2):
    M = len(npts)
    w_axis = {i: np.eye(M)[i] + 0.05 * rng.normal(size=(npts[i], M)) for i in range(M)}
    c_data = {(i, j): rng.uniform(-cmax, cmax, (npts[min(i, j)], npts[max(i, j)]))
              for i, j in itertools.permutations(range(M), 2)}
    return rng.normal(size=M), w_axis, c_data


class TestGoursatAgainstReference:
    @pytest.mark.parametrize("request_", [None, ("x",), ("w1", "x"), ("c2_3",)])
    def test_three_dimensional_conjugate_net(self, rng, request_):
        mesh = MeshSpec(eps=(0.1, 0.1, 0.1), npts=(3, 4, 5))
        x0, w_axis, c_data = _conjugate_data(rng, mesh.npts)
        assert_same_solves(lambda: solve_conjugate_net(mesh, x0, w_axis, c_data, N=3, request=request_))

    @pytest.mark.parametrize("M", [8, 9])
    def test_wide_conjugate_nets(self, rng, M):
        # M^2 + 1 = 65 and 82 components, more than a 64-bit word has bits
        mesh = MeshSpec(eps=(0.1,) * M, npts=(2,) * M)
        x0, w_axis, c_data = _conjugate_data(rng, mesh.npts, cmax=0.1)
        for request_ in (None, ("x",)):
            assert_same_solves(lambda: solve_conjugate_net(mesh, x0, w_axis, c_data, N=M, request=request_))

    def test_ribaucour_pair_3d_with_a_tail_direction(self):
        # frame surfaces (gamma), alpha-splitting transform solves and the
        # four-direction bulk with a tail direction, whose tail-0 layer is the base
        oracle = SphericalOracle()
        spec = oracle.surface_spec(0.1, 0.4)
        tangents = [oracle.curve(i).dx(0.0) for i in (1, 2, 3)]
        seed = spec.x0 + sum(k * t / np.linalg.norm(t) for k, t in zip((0.45, 0.40, 0.42), tangents))
        run = lambda: ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        solves = assert_same_solves(run)
        assert [s[0] for s in solves].count("ConjugateSystem") == 1
        # the three transform solves fill h1, b1 without the Goursat driver
        assert_same_alpha_fills(run, 3)

    def test_frame_surfaces(self):
        assert_same_solves(lambda: csurface_solve(csurface_data_from_oracle(EllipticOracle(), np.pi / 40, 1.2)))
        run = lambda: ribaucour_solve(algebra(2), warped_circle_curve(1.0, 0.3), lambda t: -1.0 + 0.3 * np.sin(t),
                                      np.array([0.55, 0.0]), np.pi / 40, 0.5)
        assert_same_solves(run)
        assert_same_alpha_fills(run, 1)


def criterion_02_states(n=200, seed=2):
    """Seeded states of the three criterion-02 suites, drawn as criterion 02 draws them."""
    rng = np.random.default_rng(seed)
    conj = []
    for _ in range(n):
        vals = {"x": rng.normal(size=3), **{f"w{i + 1}": rng.normal(size=3) for i in range(3)}}
        vals.update({cname(i + 1, j + 1): rng.uniform(-0.2, 0.2) for i, j in itertools.permutations(range(3), 2)})
        conj.append(vals)
    frames = [random_surface_state(ALG3, rng)["psi"] for _ in range(50)]
    surf = []
    for k in range(n):
        b1, b2 = rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3)
        b1[0] = b2[1] = 0.0
        surf.append({"psi": frames[k % len(frames)], "h1": rng.uniform(0.5, 1.5), "h2": rng.uniform(0.5, 1.5),
                     "b1": b1, "b2": b2, "split": rng.uniform(-0.5, 0.5)})
    corners = []
    for _ in range(n):
        w, c = rng.normal(size=(4, 3)), rng.uniform(-0.2, 0.2, (4, 4))
        np.fill_diagonal(c, 0.0)
        corners.append(CornerState(rng.normal(size=3), w, c))
    return conj, surf, corners


class TestResidualsAgainstReference:
    states = criterion_02_states()

    def test_conjugate_suite(self):
        new, old = ConjugateSystem(3, 3), ref.ReferenceConjugateSystem(3, 3)
        res = [consistency_residual(new, v, (1.0,) * 3) for v in self.states[0]]
        assert res == [ref.consistency_residual(old, v, (1.0,) * 3) for v in self.states[0]]
        assert 0.0 < max(res) <= 1e-10

    @pytest.mark.parametrize("M,tail_dirs", [(4, ()), (4, (3,)), (5, ())])
    def test_wider_conjugate_checks(self, rng, M, tail_dirs):
        # coefficients evolve in two or more directions here, so the second call solves blocks
        # whose rows read different subsets of them
        new, old = ConjugateSystem(M, 3, tail_dirs), ref.ReferenceConjugateSystem(M, 3, tail_dirs)
        eps = (0.5,) * (M - len(tail_dirs)) + (1.0,) * len(tail_dirs)
        for vals in _conjugate_states(rng, M, 20):
            assert consistency_residual(new, vals, eps) == ref.consistency_residual(old, vals, eps) < 1e-12

    @pytest.mark.parametrize("splitting,eps", [("gamma", (0.1, 0.1)), ("alpha", (0.1, 1.0))])
    def test_surface_suite(self, splitting, eps):
        new = FrameSurfaceSystem(ALG3, (1, 2), splitting)
        old = ref.ReferenceFrameSurfaceSystem(ALG3, (1, 2), splitting)
        res = [consistency_residual(new, v, eps) for v in self.states[1]]
        assert res == [ref.consistency_residual(old, v, eps) for v in self.states[1]]
        assert 0.0 < max(res) <= 1e-10

    def test_4d_suite(self, monkeypatch):
        res = [check_4d_consistency(st, (1.0,) * 4) for st in self.states[2]]
        monkeypatch.setattr(conjugate, "shift_state", ref.shift_state)
        assert res == [check_4d_consistency(st, (1.0,) * 4) for st in self.states[2]]

    def test_two_step_calls_per_check(self, monkeypatch):
        # the second call starts from the corner where a value does not evolve, so it reads no nan
        for system, vals, eps in ((ConjugateSystem(3, 3), self.states[0][0], (1.0,) * 3),
                                  (FrameSurfaceSystem(ALG3), self.states[1][0], (0.1, 0.1))):
            calls = []

            def step(a, v, e, outputs=None, sources=None, inner=system.step):
                calls.append((np.asarray(a).tolist(), all(np.isfinite(x).all() for x in v.values())))
                return inner(a, v, e, outputs, sources)

            monkeypatch.setattr(system, "step", step)
            consistency_residual(system, vals, eps)
            M = system.M
            assert calls == [(list(range(M)), True), ([j for i, j in itertools.permutations(range(M), 2)], True)]

    def test_nan_mismatch_is_reported(self):
        class Drifting(ConjugateSystem):
            def step(self, direction, vals, eps, outputs=None, sources=None):
                out = super().step(direction, vals, eps, outputs, sources)
                return {**out, "x": out["x"] * np.nan} if np.ndim(direction) and len(direction) > 3 else out

        assert np.isnan(consistency_residual(Drifting(3, 3), self.states[0][0], (1.0,) * 3))


def _rows(vals, r):
    return {k: v[r] for k, v in vals.items()}


def assert_rows_match(system, a, vals, eps, outputs=None, shared=False):
    """A call with per-row directions a equals the single-direction calls row
    by row, bitwise, with nan exactly in the rows whose direction a returned
    component does not evolve in."""
    batch = system.step(a, vals, eps, outputs)
    singles = [system.step(int(j), vals if shared else _rows(vals, r), eps, outputs) for r, j in enumerate(a)]
    assert set(batch) == set().union(*singles)
    for name, values in batch.items():
        assert values.shape[0] == len(a)
        for r, single in enumerate(singles):
            if name in single:
                assert values[r].tobytes() == np.asarray(single[name], dtype=float).tobytes(), (name, r)
            else:
                assert np.isnan(values[r]).all(), (name, r)
    return batch


def _mask(owns):
    """Per-row owned outputs as the step contract's mapping of names to row masks."""
    return {name: np.array([name in own for own in owns]) for name in sorted(set().union(*owns))}


def assert_own_rows_match(system, a, vals, eps, owns):
    """A call with per-row directions a and per-row outputs owns[r] equals, in every
    output a row owns, the single-direction call on that row with those outputs, bitwise."""
    batch = system.step(a, vals, eps, _mask(owns))
    for r, (j, own) in enumerate(zip(a.tolist(), owns)):
        single = system.step(j, _rows(vals, r), eps, tuple(sorted(own)))
        for name in own:
            assert batch[name][r].tobytes() == np.asarray(single[name], dtype=float).tobytes(), (name, r)


def _stack(states):
    return {k: np.stack([np.asarray(s[k], dtype=float) for s in states]) for k in states[0]}


def _conjugate_states(rng, M, K):
    states = []
    for _ in range(K):
        vals = {"x": rng.normal(size=3), **{f"w{i + 1}": rng.normal(size=3) for i in range(M)}}
        vals.update({cname(i + 1, j + 1): rng.uniform(-0.2, 0.2) for i, j in itertools.permutations(range(M), 2)})
        states.append(vals)
    return states


class TestPerRowDirections:
    @pytest.mark.parametrize("M,tail_dirs", [(3, ()), (4, ()), (4, (3,))])
    @pytest.mark.parametrize("outputs", [None, ("x",), ("w2", "c1_3", "c3_1"), ("c2_3", "w1")])
    def test_conjugate_rows_match_single_calls(self, rng, M, tail_dirs, outputs):
        system = ConjugateSystem(M, 3, tail_dirs=tail_dirs)
        eps = (0.1, 0.2, 0.15, 1.0 if tail_dirs else 0.3)[:M]
        states = _conjugate_states(rng, M, 7)
        a = np.array([0, 2, 1, M - 1, 0, 2, 1])
        assert_rows_match(system, a, _stack(states), eps, outputs)
        # one corner in every direction at once
        assert_rows_match(system, np.arange(M), states[0], eps, outputs, shared=True)

    @pytest.mark.parametrize("outputs", [None, ("psi",), ("h1",), ("b2", "psi")])
    @pytest.mark.parametrize("splitting,eps", [("gamma", (0.1, 0.1)), ("alpha", (0.1, 1.0))])
    def test_frame_rows_match_single_calls(self, rng, outputs, splitting, eps):
        system = FrameSurfaceSystem(ALG3, (1, 2), splitting)
        states = [random_surface_state(ALG3, rng) for _ in range(5)]
        assert_rows_match(system, np.array([1, 0, 0, 1, 1]), _stack(states), eps, outputs)
        assert_rows_match(system, np.arange(2), states[0], eps, outputs, shared=True)
        batch = system.step(np.zeros(5, dtype=int), _stack(states), eps, outputs)
        assert "h1" not in batch and "b1" not in batch

    @pytest.mark.parametrize("j", [0, 1])
    def test_int_direction_is_the_0d_case(self, rng, j):
        # a plain int steps every row in one direction, bitwise as a per-row call with that direction in each row
        def same(a, b):
            assert set(a) == set(b)
            for name in a:
                assert np.shape(a[name]) == np.shape(b[name]) and a[name].tobytes() == b[name].tobytes(), name

        rows = np.full(4, j)
        eps = (0.1, 0.2, 0.15, 1.0)
        conj, vals = ConjugateSystem(4, 3, tail_dirs=(3,)), _stack(_conjugate_states(rng, 4, 4))
        same(conj.step(j, vals, eps), conj.step(rows, vals, eps))
        frame, states = FrameSurfaceSystem(ALG3, (1, 2), "gamma"), _stack([random_surface_state(ALG3, rng)
                                                                          for _ in rows])
        same(frame.step(j, states, (0.1, 0.1)), frame.step(rows, states, (0.1, 0.1)))
        corners = CornerState(rng.normal(size=(4, 3)), rng.normal(size=(4, 4, 3)), rng.uniform(-0.2, 0.2, (4, 4, 4)))
        same(vars(conjugate.shift_state(corners, j, eps)), vars(conjugate.shift_state(corners, rows, eps)))

    @pytest.mark.parametrize("rule,outputs", [("conjugate", None), ("conjugate", ("x",)), ("conjugate", "rows"),
                                              ("table", None), ("table", "rows"),
                                              ("frame", None), ("frame", ("psi",)), ("frame", "rows")])
    def test_direction_column_against_a_batch(self, rng, rule, outputs):
        # a (k, 1) direction against a (B,) batch: row (i, b) steps entry b in direction a[i]
        sources = None
        if rule == "frame":
            system, eps, a = FrameSurfaceSystem(ALG3, (1, 2), "gamma"), (0.1, 0.1), np.array([[0], [1]])
            states = [random_surface_state(ALG3, rng) for _ in range(5)]
        else:
            system, eps, a = ConjugateSystem(4, 3, tail_dirs=(3,)), (0.1, 0.2, 0.15, 1.0), np.array([[0], [3], [1], [2]])
            states = _conjugate_states(rng, 4, 5)
        if rule == "table":
            # entries of one source share its corner and its per-entry mesh sizes
            first, inv = np.array([0, 1, 3]), np.array([0, 1, 0, 2, 1])
            states = [states[s] for s in inv]
            eps = np.array([[0.1, 0.2, 0.15, 1.0], [0.05, 0.3, 0.1, 1.0], [0.2, 0.1, 0.25, 1.0]])[inv]
            sources = first, np.broadcast_to(inv, a.shape[:1] + inv.shape)
        owns = None
        if outputs == "rows":
            evolving = [[c.name for c in system.components if j not in c.static] for j in a[:, 0]]
            owns = [[set(rng.choice(names, size=rng.integers(1, 4), replace=False)) for _ in states]
                    for names in evolving]
            outputs = {name: np.array([[name in own for own in row] for row in owns])
                       for name in sorted(set().union(*(own for row in owns for own in row)))}
        batch = system.step(a, _stack(states), eps, outputs, sources)
        for i, j in enumerate(a[:, 0].tolist()):
            for b, state in enumerate(states):
                single = system.step(j, state, eps if sources is None else eps[b],
                                     outputs if owns is None else tuple(sorted(owns[i][b])))
                for name in single if owns is None else owns[i][b]:
                    assert batch[name].shape[:2] == a.shape[:1] + (len(states),)
                    assert batch[name][i, b].tobytes() == np.asarray(single[name], dtype=float).tobytes(), (name, i, b)
                if owns is None:
                    assert set(single) <= set(batch)
                    assert all(np.isnan(batch[name][i, b]).all() for name in set(batch) - set(single))

    def test_x_alone_reads_no_coefficient(self, rng):
        system, eps = ConjugateSystem(4, 3, tail_dirs=(3,)), (0.1, 0.2, 0.15, 1.0)
        vals = _stack(_conjugate_states(rng, 4, 4))
        a = np.array([0, 3, 1, 2])
        out = system.step(a, {k: v for k, v in vals.items() if not k.startswith("c")}, eps, ("x",))
        assert list(out) == ["x"]
        assert out["x"].tobytes() == system.step(a, vals, eps)["x"].tobytes()

    @pytest.mark.parametrize("M,tail_dirs", [(3, ()), (4, ()), (4, (3,))])
    def test_conjugate_rows_with_own_outputs(self, rng, M, tail_dirs):
        system = ConjugateSystem(M, 3, tail_dirs=tail_dirs)
        eps = (0.1, 0.2, 0.15, 1.0 if tail_dirs else 0.3)[:M]
        a = np.array([0, 2, 1, M - 1, 0, 2, 1, 1])
        evolving = [[c.name for c in system.components if j not in c.static] for j in a]
        owns = [set(rng.choice(names, size=rng.integers(1, 4), replace=False)) for names in evolving]
        assert_own_rows_match(system, a, _stack(_conjugate_states(rng, M, len(a))), eps, owns)

    @pytest.mark.parametrize("splitting,eps", [("gamma", (0.1, 0.1)), ("alpha", (0.1, 1.0))])
    def test_frame_rows_with_own_outputs(self, rng, splitting, eps):
        system = FrameSurfaceSystem(ALG3, (1, 2), splitting)
        a = np.array([0, 1, 0, 1, 1, 0])
        owns = [{"psi"}, {"h1", "b1"}, {"psi", "h2", "b2"}, {"psi", "h1", "b1"}, {"psi"}, {"b2"}]
        states = [random_surface_state(ALG3, rng) for _ in a]
        assert_own_rows_match(system, a, _stack(states), eps, owns)

    def test_psi_only_rows_read_no_splitting(self, rng):
        # as in a fused level of a transform solve: row 0 owns psi alone, rows 1 and 2 own h and b
        system, eps = FrameSurfaceSystem(ALG3, (1, 2), "alpha"), (0.1, 1.0)
        a, owns = np.array([0, 1, 0]), [{"psi"}, {"h1", "b1"}, {"psi", "h2", "b2"}]
        states = [random_surface_state(ALG3, rng) for _ in a]
        # b2 outside the admissible set, read by the splitting alone
        states[0]["b2"] = np.array([3.0, 0.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_own_rows_match(system, a, _stack(states), eps, owns)
        states[1]["b2"] = states[0]["b2"]
        with pytest.raises(OutsideDomain) as err:
            system.step(a, _stack(states), eps, _mask(owns))
        assert err.value.row == 1
        # N_1^2 <= 0 in row 0 is named before row 1's splitting
        states[0]["b1"] = np.array([0.0, 30.0, 30.0])
        with pytest.raises(SqrtDomain) as single:
            system.step(0, states[0], eps, ("psi",))
        with pytest.raises(SqrtDomain) as err:
            system.step(a, _stack(states), eps, _mask(owns))
        assert err.value.row == 0
        assert str(err.value) == str(single.value)

    def test_singular_block_in_a_later_row(self, rng):
        # unit mesh, every c_ij = 1: every block of the corner is singular
        for M, a, bad in ((3, [0, 2, 1, 0], 2), (4, [0, 1, 3, 2], 2)):
            system = ConjugateSystem(M, 3)
            states = _conjugate_states(rng, M, len(a))
            for name in states[bad]:
                if name.startswith("c"):
                    states[bad][name] = 1.0
            if M == 4:
                # row 0 steps in 0 and reads no block of triple (1, 2, 3), which is singular there
                for p, q in itertools.permutations((1, 2, 3), 2):
                    states[0][cname(p + 1, q + 1)] = 1.0
                system.step(0, states[0], (1.0,) * M)
            with pytest.raises(DegenerateHexahedron) as single:
                system.step(a[bad], states[bad], (1.0,) * M)
            with pytest.raises(DegenerateHexahedron) as batch:
                system.step(np.array(a), _stack(states), (1.0,) * M)
            assert batch.value.row == bad
            assert str(batch.value) == str(single.value)

    def test_shift_state_gates_each_entry_on_its_blocks(self, rng):
        # unit mesh, every c_pq = 1 on the triple (1, 2, 3): its block is singular, and lead 0 does not read it
        w, c = rng.normal(size=(4, 3)), rng.uniform(-0.2, 0.2, (4, 4))
        np.fill_diagonal(c, 0.0)
        for p, q in itertools.permutations((1, 2, 3), 2):
            c[p, q] = 1.0
        corner, eps = CornerState(rng.normal(size=3), w, c), (1.0,) * 4
        with pytest.raises(DegenerateHexahedron) as err:
            check_4d_consistency(corner, eps)
        assert err.value.row == 1
        # stacked with a regular corner stepped in 1, the singular one stepped in 0 reads no singular block
        regular = CornerState(rng.normal(size=3), rng.normal(size=(4, 3)), rng.uniform(-0.2, 0.2, (4, 4)))
        np.fill_diagonal(regular.c, 0.0)
        both = CornerState(*(np.stack([getattr(s, f) for s in (corner, regular)]) for f in ("x", "w", "c")))
        out = conjugate.shift_state(both, np.array([0, 1]), eps)
        for k, (state, j) in enumerate(((corner, 0), (regular, 1))):
            alone = conjugate.shift_state(state, j, eps)
            for f in ("x", "w", "c"):
                assert getattr(out, f)[k].tobytes() == getattr(alone, f).tobytes(), (k, f)

    def test_frame_gate_in_a_later_row(self, rng):
        # only row 2, stepping in direction 1, has a coarse b2; psi alone reads N_2 there
        system = FrameSurfaceSystem(ALG3, (1, 2), "gamma")
        states = [random_surface_state(ALG3, rng) for _ in range(4)]
        states[2]["b2"] = np.array([3.0, 0.0, 3.0])
        states[1]["b2"] = np.array([3.0, 0.0, 3.0])
        a = np.array([0, 0, 1, 1])
        system.step(0, states[1], (1.0, 1.0), ("psi",))
        with pytest.raises(SqrtDomain) as err:
            system.step(a, _stack(states), (1.0, 1.0), ("psi",))
        assert err.value.row == 2
        with pytest.raises(SqrtDomain) as err:
            system.step(a, _stack(states), (1.0, 1.0))
        assert err.value.row == 1


class TestBlocksPerSource:
    """The conjugate rule solves each (source site, triple) block that some row of a fused
    level reads exactly once, and no other block."""

    @staticmethod
    def _read_blocks(system, mesh, request):
        """Per step call with blocks, the set of (source index, triple) pairs its rows read,
        from the fill plan's rows and owned outputs and the step plan's cover table."""
        key = None if request is None else tuple(sorted(set(request)))
        calls = []
        for outputs, dirs, src, _, mask, _ in _fill_plan(_signature(system), tuple(mesh.npts), key):
            ret, triples, cover, _ = conjugate._step_plan(system.M, tuple(sorted(set(dirs.tolist()))), outputs)
            coeffs = [name for name, *at in ret if len(at) == 2]
            if not triples:
                continue
            sites = sorted(set(src.tolist()))
            pairs = set()
            for r, (j, s) in enumerate(zip(dirs.tolist(), src.tolist())):
                for t, trip in enumerate(triples):
                    if any(cover[j, t, k] and mask[r, outputs.index(name)] for k, name in enumerate(coeffs)):
                        pairs.add((sites.index(s), trip))
            calls.append(pairs)
        return calls

    def _check(self, monkeypatch, run):
        solves, solved = [], []

        def recording(system, mesh, data, request=None):
            solves.append((system, mesh, request))
            return goursat_solve(system, mesh, data, request)

        def counting(c, eps, triple=None, tail_dirs=(), blocks=None, reads=None):
            src, t = np.divmod(blocks, len(triple) + 1)
            solved.append([(int(s), triple[k]) for s, k in zip(src, t)])
            return dcn_step_c(c, eps, triple, tail_dirs, blocks, reads)

        monkeypatch.setattr(conjugate, "goursat_solve", recording)
        monkeypatch.setattr(conjugate, "dcn_step_c", counting)
        run()
        expected = [pairs for system, mesh, request in solves if isinstance(system, ConjugateSystem)
                    for pairs in self._read_blocks(system, mesh, request)]
        assert [set(call) for call in solved] == expected
        assert all(len(call) == len(set(call)) for call in solved)
        return sum(map(len, solved))

    def test_orthosys_assemble(self, monkeypatch):
        assert self._check(monkeypatch, lambda: orthosys_assemble(SphericalOracle().surface_spec(0.05, 0.4))) > 0

    def test_ribaucour_pair_3d(self, monkeypatch):
        oracle = SphericalOracle()
        spec = oracle.surface_spec(0.05, 0.4)
        tangents = [oracle.curve(i).dx(0.0) for i in (1, 2, 3)]
        seed = spec.x0 + sum(k * t / np.linalg.norm(t) for k, t in zip((0.45, 0.40, 0.42), tangents))
        run = lambda: ribaucour_pair_3d(spec, {i: (lambda t: -1.0) for i in (1, 2, 3)}, seed)
        assert self._check(monkeypatch, run) > 0
