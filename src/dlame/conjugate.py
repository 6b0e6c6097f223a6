"""Discrete conjugate nets (quadrilateral lattices) and Jonas transformations.

The first-order system is

    delta_i x   = w_i
    delta_i w_j = c_ji w_i + c_ij w_j                      (i != j)
    delta_i c_kj = (tau_j c_ik) c_kj + (tau_j c_ki) c_ij - (tau_i c_kj) c_ij

whose last family is linearly implicit: per unordered index triple the six
difference quotients delta_a c_cb couple through a 6x6 block (1 - Q(c)),
solved directly with partial pivoting.  Tail directions (mesh size 1) model
Jonas transforms; for those blocks degeneracy additionally shows up as the
exact vanishing of the factors (1 + c_{Mi}).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .config import TOL
from .errors import DegenerateEdges, DegenerateHexahedron, NonPlanarQuad, raise_first
from .lattice import Component, HyperbolicSystem, LatticeField, MeshSpec, goursat_solve

__all__ = [
    "cname",
    "ConjugateSystem",
    "CornerState",
    "dcn_step_c",
    "shift_state",
    "elementary_hexahedron",
    "hexahedron_algebraic",
    "extract_rotation_coeffs",
    "solve_conjugate_net",
    "check_4d_consistency",
    "coplanarity_residual",
    "net_planarity_residual",
    "quad_stack",
]


def cname(i: int, j: int) -> str:
    """Component name of the rotation coefficient c_{ij} (1-based indices)."""
    return f"c{i}_{j}"


# index tables of the 6x6 block over the permutations of one index triple:
# row (a, b, k) holds the equation for delta_a c_kb and couples to the rows
# (b, k, a) and (b, a, k); indices below are positions within the sorted triple
_PERMS = list(itertools.permutations(range(3)))
_P_INDEX = {p: r for r, p in enumerate(_PERMS)}
_ROW_A, _ROW_B, _ROW_K = np.array(_PERMS).T
_COL_BKA = np.array([_P_INDEX[(p[1], p[2], p[0])] for p in _PERMS])
_COL_BAK = np.array([_P_INDEX[(p[1], p[0], p[2])] for p in _PERMS])
_ROWS = np.arange(6)
# positions of the diagonal, (b, k, a) and (b, a, k) entries in a flattened block
_ENTRIES = np.concatenate([_ROWS * 7, _ROWS * 6 + _COL_BKA, _ROWS * 6 + _COL_BAK])


class _BlockPlan(NamedTuple):
    """Gather indices into the flattened (M*M) coefficient matrix for a set of
    triples, and the output keys of the solved blocks in row order."""

    gather: np.ndarray         # (ntrip, 33): c_ab, c_kb, c_ak, c_ka of every block row (a, b, k),
                               # then the 3x3 sub-matrix of the triple
    eidx: np.ndarray           # (ntrip, 18): block entry = _BASE + _SIGN * eps[eidx] * (c_ab, c_kb, c_ab)
    tail_trip: np.ndarray      # per tail factor: triple position, c_{d,i}, c_{d,j}
    tail_i: np.ndarray
    tail_j: np.ndarray
    tail_msg: tuple[str, ...]
    triples: tuple[tuple[int, int, int], ...]
    keys: tuple[tuple[int, int, int], ...]
    dense: np.ndarray          # (M, M, M): position of key (i, p, q) in keys, len(keys) where none


# the diagonal, (b, k, a) and (b, a, k) entries of a block row (a, b, k) are
# 1 + eps_a c_ab, -eps_b c_kb and -eps_b c_ab
_BASE = np.repeat([1.0, 0.0, 0.0], 6)
_SIGN = np.repeat([1.0, -1.0, -1.0], 6)


@functools.lru_cache(maxsize=None)
def _block_plan(M: int, triple, tail_dirs: tuple) -> _BlockPlan:
    """Plan of the blocks of `triple`: None (all), one index triple or a tuple of them."""
    triples = tuple(itertools.combinations(range(M), 3)) if triple is None else \
        tuple(tuple(sorted(t)) for t in np.array(triple, dtype=int).reshape(-1, 3).tolist())
    T = np.array(triples, dtype=int).reshape(-1, 3)
    tail_trip, tail_i, tail_j, tail_msg = [], [], [], []
    for t_idx, trip in enumerate(triples):
        for pos, d in enumerate(trip):
            if d in tail_dirs:
                i, j = (trip[p] for p in range(3) if p != pos)
                tail_trip.append(t_idx)
                tail_i.append(d * M + i)
                tail_j.append(d * M + j)
                tail_msg.append(f"transform block {trip} is inadmissible: (1+c[{d},i]) factors vanish")
    keys = tuple((trip[p[0]], trip[p[2]], trip[p[1]]) for trip in triples for p in _PERMS)
    dense = np.full((M, M, M), len(keys))
    dense[tuple(np.array(keys, dtype=int).reshape(-1, 3).T)] = np.arange(len(keys))
    coeffs = np.stack([T[:, p] * M + T[:, q] for p, q in
                       ((_ROW_A, _ROW_B), (_ROW_K, _ROW_B), (_ROW_A, _ROW_K), (_ROW_K, _ROW_A))], axis=1)
    return _BlockPlan(
        gather=np.concatenate([coeffs.reshape(-1, 24), (T[:, :, None] * M + T[:, None, :]).reshape(-1, 9)], axis=1),
        eidx=np.concatenate([T[:, _ROW_A], T[:, _ROW_B], T[:, _ROW_B]], axis=-1),
        tail_trip=np.array(tail_trip, dtype=int), tail_i=np.array(tail_i, dtype=int),
        tail_j=np.array(tail_j, dtype=int), tail_msg=tuple(tail_msg), triples=triples, keys=keys, dense=dense)


def _own_sources(c: np.ndarray, e: np.ndarray):
    """c (..., M, M) and eps ((M,) or (..., M)) with every entry of their broadcast
    batch as its own source: c as (S, M, M), eps as (M,) or (S, M), and the batch shape."""
    M, batch = c.shape[-1], c.shape[:-2]
    if e.shape[:-1] not in ((), batch):
        batch = np.broadcast_shapes(batch, e.shape[:-1])
        c, e = np.broadcast_to(c, batch + (M, M)), np.broadcast_to(e, batch + (M,))
    return c.reshape(-1, M, M), e if e.ndim == 1 else e.reshape(-1, M), batch


@functools.lru_cache(maxsize=64)
def _own_slots(batch: tuple, T: int):
    """Slots of a flat block list when each entry of the batch is its own source: per
    entry the slot of each triple, and the offset of its first slot in `_advance`'s table."""
    inv = np.arange(math.prod(batch)).reshape(batch)
    slots = inv[..., None] * (T + 1) + np.arange(T), (6 * T + 6) * inv[..., None, None]
    for arr in slots:
        arr.flags.writeable = False
    return slots


def _implicit_blocks(c: np.ndarray, e: np.ndarray, plan: _BlockPlan, blocks, reads):
    """The stacked blocks A and right-hand sides F of `dcn_step_c`'s block list,
    and its gates as `raise_first` checks over the rows of `reads` (none when
    no block fails); nothing is solved."""
    M = c.shape[-1]
    ntrip, nfac = len(plan.triples), len(plan.tail_msg)
    # block b: triple t of the corner c[s], for its slot s (ntrip + 1) + t
    src, at = np.divmod(blocks, ntrip + 1)
    rows, cf = src[:, None], c.reshape(-1, M * M)
    g = cf[rows, plan.gather[at]]
    eb = e[plan.eidx[at]] if e.ndim == 1 else e[rows, plan.eidx[at]]
    coeffs = g[:, :24].reshape(-1, 4, 6)
    cab, ckb, cak, cka = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], coeffs[:, 3]
    entries = _BASE + _SIGN * eb * np.concatenate([cab, ckb, cab], axis=-1)
    A = np.zeros((len(blocks), 36))
    A[:, _ENTRIES] = entries
    A = A.reshape(-1, 6, 6)
    F = cak * ckb + cka * cab - ckb * cab
    # no row vanishes: a row with c_ab = 0 has diagonal 1, one with c_ab != 0 the entry -eps_b c_ab;
    # a nan entry gives a nan ratio, which fails the gate: the gate reports it, not a det warning
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(A)
    ratio = np.abs(det) / np.sqrt(np.einsum("...ij,...ij->...i", A, A)).prod(axis=-1)
    bad = ~(ratio >= TOL.degeneracy)
    if nfac:  # each block tests the factors of its own triple
        cmax = np.max(np.abs(g[:, 24:]), axis=-1)
        fac = (1.0 + cf[rows, plan.tail_i]) * (1.0 + cf[rows, plan.tail_j])
        tail_bad = ~(np.abs(fac) >= TOL.degeneracy * (1.0 + cmax[:, None]) ** 2) & (plan.tail_trip == at[:, None])
        bad = bad | tail_bad.any(axis=-1)
    if not bad.any():
        return A, F, []
    # a row fails on the blocks it reads: per row and triple, the block's slot (none: a slot of no block)
    slots = np.full(reads.max() + 1, np.inf)
    slots[blocks] = ratio
    ratio = slots[reads]
    checks = []
    if nfac:
        slots = np.zeros((len(slots), nfac), dtype=bool)
        slots[blocks] = tail_bad
        tail_bad = slots[reads[..., plan.tail_trip], np.arange(nfac)]
        checks.append((tail_bad.any(axis=-1), lambda row: DegenerateHexahedron(
            plan.tail_msg[int(np.argmax(tail_bad.reshape(-1, nfac)[row]))])))
    checks.append((~(ratio >= TOL.degeneracy).all(axis=-1), lambda row: DegenerateHexahedron(
        f"implicit block for triple "
        f"{plan.triples[int(np.argmin(ratio.reshape(-1, ntrip)[row]))]} is singular")))
    return A, F, checks


def dcn_step_c(c: np.ndarray, eps, triple=None, tail_dirs=(), blocks=None, reads=None):
    """Solve the implicit blocks for the difference quotients delta_a c_cb.

    c is an (..., M, M) array of rotation coefficients at the cube corner
    (diagonal ignored, 0-based) with any leading batch axes, and eps the mesh
    sizes, (M,) or (..., M) per batch entry; the two broadcast.  `triple`
    selects one unordered index triple, a list of them, or all (None).
    Without `blocks`, every batch entry is a source that reads the blocks of
    every triple, and the result is {(a, b, c): delta_a c_bc} with values
    over the batch axes, covering every ordered pair inside the requested
    triple(s).

    With `blocks`, a flat list of the blocks to solve: c holds source
    corners (S, M, M) and eps is (M,) or (S, M); block b sits in the slot
    s (ntrip + 1) + t = blocks[b], triple t of corner s, and the slots
    s (ntrip + 1) + ntrip hold no block.  The result is then a flat array
    whose entries 6 b .. 6 b + 5 are block b's quotients in the order of its
    triple's keys, and the gates run per row of `reads`, an int array
    (..., ntrip) holding the slot that a row reads of each triple.  All
    blocks are assembled and factored as one stacked batch.

    Raises DegenerateHexahedron, carrying the first offending row (batch
    entry without `blocks`), when the Hadamard ratio |det A| / prod_r |A_r|
    of a block it reads falls below tolerance or is nan (naming its most
    singular block), or when a tail-direction block has a vanishing or nan
    factor 1 + c_{Mi}; a row is tested on every tail factor first.
    """
    c, e = np.asarray(c, dtype=float), np.asarray(eps, dtype=float)
    if not (triple is None or isinstance(triple, tuple)):
        triple = tuple(np.ravel(triple).tolist())
    plan, batch = _block_plan(c.shape[-1], triple, tuple(tail_dirs)), None
    if blocks is None:
        c, e, batch = _own_sources(c, e)
        reads = _own_slots(batch, len(plan.triples))[0]
        blocks = reads.reshape(-1)
    A, F, checks = _implicit_blocks(c, e, plan, blocks, reads)
    if checks:
        raise_first(checks)
    delta = np.linalg.solve(A, F[..., None])[..., 0]
    if batch is None:
        return delta.reshape(-1)
    delta = delta.reshape(batch + (-1,))
    return {key: delta[..., k] for k, key in enumerate(plan.keys)}


@dataclass
class CornerState:
    """Values of (x, w, c) attached to one lattice vertex, or to a batch of
    vertices along leading axes that the three arrays share."""

    x: np.ndarray          # (..., N)
    w: np.ndarray          # (..., M, N); rows that are unknown hold nan
    c: np.ndarray          # (..., M, M); diagonal and unknown entries hold nan

    @property
    def M(self) -> int:
        return self.c.shape[-1]


def _at(v: np.ndarray, k: int, a: np.ndarray) -> np.ndarray:
    """v[..., a, ...] over v's batch axes (all but its last k), the int array a picking per entry."""
    if v.ndim == k:
        return v[(..., a) + (slice(None),) * (k - 1)]
    lead = v.shape[:v.ndim - k]
    return v.reshape((-1,) + v.shape[v.ndim - k:])[np.arange(math.prod(lead)).reshape(lead), a]


def _shift_edges(state: CornerState, a: np.ndarray, eps, edges: bool = True):
    """Shifted x and (if `edges`) w of `shift_state` (row a of w nan), and the
    step sizes eps_a as (..., 1)."""
    ea = _at(np.asarray(eps, dtype=float), 1, a)[..., None]
    wa = _at(state.w, 2, a)
    x = state.x + ea * wa
    if not edges:
        return x, None, ea
    w = state.w + ea[..., None] * (_at(state.c.swapaxes(-1, -2), 2, a)[..., None] * wa[..., None, :]
                                   + _at(state.c, 2, a)[..., None] * state.w)
    return x, np.where(np.eye(state.M, dtype=bool)[a][..., None], np.nan, w), ea


def _advance(state: CornerState, a: np.ndarray, eps, triples, tail_dirs, need=None, tables=None,
             edges: bool = True) -> CornerState:
    """The one conjugate step kernel: tau_a x and tau_a w (unless state.w is None;
    w only if `edges`) and tau_a c (unless `triples` is None) for the direction a
    of each row (an int array broadcasting against the batch axes).

    A block depends on c and eps alone, so it is solved once per source: with
    `tables`, a call's `_StepTables`, row first[s] holds the corner of source s;
    without, every entry of the (c, eps) batch is a source and its rows read the
    blocks of need[..., t] (None: every block of their source).  One `dcn_step_c`
    call solves each (source, triple) block of `triples` that some row reads,
    each row gated on the blocks it reads.  Row a of w and the c_pq no solved
    block covers are nan."""
    e = np.asarray(eps, dtype=float)
    if state.w is None:
        x = w = None
        ea = _at(e, 1, a)[..., None]
    else:
        x, w, ea = _shift_edges(state, a, e, edges)
    if triples is None:
        return CornerState(x, w, None)
    M, T = state.M, len(triples)
    # slot s (T + 1) + t: the six quotients of block (s, t), nan where it is not solved;
    # slot s (T + 1) + T: nan, read by the c_pq that no triple covers
    if tables is None:
        c, e, batch = _own_sources(state.c, e)
        S = len(c)
        reads, offset = _own_slots(batch, T)
        if need is None:
            blocks = reads.reshape(-1)  # every source once, with all its blocks
        elif T:
            reads = np.where(need, reads, T)  # slot T holds no block
            hit = np.zeros(S * (T + 1), dtype=bool)
            hit[reads] = True
            hit[T] = False
            blocks = np.flatnonzero(hit)
        gather = offset + _block_plan(M, triples, tuple(tail_dirs)).dense[a]
    else:
        first, reads, blocks, gather = tables.first, tables.reads, tables.blocks, tables.gather
        S, c = len(first), state.c[first]
        e = e if e.ndim == 1 else np.broadcast_to(e, state.c.shape[:-2] + (M,))[first]
    table = np.full((S * (T + 1), 6), np.nan)
    if T:
        table[blocks] = dcn_step_c(c, e, triples, tail_dirs, blocks=blocks, reads=reads).reshape(-1, 6)
    return CornerState(x, w, state.c + ea[..., None] * table.reshape(-1)[gather])


@functools.lru_cache(maxsize=None)
def _cnames(M: int) -> tuple:
    """(name, i, j) of every rotation coefficient c_ij, 0-based."""
    return tuple((cname(i + 1, j + 1), i, j) for i, j in itertools.permutations(range(M), 2))


@functools.lru_cache(maxsize=None)
def _step_plan(M: int, dirs: tuple, outputs):
    """(name, *static directions) of each component `ConjugateSystem.step` returns (evolving in
    one of `dirs`, named by `outputs` unless None), the triples it solves, cover[d, t, k]: whether
    direction d's block of triple t gives the k-th coefficient returned, and the need table
    cover.any(-1) (None where every direction of `dirs` reads every block)."""
    ret = tuple(n for n in (("x",), *((f"w{i + 1}", i) for i in range(M)), *_cnames(M))
                if (outputs is None or n[0] in outputs) and set(dirs) - set(n[1:]))
    coeffs = [set(n[1:]) for n in ret if len(n) == 3]
    triples = tuple(sorted({tuple(sorted({d, *pq})) for pq in coeffs for d in dirs if d not in pq}))
    cover = np.array([[[d in t and set(t) - {d} == pq for pq in coeffs] for t in triples] for d in range(M)],
                     dtype=bool).reshape(M, len(triples), len(coeffs))
    need = cover.any(axis=-1)
    return ret, triples, cover, None if need[list(dirs)].all() else need


def _row_need(ret, triples, cover, need, a, outputs):
    """Per row of a step call and triple of `_step_plan`'s, whether the row reads the triple's
    blocks (None: every row reads every block of its source); with output masks, the blocks that
    give a coefficient the row owns."""
    if isinstance(outputs, Mapping) and triples:
        owns = np.broadcast_arrays(*(outputs[name] for name, *at in ret if len(at) == 2))
        return (cover[a] & np.stack(owns, axis=-1)[..., None, :]).any(axis=-1)
    return None if need is None else need[a]


class _StepTables(NamedTuple):
    """Index tables of one `ConjugateSystem.step` call with a source table, a function of the
    call's directions, output masks and source table alone (see HyperbolicSystem)."""

    ret: tuple                 # (name, *at) of each component returned (see _step_plan)
    triples: tuple             # the triples whose blocks the call solves
    first: np.ndarray          # the source table's first row of each source
    reads: np.ndarray | None   # (..., T) per row and triple: the slot read, slot T when none
    blocks: np.ndarray | None  # the slots of the blocks solved, increasing
    gather: np.ndarray | None  # (..., M, M) per row: the flat slot-table entry of each delta c_pq


def _step_tables(M: int, tail_dirs: tuple, a: np.ndarray, outputs, sources) -> _StepTables:
    """The tables of a step call with directions `a`, `outputs` and source table `sources` = (first,
    inv) of the system with tail directions `tail_dirs`; indices are int32 unless the slot table
    outgrows it."""
    ret, triples, cover, need = _step_plan(M, tuple(sorted(set(a.ravel().tolist()))),
                                           None if outputs is None else tuple(outputs))
    first, inv = sources
    T = len(triples)
    if not T:
        return _StepTables(ret, triples, first, None, None, None)
    index = np.int32 if len(first) * (T + 1) * 6 < 2**31 else np.intp
    reads = inv[..., None] * (T + 1) + np.arange(T)
    need = _row_need(ret, triples, cover, need, a, outputs)
    if need is not None:
        reads = np.where(need, reads, T)  # slot T holds no block
    hit = np.zeros(len(first) * (T + 1), dtype=bool)
    hit[reads] = True
    hit[T] = False
    gather = (6 * T + 6) * inv[..., None, None] + _block_plan(M, triples, tail_dirs).dense[a]
    return _StepTables(ret, triples, first, reads.astype(index), np.flatnonzero(hit).astype(index),
                       gather.astype(index))


class ConjugateSystem(HyperbolicSystem):
    """Hyperbolic system of an M-dimensional discrete conjugate net in R^N."""

    def __init__(self, M: int, N: int, tail_dirs: tuple[int, ...] = ()):
        self.N = N
        self.tail_dirs = tuple(tail_dirs)
        comps = [Component("x", (N,), (), {j: ("x", f"w{j + 1}") for j in range(M)})]
        comps += [Component(f"w{i + 1}", (N,), (i,), {
            j: (f"w{i + 1}", f"w{j + 1}", cname(i + 1, j + 1), cname(j + 1, i + 1)) for j in range(M) if j != i})
            for i in range(M)]
        comps += [Component(cname(i + 1, j + 1), (), tuple(sorted((i, j))), {
            k: tuple(cname(p + 1, q + 1) for p, q in itertools.permutations((i, j, k), 2))
            for k in range(M) if k not in (i, j)}) for i, j in itertools.permutations(range(M), 2)]
        super().__init__(M, comps)

    def step(self, direction, vals, eps, outputs=None, sources=None):
        """Pack the components into a corner state, advance it, unpack the outputs; the
        implicit blocks are solved once per source site of `sources` (see `_advance`).

        A call with a source table reads its index tables (`_StepTables`) from the table's
        memo when it has one (the fill plan's), keyed by the tail directions, which the plan's
        key leaves out; the first such call compiles them, as does every call with a plain
        (first, inv) tuple."""
        M, a = self.M, np.asarray(direction)
        tables = None
        if sources is None:
            ret, triples, cover, need = _step_plan(M, tuple(sorted(set(a.ravel().tolist()))),
                                                   None if outputs is None else tuple(outputs))
            need = _row_need(ret, triples, cover, need, a, outputs)
        else:
            memo = getattr(sources, "memo", {})
            tables = memo.get(("conjugate", self.tail_dirs))
            if tables is None:
                tables = memo["conjugate", self.tail_dirs] = _step_tables(M, self.tail_dirs, a, outputs, sources)
            ret, triples, need = tables.ret, tables.triples, None
        x = np.asarray(vals["x"], dtype=float)
        edges = any(len(n) == 2 for n in ret)  # every output but a coefficient reads w
        c = None
        if edges or triples:  # x alone reads no c
            c = np.zeros(x.shape[:-1] + (M, M))
            for name, p, q in _cnames(M):
                c[..., p, q] = vals[name]
        w = np.empty(x.shape[:-1] + (M, x.shape[-1])) if edges or ret[:1] == (("x",),) else None
        for i in range(M if w is not None else 0):
            w[..., i, :] = vals[f"w{i + 1}"]
        # no coefficient returned: no tau c either
        new = _advance(CornerState(x, w, c), a, eps, triples or None, self.tail_dirs, need, tables, edges)
        return {name: new.c[(..., *at)] if len(at) == 2 else new.w[..., at[0], :] if at else new.x
                for name, *at in ret}


def shift_state(state: CornerState, direction, eps) -> CornerState:
    """Advance a corner state by one lattice step; entries that would need
    fresh Goursat data become nan.

    `direction` is an int or an int array that broadcasts against the batch
    axes of the state and of eps ((M,) or (..., M)); the result carries the
    broadcast batch shape, each entry stepped in its own direction.  The
    blocks of every triple that contains a requested direction and whose
    coefficients are known in every batch entry are solved in one
    `dcn_step_c` call, each entry gated only on the blocks that contain its
    direction, so a failing gate names the first entry that reads the block.
    """
    a = np.asarray(direction)
    known = ~np.isnan(state.c).any(axis=tuple(range(state.c.ndim - 2)))
    triples, members = _shift_triples(state.M, tuple(sorted(set(a.ravel().tolist()))), known.tobytes())
    return _advance(state, a, eps, triples, (), None if members is None else members[a])


@functools.lru_cache(maxsize=256)
def _shift_triples(M: int, dirs: tuple, known: bytes):
    """The triples `shift_state` solves for the directions `dirs` when known[p, q] (an (M, M)
    bool array as bytes) tells the coefficients known in every entry, and whether direction
    d is in triple t, (M, len(triples)) (None for a single direction, whose rows read them all)."""
    known = np.frombuffer(known, dtype=bool).reshape(M, M)
    triples = tuple(t for t in itertools.combinations(range(M), 3)
                    if set(dirs) & set(t) and all(known[p, q] for p, q in itertools.permutations(t, 2)))
    members = np.array([[d in t for t in triples] for d in range(M)], dtype=bool).reshape(M, len(triples))
    members.flags.writeable = False
    return triples, None if len(dirs) == 1 else members


def hexahedron_algebraic(state: CornerState, eps) -> np.ndarray:
    """Far vertex of the elementary hexahedron through the first-order system."""
    if state.M != 3:
        raise ValueError("elementary hexahedron needs exactly three directions")
    for a in range(3):
        state = shift_state(state, a, eps)
    return state.x


# the two other directions of each lead direction of a hexahedron, and the
# index cycles of a cross product
_FACE_U = np.array([1, 0, 0])
_FACE_V = np.array([2, 2, 1])
_CYC1 = np.array([1, 2, 0])
_CYC2 = np.array([2, 0, 1])


def elementary_hexahedron(state: CornerState, eps) -> np.ndarray:
    """Far vertex as the intersection point of the three shifted face planes.

    Works in any ambient dimension by solving inside the three-space spanned
    by the corner edges.  The state may carry batch axes and eps may be (3,)
    or (..., 3) over them; the far vertices come back as (..., N) from one
    stacked QR, one shift of x and w in all three directions and one stacked
    3x3 solve.  The construction reads no shifted c, so the implicit block
    is gated but not solved.  Raises DegenerateHexahedron, carrying the
    first offending batch row, when the edges do not span a three-space, the
    implicit block is singular, a shifted face plane degenerates or the
    planes are parallel.
    """
    if state.M != 3:
        raise ValueError("elementary hexahedron needs exactly three directions")
    e = np.asarray(eps, dtype=float)
    basis, rdiag = np.linalg.qr(np.swapaxes(state.w, -1, -2))  # (..., N, 3): span of the edges
    rabs = np.abs(rdiag)
    edge_scale = np.maximum(1.0, rabs.max(axis=(-2, -1)))
    flat = np.diagonal(rabs, axis1=-2, axis2=-1).min(axis=-1) < 1e-10 * edge_scale
    c, e_src, batch = _own_sources(state.c, e)
    reads = _own_slots(batch, 1)[0]
    block_checks = _implicit_blocks(c, e_src, _block_plan(3, None, ()), reads.reshape(-1), reads)[2]
    # every entry gets a unit axis, which the shift broadcasts to its three lead directions
    corner = CornerState(state.x[..., None, :], state.w[..., None, :, :], state.c[..., None, :, :])
    x, w, _ = _shift_edges(corner, np.arange(3), e[..., None, :])      # batch (..., lead)
    # lead a's face plane holds its shifted corner and its two other shifted edges;
    # products keep matrix-vector shapes, so each entry gets a single corner's arithmetic
    bt = np.swapaxes(basis, -1, -2)[..., None, :, :]                  # (..., 1, 3, N)
    u = (bt @ w[..., np.arange(3), _FACE_U, :, None])[..., 0]          # (..., lead, 3)
    v = (bt @ w[..., np.arange(3), _FACE_V, :, None])[..., 0]
    normal = u[..., _CYC1] * v[..., _CYC2] - u[..., _CYC2] * v[..., _CYC1]
    norm = np.sqrt(normal[..., None, :] @ normal[..., :, None])[..., 0]
    A = normal / np.maximum(norm, 1e-300)
    rhs = A[..., None, :] @ (bt @ (x - corner.x)[..., None])
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    # one pass over every gate names the entry a per-entry loop would meet first
    raise_first([
        (flat, lambda row: DegenerateHexahedron("corner edges do not span a three-space")),
        *block_checks,
        ((norm < 1e-300).any(axis=(-2, -1)),
         lambda row: DegenerateHexahedron("shifted face plane is degenerate")),
        (np.abs(np.linalg.det(A)) < TOL.degeneracy * scale**3,
         lambda row: DegenerateHexahedron("face planes are (nearly) parallel")),
    ])
    y = np.linalg.solve(A, rhs[..., 0])
    return state.x + (basis @ y)[..., 0]


def extract_rotation_coeffs(x, xi, xj, xij, eps_i: float, eps_j: float):
    """Invert the planarity relation on quadrilaterals (x, xi, xj, xij).

    The vertices are (..., N) arrays with any (broadcastable) leading batch
    axes.  Returns (c_ij, c_ji) over the batch axes, with
    delta_i delta_j x = c_ji delta_i x + c_ij delta_j x solved in the least
    squares sense through the SVD of the edge pair.  Raises DegenerateEdges
    (a non-finite vertex or collinear edges) or NonPlanarQuad, carrying the
    first offending batch row.
    """
    x, xi, xj, xij = (np.asarray(p, dtype=float) for p in (x, xi, xj, xij))
    di = (xi - x) / eps_i
    dj = (xj - x) / eps_j
    m = (xij - xi - xj + x) / (eps_i * eps_j)
    di, dj, m = np.broadcast_arrays(di, dj, m)
    finite = np.isfinite(di).all(axis=-1) & np.isfinite(dj).all(axis=-1) & np.isfinite(m).all(axis=-1)
    if not finite.all():  # the SVDs see zeros in place of a quad with a non-finite vertex
        di, dj, m = (np.where(finite[..., None], v, 0.0) for v in (di, dj, m))
    scale = np.maximum(np.maximum(np.linalg.norm(di, axis=-1), np.linalg.norm(dj, axis=-1)), 1e-300)
    E = np.stack([di, dj], axis=-1)                     # (..., N, 2)
    u, sv, vt = np.linalg.svd(E, full_matrices=False)
    checks = [(~finite, lambda row: DegenerateEdges("quadrilateral has a non-finite vertex")),
              (sv[..., -1] < 1e-10 * scale,
               lambda row: DegenerateEdges("quadrilateral edges are collinear"))]
    if x.shape[-1] >= 3:
        planar = np.linalg.svd(np.stack([di, dj, m], axis=-1), compute_uv=False)[..., 2]
        checks.append((~(planar <= TOL.planarity * np.maximum(scale, np.linalg.norm(m, axis=-1))),
                       lambda row: NonPlanarQuad("quadrilateral is not planar to tolerance")))
    raise_first(checks)
    # coef = V diag(1/s) U^T m, the least squares solution of E coef = m
    proj = (np.swapaxes(u, -1, -2) @ m[..., None])[..., 0] / sv
    coef = (np.swapaxes(vt, -1, -2) @ proj[..., None])[..., 0]
    # [()] makes a single quad's 0-d results plain scalars
    return coef[..., 1][()], coef[..., 0][()]


def solve_conjugate_net(
    mesh: MeshSpec,
    x0: np.ndarray,
    w_axis: dict[int, np.ndarray],
    c_data: dict[tuple[int, int], np.ndarray],
    N: int,
    request=None,
) -> dict[str, LatticeField]:
    """Goursat solve of the conjugate-net system.

    w_axis[i] samples w_i along its axis, shape (npts_i, N); c_data[(i, j)]
    samples c_ij on the coordinate plane P_ij with axes in increasing
    direction order, shape (npts_min(i,j), npts_max(i,j)); scalars broadcast.
    Directions are 0-based; tail directions are taken from the mesh.
    """
    tail_dirs = tuple(range(mesh.M - mesh.tail, mesh.M))
    system = ConjugateSystem(mesh.M, N, tail_dirs=tail_dirs)
    data = {"x": np.asarray(x0, dtype=float)}
    for i in range(mesh.M):
        data[f"w{i + 1}"] = np.asarray(w_axis[i], dtype=float)
    for i, j in itertools.permutations(range(mesh.M), 2):
        data[cname(i + 1, j + 1)] = np.asarray(c_data[(i, j)], dtype=float)
    return goursat_solve(system, mesh, data, request=request)


# the three other directions of each lead direction of a 4-cube, and the
# pairs of leads whose far vertices are compared
_REST = np.array([[d for d in range(4) if d != lead] for lead in range(4)])
_LEAD_I, _LEAD_J = np.triu_indices(4, 1)


def check_4d_consistency(state: CornerState, eps) -> float:
    """Max pairwise distance between the four constructions of the 4-cube far vertex.

    The corner (a single one) is shifted in all four lead directions at once
    and the four 3-direction sub-corners are closed by one batched
    elementary_hexahedron call; an error names the failing lead as its row.
    """
    if state.M != 4:
        raise ValueError("the consistency check runs on four directions")
    leads = np.arange(4)
    s = shift_state(state, leads, eps)
    sub = CornerState(s.x, s.w[leads[:, None], _REST],
                      s.c[leads[:, None, None], _REST[:, :, None], _REST[:, None, :]])
    far = elementary_hexahedron(sub, np.asarray(eps, dtype=float)[_REST])
    gap = far[_LEAD_I] - far[_LEAD_J]
    return float(np.sqrt((gap[:, None, :] @ gap[:, :, None]).max()))


def coplanarity_residual(points: np.ndarray) -> float:
    """Rank-2 residual of difference vectors among 4 points (smallest singular value)."""
    p = np.asarray(points, dtype=float)
    d = p[1:] - p[0]
    sv = np.linalg.svd(d, compute_uv=False)
    return float(sv[-1]) if len(sv) == 3 else 0.0


def quad_stack(x: np.ndarray, axis_i: int = 0, axis_j: int = 1) -> np.ndarray:
    """All elementary (i, j)-quads of a point field as an array (..., 4, N)."""
    sl = [slice(None)] * (x.ndim - 1)

    def s(di, dj):
        out = list(sl)
        out[axis_i] = slice(1, None) if di else slice(0, -1)
        out[axis_j] = slice(1, None) if dj else slice(0, -1)
        return x[tuple(out)]

    return np.stack([s(0, 0), s(1, 0), s(1, 1), s(0, 1)], axis=-2)


def net_planarity_residual(x: LatticeField, i: int, j: int) -> float:
    """Largest planarity defect over all elementary (i, j)-quads of a solved net."""
    q = quad_stack(x.values, i, j)
    E = q[..., [1, 3, 2], :] - q[..., :1, :]  # (..., 3, N): two edges and the diagonal of each quad
    sv = np.linalg.svd(E, compute_uv=False)
    scale = np.maximum(sv[..., 0], 1e-300)
    return float(np.max(sv[..., -1] / scale)) if E.shape[-1] >= 3 else 0.0
