"""Lattice boxes, shift/difference calculus and a generic Goursat-problem driver.

A mesh describes the box B(r) sampled with per-direction mesh sizes; trailing
"tail" directions have mesh size 1 and exactly two layers {0, 1} (these model
transforms of a net rather than sampled continuous directions).  First-order
hyperbolic systems declare, per dependent component, the static directions
(where Goursat data live) and a step rule; the driver fills the box level by
level, pulling each unknown from its lowest-index evolution direction, which
makes the result independent of the site enumeration order by construction.
A level is filled by one step call whose rows each carry their own direction
and the outputs they own.  The schedule of that fill (see goursat_solve) is
compiled once per system structure, box size, request and problem count into
a plan kept in a bounded, process-local cache, so a solve only gathers, steps
and scatters.  Independent problems on one box (data with a leading problem
axis) are folded into the plan's rows: site s of problem b is flat row
s B + b, so B problems fill in the level calls of one, through the same step
rules, and a failing row r is charged to the site of plan row r // B.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DomainViolation,
    OrderTooLarge,
    OutOfBounds,
    SystemStructureError,
)

__all__ = [
    "MeshSpec",
    "mesh_points",
    "LatticeField",
    "Component",
    "HyperbolicSystem",
    "goursat_solve",
    "consistency_residual",
    "cl_norm",
]


@dataclass(frozen=True)
class MeshSpec:
    """Sampled box: mesh sizes, site counts and the number of tail directions."""

    eps: tuple[float, ...]
    npts: tuple[int, ...]
    tail: int = 0

    def __post_init__(self):
        if len(self.eps) != len(self.npts):
            raise ValueError("eps and npts must agree in length")
        if any(e <= 0 for e in self.eps):
            raise ValueError("solve-time meshes need strictly positive mesh sizes")
        if any(n < 1 for n in self.npts):
            raise ValueError("every direction needs at least one site")

    @classmethod
    def box(cls, m: int, eps: float, r: float) -> "MeshSpec":
        """Uniform box: m directions of mesh eps on [0, r]."""
        return cls((eps,) * m, (mesh_points(r, eps),) * m)

    @property
    def M(self) -> int:
        return len(self.eps)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.npts

    def coords(self, idx: Sequence[int]) -> tuple[float, ...]:
        return tuple(i * e for i, e in zip(idx, self.eps))

    def shrink(self, direction: int) -> "MeshSpec":
        npts = list(self.npts)
        npts[direction] -= 1
        if npts[direction] < 1:
            raise OutOfBounds("mesh exhausted in direction %d" % direction)
        return MeshSpec(self.eps, tuple(npts), self.tail)

    def levels(self) -> list[np.ndarray]:
        """Site indices grouped by level sum(idx), one (sites, M) int array per
        level; level order is the fill order, C order within a level."""
        idx = np.indices(self.npts).reshape(self.M, -1).T
        level = idx.sum(axis=1)
        return np.split(idx[np.argsort(level, kind="stable")], np.cumsum(np.bincount(level))[:-1])


def mesh_points(r: float, eps: float) -> int:
    """Sites of mesh eps on [0, r]; the slack keeps r = k eps from losing a site to round-off."""
    return int(np.floor(r / eps + 1e-9)) + 1


@dataclass
class LatticeField:
    """Values attached to mesh sites; trailing axes hold the per-site value."""

    mesh: MeshSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[: self.mesh.M] != self.mesh.shape:
            raise ValueError("values shape does not match mesh")

    def _slab(self, direction: int, lo: int, hi: int | None) -> np.ndarray:
        sl = [slice(None)] * self.values.ndim
        sl[direction] = slice(lo, hi)
        return self.values[tuple(sl)]

    def shift(self, direction: int) -> "LatticeField":
        """tau_i f: view of the field advanced by one mesh step in direction i."""
        if self.mesh.npts[direction] < 2:
            raise OutOfBounds("cannot shift a single-site direction")
        return LatticeField(self.mesh.shrink(direction), self._slab(direction, 1, None))

    def diff(self, direction: int) -> "LatticeField":
        """delta_i f = (tau_i f - f) / eps_i on the shrunken box."""
        if self.mesh.npts[direction] < 2:
            raise OutOfBounds("cannot difference a single-site direction")
        eps = self.mesh.eps[direction]
        vals = (self._slab(direction, 1, None) - self._slab(direction, 0, -1)) / eps
        return LatticeField(self.mesh.shrink(direction), vals)


def cl_norm(f: LatticeField, ell: int) -> float:
    """sup over |alpha| <= ell of |delta^alpha f| on the correspondingly shrunken box.

    Multi-indices only range over the non-tail directions; the per-site value
    norm is Euclidean over the trailing value axes.
    """
    m = f.mesh.M - f.mesh.tail
    if any(f.mesh.npts[d] - ell < 1 for d in range(m)):
        raise OrderTooLarge(f"order {ell} does not fit on the box")

    def site_norm(field: LatticeField) -> float:
        v = field.values.reshape(field.mesh.shape + (-1,))
        return float(np.max(np.sqrt(np.sum(v * v, axis=-1))))

    best = 0.0
    for alpha in itertools.product(range(ell + 1), repeat=m):
        if sum(alpha) > ell:
            continue
        g = f
        for d, a in enumerate(alpha):
            for _ in range(a):
                g = g.diff(d)
        best = max(best, site_norm(g))
    return best


@dataclass(frozen=True)
class Component:
    """One dependent variable of a hyperbolic system."""

    name: str
    shape: tuple[int, ...]
    static: tuple[int, ...]
    # per evolution direction: names of components the step rule reads
    reads: Mapping[int, tuple[str, ...]] = field(default_factory=dict)

    def evolution(self, M: int) -> tuple[int, ...]:
        return tuple(d for d in range(M) if d not in self.static)


class HyperbolicSystem:
    """First-order system delta_j u_k = f_{k,j}(u) with per-component step rules.

    Subclasses provide `components` and `step(direction, vals, eps, outputs)`
    returning the shifted values tau_j u_k for every component evolving in
    direction j (at least those named in `outputs`).  Registration checks the
    structural closure condition: a rule for component k in direction j may
    only read components l with E(k) \\ {j} contained in E(l), otherwise the
    consistency condition is not even well defined.

    Step contract.  `direction` is an int array that broadcasts against the
    batch axes, one direction per row (a plain int is its 0-d case, the same
    direction for every row), and every value in `vals` carries the batch
    axes in front of its component shape, or none (one shared corner).  Every
    output carries the broadcast batch shape, row by row equal to a call on
    that row alone.  A component is returned if it evolves in some row's
    direction, holding nan in the rows whose direction it does not evolve in.
    `outputs` may map each name to a boolean mask over the batch axes, the
    rows that own it: a row is then gated only on what its own outputs read,
    and holds unspecified values in the outputs it does not own.  A domain
    gate that fails raises with `row` set to the flat index of the first
    failing entry (see `errors.raise_first`).  The Goursat driver makes one
    step call per level, with a direction and a mask row per (destination
    site, direction) pair.

    `sources`, when given, is the source table (first, inv) of a call whose
    rows hold the values of a few distinct sites: inv[row] indexes the row's
    site among them, and row first[s] holds the values of site s.  Rows of
    one site carry equal values (and equal mesh sizes when `eps` is given
    per row), so a rule may do its per-site work once per site; the result
    must equal the call without the table.  The Goursat
    driver passes its fill plan's table with every call.

    Per-call tables.  What a rule derives from a call's directions, output
    masks and source table alone (which blocks to solve, which slot each row
    reads) is the same on every solve that runs the call.  The fill plan's
    source table is a `_SourceTable`, whose `memo` dict keeps such tables
    under a key of the rule's structure for as long as the plan is cached;
    a rule that memoizes there must key on everything its tables depend on
    besides the call, and must build the same tables on the fly for a plain
    (first, inv) tuple.  A memoized table belongs to its call: it holds only
    with that call's directions and output masks, as the driver passes them.
    """

    M: int
    components: tuple[Component, ...]

    def __init__(self, M: int, components: Sequence[Component]):
        self.M = M
        self.components = tuple(components)
        self._by_name = {c.name: c for c in self.components}
        if len(self._by_name) != len(self.components):
            raise SystemStructureError("duplicate component names")
        evolution = {c.name: set(c.evolution(M)) for c in self.components}
        for c in self.components:
            evo = evolution[c.name]
            for j, reads in c.reads.items():
                if j not in evo:
                    raise SystemStructureError(f"{c.name} declares reads for non-evolution direction {j}")
                need = evo - {j}
                for name in reads:
                    if name not in evolution:
                        raise SystemStructureError(f"{c.name} reads unknown component {name}")
                    if not need <= evolution[name]:
                        raise SystemStructureError(
                            f"rule for {c.name} in direction {j} reads {name}, "
                            f"whose evolution directions do not cover {sorted(need)}"
                        )

    def component(self, name: str) -> Component:
        return self._by_name[name]

    def step(self, direction, vals: Mapping[str, np.ndarray], eps: Sequence[float], outputs=None, sources=None):
        """Shifted values tau_j u_k; outputs restricts which components to produce."""
        raise NotImplementedError


def _signature(system: HyperbolicSystem) -> tuple:
    """Per component: name, static directions and per-direction read set (undeclared: all)."""
    names = tuple(c.name for c in system.components)
    return tuple((c.name, c.static, tuple(() if j in c.static else tuple(c.reads.get(j, names))
                                          for j in range(system.M)))
                 for c in system.components)


class _SourceTable(tuple):
    """The source table (first, inv) of one fill-plan call, with a `memo` dict in which step rules
    keep the tables they compile from the call (see HyperbolicSystem); it lives and dies with the
    plan that holds it."""

    def __new__(cls, first: np.ndarray, inv: np.ndarray):
        table = super().__new__(cls, (first, inv))
        table.memo = {}
        return table


def _read_only(*arrays):
    """Read-only views of arrays that own their data (a view of a read-only owner cannot be made writeable)."""
    for a in arrays:
        a.flags.writeable = False
    return tuple(a[:] for a in arrays)


@functools.lru_cache(maxsize=32)
def _fill_plan(signature: tuple, npts: tuple[int, ...], request: tuple[str, ...] | None, problems: int = 1):
    """Per level with work, the one step call that fills it on a box of `npts` sites (see goursat_solve).

    A call is (outputs, dirs, src, dst, mask, sources): the union of its
    output names (sorted), then per row the step direction and the read-only
    flat C-order source and destination sites, mask[row, k] whether the row
    owns outputs[k], and the call's source table (first, inv), a
    `_SourceTable`: its distinct source sites in site order, first[s] the
    first row stepping from source s and inv[row] the source of each row,
    with the memo of the tables step rules compile from the call.  A row is
    a (destination site, direction) pair; rows are in fill order: by the
    site's position within its level, then by the declaration index of the
    row's first output.

    For B = `problems` > 1 each call of the one-problem plan is folded: its
    row r becomes the B rows r B + b, one per problem b, with the direction
    and mask of row r and the flat sites s B + b of its sites s (fields laid
    out (sites, B, ...)); the source table fans out alike, first[s] B + b and
    inv[r] B + b.  Folded rows are in fill order problem by problem within a
    row of the one-problem plan.
    """
    if problems > 1:
        fan = np.arange(problems)

        def fold(a):  # row or site r -> r B + b, problem by problem
            return (a[:, None] * problems + fan).flatten()

        return tuple((outputs, *_read_only(np.repeat(dirs, problems), fold(src), fold(dst),
                                           np.repeat(mask, problems, axis=0)),
                      _SourceTable(*_read_only(fold(first), fold(inv))))
                     for outputs, dirs, src, dst, mask, (first, inv) in _fill_plan(signature, npts, request, 1))
    M, names = len(npts), [name for name, _, _ in signature]
    coords = np.indices(npts).reshape(M, -1)
    strides = np.array([math.prod(npts[d + 1:]) for d in range(M)], dtype=np.intp)
    # producer[c, s]: lowest evolution direction of component c with a positive
    # index at site s, -1 on its static subspace (where Goursat data live)
    producer = np.full((len(names), coords.shape[1]), -1, dtype=np.intp)
    for c, (_, static, _) in enumerate(signature):
        for j in sorted(set(range(M)) - set(static), reverse=True):
            producer[c, coords[j] > 0] = j
    # the site order within a level is MeshSpec.levels()'s; mesh sizes do not enter it
    levels = [np.ravel_multi_index(tuple(np.asarray(sites, dtype=np.intp).reshape(-1, M).T), npts)
              for sites in MeshSpec((1.0,) * M, npts).levels()]
    need = producer >= 0
    if request is not None:
        # backward demand marking, one level at a time: a needed value marks
        # what its step reads at its source site
        reads = np.zeros((len(names), M, len(names)), dtype=bool)
        for c, (_, _, per_dir) in enumerate(signature):
            for j, read in enumerate(per_dir):
                reads[c, j, [names.index(r) for r in read]] = True
        need = np.zeros_like(need)
        need[[names.index(r) for r in request]] = True
        for sites in reversed(levels[1:]):
            comp, row = np.nonzero(need[:, sites] & (producer[:, sites] >= 0))
            j = producer[comp, sites[row]]
            pull, read = np.nonzero(reads[comp, j])
            need[read, (sites[row] - strides[j])[pull]] = True

    seq = np.concatenate(levels)
    # rows of every direction; k indexes seq, so sorting by k orders by (level, position)
    on = np.stack([(producer[:, seq] == j) & need[:, seq] for j in range(M)], axis=1)  # (comp, dir, site)
    j, k = np.nonzero(on.any(axis=0))
    mask = on[:, j, k].T
    order = np.lexsort((mask.argmax(axis=1), k))
    dirs, dst, mask = j[order], seq[k[order]], mask[order]
    src = dst - strides[dirs]
    level = np.repeat(np.arange(len(levels)), [len(sites) for sites in levels])[k[order]]
    bounds = np.flatnonzero(np.diff(level, prepend=-1, append=len(levels))).tolist()
    plan = []
    dirs, src, dst = _read_only(dirs, src, dst)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        used = np.flatnonzero(mask[lo:hi].any(axis=0))
        cols = used[np.argsort([names[c] for c in used], kind="stable")]
        # the call's source table: its distinct source sites, each by its first row, and the source of each row
        _, first, inv = np.unique(src[lo:hi], return_index=True, return_inverse=True)
        own, first, inv = _read_only(mask[lo:hi, cols].copy(), first, inv.copy())
        plan.append((tuple(names[c] for c in cols), dirs[lo:hi], src[lo:hi], dst[lo:hi], own, _SourceTable(first, inv)))
    return tuple(plan)


def goursat_solve(
    system: HyperbolicSystem,
    mesh: MeshSpec,
    data: Mapping[str, np.ndarray | Callable],
    request: Sequence[str] | None = None,
) -> dict[str, LatticeField]:
    """Fill the box from Goursat data on the static subspaces.

    data[name] is an array indexed by the static directions of the component
    (in increasing direction order), with the component's value shape trailing;
    scalars are broadcast.  Values are produced by pulling each unknown from
    the lowest evolution direction with a positive coordinate, so the output
    does not depend on the site enumeration order.  Every value on level
    sum(idx) = k is read from level k - 1 only, so a level is filled by one
    step call: one row per (destination site, direction) pair that produces a
    value, with per-row directions, the union of the level's output names as
    `outputs`, each mapped to the mask of the rows that own it, the level's
    source table as `sources`, and each output scattered from its own rows
    only.

    Independent problems on the same box are solved in one fill.  A datum
    with one leading axis more than the static directions and the value
    shape, (B, *static, *shape), holds one datum per problem; a datum without
    it is shared by every problem.  Every stacked datum must agree on B, else
    ValueError.  The fields are then (*mesh.shape, B, *shape), problem b
    bitwise equal to the solve of its data alone.  The problem axis is folded
    into the plan's rows, not into the step rules: site s of problem b is flat
    row s B + b, each row of a level call becomes B rows, and the call's
    source table fans out alike, so every rule steps B times the rows through
    the same code path.  A solve without stacked data runs the one-problem
    plan (B = 1) and returns (*mesh.shape, *shape) fields.

    A step rule that raises is reported as DomainViolation carrying the
    source site (plain-float coordinates), the step direction and the cause
    of the first failure in fill order: sites in `MeshSpec.levels()` order,
    components in declaration order within a site, problems in order within a
    (site, direction) row; a failing folded row r is charged to the site of
    plan row r // B.  So a stacked solve names the first failure over all its
    problems in fill order, which need not be the first failing problem's.

    The solve is demand driven: when `request` names a subset of components,
    only the values those components transitively read (through the declared
    read sets) are computed; everything else stays nan.  This matters for
    transform layers, where the box contains sites whose would-be values
    describe a further transform that no requested output depends on.

    The schedule of step calls (the fill plan) is a pure function of the
    components' names, static directions and read sets, of `mesh.npts`, of
    the set of requested names and of the problem count.  It is built once per
    such key, vectorised over the box (per level: row directions, source and
    destination sites, one output mask array and the source table), and kept
    in a bounded, process-local LRU cache; a solve then only gathers, steps
    and scatters on flat views of the fields.  Each call's source table keeps
    the tables the step rule compiles from the call (see HyperbolicSystem),
    so a rule's structure work is done once per plan as well.
    """
    if mesh.M != system.M:
        raise ValueError("mesh dimension does not match the system")
    comps = system.components
    if request is not None:
        unknown = set(request) - {c.name for c in comps}
        if unknown:
            raise ValueError(f"requested unknown components {sorted(unknown)}")
        request = tuple(sorted(set(request)))
    data = {comp.name: data[comp.name] for comp in comps}
    if any(callable(arr) for arr in data.values()):
        raise TypeError("callable data not supported; sample it on the static subspace")
    data = {name: np.asarray(arr, dtype=float) for name, arr in data.items()}
    stacked = {comp.name for comp in comps if data[comp.name].ndim == len(comp.static) + len(comp.shape) + 1}
    counts = {data[name].shape[0] for name in stacked}
    if len(counts) > 1:
        raise ValueError(f"stacked data disagree on the number of problems: {sorted(counts)}")
    B = counts.pop() if counts else 1
    lead = (B,) if stacked else ()    # the problem axis of the fields
    plan = _fill_plan(_signature(system), tuple(mesh.npts), request, B)

    full: dict[str, np.ndarray] = {}
    for comp in comps:
        full[comp.name] = np.full(mesh.shape + lead + comp.shape, np.nan)
        arr, k = data[comp.name], len(comp.static)
        stat_shape = tuple(mesh.npts[d] for d in comp.static)
        if comp.name in stacked:
            arr = np.moveaxis(np.broadcast_to(arr, lead + stat_shape + comp.shape), 0, k)
        else:
            arr = np.broadcast_to(arr, stat_shape + comp.shape)[(slice(None),) * k + (None,) * len(lead)]
        static = tuple(slice(None) if d in comp.static else 0 for d in range(mesh.M))
        full[comp.name][static] = arr

    flat = {comp.name: full[comp.name].reshape((-1,) + comp.shape) for comp in comps}
    for outputs, dirs, src, dst, mask, sources in plan:
        own = dict(zip(outputs, mask.T))
        try:
            out = system.step(dirs, {name: vals[src] for name, vals in flat.items()}, mesh.eps, outputs=own,
                              sources=sources)
        except DomainViolation:
            raise
        except Exception as exc:
            # rows are in fill order, so a gate's first failing row is the solve's first failure;
            # a call that fails outside a gate is charged to its first row
            row = getattr(exc, "row", None) or 0
            site = [int(i) for i in np.unravel_index(src[row] // B, mesh.shape)]
            raise DomainViolation(mesh.coords(site), int(dirs[row]), exc) from exc
        for name, rows in own.items():
            flat[name][dst[rows]] = out[name][rows]
    return {name: LatticeField(mesh, arr) for name, arr in full.items()}


@functools.lru_cache(maxsize=32)
def _cross_plan(M: int, statics: tuple):
    """Rows of `consistency_residual`: its two calls' directions, per component the first-call row each second-call
    row starts from (len(first): the corner) and the rows (i, j), (j, i), i < j, it is compared on, if any."""
    evolving = {name: set(range(M)) - set(static) for name, static in statics}
    first = [j for j in range(M) if any(j in e for e in evolving.values())]
    pairs = list(itertools.permutations(first, 2))
    starts = {name: np.array([first.index(i) if i in e else len(first) for i, _ in pairs], dtype=np.intp)
              for name, e in evolving.items()}
    compared = [(name, *np.array([[pairs.index((i, j)), pairs.index((j, i)), i, j] for i, j in pairs
                                  if i < j and {i, j} <= e], dtype=np.intp).T)
                for name, e in evolving.items() if len(e) > 1]
    return first, [j for _, j in pairs], starts, compared, tuple(name for name, *_ in compared)


def consistency_residual(system: HyperbolicSystem, vals: Mapping[str, np.ndarray], eps: Sequence[float]) -> float:
    """Cross-difference mismatch of the step rules on one elementary cube.

    For every component with two evolution directions i != j, builds the far corner value
    through both orders and returns the largest mismatch of the second difference quotients,
    i.e. the residual of the discrete consistency condition delta_j(f_{k,i}) = delta_i(f_{k,j});
    a nan mismatch gives nan.  It takes two step calls: the corner in every direction, then
    each once-shifted corner (keeping the values that do not evolve in its direction) in every
    other direction, asking only for the compared components.
    """
    vals = {k: np.asarray(v, dtype=float) for k, v in vals.items()}
    first, second, starts, compared, names = _cross_plan(system.M, tuple((c.name, c.static) for c in system.components))
    if not second:
        return 0.0
    once = system.step(np.array(first), vals, eps)
    start = {name: np.concatenate([once[name], v[None]])[starts[name]] if name in once and name in starts
             else np.broadcast_to(v, (len(second),) + v.shape) for name, v in vals.items()}
    far = system.step(np.array(second), start, eps, names)
    e = np.asarray(eps, dtype=float)
    return float(np.max(np.concatenate([[0.0], *(
        np.abs(far[name][ij] - far[name][ji]).reshape(len(ij), -1).max(axis=1) / (e[i] * e[j])
        for name, ij, ji, i, j in compared if name in far)])))
