"""Lattice boxes, shift/difference calculus and a generic Goursat-problem driver.

A mesh describes the box B(r) sampled with per-direction mesh sizes; trailing
"tail" directions have mesh size 1 and exactly two layers {0, 1} (these model
transforms of a net rather than sampled continuous directions).  First-order
hyperbolic systems declare, per dependent component, the static directions
(where Goursat data live) and a step rule; the driver fills the box level by
level, pulling each unknown from its lowest-index evolution direction, which
makes the result independent of the site enumeration order by construction.
"""

from __future__ import annotations

import itertools
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
    def box(cls, m: int, eps: float, r: float, tail: int = 0) -> "MeshSpec":
        """Uniform box: m directions of mesh eps on [0, r], plus tail transform layers."""
        npts = mesh_points(r, eps)
        return cls(
            eps=(eps,) * m + (1.0,) * tail,
            npts=(npts,) * m + (2,) * tail,
            tail=tail,
        )

    @property
    def M(self) -> int:
        return len(self.eps)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.npts

    def coords(self, idx: Sequence[int]) -> tuple[float, ...]:
        return tuple(i * e for i, e in zip(idx, self.eps))

    def axis_coords(self, direction: int) -> np.ndarray:
        return np.arange(self.npts[direction]) * self.eps[direction]

    def shrink(self, direction: int, by: int = 1) -> "MeshSpec":
        npts = list(self.npts)
        npts[direction] -= by
        if npts[direction] < 1:
            raise OutOfBounds("mesh exhausted in direction %d" % direction)
        return MeshSpec(self.eps, tuple(npts), self.tail)

    def levels(self):
        """Site indices grouped by level sum(idx); level order is the fill order."""
        maxlev = sum(n - 1 for n in self.npts)
        buckets: list[list[tuple[int, ...]]] = [[] for _ in range(maxlev + 1)]
        for idx in itertools.product(*(range(n) for n in self.npts)):
            buckets[sum(idx)].append(idx)
        return buckets


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

    Step contract.  A class that sets `batched = True` promises a step rule
    with leading batch axes: every value in `vals` carries the same leading
    shape in front of its component shape, and every output carries it too,
    row by row equal to a call on that row alone.  A domain gate that fails
    raises with `row` set to the flat index of the first failing entry (see
    `errors.raise_first`).  The Goursat driver then makes one step call per
    (level, direction, output set).  A scalar rule (`batched = False`, the
    default) receives one site per call through the same grouping, so
    user-defined per-site rules keep working unchanged.
    """

    M: int
    components: tuple[Component, ...]
    batched: bool = False

    def __init__(self, M: int, components: Sequence[Component]):
        self.M = M
        self.components = tuple(components)
        self._by_name = {c.name: c for c in self.components}
        if len(self._by_name) != len(self.components):
            raise SystemStructureError("duplicate component names")
        for c in self.components:
            evo = set(c.evolution(M))
            for j, reads in c.reads.items():
                if j not in evo:
                    raise SystemStructureError(f"{c.name} declares reads for non-evolution direction {j}")
                need = evo - {j}
                for name in reads:
                    other = self._by_name.get(name)
                    if other is None:
                        raise SystemStructureError(f"{c.name} reads unknown component {name}")
                    if not need <= set(other.evolution(M)):
                        raise SystemStructureError(
                            f"rule for {c.name} in direction {j} reads {name}, "
                            f"whose evolution directions do not cover {sorted(need)}"
                        )

    def component(self, name: str) -> Component:
        return self._by_name[name]

    def step(self, direction: int, vals: Mapping[str, np.ndarray], eps: Sequence[float],
             outputs: tuple[str, ...] | None = None):
        """Shifted values tau_j u_k; outputs restricts which components to produce."""
        raise NotImplementedError


def _producer_dirs(sites: np.ndarray, evolution: tuple[int, ...]) -> np.ndarray:
    """Per site, the lowest evolution direction with a positive index (-1 on
    the component's static subspace, where Goursat data live)."""
    out = np.full(len(sites), -1)
    for j in reversed(evolution):
        out[sites[:, j] > 0] = j
    return out


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
    step call per (direction, set of output components), batched over its
    source sites when the system is `batched`, one site per call otherwise.

    A step rule that raises is reported as DomainViolation carrying the
    source site (plain-float coordinates), the step direction and the cause
    of the first failure in fill order: sites in `MeshSpec.levels()` order,
    components in declaration order within a site.

    The solve is demand driven: when `request` names a subset of components,
    only the values those components transitively read (through the declared
    read sets) are computed; everything else stays nan.  This matters for
    transform layers, where the box contains sites whose would-be values
    describe a further transform that no requested output depends on.
    """
    if mesh.M != system.M:
        raise ValueError("mesh dimension does not match the system")
    comps = system.components
    names = [c.name for c in comps]
    if request is not None:
        unknown = set(request) - set(names)
        if unknown:
            raise ValueError(f"requested unknown components {sorted(unknown)}")
    evolutions = {c.name: c.evolution(mesh.M) for c in comps}
    levels = [np.array(sites, dtype=int).reshape(-1, mesh.M) for sites in mesh.levels()]

    # backward dependency marking: pull[(j, name)] flags the source sites whose
    # step in direction j must produce `name`; an undeclared read set is taken
    # as "reads all"
    marked = {c.name: np.full(mesh.shape, request is None or c.name in request) for c in comps}
    pull = {(j, c.name): np.zeros(mesh.shape, dtype=bool) for c in comps for j in evolutions[c.name]}
    for sites in reversed(levels[1:]):
        idx = tuple(sites.T)
        for comp in comps:
            evo = evolutions[comp.name]
            if not evo:
                continue
            need = marked[comp.name][idx]
            producer = _producer_dirs(sites, evo)
            for j in evo:
                rows = need & (producer == j)
                if not rows.any():
                    continue
                src = sites[rows]
                src[:, j] -= 1
                src_idx = tuple(src.T)
                pull[(j, comp.name)][src_idx] = True
                reads = comp.reads.get(j)
                for name in reads if reads is not None else names:
                    marked[name][src_idx] = True

    full: dict[str, np.ndarray] = {}
    for comp in comps:
        full[comp.name] = np.full(mesh.shape + comp.shape, np.nan)
        arr = data[comp.name]
        stat_shape = tuple(mesh.npts[d] for d in comp.static)
        if callable(arr):
            raise TypeError("callable data not supported; sample it on the static subspace")
        static = tuple(slice(None) if d in comp.static else 0 for d in range(mesh.M))
        full[comp.name][static] = np.broadcast_to(np.asarray(arr, dtype=float), stat_shape + comp.shape)

    order = {name: k for k, name in enumerate(names)}
    for sites in levels[1:]:
        failures = []
        for j in range(mesh.M):
            produced = [name for name in names if (j, name) in pull]
            has = sites[:, j] > 0
            if not produced or not has.any():
                continue
            dst = sites[has]
            src = dst.copy()
            src[:, j] -= 1
            src_idx = tuple(src.T)
            flags = np.stack([pull[(j, name)][src_idx] for name in produced], axis=1)
            patterns, group = np.unique(flags, axis=0, return_inverse=True)
            for g, pattern in enumerate(patterns):
                if not pattern.any():
                    continue
                outputs = tuple(sorted(name for name, on in zip(produced, pattern) if on))
                rows = np.flatnonzero(group.ravel() == g)
                failed = _fill(system, j, outputs, src[rows], dst[rows], full, mesh.eps)
                if failed is not None:
                    row, exc = failed
                    site_pos = int(np.flatnonzero(has)[rows[row]])
                    failures.append(((site_pos, min(order[n] for n in outputs)), src[rows[row]], j, exc))
        if failures:
            _, src, j, exc = min(failures, key=lambda f: f[0])
            if isinstance(exc, DomainViolation):
                raise exc
            raise DomainViolation(mesh.coords(src.tolist()), j, exc) from exc
    return {name: LatticeField(mesh, arr) for name, arr in full.items()}


def _fill(system, j, outputs, src, dst, full, eps):
    """Step the source sites `src` in direction j and write `outputs` at `dst`.

    Returns None, or (row, exception) for the first failing row."""
    if system.batched:
        calls = [(tuple(src.T), tuple(dst.T))]
    else:
        calls = [(tuple(s), tuple(d)) for s, d in zip(src.tolist(), dst.tolist())]
    for k, (src_idx, dst_idx) in enumerate(calls):
        try:
            out = system.step(j, {name: vals[src_idx] for name, vals in full.items()}, eps, outputs=outputs)
        except Exception as exc:
            # a batched call that fails outside a gate is charged to its first row
            return (getattr(exc, "row", None) or 0) if system.batched else k, exc
        for name in outputs:
            full[name][dst_idx] = out[name]
    return None


def consistency_residual(
    system: HyperbolicSystem,
    vals: Mapping[str, np.ndarray],
    eps: Sequence[float],
) -> float:
    """Cross-difference mismatch of the step rules on one elementary cube.

    For every component with two evolution directions i != j, builds the far
    corner value through both orders and returns the largest mismatch of the
    second difference quotients, i.e. the residual of the discrete consistency
    condition delta_j(f_{k,i}) = delta_i(f_{k,j}).
    """
    vals = {k: np.asarray(v, dtype=float) for k, v in vals.items()}
    evolutions = {c.name: set(c.evolution(system.M)) for c in system.components}
    worst = 0.0
    once: dict[int, Mapping[str, np.ndarray]] = {}
    for j in range(system.M):
        if any(j in e for e in evolutions.values()):
            once[j] = system.step(j, vals, eps)
    for i, j in itertools.combinations(sorted(once), 2):
        ui = {**vals, **once[i]}
        uj = {**vals, **once[j]}
        far_ij = system.step(j, ui, eps)
        far_ji = system.step(i, uj, eps)
        for comp in system.components:
            if {i, j} <= evolutions[comp.name] and comp.name in far_ij and comp.name in far_ji:
                d = np.max(np.abs(far_ij[comp.name] - far_ji[comp.name]))
                worst = max(worst, float(d) / (eps[i] * eps[j]))
    return worst
