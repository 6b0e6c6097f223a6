"""Test-only reference: the per-call Goursat driver that the compiled fill plan replaced.

`goursat_solve` and `_fill` below are the driver as it was before the plan:
demand marking, producer directions and `np.unique` grouping re-derived on
every call, one step call per (level, direction, set of output components).
The differential tests in test_goursat_plan.py hold the planned driver to
bitwise-equal fields, nan patterns and `DomainViolation` reports against it,
and its one call per level to rows (source site, direction, outputs) equal
to this driver's calls split into rows, in fill order.

`per_row` turns a system class into one whose step makes one call per row,
each with a plain int direction and the tuple of the row's own outputs, as
the per-site drivers did; the differential tests hold the batched step calls
of both drivers to it.

`problems` splits the data of a stacked solve (a leading problem axis) into
the data of its problems, and `by_problem` solves them one at a time: the
meaning of the problem axis that the planned driver's fold is held to.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from dlame.errors import DomainViolation
from dlame.lattice import HyperbolicSystem, LatticeField, MeshSpec, _fill_plan, _signature


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
    source sites.

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
    src_idx, dst_idx = tuple(src.T), tuple(dst.T)
    try:
        out = system.step(j, {name: vals[src_idx] for name, vals in full.items()}, eps, outputs=outputs)
    except Exception as exc:
        # a call that fails outside a gate is charged to its first row
        return getattr(exc, "row", None) or 0, exc
    for name in outputs:
        full[name][dst_idx] = out[name]
    return None


def per_row(cls):
    """Subclass of the system class `cls` whose step splits a call with rows on
    the leading axis of every value into one call per row: the row's direction
    as a plain int, its values, and the tuple of the outputs it owns (all of
    `outputs` unless they map names to masks), without a source table.  The
    results are stacked, nan in the rows that do not return a component; a
    failing call raises with `row` set to its row.  `calls` counts the
    one-row calls."""

    class PerRow(cls):
        calls = 0

        def step(self, direction, vals, eps, outputs=None, sources=None):
            n = len(next(iter(vals.values())))
            outs = []
            for r, j in enumerate(np.broadcast_to(direction, (n,)).tolist()):
                own = tuple(name for name in outputs if outputs[name][r]) if isinstance(outputs, Mapping) \
                    else outputs
                try:
                    outs.append(super().step(j, {name: v[r] for name, v in vals.items()}, eps, outputs=own))
                except Exception as exc:
                    exc.row = r
                    raise
                self.calls += 1
            names = [c.name for c in self.components if any(c.name in out for out in outs)]
            return {name: np.stack([np.asarray(out[name], dtype=float) if name in out
                                    else np.full(self.component(name).shape, np.nan) for out in outs])
                    for name in names}

    return PerRow


def problems(system, data):
    """Per problem, the data of a stacked solve; None when no datum carries a problem axis.  A
    datum with one leading axis more than its component's static directions and value shape
    holds one datum per problem; any other datum is shared by every problem."""
    stacked = {c.name for c in system.components if np.ndim(data[c.name]) == len(c.static) + len(c.shape) + 1}
    if not stacked:
        return None
    count = len(data[min(stacked)])
    return [{name: np.asarray(v)[b] if name in stacked else v for name, v in data.items()} for b in range(count)]


def by_problem(solve, system, mesh, data, request=None):
    """The problems of a stacked solve solved one at a time through solve(system, mesh, data,
    request) -> fields, their fields stacked on a problem axis after the mesh axes."""
    fields = [solve(system, mesh, single, request) for single in problems(system, data)]
    return {name: LatticeField(mesh, np.stack([f[name].values for f in fields], axis=mesh.M)) for name in fields[0]}


def plan_rows(system, mesh, request=None) -> int:
    """Rows of the fill plan of a solve: one per (destination site, direction) pair it steps."""
    key = None if request is None else tuple(sorted(set(request)))
    return sum(len(dirs) for _, dirs, *_ in _fill_plan(_signature(system), tuple(mesh.npts), key))


def record_systems(monkeypatch, module, name: str, cls) -> list:
    """Make `module.name` build `cls`; returns the list of the systems it builds."""
    systems = []

    def build(*args, **kwargs):
        systems.append(cls(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(module, name, build)
    return systems
