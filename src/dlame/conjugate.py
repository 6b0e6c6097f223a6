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
from dataclasses import dataclass
from typing import NamedTuple

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
]


def cname(i: int, j: int) -> str:
    """Component name of the rotation coefficient c_{ij} (1-based indices)."""
    return f"c{i}_{j}"


# index tables of the 6x6 block over the permutations of one index triple:
# row (a, b, k) holds the equation for delta_a c_kb and couples to the rows
# (b, k, a) and (b, a, k); indices below are positions within the sorted triple
_PERMS = list(itertools.permutations(range(3)))
_P_INDEX = {p: r for r, p in enumerate(_PERMS)}
_ROW_A = np.array([p[0] for p in _PERMS])
_ROW_B = np.array([p[1] for p in _PERMS])
_ROW_K = np.array([p[2] for p in _PERMS])
_COL_BKA = np.array([_P_INDEX[(p[1], p[2], p[0])] for p in _PERMS])
_COL_BAK = np.array([_P_INDEX[(p[1], p[0], p[2])] for p in _PERMS])
_ROWS = np.arange(6)
# positions of the diagonal, (b, k, a) and (b, a, k) entries in a flattened block
_ENTRIES = np.concatenate([_ROWS * 7, _ROWS * 6 + _COL_BKA, _ROWS * 6 + _COL_BAK])


class _BlockPlan(NamedTuple):
    """Gather indices into the flattened (M*M) coefficient matrix for a set of
    triples, and the output keys of the solved blocks in row order."""

    block: np.ndarray          # (ntrip, 9): the 3x3 sub-matrix of each triple
    coeffs: np.ndarray         # (ntrip, 4, 6): c_ab, c_kb, c_ak, c_ka of every block row (a, b, k)
    eps_a: np.ndarray          # (ntrip, 6): direction index of eps_a / eps_b
    eps_b: np.ndarray
    tail_trip: np.ndarray      # per tail factor: triple position, c_{d,i}, c_{d,j}
    tail_i: np.ndarray
    tail_j: np.ndarray
    tail_msg: tuple[str, ...]
    keys: tuple[tuple[int, int, int], ...]


@functools.lru_cache(maxsize=None)
def _block_plan(M: int, triples: tuple, tail_dirs: tuple) -> _BlockPlan:
    T = np.array(triples).reshape(-1, 3)
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
    return _BlockPlan(
        block=(T[:, :, None] * M + T[:, None, :]).reshape(len(triples), 9),
        coeffs=np.stack([T[:, p] * M + T[:, q] for p, q in
                         ((_ROW_A, _ROW_B), (_ROW_K, _ROW_B), (_ROW_A, _ROW_K), (_ROW_K, _ROW_A))], axis=1),
        eps_a=T[:, _ROW_A],
        eps_b=T[:, _ROW_B],
        tail_trip=np.array(tail_trip, dtype=int),
        tail_i=np.array(tail_i, dtype=int),
        tail_j=np.array(tail_j, dtype=int),
        tail_msg=tuple(tail_msg),
        keys=keys,
    )


def dcn_step_c(c: np.ndarray, eps, triple=None, tail_dirs=()) -> dict:
    """Solve the implicit blocks for the difference quotients delta_a c_cb.

    c is an (..., M, M) array of rotation coefficients at the cube corner
    (diagonal ignored, 0-based) with any leading batch axes.  `triple` selects
    one unordered index triple, a list of them, or all (None); the blocks of
    every batch entry are assembled and factored as one stacked batch.
    Returns {(a, b, c): delta_a c_bc} with values over the batch axes,
    covering every ordered pair inside the requested triple(s).  Raises
    DegenerateHexahedron, carrying the first offending batch row, when a
    block determinant falls below tolerance, or when a tail-direction block
    has a vanishing admissibility factor 1 + c_{Mi}.
    """
    c = np.asarray(c, dtype=float)
    M = c.shape[-1]
    if triple is None:
        triples = itertools.combinations(range(M), 3)
    elif isinstance(triple[0], (int, np.integer)):
        triples = [triple]
    else:
        triples = triple
    triples = tuple(tuple(sorted(int(i) for i in t)) for t in triples)
    plan = _block_plan(M, triples, tuple(int(d) for d in tail_dirs))
    batch = c.shape[:-2]
    ntrip = len(triples)
    cf = c.reshape(batch + (M * M,))
    e = np.asarray(eps, dtype=float)
    g = cf[..., plan.coeffs]
    cab, ckb, cak, cka = g[..., 0, :], g[..., 1, :], g[..., 2, :], g[..., 3, :]
    eb = e[plan.eps_b]
    entries = np.concatenate([1.0 + e[plan.eps_a] * cab, 0.0 - eb * ckb, 0.0 - eb * cab], axis=-1)
    A = np.zeros(batch + (ntrip, 36))
    A[..., _ENTRIES] = entries
    A = A.reshape(batch + (ntrip, 6, 6))
    F = cak * ckb + cka * cab - ckb * cab
    scale = np.maximum(1.0, np.abs(entries).max(axis=-1))
    dets = np.abs(np.linalg.det(A))
    det_bad = dets < TOL.degeneracy * scale**6
    checks = []
    if plan.tail_msg:
        cmax = np.max(np.abs(cf[..., plan.block]), axis=-1)
        fac = (1.0 + cf[..., plan.tail_i]) * (1.0 + cf[..., plan.tail_j])
        tail_bad = np.abs(fac) < TOL.degeneracy * (1.0 + cmax[..., plan.tail_trip]) ** 2
        checks.append((tail_bad.any(axis=-1), lambda row: DegenerateHexahedron(
            plan.tail_msg[int(np.argmax(tail_bad.reshape(-1, len(plan.tail_msg))[row]))])))
    checks.append((det_bad.any(axis=-1), lambda row: DegenerateHexahedron(
        f"implicit block for triple "
        f"{triples[int(np.argmin((dets / scale**6).reshape(-1, ntrip)[row]))]} is singular")))
    raise_first(checks)
    delta = np.linalg.solve(A, F[..., None])[..., 0].reshape(batch + (-1,))
    return {key: delta[..., k] for k, key in enumerate(plan.keys)}


class ConjugateSystem(HyperbolicSystem):
    """Hyperbolic system of an M-dimensional discrete conjugate net in R^N."""

    batched = True

    def __init__(self, M: int, N: int, tail_dirs: tuple[int, ...] = ()):
        self.N = N
        self.tail_dirs = tuple(tail_dirs)
        comps = [
            Component(
                "x", (N,), (),
                {j: ("x", f"w{j + 1}") for j in range(M)},
            )
        ]
        for i in range(M):
            reads = {}
            for j in range(M):
                if j == i:
                    continue
                reads[j] = (f"w{i + 1}", f"w{j + 1}", cname(i + 1, j + 1), cname(j + 1, i + 1))
            comps.append(Component(f"w{i + 1}", (N,), (i,), reads))
        for i, j in itertools.permutations(range(M), 2):
            reads = {}
            for k in range(M):
                if k in (i, j):
                    continue
                tri = (i, j, k)
                reads[k] = tuple(cname(p + 1, q + 1) for p, q in itertools.permutations(tri, 2))
            comps.append(Component(cname(i + 1, j + 1), (), tuple(sorted((i, j))), reads))
        super().__init__(M, comps)

    def _cmatrix(self, vals) -> np.ndarray:
        M = self.M
        c = np.zeros(np.shape(vals["x"])[:-1] + (M, M))
        for i, j in itertools.permutations(range(M), 2):
            c[..., i, j] = vals[cname(i + 1, j + 1)]
        return c

    def step(self, direction: int, vals, eps, outputs=None):
        j = direction
        want = None if outputs is None else set(outputs)

        def wanted(*names):
            return want is None or any(n in want for n in names)

        c = self._cmatrix(vals)
        out = {}
        wj = np.asarray(vals[f"w{j + 1}"], dtype=float)
        if wanted("x"):
            out["x"] = np.asarray(vals["x"], dtype=float) + eps[j] * wj
        for i in range(self.M):
            if i == j or not wanted(f"w{i + 1}"):
                continue
            wi = np.asarray(vals[f"w{i + 1}"], dtype=float)
            out[f"w{i + 1}"] = wi + eps[j] * (c[..., i, j, None] * wj + c[..., j, i, None] * wi)
        pairs = [
            (a, b) for a, b in itertools.combinations(range(self.M), 2)
            if j not in (a, b) and wanted(cname(a + 1, b + 1), cname(b + 1, a + 1))
        ]
        if pairs:
            delta = dcn_step_c(c, eps, triple=[(j, a, b) for a, b in pairs],
                               tail_dirs=self.tail_dirs)
            for a, b in pairs:
                out[cname(a + 1, b + 1)] = c[..., a, b] + eps[j] * delta[(j, a, b)]
                out[cname(b + 1, a + 1)] = c[..., b, a] + eps[j] * delta[(j, b, a)]
        return out


@dataclass
class CornerState:
    """Values of (x, w, c) attached to one lattice vertex."""

    x: np.ndarray          # (N,)
    w: np.ndarray          # (M, N); rows that are unknown hold nan
    c: np.ndarray          # (M, M); diagonal and unknown entries hold nan

    @property
    def M(self) -> int:
        return self.w.shape[0]

    def copy(self) -> "CornerState":
        return CornerState(self.x.copy(), self.w.copy(), self.c.copy())


def shift_state(state: CornerState, direction: int, eps, tail_dirs=(), delta=None) -> CornerState:
    """Advance a corner state by one lattice step; entries that would need
    fresh Goursat data become nan.

    `delta` may carry the output of an earlier `dcn_step_c` call on the same
    state over the triples whose coefficients are all known (`_corner_blocks`),
    so callers that shift one corner in several directions solve each block
    once; the step then updates exactly the pairs that output covers.
    """
    a = direction
    x = state.x + eps[a] * state.w[a]
    w = state.w + eps[a] * (state.c[:, a, None] * state.w[a] + state.c[a, :, None] * state.w)
    w[a] = np.nan
    c = np.full_like(state.c, np.nan)
    pairs = itertools.combinations(range(state.M), 2)
    if delta is None:
        known = _known_triples(state.c)
        pairs = [(p, q) for p, q in pairs if a not in (p, q) and tuple(sorted((a, p, q))) in known]
        if pairs:
            delta = dcn_step_c(state.c, eps, triple=[(a, p, q) for p, q in pairs],
                               tail_dirs=tail_dirs)
    else:
        pairs = [(p, q) for p, q in pairs if (a, p, q) in delta]
    for p, q in pairs:
        c[p, q] = state.c[p, q] + eps[a] * delta[(a, p, q)]
        c[q, p] = state.c[q, p] + eps[a] * delta[(a, q, p)]
    return CornerState(x, w, c)


def hexahedron_algebraic(state: CornerState, eps) -> np.ndarray:
    """Far vertex of the elementary hexahedron through the first-order system."""
    if state.M != 3:
        raise ValueError("elementary hexahedron needs exactly three directions")
    s = shift_state(state, 0, eps)
    s = shift_state(s, 1, eps)
    s = shift_state(s, 2, eps)
    return s.x


def elementary_hexahedron(state: CornerState, eps) -> np.ndarray:
    """Far vertex as the intersection point of the three shifted face planes.

    Works in any ambient dimension by solving inside the three-space spanned
    by the corner edges.
    """
    if state.M != 3:
        raise ValueError("elementary hexahedron needs exactly three directions")
    basis, rdiag = np.linalg.qr(state.w.T)  # (N, 3) orthonormal span of the edges
    edge_scale = float(np.max(np.abs(rdiag)))
    if np.min(np.abs(np.diagonal(rdiag))) < 1e-10 * max(1.0, edge_scale):
        raise DegenerateHexahedron("corner edges do not span a three-space")
    delta = _corner_blocks(state, eps)
    shifted = [shift_state(state, a, eps, delta=delta) for a in range(3)]
    A = np.zeros((3, 3))
    rhs = np.zeros(3)
    for a in range(3):
        jj, kk = [d for d in range(3) if d != a]
        u = (basis.T @ shifted[a].w[jj]).tolist()
        v = (basis.T @ shifted[a].w[kk]).tolist()
        normal3 = np.array([
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ])
        norm = np.linalg.norm(normal3)
        if norm < 1e-300:
            raise DegenerateHexahedron("shifted face plane is degenerate")
        A[a] = normal3 / norm
        rhs[a] = A[a] @ (basis.T @ (shifted[a].x - state.x))
    scale = max(1.0, float(np.max(np.abs(A))))
    if abs(np.linalg.det(A)) < TOL.degeneracy * scale**3:
        raise DegenerateHexahedron("face planes are (nearly) parallel")
    y = np.linalg.solve(A, rhs)
    return state.x + basis @ y


def extract_rotation_coeffs(x, xi, xj, xij, eps_i: float, eps_j: float):
    """Invert the planarity relation on quadrilaterals (x, xi, xj, xij).

    The vertices are (..., N) arrays with any (broadcastable) leading batch
    axes.  Returns (c_ij, c_ji) over the batch axes, with
    delta_i delta_j x = c_ji delta_i x + c_ij delta_j x solved in the least
    squares sense through the SVD of the edge pair.  Raises DegenerateEdges
    or NonPlanarQuad, carrying the first offending batch row.
    """
    x, xi, xj, xij = (np.asarray(p, dtype=float) for p in (x, xi, xj, xij))
    di = (xi - x) / eps_i
    dj = (xj - x) / eps_j
    m = (xij - xi - xj + x) / (eps_i * eps_j)
    di, dj, m = np.broadcast_arrays(di, dj, m)
    scale = np.maximum(np.maximum(np.linalg.norm(di, axis=-1), np.linalg.norm(dj, axis=-1)), 1e-300)
    E = np.stack([di, dj], axis=-1)                     # (..., N, 2)
    u, sv, vt = np.linalg.svd(E, full_matrices=False)
    checks = [(sv[..., -1] < 1e-10 * scale,
               lambda row: DegenerateEdges("quadrilateral edges are collinear"))]
    if x.shape[-1] >= 3:
        planar = np.linalg.svd(np.stack([di, dj, m], axis=-1), compute_uv=False)[..., 2]
        checks.append((planar > TOL.planarity * np.maximum(scale, np.linalg.norm(m, axis=-1)),
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


def _known_triples(c: np.ndarray) -> set:
    """Sorted index triples whose six off-diagonal coefficients are all known."""
    known = (~np.isnan(c)).tolist()
    return {
        t for t in itertools.combinations(range(len(known)), 3)
        if all(known[p][q] for p, q in itertools.permutations(t, 2))
    }


def _corner_blocks(state: CornerState, eps) -> dict:
    """One dcn_step_c call over every triple whose coefficients are all known."""
    triples = sorted(_known_triples(state.c))
    return dcn_step_c(state.c, eps, triple=triples) if triples else {}


def check_4d_consistency(state: CornerState, eps) -> float:
    """Max pairwise distance between the four constructions of the 4-cube far vertex."""
    if state.M != 4:
        raise ValueError("the consistency check runs on four directions")
    delta = _corner_blocks(state, eps)
    far = []
    for lead in range(4):
        s = shift_state(state, lead, eps, delta=delta)
        rest = [d for d in range(4) if d != lead]
        sub = CornerState(s.x, s.w[rest], s.c[rest][:, rest])
        far.append(elementary_hexahedron(sub, [eps[d] for d in rest]))
    far = np.array(far)
    dists = [np.linalg.norm(a - b) for a, b in itertools.combinations(far, 2)]
    return float(max(dists))


def coplanarity_residual(points: np.ndarray) -> float:
    """Rank-2 residual of difference vectors among 4 points (smallest singular value)."""
    p = np.asarray(points, dtype=float)
    d = p[1:] - p[0]
    sv = np.linalg.svd(d, compute_uv=False)
    return float(sv[-1]) if len(sv) == 3 else 0.0


def net_planarity_residual(x: LatticeField, i: int, j: int) -> float:
    """Largest planarity defect over all elementary (i, j)-quads of a solved net."""
    vals = x.values
    sl = [slice(None)] * x.mesh.M

    def shifted(di, dj):
        s = list(sl)
        s[i] = slice(1, None) if di else slice(0, -1)
        s[j] = slice(1, None) if dj else slice(0, -1)
        return vals[tuple(s)]

    a, b, c, d = shifted(0, 0), shifted(1, 0), shifted(0, 1), shifted(1, 1)
    e1, e2, e3 = b - a, c - a, d - a
    E = np.stack([e1, e2, e3], axis=-2)  # (..., 3, N)
    sv = np.linalg.svd(E, compute_uv=False)
    scale = np.maximum(sv[..., 0], 1e-300)
    return float(np.max(sv[..., -1] / scale)) if E.shape[-1] >= 3 else 0.0
