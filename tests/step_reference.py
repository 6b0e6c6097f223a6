"""Test-only reference: the step rules and the consistency check that the
shared step kernels and the two-call check replaced.

`ReferenceConjugateSystem.step` (with its `_cmatrix`) is `ConjugateSystem.step`
as it was when it re-packed its named scalar components on every call and
advanced each w in its own loop, and `shift_state` (with `_known_triples`) the
corner shift that scattered its block solutions into a dense grid.
`ReferenceFrameSurfaceSystem` steps the frame system with a single direction
per call through the frame kernels as they were (`np.delete` per call, the
reflection built per call).  `consistency_residual` is the check as it was
when it made one single-direction step call per shifted corner.  The
differential tests in test_step_kernel.py hold the new code to bitwise-equal
Goursat fields, nan patterns and step-call rows (the reference systems run
through the reference driver of goursat_reference.py), and to bitwise-equal
criterion-02 residuals, against them.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from dlame.clifford import Algebra
from dlame.conjugate import ConjugateSystem, CornerState, _shift_edges, cname, dcn_step_c
from dlame.config import TOL
from dlame.errors import DegenerateCircle, OutsideDomain, SqrtDomain, raise_first
from dlame.lattice import HyperbolicSystem
from dlame.orthogonal import FrameSurfaceSystem


class ReferenceConjugateSystem(ConjugateSystem):
    """ConjugateSystem with the step rule it had before the shared kernel."""

    def __init__(self, M: int, N: int, tail_dirs: tuple[int, ...] = ()):
        super().__init__(M, N, tail_dirs)
        self._cnames = {(i, j): cname(i + 1, j + 1) for i, j in itertools.permutations(range(M), 2)}

    def _cmatrix(self, vals) -> np.ndarray:
        M = self.M
        c = np.zeros(np.shape(vals["x"])[:-1] + (M, M))
        for (i, j), name in self._cnames.items():
            c[..., i, j] = vals[name]
        return c

    def step(self, direction: int, vals, eps, outputs=None, sources=None):
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
            if j not in (a, b) and wanted(self._cnames[a, b], self._cnames[b, a])
        ]
        if pairs:
            delta = dcn_step_c(c, eps, triple=[(j, a, b) for a, b in pairs],
                               tail_dirs=self.tail_dirs)
            for a, b in pairs:
                out[self._cnames[a, b]] = c[..., a, b] + eps[j] * delta[(j, a, b)]
                out[self._cnames[b, a]] = c[..., b, a] + eps[j] * delta[(j, b, a)]
        return out


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


def shift_state(state: CornerState, direction, eps, tail_dirs=()) -> CornerState:
    """Advance a corner state by one lattice step; entries that would need
    fresh Goursat data become nan.

    `direction` is an int or an int array that broadcasts against the batch
    axes of the state and of eps ((M,) or (..., M)); the result carries the
    broadcast batch shape, each entry stepped in its own direction.  The
    blocks of every triple that contains a requested direction and whose
    coefficients are known in every batch entry are solved in one
    `dcn_step_c` call, so shifting one corner in several directions at once
    solves each block once.
    """
    M = state.M
    a = np.asarray(direction)
    x, w, ea = _shift_edges(state, a, eps)
    dirs = set(np.ravel(a).tolist())
    triples = [t for t in sorted(_known_triples(state.c)) if dirs & set(t)]
    delta = dcn_step_c(state.c, eps, triple=triples, tail_dirs=tail_dirs) if triples else {}
    # delta_i c_pq on a dense (i, p, q) grid over the batch entries of delta,
    # nan where no block covers it
    shape = np.shape(next(iter(delta.values()), 0.0))
    D = np.full((M * M * M,) + shape, np.nan)
    if delta:
        D[[(i * M + p) * M + q for i, p, q in delta]] = np.array(list(delta.values()))
    iD = np.arange(math.prod(shape)).reshape(shape)
    c = state.c + ea[..., None] * D.reshape(M, M, M, -1)[a, :, :, iD]
    return CornerState(x, w, c)


def _known_triples(c: np.ndarray) -> set:
    """Sorted index triples whose six off-diagonal coefficients are known in
    every batch entry of c (..., M, M)."""
    known = np.all(~np.isnan(c), axis=tuple(range(c.ndim - 2))).tolist()
    return {
        t for t in itertools.combinations(range(len(known)), 3)
        if all(known[p][q] for p, q in itertools.permutations(t, 2))
    }


def _normal_sq(eps: float, beta: np.ndarray, skip: int) -> np.ndarray:
    """N_i^2 = 1 - eps^2/4 * sum_{k != skip} beta_k^2 over the batch axes."""
    beta = np.asarray(beta, dtype=float)
    return 1.0 - eps * eps / 4.0 * np.sum(np.delete(beta, skip, axis=-1) ** 2, axis=-1)


def _too_coarse(row):
    return SqrtDomain("mesh too coarse for the curvature of the data")


def _outside_admissible_set(row):
    return OutsideDomain("transform data left the admissible set (sum beta^2 >= 4)")


def normal_factor(eps: float, beta: np.ndarray, skip: int) -> np.ndarray:
    """N_i = sqrt(1 - eps^2/4 * sum_{k != skip} beta_k^2); raises SqrtDomain."""
    val = _normal_sq(eps, beta, skip)
    raise_first([(val <= 0.0, _too_coarse)])
    return np.sqrt(val)


def sigma_vector(alg: Algebra, d: int, eps: float, h, beta: np.ndarray, n_fac) -> np.ndarray:
    """Coordinates of Sigma_i = N_i e_d + (eps/2) sum beta_k e_k - eps h einf."""
    beta = np.asarray(beta, dtype=float)
    u = np.zeros(beta.shape[:-1] + (alg.dim,))
    u[..., : alg.n] = (eps / 2.0) * beta
    u[..., d - 1] = n_fac
    u += -eps * np.asarray(h, dtype=float)[..., None] * alg.einf
    return u


def _step_factor(alg: Algebra, d: int, eps: float, h, beta: np.ndarray, n_fac) -> np.ndarray:
    """Matrix R_{e_d} R_Sigma (..., dim, dim) of one frame step, L(tau psi) = L(psi) @ it.

    R_u = 2 u (eta u)^T - 1 is the matrix of `Algebra.reflect(u, .)`; R_{e_d}
    is diagonal, +1 in slot d and -1 elsewhere.
    """
    sig = sigma_vector(alg, d, eps, h, beta, n_fac)
    r_ed = np.full(alg.dim, -1.0)
    r_ed[d - 1] = 1.0
    return 2.0 * (r_ed * sig)[..., :, None] * (alg._metric * sig)[..., None, :] - np.diag(r_ed)


class ReferenceFrameSurfaceSystem(FrameSurfaceSystem):
    """FrameSurfaceSystem with the single-direction step rule and kernels it had
    before per-row directions."""

    def splitting_rhos(self, vals, eps):
        """(rho_12, rho_21, n, N_1, N_2) over the batch axes; checks all domain gates."""
        d1, d2 = self.dirs
        b1 = np.asarray(vals["b1"], dtype=float)
        b2 = np.asarray(vals["b2"], dtype=float)
        s = np.asarray(vals["split"], dtype=float)
        n1sq = _normal_sq(eps[0], b1, d1 - 1)
        n2sq = _normal_sq(eps[1], b2, d2 - 1)
        with np.errstate(invalid="ignore"):
            n1 = np.sqrt(n1sq)
            n2 = np.sqrt(n2sq)
        beta12 = b2[..., d1 - 1]
        beta21 = b1[..., d2 - 1]
        theta = 0.5 * np.sum(b1[..., self._rest] * b2[..., self._rest], axis=-1)
        e = eps[0]
        if self.splitting == "gamma":
            rho12 = e * n1 * beta12 - e * e / 2.0 * (theta - s)
            rho21 = e * n2 * beta21 - e * e / 2.0 * (theta + s)
        else:
            rho21 = e * s
            rho12 = n1 * beta12 + e * (n2 * beta21 - theta - s)
        nsq = 1.0 - rho12 * rho21
        raise_first([
            (n1sq <= 0.0, _too_coarse),
            (n2sq <= 0.0, _outside_admissible_set if self.splitting == "alpha" else _too_coarse),
            (nsq <= 0.0, lambda row: SqrtDomain("normalizer n^2 = 1 - rho12 rho21 left the positive domain")),
            (np.abs(-(rho12 + rho21) / 2.0 - 1.0) < TOL.line_circle,
             lambda row: DegenerateCircle("elementary circle degenerated to a line")),
        ])
        return rho12, rho21, np.sqrt(nsq), n1, n2

    def step(self, direction: int, vals, eps, outputs=None, sources=None):
        want = None if outputs is None else set(outputs)

        def wanted(*names):
            return want is None or any(nm in want for nm in names)

        # a = the step direction, b = the other one
        a, b = direction, 1 - direction
        ea, eb = eps[a], eps[b]
        h = [np.asarray(vals["h1"], dtype=float), np.asarray(vals["h2"], dtype=float)]
        beta = [np.asarray(vals["b1"], dtype=float), np.asarray(vals["b2"], dtype=float)]
        da = self.dirs[a]
        out = {}
        transport = wanted("h1", "h2", "b1", "b2")
        if transport:
            rho12, rho21, n, n1, n2 = self.splitting_rhos(vals, eps)
            rho_ab, n_a = (rho12, n1) if a == 0 else (rho21, n2)
        if wanted("psi"):
            n_step = n_a if transport else normal_factor(ea, beta[a], da - 1)
            out["psi"] = np.asarray(vals["psi"], dtype=float) @ _step_factor(
                self.alg, da, ea, h[a], beta[a], n_step)
        if transport:
            hb, bb, ba = h[b], beta[b], beta[a]
            out[f"h{b + 1}"] = hb + ea * (rho_ab / (eb * n) * h[a] + (1.0 - n) / (ea * n) * hb)
            new_b = bb.copy()
            new_b[..., da - 1] = bb[..., da - 1] + ea * (
                2.0 * n_a * rho_ab / (eps[0] * eps[1] * n) - (1.0 + n) / (ea * n) * bb[..., da - 1]
            )
            rest = self._rest
            new_b[..., rest] = bb[..., rest] + ea * (
                ((1.0 - n) / (ea * n))[..., None] * bb[..., rest]
                + (rho_ab / (eb * n))[..., None] * ba[..., rest]
            )
            out[f"b{b + 1}"] = new_b
        return out
