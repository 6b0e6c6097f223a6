"""Discrete orthogonal systems in the Clifford frame formalism.

The two-dimensional frame system evolves an adapted frame psi together with
metric coefficients h_i and rotation coefficients beta_{ki}:

    tau_i psi = (N_i - (eps_i/2) sum_k beta_{ki} e_k e_{d_i}
                     + eps_i h_i einf e_{d_i}) psi,
    N_i^2 = 1 - (eps_i^2/4) sum_{k != d_i} beta_{ki}^2,

with the h/beta transport driven by auxiliary quantities rho_{12}, rho_{21}
obtained from a splitting of the circularity constraint:

  * surface splitting ("gamma"):  rho_12 = eps N_1 b_12 - (eps^2/2)(Theta - g),
                                  rho_21 = eps N_2 b_21 - (eps^2/2)(Theta + g);
  * transform splitting ("alpha"): rho_21 = eps a,
                                   rho_12 = N_1 b_12 + eps (N_2 b_21 - Theta - a),

where Theta = (1/2) sum_{k notin {d1,d2}} beta_{k1} beta_{k2}.

The solver uses psi only through its adjoint action v -> psi^{-1} v psi, so it
stores the Lorentz matrix L = L(psi) of that action (`Algebra.frame_matrix`),
shape (..., N+2, N+2).  The frame step above becomes

    L(tau_i psi) = L(psi) R_{e_{d_i}} R_{Sigma_i},   R_u v = 2<u, v> u - v,
    Sigma_i = N_i e_{d_i} + (eps_i/2) sum_k beta_{ki} e_k - eps_i h_i einf,

and points are read off as the Euclidean drop of L e0.  The frame never feeds
back into h, beta and the splitting, so a surface solve fills those with the
Goursat driver and transports the frame afterwards.  Higher-dimensional
orthogonal systems are assembled from their coordinate surfaces and propagated
as conjugate nets; concircularity of the bulk is then a theorem, not an
imposed equation, and is verified a posteriori.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circles import circularity_residual_batch, point_on_circumcircle
from .clifford import Algebra
from .config import TOL
from .conjugate import cname, extract_rotation_coeffs, quad_stack, solve_conjugate_net
from .curves import SmoothCurve
from .errors import (
    ConfigError,
    DegenerateBasis,
    DegenerateCircle,
    DLameError,
    DomainViolation,
    FrameDrift,
    ImmersionFailure,
    OutsideDomain,
    SqrtDomain,
    raise_first,
)
from .lattice import Component, HyperbolicSystem, LatticeField, MeshSpec, goursat_solve, mesh_points

__all__ = [
    "FrameSurfaceSystem",
    "CurveData",
    "DiscreteCurve",
    "CSurfaceData",
    "CSurfaceResult",
    "read_off_curve",
    "canonical_discretization",
    "csurface_solve",
    "orthosys_assemble",
    "OrthoSurfaceSpec",
    "OrthosysResult",
    "ribaucour_solve",
    "RibaucourResult",
    "ribaucour_pair_3d",
    "iterated_ribaucour_net",
    "frame_points",
    "lame_residuals",
    "quad_stack",
    "enveloping_residual",
]


# -- frame stepping kernels ---------------------------------------------------
#
# Every kernel takes leading batch axes on its per-site arguments (h, beta,
# n_fac, the splitting field and the frame L); mesh sizes and directions are
# shared unless a kernel says otherwise.


@functools.lru_cache(maxsize=None)
def _slots(n: int):
    """Per slot s of an n-vector: s one-hot, the others, R_{e_(s+1)}'s diagonal as a vector and a matrix."""
    onehot = np.eye(n, dtype=bool)
    r_e = np.where(onehot, 1.0, -1.0)
    return onehot, ~onehot, r_e, np.where(onehot, r_e[:, None, :], 0.0)


def _normal_sq(eps, beta: np.ndarray, skip) -> np.ndarray:
    """N_i^2 = 1 - eps^2/4 * sum_{k != skip} beta_k^2 over the batch axes; eps, skip may be per row."""
    beta = np.asarray(beta, dtype=float)
    keep = _slots(beta.shape[-1])[1][skip]
    if keep.ndim == 1:
        kept = beta[..., keep]
    else:  # per-row slots: the mask takes the batch shape of beta, which skip broadcasts against
        if keep.shape != beta.shape:
            keep = np.broadcast_to(keep, beta.shape)
        kept = beta[keep].reshape(keep.shape[:-1] + (-1,))
    return 1.0 - eps * eps / 4.0 * (kept ** 2).sum(axis=-1)


def _too_coarse(row):
    return SqrtDomain("mesh too coarse for the curvature of the data")


def _outside_admissible_set(row):
    return OutsideDomain("transform data left the admissible set (sum beta^2 >= 4)")


def normal_factor(eps, beta: np.ndarray, skip, checks=()) -> np.ndarray:
    """N_i = sqrt(1 - eps^2/4 * sum_{k != skip} beta_k^2); raises SqrtDomain, then the `raise_first` `checks`."""
    val = _normal_sq(eps, beta, skip)
    raise_first([(~(val > 0.0), _too_coarse), *checks])
    return np.sqrt(val)


def _put(u: np.ndarray, slot, value) -> np.ndarray:
    """u with u[..., slot] = value; slot an int array that broadcasts against u's batch axes."""
    return np.where(_slots(u.shape[-1])[0][slot], np.asarray(value)[..., None], u)


def sigma_vector(alg: Algebra, d, eps, h, beta: np.ndarray, n_fac) -> np.ndarray:
    """Sigma_i = N_i e_d + (eps/2) sum beta_k e_k - eps h einf; d and eps may be per entry."""
    beta = np.asarray(beta, dtype=float)
    eps = np.asarray(eps, dtype=float)[..., None]
    u = np.zeros(beta.shape[:-1] + (alg.dim,))
    u[..., : alg.n] = (eps / 2.0) * beta
    u = _put(u, d - 1, n_fac)
    u += -eps * np.asarray(h, dtype=float)[..., None] * alg.einf
    return u


def _step_factor(alg: Algebra, d, eps, h, beta: np.ndarray, n_fac) -> np.ndarray:
    """Matrix R_{e_d} R_Sigma (..., dim, dim) of one frame step, L(tau psi) = L(psi) @ it.

    R_u = 2 u (eta u)^T - 1 is the matrix of `Algebra.reflect(u, .)`; R_{e_d}
    is diagonal, +1 in slot d and -1 elsewhere.  d and eps may be per entry.
    """
    sig = sigma_vector(alg, d, eps, h, beta, n_fac)
    _, _, r_e, diag = _slots(alg.dim)
    slot = d - 1
    return 2.0 * (r_e[slot] * sig)[..., :, None] * (alg._metric * sig)[..., None, :] - diag[slot]


def _transport(alg: Algebra, frames: np.ndarray, d: int, eps: float, h: np.ndarray, beta: np.ndarray) -> None:
    """Fill frames[s + 1] = frames[s] F_s from the start frames[0], F_s the step in the
    Clifford direction d with coefficients h[s], beta[s]; further batch axes are lines
    transported side by side.  Raises SqrtDomain where N_d^2 <= 0, before any write."""
    step = _step_factor(alg, d, eps, h, beta, normal_factor(eps, beta, d - 1))
    for s in range(len(step)):
        frames[s + 1] = frames[s] @ step[s]


class FrameSurfaceSystem(HyperbolicSystem):
    """Hyperbolic form of the two-dimensional discrete orthogonal system.

    Lattice direction a (0 or 1) carries the Clifford label dirs[a]; `psi`
    holds the frame as its Lorentz matrix L(psi), shape (dim, dim); `split`
    holds the gamma (surface) or alpha (transform) splitting field, static in
    both directions.
    """

    def __init__(self, alg: Algebra, dirs=(1, 2), splitting: str = "gamma"):
        if splitting not in ("gamma", "alpha"):
            raise ValueError("splitting must be 'gamma' or 'alpha'")
        self.alg = alg
        self.dirs = tuple(dirs)
        self.splitting = splitting
        # coefficient slots outside both lattice directions
        self._rest = np.ones(alg.n, dtype=bool)
        self._rest[[d - 1 for d in self.dirs]] = False
        comps = [
            Component("psi", (alg.dim, alg.dim), (), {0: ("psi", "h1", "b1"), 1: ("psi", "h2", "b2")}),
            Component("h1", (), (0,), {1: ("h1", "h2", "b1", "b2", "split")}),
            Component("h2", (), (1,), {0: ("h1", "h2", "b1", "b2", "split")}),
            Component("b1", (alg.n,), (0,), {1: ("b1", "b2", "split")}),
            Component("b2", (alg.n,), (1,), {0: ("b1", "b2", "split")}),
            Component("split", (), (0, 1), {}),
        ]
        super().__init__(2, comps)

    def splitting_rhos(self, vals, eps, rows=True, checks=()):
        """(rho_12, rho_21, n, N_1, N_2) over the batch axes; checks every domain gate in the
        entries `rows` (True: all, or a boolean mask over the batch axes), and the `raise_first`
        checks `checks` with them."""
        d1, d2 = self.dirs
        b1 = np.asarray(vals["b1"], dtype=float)
        b2 = np.asarray(vals["b2"], dtype=float)
        s = np.asarray(vals["split"], dtype=float)
        n1sq = _normal_sq(eps[0], b1, d1 - 1)
        n2sq = _normal_sq(eps[1], b2, d2 - 1)
        beta12 = b2[..., d1 - 1]
        beta21 = b1[..., d2 - 1]
        theta = 0.5 * (b1[..., self._rest] * b2[..., self._rest]).sum(axis=-1)
        e = eps[0]
        # a non-finite or out-of-domain entry gives nan here, which its gate reports
        with np.errstate(invalid="ignore", over="ignore"):
            n1 = np.sqrt(n1sq)
            n2 = np.sqrt(n2sq)
            if self.splitting == "gamma":
                rho12 = e * n1 * beta12 - e * e / 2.0 * (theta - s)
                rho21 = e * n2 * beta21 - e * e / 2.0 * (theta + s)
            else:
                rho21 = e * s
                rho12 = n1 * beta12 + e * (n2 * beta21 - theta - s)
            nsq = 1.0 - rho12 * rho21
            gates = [
                (~(n1sq > 0.0), _too_coarse),
                (~(n2sq > 0.0), _outside_admissible_set if self.splitting == "alpha" else _too_coarse),
                (~(nsq > 0.0), lambda row: SqrtDomain("normalizer n^2 = 1 - rho12 rho21 left the positive domain")),
                (~(np.abs(-(rho12 + rho21) / 2.0 - 1.0) >= TOL.line_circle),
                 lambda row: DegenerateCircle("elementary circle degenerated to a line")),
            ]
        if rows is not True:  # the entries outside `rows` are not gated, and their n may be garbage
            gates, nsq = [(bad & rows, err) for bad, err in gates], np.where(rows, nsq, 1.0)
        raise_first([*gates, *checks])
        return rho12, rho21, np.sqrt(nsq), n1, n2

    def step(self, direction, vals, eps, outputs=None, sources=None):
        """Step each entry in its direction (an int array that broadcasts against the batch
        axes); h_i and b_i hold nan in the entries stepping in direction i.  An entry is gated
        on the splitting if it owns h or b, else on N_a^2 > 0, then on the h it reads being
        finite.  The rule has no per-site work to share, so it ignores `sources`."""
        want = {"psi", "h1", "h2", "b1", "b2"} if outputs is None else set(outputs)
        # a = the step direction, b = the other one; first: the entries with a = 0
        a, e = np.asarray(direction), np.asarray(eps, dtype=float)
        ea, eb = e[a], e[1 - a]
        h1, h2, b1, b2 = (np.asarray(vals[name], dtype=float) for name in ("h1", "h2", "b1", "b2"))
        (d1, d2), first = self.dirs, a == 0

        def pick(v1, v2, k=0):
            return np.where(first[(...,) + (None,) * k], v1, v2)

        h_a, beta_a, slot, hb = pick(h1, h2), pick(b1, b2, 1), pick(d1 - 1, d2 - 1), pick(h2, h1)
        out, checks = {}, []
        if not (np.isfinite(h_a).all() and np.isfinite(hb).all()):
            # a row reads h_a if it owns psi or h, and h_b if it owns h
            own = {name: outputs[name] if isinstance(outputs, Mapping) else True for name in want}
            own_h = own.get("h1", False) | own.get("h2", False)
            checks.append(((own_h | own.get("psi", False)) & ~np.isfinite(h_a) | own_h & ~np.isfinite(hb),
                           lambda row: ImmersionFailure("metric coefficient h is not finite")))
        transport = not want.isdisjoint(("h1", "h2", "b1", "b2"))
        if transport:
            gated = True
            if "psi" in want and isinstance(outputs, Mapping):
                # the rows that own h or b are gated on the splitting, the others on N_a^2 > 0 alone
                gated = np.logical_or.reduce([outputs[name] for name in ("h1", "h2", "b1", "b2") if name in want])
                alone = outputs["psi"] & ~gated
                if alone.any():
                    checks.insert(0, (~(_normal_sq(ea, beta_a, slot) > 0.0) & alone, _too_coarse))
            rho12, rho21, n, n1, n2 = self.splitting_rhos(vals, eps, gated, checks)
            rho_ab, n_a = pick(rho12, rho21), pick(n1, n2)
        if "psi" in want:
            if not transport:
                n_a = normal_factor(ea, beta_a, slot, checks)
            out["psi"] = np.asarray(vals["psi"], dtype=float) @ _step_factor(self.alg, slot + 1, ea, h_a, beta_a, n_a)
        if transport:
            bb, bd = pick(b2, b1, 1), pick(b2[..., d1 - 1], b1[..., d2 - 1])
            r_ab, r_n = rho_ab / (eb * n), (1.0 - n) / (ea * n)
            new_h = hb + ea * (r_ab * h_a + r_n * hb)
            new_b = _put(bb, slot, bd + ea * (2.0 * n_a * rho_ab / (e[0] * e[1] * n) - (1.0 + n) / (ea * n) * bd))
            rest = self._rest
            new_b[..., rest] = bb[..., rest] + ea[..., None] * (
                r_n[..., None] * bb[..., rest] + r_ab[..., None] * beta_a[..., rest])
            # h_b and b_b evolve in direction a only
            for k, mine in enumerate((a != 0, first)):
                if mine.any():
                    out[f"h{k + 1}"] = np.where(mine, new_h, np.nan)
                    out[f"b{k + 1}"] = np.where(mine[..., None], new_b, np.nan)
        return out


# -- reading data off smooth curves -------------------------------------------


@dataclass
class CurveData:
    """Metric and rotation coefficients sampled along a curve."""

    t: np.ndarray       # (S,)
    h: np.ndarray       # (S,)
    beta: np.ndarray    # (S, N); column for the curve direction is zero


def _lift_nodes(alg: Algebra, curve: SmoothCurve, t: np.ndarray):
    """Lifted points, unit tangents v_d, transport vectors a and speeds h at the
    parameters t (K,) in one stacked evaluation; the first node of t that is not
    finite or whose speed vanishes raises."""
    x, dx, d2x = curve.x(t), curve.dx(t), curve.d2x(t)
    h = np.linalg.norm(dx, axis=-1)
    raise_first([
        (~(np.isfinite(x) & np.isfinite(dx) & np.isfinite(d2x)).all(axis=-1),
         lambda k: ImmersionFailure(f"curve is not finite at t={float(t[k])}")),
        (~(h >= 1e-12), lambda k: ImmersionFailure(f"curve speed vanished at t={float(t[k])}")),
    ])
    dh = np.sum(dx * d2x, axis=-1) / h
    c = np.sum(dx * dx, axis=-1) + np.sum(x * d2x, axis=-1)
    dxhat = alg.tangent_lift(x, dx)
    d2xhat = np.concatenate([d2x, -c[:, None], c[:, None]], axis=-1)
    vd = dxhat / h[:, None]
    a = d2xhat / h[:, None] - dxhat * (dh / h / h)[:, None]
    return alg.lift_point(x), vd, a, h


# the most substeps a read-off takes; the pi/320 read-off of the benchmark curve takes 488
_MAX_SUBSTEPS = 100_000


def read_off_curve(
    alg: Algebra,
    curve: SmoothCurve,
    psi0: np.ndarray,
    direction: int,
    samples: np.ndarray,
    substep: float | None = None,
) -> CurveData:
    """Integrate the orthonormal companion vectors along the curve and sample
    the metric coefficient h and the rotation coefficients beta_{k,direction}.

    psi0, a frame matrix L(psi), must be suited to the curve at t = 0 (it maps
    e0 to the lifted start point and e_direction to the unit tangent); its
    other columns are the companion vectors at the start.  Classical RK4 with
    per-step re-orthonormalization keeps the read-off error well below the
    O(eps) budget of the discretizations it feeds.

    The companion rows V obey the linear ODE V' = V B(t), B = -(eta a) v_d^T,
    so one RK4 substep is exactly V <- V P with
    P = I + dt/6 (C1 + 2 C2 + 2 C3 + C4), C1 = B(t), C2 = (I + dt/2 C1) B(t + dt/2),
    C3 = (I + dt/2 C2) B(t + dt/2), C4 = (I + dt C3) B(t + dt).  The projection
    off the lifted point, e_inf and v_d at the substep end is a right factor Pi
    too, and Gram-Schmidt a lower-triangular left factor with a positive
    diagonal; the two commute, so after substep k the rows are exactly
    GS(V_0 G_1 ... G_k) with G = P Pi.  Every lift, P and G comes from one
    stacked evaluation; only the running product runs substep by substep, and
    one Gram-Schmidt pass and one orthonormality gate cover every substep.
    The substeps are counted before any node is listed: more than
    _MAX_SUBSTEPS of them raise ConfigError.
    """
    samples = np.asarray(samples, dtype=float)
    if not np.isfinite(samples).all():
        raise ConfigError("samples must be finite")
    if substep is not None and not substep > 0.0:
        raise ConfigError(f"substep must be positive, got {substep!r}")
    d = direction
    others = [k for k in range(alg.n) if k != d - 1]
    if substep is None:
        gaps = np.diff(samples)[np.diff(samples) > 0]
        substep = float(np.min(gaps) / 4.0) if len(gaps) else 0.25

    # lift nodes in the order the integrator visits them: the start, the
    # samples at (or numerically before) it, then per later sample the
    # midpoint and end of each substep followed by the sample itself
    pre = 0
    while pre < len(samples) and samples[pre] <= 1e-14:
        pre += 1
    # substeps towards each later sample, counted before any node is listed
    targets = samples[pre:]
    with np.errstate(all="ignore"):  # an overflowing or nan count fails the cap
        counts = np.maximum(1.0, np.ceil((targets - np.concatenate([[0.0], targets[:-1]])) / substep - 1e-12))
    if not counts.sum() <= _MAX_SUBSTEPS:
        raise ConfigError(f"substep {substep!r} needs {counts.sum():.3g} substeps over the samples, "
                          f"more than {_MAX_SUBSTEPS}")
    times = [0.0, *samples[:pre]]
    sample_nodes = list(range(1, pre + 1))
    # sample_rows[i]: the number of substeps taken when sample i is read
    begin, mid, dts, sample_rows = [], [], [], [0] * pre
    t = 0.0
    for target, nsub in zip(targets, counts.astype(int).tolist()):
        dt = (target - t) / nsub
        for _ in range(nsub):
            begin.append(len(times) - 1 if mid else 0)
            mid.append(len(times))
            dts.append(dt)
            times += [t + dt / 2, t + dt]
            t += dt
        t = target
        sample_rows.append(len(dts))
        sample_nodes.append(len(times))
        times.append(target)

    times = np.array(times)
    xhat, vd, a, h = _lift_nodes(alg, curve, times)
    psi0 = np.asarray(psi0, dtype=float)
    if not np.isfinite(psi0).all():
        raise DegenerateBasis("initial frame is not finite")
    if np.max(np.abs(psi0 @ alg.e0 - xhat[0])) > 1e-8 * (1 + np.abs(xhat[0]).max()):
        raise DegenerateBasis("initial frame does not sit at the start of the curve")
    if np.max(np.abs(psi0[:, d - 1] - vd[0])) > 1e-8:
        raise DegenerateBasis("initial frame is not aligned with the curve tangent")

    eta = alg._metric
    eta_a = a * eta
    B = -eta_a[:, :, None] * vd[:, None, :]
    mid = np.array(mid, dtype=int)
    dt = np.array(dts)[:, None, None]
    eye = np.eye(alg.dim)
    C1 = B[begin]
    C2 = (eye + dt / 2 * C1) @ B[mid]
    C3 = (eye + dt / 2 * C2) @ B[mid]
    C4 = (eye + dt * C3) @ B[mid + 1]
    P = eye + dt / 6 * (C1 + 2 * C2 + 2 * C3 + C4)
    # G = P Pi: Pi projects off the lifted point and e_inf, then off v_d, at the substep end
    x_end, v_end = xhat[mid + 1], vd[mid + 1]
    off_point = eye + 2.0 * (eta * alg.einf)[:, None] * x_end[:, None, :] + 2.0 * (eta * x_end)[:, :, None] * alg.einf
    G = P @ off_point @ (eye - (eta * v_end)[:, :, None] * v_end[:, None, :])

    # V[k] = V_0 G_1 ... G_k, then Gram-Schmidt in place; W[k] = V[k] P_(k+1) is gated
    V = np.empty((len(G) + 1, len(others), alg.dim))
    V[0] = psi0[:, others].T
    with np.errstate(all="ignore"):  # values past a drift are garbage that the gate reports
        for k in range(len(G)):
            np.matmul(V[k], G[k], out=V[k + 1])
        for r in range(len(others)):
            for s in range(r):
                V[1:, r] -= alg.lorentz_dot(V[1:, r], V[1:, s])[:, None] * V[1:, s]
            V[1:, r] /= np.sqrt(alg.lorentz_dot(V[1:, r], V[1:, r]))[:, None]
        W = V[:-1] @ P
        drift = np.max(np.abs(W * eta @ np.swapaxes(W, -1, -2) - np.eye(len(others))), axis=(-2, -1))
    if not (drift <= 1e-6).all():
        raise FrameDrift("companion frame lost orthonormality")

    beta = np.zeros((len(samples), alg.n))
    beta[:, others] = -np.sum(V[sample_rows] * eta_a[sample_nodes][:, None, :], axis=-1)
    return CurveData(samples.copy(), h[sample_nodes], beta)


@dataclass
class DiscreteCurve:
    """Canonical discretization: lattice points with their adapted frames."""

    eps: float
    points: np.ndarray    # (R+1, N)
    frames: np.ndarray    # (R+1, dim, dim) frame matrices
    data: CurveData


def canonical_discretization(
    alg: Algebra,
    curve: SmoothCurve | None,
    psi0: np.ndarray,
    direction: int,
    eps: float,
    r: float,
    data: CurveData | None = None,
) -> DiscreteCurve:
    """Discrete curve driven by coefficients read off the smooth curve.

    Pre-sampled coefficients can be passed through `data` (closed-form
    oracles); the curve itself is then not consulted.
    """
    npts = mesh_points(r, eps)
    if data is None:
        if curve is None:
            raise ValueError("either a curve or pre-sampled data is required")
        data = read_off_curve(alg, curve, psi0, direction, np.arange(npts) * eps, substep=eps / 4.0)
    frames = np.empty((npts, alg.dim, alg.dim))
    frames[0] = psi0
    _transport(alg, frames, direction, eps, data.h[: npts - 1], data.beta[: npts - 1])
    return DiscreteCurve(eps, frame_points(alg, frames), frames, data)


# -- two-dimensional solves ----------------------------------------------------


@dataclass
class CSurfaceData:
    """Goursat data of a two-dimensional frame solve."""

    alg: Algebra
    psi0: np.ndarray
    eps: tuple[float, float]
    npts: tuple[int, int]
    dirs: tuple[int, int]
    h1: np.ndarray          # (n1,)
    b1: np.ndarray          # (n1, N)
    h2: np.ndarray          # (n2,)
    b2: np.ndarray          # (n2, N)
    split: np.ndarray       # (n1, n2)
    splitting: str = "gamma"


@dataclass
class CSurfaceResult:
    alg: Algebra
    mesh: MeshSpec
    dirs: tuple[int, int]
    splitting: str
    fields: dict[str, LatticeField]
    x: np.ndarray           # (n1, n2, N)


def csurface_solve(data: CSurfaceData) -> CSurfaceResult:
    """Solve the two-dimensional frame system from axis data and a splitting field.

    The metric and rotation coefficients h, beta form a closed system; the
    frame never feeds back into it and is transported afterwards, along the
    first row in the second direction and then along every column in the
    first one.  A surface solve (gamma splitting) fills h, beta with the
    Goursat driver, level by level.  A transform solve (alpha splitting)
    computes only the h1, b1 that frame steps read, by one recurrence along
    each transform layer (see `_coefficients`): values on the transform layer
    that would describe a second, unspecified transform are left nan instead
    of being propagated from placeholder data.

    A failed fill (DomainViolation) or transport (SqrtDomain) hands over to the
    level-by-level solve of frame, h and beta together, which reports the
    first failing (site, direction) in fill order.
    """
    alg = data.alg
    tail = 1 if data.splitting == "alpha" else 0
    if data.splitting == "gamma" and abs(data.eps[0] - data.eps[1]) > 1e-15:
        raise ValueError("the surface splitting assumes equal mesh sizes")
    mesh = MeshSpec(eps=data.eps, npts=data.npts, tail=tail)
    system = FrameSurfaceSystem(alg, dirs=data.dirs, splitting=data.splitting)
    goursat = {"psi": data.psi0, **{name: getattr(data, name) for name in ("h1", "b1", "h2", "b2", "split")}}
    (d1, d2), (e1, e2) = data.dirs, data.eps
    try:
        fields = _coefficients(system, mesh, goursat)
        psi, h1, b1, h2, b2 = (fields[name].values for name in ("psi", "h1", "b1", "h2", "b2"))
        _transport(alg, psi[0], d2, e2, h2[0, :-1], b2[0, :-1])
        _transport(alg, psi, d1, e1, h1[:-1], b1[:-1])
    except (DomainViolation, SqrtDomain):
        pass
    else:
        return CSurfaceResult(alg, mesh, data.dirs, data.splitting, fields, frame_points(alg, psi))
    # the solve stepping the frame with h and beta checks the same gates, the frame's N_a^2 > 0 in
    # the rows that own it, in fill order: it raises the first failure
    goursat_solve(system, mesh, goursat, request=("psi",) if data.splitting == "alpha" else None)
    raise AssertionError("the level-by-level solve passed a gate that failed")


def _coefficients(system: FrameSurfaceSystem, mesh: MeshSpec, data) -> dict[str, LatticeField]:
    """Fields of a frame solve with h and beta filled where the frame steps read them, psi
    holding its Goursat datum only.  The surface splitting fills h1, h2, b1, b2 on the
    whole box.  The transform splitting fills h1, b1 (and the h2, b2 they read) on the
    box minus its last base row, and keeps only its Goursat data on the rest: the Goursat
    driver's values, bitwise, with one step call per transform layer where the driver makes
    one per site.  `_carry` takes h2, b2 along the layer, then a step in direction 1 on all
    its sites gates them and fills the next layer's h1, b1.  A failure raises DomainViolation
    at the first failing site of its layer (the layer's first site if no gate names one)."""
    if system.splitting == "gamma":
        return goursat_solve(system, mesh, data, request=("h1", "h2", "b1", "b2"))
    fields, n = goursat_solve(system, mesh, data, request=()), mesh.npts[0] - 1
    v = {name: fields[name].values[:n] for name in ("h1", "h2", "b1", "b2", "split")}
    for j in range(mesh.npts[1] - 1 if n else 0):
        _carry(system, mesh.eps, *(v[name][:-1, j].tolist() for name in ("h1", "b1", "split")),
               v["h2"][:, j], v["b2"][:, j])
        try:
            out = system.step(1, {name: a[:, j] for name, a in v.items()}, mesh.eps, outputs=("h1", "b1"))
        except Exception as exc:  # charged as the Goursat driver charges a failed level call
            raise DomainViolation(mesh.coords((getattr(exc, "row", None) or 0, j)), 1, exc) from exc
        v["h1"][:, j + 1], v["b1"][:, j + 1] = out["h1"], out["b1"]
    return fields


def _carry(system: FrameSurfaceSystem, eps, h1, b1, split, h2: np.ndarray, b2: np.ndarray) -> None:
    """Fill h2[i + 1], b2[i + 1] from h2[i], b2[i] and the lists h1[i], b1[i], split[i] by the
    transform step in direction 0, on plain floats in the expression order of `splitting_rhos`
    and `step`.  The caller's step call gates every site; a square root or division out of its
    domain, where those gates fail, stops the fill and leaves nan."""
    (s1, s2), rest, (e1, e2) = (d - 1 for d in system.dirs), np.flatnonzero(system._rest).tolist(), map(float, eps)
    h, b = float(h2[0]), b2[0].tolist()
    for i, (ha, ba, s) in enumerate(zip(h1, b1, split)):
        sq1 = sq2 = theta = 0.0
        for k in range(len(b)):
            if k != s1:
                sq1 += ba[k] * ba[k]
            if k != s2:
                sq2 += b[k] * b[k]
        for k in rest:
            theta += ba[k] * b[k]
        try:
            n1, n2 = math.sqrt(1.0 - e1 * e1 / 4.0 * sq1), math.sqrt(1.0 - e2 * e2 / 4.0 * sq2)
            rho12 = n1 * b[s1] + e1 * (n2 * ba[s2] - 0.5 * theta - s)
            n = math.sqrt(1.0 - rho12 * (e1 * s))
            r_ab, r_n = rho12 / (e2 * n), (1.0 - n) / (e1 * n)
            b[s1] += e1 * (2.0 * n1 * rho12 / (e1 * e2 * n) - (1.0 + n) / (e1 * n) * b[s1])
        except (ValueError, ZeroDivisionError):
            return
        h += e1 * (r_ab * ha + r_n * h)
        for k in rest:
            b[k] += e1 * (r_n * b[k] + r_ab * ba[k])
        h2[i + 1], b2[i + 1] = h, b


def frame_points(alg: Algebra, psi_values: np.ndarray) -> np.ndarray:
    """Euclidean positions encoded by frame matrices (..., dim, dim) -> (..., N)."""
    return alg.drop_to_euclidean(psi_values @ alg.e0)


def lame_residuals(res: CSurfaceResult) -> dict[str, float]:
    """A-posteriori residuals of the frame-system invariants on a solved surface."""
    alg = res.alg
    d1, d2 = res.dirs
    system = FrameSurfaceSystem(alg, res.dirs, res.splitting)
    psi, h1, h2, b1, b2, split = (res.fields[name].values for name in ("psi", "h1", "h2", "b1", "b2", "split"))
    eps = res.mesh.eps

    rho12, rho21, nfac, N1, N2 = system.splitting_rhos({"b1": b1, "b2": b2, "split": split}, eps)
    sig1 = sigma_vector(alg, d1, eps[0], h1, b1, N1)
    sig2 = sigma_vector(alg, d2, eps[1], h2, b2, N2)
    # vhat_i = (e_i psi)^{-1} Sigma_i (e_i psi)
    v1 = (psi @ alg.reflect(alg.basis_vector(d1), sig1)[..., None])[..., 0]
    v2 = (psi @ alg.reflect(alg.basis_vector(d2), sig2)[..., None])[..., 0]
    xhat = psi @ alg.e0

    out = {}
    out["pin_drift"] = float(np.max(np.abs(psi @ alg.einf - alg.einf)))
    # frame residual tau_1 L - L R_{e_d1} R_Sigma1 at every interior site
    step = _step_factor(alg, d1, eps[0], h1[:-1], b1[:-1], N1[:-1])
    out["frame_residual"] = float(np.max(np.abs(psi[1:] - psi[:-1] @ step)))
    # edge law tau_1 xhat = xhat + eps h1 v1
    out["edge_law"] = float(np.max(np.abs(xhat[1:] - (xhat + eps[0] * h1[..., None] * v1)[:-1])))
    out["edge_law_2"] = float(np.max(np.abs(xhat[:, 1:] - (xhat + eps[1] * h2[..., None] * v2)[:, :-1])))
    # circularity constraint rho12 + rho21 + 2 <v1, v2> = 0
    out["rho_identity"] = float(np.max(np.abs(rho12 + rho21 + 2.0 * alg.lorentz_dot(v1, v2))))
    # normalizer law n^2 = 1 - rho12 rho21 holds by construction; rotation law:
    rot1 = nfac[:-1, :, None] * v2[1:] - (v2 + rho21[..., None] * v1)[:-1]
    rot2 = nfac[:, :-1, None] * v1[:, 1:] - (v1 + rho12[..., None] * v2)[:, :-1]
    out["rotation_law"] = float(max(np.max(np.abs(rot1)), np.max(np.abs(rot2))))
    out["sigma_unit"] = float(np.max(np.abs(alg.lorentz_dot(sig1, sig1) - 1.0)))
    out["circularity"] = float(np.max(circularity_residual_batch(quad_stack(res.x))))
    return out


# -- data preparation and assembly ---------------------------------------------


def suited_frame(alg: Algebra, x0: np.ndarray, tangents: list[np.ndarray], slots=None) -> np.ndarray:
    """Frame matrix L(psi) (dim, dim) at the Euclidean point x0 aligned with
    the given unit tangents."""
    xhat = alg.lift_point(np.asarray(x0, dtype=float))
    basis = [alg.tangent_lift(x0, t) for t in tangents]
    return alg.frame_matrix(alg.frame_from_adapted_basis(xhat, basis, slots=slots))


@dataclass
class OrthoSurfaceSpec:
    """Axis read-offs and splitting fields for a triple of coordinate surfaces."""

    alg: Algebra
    psi0: np.ndarray
    eps: float
    npts: int                       # sites per direction of the extended box
    axis: dict[int, CurveData]      # per Clifford label 1..3
    gamma: dict[tuple[int, int], np.ndarray]   # per pair (i < j): (npts, npts)
    x0: np.ndarray


@dataclass
class OrthosysResult:
    spec: OrthoSurfaceSpec
    surfaces: dict[tuple[int, int], CSurfaceResult]
    cdata: dict[tuple[int, int], np.ndarray]
    fields: dict[str, LatticeField]
    x: np.ndarray                   # (n, n, n, N)
    curves: dict[int, DiscreteCurve]


# Clifford labels of the three coordinate directions of an assembled system, and its coordinate surfaces
_LABELS = (1, 2, 3)
_PAIRS = tuple(itertools.combinations(_LABELS, 2))
# per coordinate surface (i, j): the beta slots of labels i, j and the third label, in that order
_RELABEL = np.array([[i - 1, j - 1, 5 - i - j] for i, j in _PAIRS])


def orthosys_assemble(spec: OrthoSurfaceSpec) -> OrthosysResult:
    """Assemble a three-dimensional discrete orthogonal system from its
    coordinate surfaces: solve each surface in frame form, read its conjugate
    coefficients off the quads, and propagate into the bulk as a conjugate net.
    In R^3 the three surfaces are solved as one problem stack; when that
    fails they are solved one at a time, so the error raised is the first
    failing surface's (in `itertools.combinations` order), at its first
    failure in fill order.
    """
    return _solve_bulk(spec, *_coordinate_surfaces(spec))


def _coordinate_surfaces(spec: OrthoSurfaceSpec):
    """The axis curves, coordinate surfaces and conjugate coefficients (cdata) of an assembled
    system (see orthosys_assemble), without its bulk."""
    alg = spec.alg
    eps = spec.eps
    npts = spec.npts            # includes one spare site for differences/quads

    curves = {}
    for i in _LABELS:
        curves[i] = canonical_discretization(
            alg, None, spec.psi0, i, eps, (npts - 1) * eps, data=spec.axis[i]
        )

    surfaces = cdata = None
    if alg.n == 3:
        try:
            surfaces, cdata = _stacked_surfaces(spec)
        except DLameError:
            pass  # solved one at a time, the surfaces raise the first failing surface's error
    if surfaces is None:
        surfaces, cdata = {}, {}
        for i, j in _PAIRS:
            data = CSurfaceData(alg=alg, psi0=spec.psi0, eps=(eps, eps), npts=(npts, npts), dirs=(i, j),
                                h1=spec.axis[i].h, b1=spec.axis[i].beta, h2=spec.axis[j].h, b2=spec.axis[j].beta,
                                split=spec.gamma[(i, j)])
            surf = csurface_solve(data)
            surfaces[(i, j)] = surf
            x = surf.x
            cdata[(i, j)], cdata[(j, i)] = extract_rotation_coeffs(
                x[:-1, :-1], x[1:, :-1], x[:-1, 1:], x[1:, 1:], eps, eps)
    return curves, surfaces, cdata


def _solve_bulk(spec: OrthoSurfaceSpec, curves, surfaces, cdata) -> OrthosysResult:
    """The assembled system of the given coordinate data, its bulk solved in full."""
    n = spec.npts - 1            # the requested box
    mesh = MeshSpec(eps=(spec.eps,) * 3, npts=(n,) * 3)
    fields = solve_conjugate_net(mesh, spec.x0, *_bulk_inputs(curves, cdata, spec.eps, n), N=spec.alg.n)
    return OrthosysResult(spec, surfaces, cdata, fields, fields["x"].values, curves)


def _stacked_surfaces(spec: OrthoSurfaceSpec):
    """The three coordinate surfaces (i, j) of a system in R^3 and their conjugate coefficients
    (cdata), bitwise equal to `csurface_solve` and `extract_rotation_coeffs` surface by surface.

    The (h, beta) system of a surface with Clifford directions (i, j) is that of the (1, 2)
    surface with the slots of beta relabelled (i, j, k) -> (1, 2, 3); every sum its steps take
    has at most two terms, so relabelling changes no bit.  One Goursat solve fills (h, beta)
    for the three surfaces as a problem stack, the frames are transported side by side, each
    in the directions of its own surface, and one `extract_rotation_coeffs` call covers the
    quads of all three.  Raises on the first failure over the three surfaces, which need not
    be the first failing surface's."""
    alg, eps, npts = spec.alg, spec.eps, spec.npts
    d1, d2 = np.array(_PAIRS).T
    data = {"psi": spec.psi0, "split": np.stack([spec.gamma[pair] for pair in _PAIRS])}
    for a, labels in ((1, d1), (2, d2)):
        data[f"h{a}"] = np.stack([spec.axis[d].h for d in labels])
        data[f"b{a}"] = np.stack([spec.axis[d].beta[:, slots] for d, slots in zip(labels, _RELABEL)])
    mesh = MeshSpec((eps, eps), (npts, npts))
    # (n, n, surface, ...) values, beta back in the slots of each surface
    v = {name: f.values for name, f in _coefficients(FrameSurfaceSystem(alg), mesh, data).items()}
    for name in ("b1", "b2"):
        v[name] = v[name][:, :, np.arange(3)[:, None], np.argsort(_RELABEL, axis=1)]
    _transport(alg, v["psi"][0], d2, eps, v["h2"][0, :-1], v["b2"][0, :-1])
    _transport(alg, v["psi"], d1, eps, v["h1"][:-1], v["b1"][:-1])
    v = {name: np.ascontiguousarray(np.moveaxis(arr, 2, 0)) for name, arr in v.items()}
    x = frame_points(alg, v["psi"])
    c_ij, c_ji = extract_rotation_coeffs(x[:, :-1, :-1], x[:, 1:, :-1], x[:, :-1, 1:], x[:, 1:, 1:], eps, eps)
    surfaces, cdata = {}, {}
    for s, (i, j) in enumerate(_PAIRS):
        surfaces[(i, j)] = CSurfaceResult(alg, mesh, (i, j), "gamma",
                                          {name: LatticeField(mesh, arr[s]) for name, arr in v.items()}, x[s])
        cdata[(i, j)], cdata[(j, i)] = c_ij[s], c_ji[s]
    return surfaces, cdata


def _bulk_inputs(curves: dict[int, DiscreteCurve], cdata, eps: float, n: int):
    """Goursat data (w_axis, c_data) of the three coordinate directions of an
    assembled system on the box of n sites per direction."""
    w_axis = {a: (curves[i].points[1:n + 1] - curves[i].points[:n]) / eps
              for a, i in enumerate(_LABELS)}
    c_in = {(a, b): cdata[(_LABELS[a], _LABELS[b])][:n, :n]
            for a, b in itertools.permutations(range(3), 2)}
    return w_axis, c_in


# -- Ribaucour transforms --------------------------------------------------------


@dataclass
class RibaucourResult:
    alg: Algebra
    result: CSurfaceResult
    x: np.ndarray          # (n1, 2, N): base curve and transform curve
    dirs: tuple[int, int]

    @property
    def base(self) -> np.ndarray:
        return self.x[:, 0]

    @property
    def transform(self) -> np.ndarray:
        return self.x[:, 1]


def ribaucour_data(
    alg: Algebra,
    axis: CurveData,
    alpha: np.ndarray,
    x0: np.ndarray,
    xplus0: np.ndarray,
    psi0: np.ndarray,
    dirs: tuple[int, int],
    eps: float,
) -> CSurfaceData:
    """Goursat data for a curve/transform pair from read-off data and a seed point."""
    d1, d2 = dirs
    h20 = float(np.linalg.norm(_finite_seed(xplus0) - np.asarray(x0)))
    if not h20 > 0:
        raise OutsideDomain("transform seed coincides with the curve start")
    # lifted edge direction (lambda(x+) - lambda(x)) / |x+ - x|; it has no e0 part
    v2hat = (alg.lift_point(np.asarray(xplus0, dtype=float)) - alg.lift_point(np.asarray(x0, dtype=float))) / h20
    b2 = np.zeros(alg.n)
    n2_expect = None
    for k in range(1, alg.n + 1):
        vk = psi0[:, k - 1]
        if k == d2:
            n2_expect = float(alg.lorentz_dot(v2hat, vk))
            continue
        b2[k - 1] = -2.0 * float(alg.lorentz_dot(v2hat, vk))
    if not float(np.sum(b2 ** 2)) < 4.0:
        raise OutsideDomain("transform data left the admissible set (sum beta^2 >= 4)")
    if n2_expect is not None and not n2_expect >= 0:
        raise OutsideDomain(
            "transform direction points against the frame slot; re-suit the frame"
        )
    n1 = len(axis.h)
    split = np.broadcast_to(np.asarray(alpha, dtype=float)[:, None], (n1, 2)).copy()
    return CSurfaceData(
        alg=alg,
        psi0=psi0,
        eps=(eps, 1.0),
        npts=(n1, 2),
        dirs=dirs,
        h1=axis.h,
        b1=axis.beta,
        h2=np.full(2, h20),
        b2=np.broadcast_to(b2, (2, alg.n)).copy(),
        split=split,
        splitting="alpha",
    )


def _finite_seed(xplus0) -> np.ndarray:
    """The transform seed as a float array; raises OutsideDomain when it is not finite."""
    seed = np.asarray(xplus0, dtype=float)
    if not np.isfinite(seed).all():
        raise OutsideDomain("transform seed is not finite")
    return seed


def ribaucour_solve(
    alg: Algebra,
    curve: SmoothCurve,
    alpha_fn,
    xplus0: np.ndarray,
    eps: float,
    r: float,
    psi0: np.ndarray | None = None,
    dirs: tuple[int, int] = (1, 2),
    axis: CurveData | None = None,
) -> RibaucourResult:
    """Discrete curve pair enveloping a circle congruence.

    alpha_fn(t) prescribes the splitting function along the curve; xplus0 is
    the seed of the transform curve.  When psi0 is omitted a suited frame is
    built whose second slot leans towards the transform direction, which fixes
    the positive branch of N_2.
    """
    d1, d2 = dirs
    xplus0 = _finite_seed(xplus0)
    npts = mesh_points(r, eps)
    t = np.arange(npts) * eps
    x0 = np.asarray(curve.x(0.0), dtype=float)
    dx0 = np.asarray(curve.dx(0.0), dtype=float)
    t1 = dx0 / np.linalg.norm(dx0)
    if psi0 is None:
        u2 = np.asarray(xplus0, dtype=float) - x0
        norm = np.linalg.norm(u2)
        if norm == 0:
            raise OutsideDomain("transform seed coincides with the curve start")
        u2 = u2 / norm
        w = u2 - (u2 @ t1) * t1
        nw = np.linalg.norm(w)
        if nw < 1e-10:
            raise OutsideDomain("transform seed lies along the tangent line")
        if alg.n == 2:
            # orientation pins the normal slot; wrong-side seeds trip the data gate
            w = np.array([-t1[1], t1[0]])
            nw = 1.0
        psi0 = suited_frame(alg, x0, [t1, w / nw], slots=[d1, d2])
    if axis is None:
        axis = read_off_curve(alg, curve, psi0, d1, t, substep=eps / 4.0)
    alpha = np.asarray([alpha_fn(tt) for tt in t], dtype=float)
    data = ribaucour_data(alg, axis, alpha, x0, xplus0, psi0, dirs, eps)
    res = csurface_solve(data)
    return RibaucourResult(alg, res, res.x, dirs)


def enveloping_residual(base: np.ndarray, transform: np.ndarray, eps: float) -> float:
    """Defect of the circle-congruence enveloping condition of a curve pair.

    Discretization of (d x+ / |d x+| + d x / |d x|) . (x+ - x) / |x+ - x|.
    """
    db = (base[1:] - base[:-1]) / eps
    dt = (transform[1:] - transform[:-1]) / eps
    db = db / np.linalg.norm(db, axis=1, keepdims=True)
    dt = dt / np.linalg.norm(dt, axis=1, keepdims=True)
    mid = transform[:-1] - base[:-1]
    mid = mid / np.linalg.norm(mid, axis=1, keepdims=True)
    return float(np.max(np.abs(np.sum((db + dt) * mid, axis=1))))


def _pair_coeffs(pair: RibaucourResult, n: int, eps: float):
    """(c_iM, c_Mi) on the first n quads between a curve and its transform,
    shaped (n, 1) to broadcast over the two transform layers."""
    x, xt = pair.base, pair.transform
    c_iM, c_Mi = extract_rotation_coeffs(x[:n], x[1:n + 1], xt[:n], xt[1:n + 1], eps, 1.0)
    return c_iM[:, None], c_Mi[:, None]


def iterated_ribaucour_net(
    alg: Algebra,
    curve: SmoothCurve,
    alpha_fns,
    seeds,
    corner_angles,
    eps: float,
    r: float,
):
    """Curve with k = len(seeds) Ribaucour transforms and all their iterates.

    Transform a is the curve/transform pair solve with splitting alpha_fns[a]
    and seed seeds[a].  The corner of every two transforms a < b (in
    itertools.combinations order, one angle of corner_angles each) is placed
    on the circumcircle of the curve start and the two seeds, realizing one
    member of the one-parameter family; the rest of the k-dimensional
    transform cube is then determined by the lattice equations alone
    (permutability).  Returns the point field of shape (n,) + (2,) * k + (N,).
    """
    k = len(seeds)
    n = mesh_points(r, eps)
    pairs = [ribaucour_solve(alg, curve, alpha_fns[a], seeds[a], eps, r + eps) for a in range(k)]
    x0 = pairs[0].base[0]
    seeds = np.array(seeds, dtype=float)
    w_axis = {0: (pairs[0].base[1:n + 1] - pairs[0].base[:n]) / eps}
    c_in = {}
    for a, pair in enumerate(pairs):
        w_axis[a + 1] = seeds[a] - x0
        c_in[(0, a + 1)], c_in[(a + 1, 0)] = _pair_coeffs(pair, n, eps)
    corner_pairs = list(itertools.combinations(range(k), 2))
    if corner_pairs:
        first, second = np.array(corner_pairs).T
        corners = point_on_circumcircle(x0, seeds[first], seeds[second], corner_angles)
        c_ab, c_ba = extract_rotation_coeffs(x0, seeds[first], seeds[second], corners, 1.0, 1.0)
        for (a, b), cab, cba in zip(corner_pairs, c_ab, c_ba):
            c_in[(a + 1, b + 1)], c_in[(b + 1, a + 1)] = cab, cba
    mesh = MeshSpec(eps=(eps,) + (1.0,) * k, npts=(n,) + (2,) * k, tail=k)
    fields = solve_conjugate_net(mesh, x0, w_axis, c_in, N=alg.n, request=("x",))
    return fields["x"].values


def double_ribaucour_net(alg: Algebra, curve: SmoothCurve, alpha_fns, seeds,
                         corner_angle: float, eps: float, r: float):
    """Two Ribaucour transforms and their common iterate, shape (n, 2, 2, N)."""
    return iterated_ribaucour_net(alg, curve, alpha_fns, seeds, (corner_angle,), eps, r)


def triple_ribaucour_net(alg: Algebra, curve: SmoothCurve, alpha_fns, seeds,
                         corner_angles, eps: float, r: float):
    """Three Ribaucour transforms and all iterates, shape (n, 2, 2, 2, N)."""
    return iterated_ribaucour_net(alg, curve, alpha_fns, seeds, corner_angles, eps, r)


@dataclass
class RibaucourPair3D:
    """A Ribaucour transform of an assembled orthogonal system (see ribaucour_pair_3d).

    `base` is the tail-0 layer of the four-direction net: its x is bitwise the x of
    `orthosys_assemble(spec)`, and its fields hold the layer of each three-direction
    component, nan where the net's x request reads no value (most of w3: 83% at eps = 0.05)
    and bitwise the full bulk solve's value everywhere else."""

    base: OrthosysResult
    pairs: dict[int, RibaucourResult]
    fields: dict[str, LatticeField]
    x: np.ndarray          # (n, n, n, 2, N)


# the components of an assembled system's bulk, in the order of its conjugate system
_BULK_NAMES = ("x", *(f"w{i}" for i in _LABELS), *(cname(i, j) for i, j in itertools.permutations(_LABELS, 2)))


def ribaucour_pair_3d(
    spec: OrthoSurfaceSpec,
    alpha_fns: dict[int, object],
    xplus0: np.ndarray,
) -> RibaucourPair3D:
    """Ribaucour transform of an assembled orthogonal system.

    Per axis, a two-dimensional curve/transform solve supplies the transform
    coefficients; the four-directional conjugate net then propagates the
    transform layer across the bulk, and concircularity of all mixed quads is
    inherited from the coordinate data.

    The net's tail-0 layer is the assembled system's bulk, so the bulk is not
    solved on its own: `base` is read off that layer (see RibaucourPair3D).
    The net is solved for x alone, so, as on the transform layer, a value of
    the base that no x reads is neither computed nor gated: a failure confined
    to such values does not abort the pair, though it makes
    `orthosys_assemble(spec)` raise.  Errors keep the order of assembling the
    base first: after the coordinate surfaces, a library error (a transform
    solve's or the net's) is raised only when the full bulk solve succeeds;
    when that fails, its error is raised instead.
    """
    alg = spec.alg
    eps = spec.eps
    curves, surfaces, cdata = _coordinate_surfaces(spec)
    n = spec.npts - 1
    w_axis, c_in = _bulk_inputs(curves, cdata, eps, n)
    w_axis[3] = np.asarray(xplus0, dtype=float) - spec.x0
    pairs = {}
    try:
        for a, i in enumerate(_LABELS):
            d2 = _LABELS[(a + 1) % 3]
            alpha = np.asarray([alpha_fns[i](s * eps) for s in range(spec.npts)], dtype=float)
            data = ribaucour_data(alg, spec.axis[i], alpha, spec.x0, xplus0, spec.psi0, (i, d2), eps)
            res = csurface_solve(data)
            pairs[i] = RibaucourResult(alg, res, res.x, (i, d2))
            c_in[(a, 3)], c_in[(3, a)] = _pair_coeffs(pairs[i], n, eps)

        mesh = MeshSpec(eps=(eps,) * 3 + (1.0,), npts=(n,) * 3 + (2,), tail=1)
        fields = solve_conjugate_net(mesh, spec.x0, w_axis, c_in, N=alg.n, request=("x",))
    except DLameError:
        _solve_bulk(spec, curves, surfaces, cdata)  # the base's own error comes first
        raise
    mesh = MeshSpec(eps=(eps,) * 3, npts=(n,) * 3)
    layer = {name: LatticeField(mesh, fields[name].values[:, :, :, 0]) for name in _BULK_NAMES}
    base = OrthosysResult(spec, surfaces, cdata, layer, layer["x"].values, curves)
    return RibaucourPair3D(base, pairs, fields, fields["x"].values)
