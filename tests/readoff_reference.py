"""Test-only reference: the scalar curve read-off that the batched one replaced.

`_curve_lift` and `read_off_curve` below are the read-off as it was before the
batched solve: one scalar lift per RK4 node, the companion ODE right-hand side
evaluated four times per substep, then per substep the orthonormality gate, the
projection off the lifted point, e_inf and the tangent, and a per-row
Gram-Schmidt.  The batched read-off instead folds the projection into each
substep's propagator, keeps only the running product of those factors
sequential, and orthonormalizes and gates every substep in one pass, which
moves round-off.  The differential tests in test_readoff.py hold it to h and
beta within 1e-13 relative of this one, on short sample sets and on long runs
of up to 3,260 substeps, and to the same domain errors, a frame drift that
first fails mid-run included.  The fail-closed gates for non-finite curves and
frames are newer than this reference, which lets such input through.
"""

from __future__ import annotations

import math

import numpy as np

from dlame.clifford import Algebra
from dlame.curves import SmoothCurve
from dlame.errors import DegenerateBasis, FrameDrift, ImmersionFailure
from dlame.orthogonal import CurveData


def _curve_lift(alg: Algebra, curve: SmoothCurve, t: float):
    """Lifted point, velocity and acceleration with speed and its derivative."""
    x = np.asarray(curve.x(t), dtype=float)
    dx = np.asarray(curve.dx(t), dtype=float)
    d2x = np.asarray(curve.d2x(t), dtype=float)
    h = float(np.linalg.norm(dx))
    if h < 1e-12:
        raise ImmersionFailure(f"curve speed vanished at t={t}")
    dh = float(dx @ d2x) / h
    xhat = alg.lift_point(x)
    dxhat = alg.tangent_lift(x, dx)
    c = float(dx @ dx + x @ d2x)
    d2xhat = np.zeros(alg.dim)
    d2xhat[: alg.n] = d2x
    d2xhat[alg.dim - 2] = -c
    d2xhat[alg.dim - 1] = c
    return xhat, dxhat, d2xhat, h, dh


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
    """
    samples = np.asarray(samples, dtype=float)
    d = direction
    others = [k for k in range(1, alg.n + 1) if k != d]

    xhat0, dxhat0, _, h0, _ = _curve_lift(alg, curve, 0.0)
    vref = dxhat0 / h0
    psi0 = np.asarray(psi0, dtype=float)
    if np.max(np.abs(psi0 @ alg.e0 - xhat0)) > 1e-8 * (1 + np.abs(xhat0).max()):
        raise DegenerateBasis("initial frame does not sit at the start of the curve")
    if np.max(np.abs(psi0[:, d - 1] - vref)) > 1e-8:
        raise DegenerateBasis("initial frame is not aligned with the curve tangent")

    V = psi0[:, [k - 1 for k in others]].T.copy()

    def tangent_data(t):
        xhat, dxhat, d2xhat, h, dh = _curve_lift(alg, curve, t)
        vd = dxhat / h
        a = d2xhat / h - dxhat * (dh / h / h)
        return xhat, vd, a, h

    def rhs(V, t):
        _, vd, a, _ = tangent_data(t)
        betas = -np.sum(V * (a * alg._metric), axis=1)
        return np.outer(betas, vd)

    def renorm(V, t):
        xhat, vd, _, _ = tangent_data(t)
        gram = V * alg._metric @ V.T
        if np.max(np.abs(gram - np.eye(len(others)))) > 1e-6:
            raise FrameDrift("companion frame lost orthonormality")
        for r in range(V.shape[0]):
            u = V[r]
            u = u - (-2.0 * alg.dot_einf(u)) * xhat - (-2.0 * alg.lorentz_dot(u, xhat)) * alg.einf
            u = u - alg.lorentz_dot(u, vd) * vd
            for s in range(r):
                u = u - alg.lorentz_dot(u, V[s]) * V[s]
            V[r] = u / math.sqrt(alg.lorentz_dot(u, u))
        return V

    if substep is None:
        gaps = np.diff(samples)
        substep = float(np.min(gaps[gaps > 0]) / 4.0) if len(gaps) else 0.25

    h_out = np.zeros(len(samples))
    beta_out = np.zeros((len(samples), alg.n))
    t = 0.0
    s_idx = 0
    # record any samples at (or numerically before) the start
    while s_idx < len(samples) and samples[s_idx] <= t + 1e-14:
        _, _, a, h = tangent_data(samples[s_idx])
        h_out[s_idx] = h
        beta_out[s_idx, [k - 1 for k in others]] = -np.sum(V * (a * alg._metric), axis=1)
        s_idx += 1
    while s_idx < len(samples):
        target = samples[s_idx]
        nsub = max(1, int(math.ceil((target - t) / substep - 1e-12)))
        dt = (target - t) / nsub
        for _ in range(nsub):
            k1 = rhs(V, t)
            k2 = rhs(V + dt / 2 * k1, t + dt / 2)
            k3 = rhs(V + dt / 2 * k2, t + dt / 2)
            k4 = rhs(V + dt * k3, t + dt)
            V = V + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
            V = renorm(V, t)
        t = target
        _, _, a, h = tangent_data(t)
        h_out[s_idx] = h
        beta_out[s_idx, [k - 1 for k in others]] = -np.sum(V * (a * alg._metric), axis=1)
        s_idx += 1
    return CurveData(samples.copy(), h_out, beta_out)
