"""Analytic orthogonal coordinate systems used as convergence oracles.

Each oracle evaluates the map F on lattice coordinates (an interior offset
keeps the runs away from coordinate singularities) together with the closed
forms of its metric coefficients h_i, rotation coefficients beta_ki and the
splitting fields gamma_ij needed by the surface solver.  Every oracle speaks
the same n-dimensional protocol with 1-based labels: `F(*xi)`, `h_i(i, *xi)`,
`beta(k, i, *xi)`, `gamma_ij(i, j, xi_i, xi_j)`, `c_ij(i, j, *xi)` and
`curve(i)`; `axis_data` and `start_frame` sample the Goursat data from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import algebra
from .curves import SmoothCurve, line_curve
from .errors import SingularPoint
from .lattice import mesh_points
from .orthogonal import CSurfaceData, CurveData, OrthoSurfaceSpec, suited_frame

__all__ = ["EllipticOracle", "SphericalOracle", "FlatOracle"]


@dataclass(frozen=True)
class EllipticOracle:
    """Planar elliptic coordinates (confocal ellipses and hyperbolas).

    F(u1, u2) = (cosh u1 cos u2, sinh u1 sin u2) evaluated at u = offset + xi.
    The coordinate net is conformal: h = |d1 F| = |d2 F|, d1 F . d2 F = 0.
    """

    offset: tuple[float, float] = (0.3, 0.3)
    n: int = 2

    def _u(self, xi1, xi2):
        return self.offset[0] + np.asarray(xi1, dtype=float), self.offset[1] + np.asarray(xi2, dtype=float)

    def F(self, xi1, xi2):
        u1, u2 = self._u(xi1, xi2)
        return np.stack([np.cosh(u1) * np.cos(u2), np.sinh(u1) * np.sin(u2)], axis=-1)

    def h_i(self, i, xi1, xi2):
        # conformal: h_1 = h_2
        u1, u2 = self._u(xi1, xi2)
        hsq = np.sinh(u1) ** 2 + np.sin(u2) ** 2
        if np.any(hsq < 1e-24):
            raise SingularPoint("elliptic coordinates are singular at the foci")
        return np.sqrt(hsq)

    def beta(self, k, i, xi1, xi2):
        """Rotation coefficient beta_{ki} (d_i v_k = beta_{ki} v_i), k != i."""
        u1, u2 = self._u(xi1, xi2)
        num = np.sinh(2.0 * u1) if (k, i) == (1, 2) else np.sin(2.0 * u2)
        return num / (2.0 * self.h_i(1, xi1, xi2) ** 2)

    def gamma_ij(self, i, j, xi_i, xi_j):
        # equals d1 beta_12 = -d2 beta_21 for this conformal net
        u1, u2 = self._u(xi_i, xi_j)
        return (1.0 - np.cosh(2.0 * u1) * np.cos(2.0 * u2)) / (2.0 * self.h_i(1, xi_i, xi_j) ** 4)

    def c_ij(self, i, j, xi1, xi2):
        # c_ij = h_i beta_ij / h_j = beta_ij, as h_1 = h_2
        return self.beta(i, j, xi1, xi2)

    def curve(self, axis: int) -> SmoothCurve:
        o1, o2 = self.offset

        if axis == 1:
            def x(t):
                return np.stack([np.cosh(o1 + t) * np.cos(o2), np.sinh(o1 + t) * np.sin(o2)], axis=-1)

            def dx(t):
                return np.stack([np.sinh(o1 + t) * np.cos(o2), np.cosh(o1 + t) * np.sin(o2)], axis=-1)

            def d2x(t):
                return x(t)
        else:
            def x(t):
                return np.stack([np.cosh(o1) * np.cos(o2 + t), np.sinh(o1) * np.sin(o2 + t)], axis=-1)

            def dx(t):
                return np.stack([-np.cosh(o1) * np.sin(o2 + t), np.sinh(o1) * np.cos(o2 + t)], axis=-1)

            def d2x(t):
                return -x(t)
        return SmoothCurve(2, x, dx, d2x)


@dataclass(frozen=True)
class SphericalOracle:
    """Spherical coordinates (radius, polar angle, azimuth) in R^3.

    Each coordinate family is traversed with smoothly varying speed
    (r = rho(u1) etc. with rho(u) = r0 + u + a sin u); affine parametrizations
    make all coordinate curves constant-coefficient and the discretization
    superconvergent, which would hide the generic first-order rate.
    """

    offset: tuple[float, float, float] = (1.0, 0.8, 0.6)
    amps: tuple[float, float, float] = (0.3, 0.25, -0.2)
    n: int = 3

    def _warp(self, k, u):
        u = np.asarray(u, dtype=float)
        return self.offset[k] + u + self.amps[k] * np.sin(u)

    def _dwarp(self, k, u):
        return 1.0 + self.amps[k] * np.cos(np.asarray(u, dtype=float))

    def _d2warp(self, k, u):
        return -self.amps[k] * np.sin(np.asarray(u, dtype=float))

    def F(self, xi1, xi2, xi3):
        r = self._warp(0, xi1)
        th = self._warp(1, xi2)
        ph = self._warp(2, xi3)
        return np.stack(
            [r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph), r * np.cos(th)],
            axis=-1,
        )

    def h_i(self, i, xi1, xi2, xi3):
        if i == 1:
            return self._dwarp(0, xi1) * np.ones(np.broadcast_shapes(np.shape(xi2), np.shape(xi3)) or ())
        if i == 2:
            return self._warp(0, xi1) * self._dwarp(1, xi2)
        return self._warp(0, xi1) * np.sin(self._warp(1, xi2)) * self._dwarp(2, xi3)

    def beta(self, k, i, xi1, xi2, xi3):
        """Rotation coefficient beta_{ki} (d_i v_k = beta_{ki} v_i)."""
        shape = np.broadcast_shapes(np.shape(xi1), np.shape(xi2), np.shape(xi3))
        if (k, i) == (1, 2):
            return np.broadcast_to(self._dwarp(1, xi2), shape).astype(float)
        if (k, i) == (1, 3):
            return np.broadcast_to(np.sin(self._warp(1, xi2)) * self._dwarp(2, xi3), shape).astype(float)
        if (k, i) == (2, 3):
            return np.broadcast_to(np.cos(self._warp(1, xi2)) * self._dwarp(2, xi3), shape).astype(float)
        return np.zeros(shape)

    def gamma_ij(self, i, j, xi_i, xi_j):
        """Splitting field (d_i beta_ij - d_j beta_ji)/2 on the (i, j)-plane."""
        shape = np.broadcast_shapes(np.shape(xi_i), np.shape(xi_j))
        if (i, j) == (2, 3):
            g = -np.sin(self._warp(1, xi_i)) * self._dwarp(1, xi_i) * self._dwarp(2, xi_j) / 2.0
            return np.broadcast_to(g, shape).astype(float)
        return np.zeros(shape)

    def c_ij(self, i, j, xi1, xi2, xi3):
        return self.h_i(i, xi1, xi2, xi3) * self.beta(i, j, xi1, xi2, xi3) / self.h_i(j, xi1, xi2, xi3)

    def curve(self, axis: int) -> SmoothCurve:
        r0, th0, ph0 = self.offset

        if axis == 1:
            d = np.array([np.sin(th0) * np.cos(ph0), np.sin(th0) * np.sin(ph0), np.cos(th0)])

            return SmoothCurve(
                3,
                lambda t: np.multiply.outer(self._warp(0, t), d),
                lambda t: np.multiply.outer(self._dwarp(0, t), d),
                lambda t: np.multiply.outer(self._d2warp(0, t), d),
            )
        if axis == 2:
            def pos(th):
                return np.stack([np.sin(th) * np.cos(ph0), np.sin(th) * np.sin(ph0), np.cos(th)], axis=-1)

            def vel(th):
                return np.stack([np.cos(th) * np.cos(ph0), np.cos(th) * np.sin(ph0), -np.sin(th)], axis=-1)

            def x(t):
                return r0 * pos(self._warp(1, t))

            def dx(t):
                return r0 * vel(self._warp(1, t)) * self._dwarp(1, t)[..., None]

            def d2x(t):
                th, dw = self._warp(1, t), self._dwarp(1, t)[..., None]
                return r0 * (vel(th) * self._d2warp(1, t)[..., None] - pos(th) * dw**2)
            return SmoothCurve(3, x, dx, d2x)

        rho_s = r0 * np.sin(th0)
        z0 = r0 * np.cos(th0)

        def radial(ph):
            return np.stack([np.cos(ph), np.sin(ph), np.zeros_like(ph)], axis=-1)

        def tangent(ph):
            return np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)], axis=-1)

        def x(t):
            return rho_s * radial(self._warp(2, t)) + np.array([0.0, 0.0, z0])

        def dx(t):
            return rho_s * self._dwarp(2, t)[..., None] * tangent(self._warp(2, t))

        def d2x(t):
            ph, dw = self._warp(2, t), self._dwarp(2, t)[..., None]
            return rho_s * (self._d2warp(2, t)[..., None] * tangent(ph) - dw**2 * radial(ph))
        return SmoothCurve(3, x, dx, d2x)

    def surface_spec(self, eps: float, r: float, stagger: bool = False) -> OrthoSurfaceSpec:
        """Closed-form axis data and splitting fields on an extended box."""
        npts = mesh_points(r, eps) + 1   # one spare site
        t = np.arange(npts) * eps + (eps / 2.0 if stagger else 0.0)
        ti, tj = np.meshgrid(t, t, indexing="ij")
        axis = {i: axis_data(self, i, t) for i in (1, 2, 3)}
        gamma = {(i, j): self.gamma_ij(i, j, ti, tj) for (i, j) in ((1, 2), (1, 3), (2, 3))}
        x0, psi0 = start_frame(self)
        return OrthoSurfaceSpec(algebra(3), psi0, eps, npts, axis, gamma, x0)


@dataclass(frozen=True)
class FlatOracle:
    """Identity coordinates; every discretization reproduces the grid exactly."""

    n: int = 2
    offset: tuple = ()

    def F(self, *xi):
        return np.stack(np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xi)), axis=-1)

    def h_i(self, i, *xi):
        return np.ones(np.broadcast_shapes(*(np.shape(x) for x in xi)))

    def beta(self, k, i, *xi):
        return np.zeros(np.broadcast_shapes(*(np.shape(x) for x in xi)))

    gamma_ij = beta
    c_ij = beta

    def curve(self, axis: int) -> SmoothCurve:
        return line_curve(np.zeros(self.n), np.eye(self.n)[axis - 1])


def axis_data(oracle, i: int, t: np.ndarray) -> CurveData:
    """h_i and beta_ki (k != i) along coordinate axis i at the parameters t,
    the other coordinates held at 0."""
    xi = [np.zeros_like(t)] * oracle.n
    xi[i - 1] = t
    beta = np.zeros((len(t), oracle.n))
    for k in range(1, oracle.n + 1):
        if k != i:
            beta[:, k - 1] = oracle.beta(k, i, *xi)
    return CurveData(t.copy(), np.broadcast_to(oracle.h_i(i, *xi), t.shape).astype(float), beta)


def start_frame(oracle) -> tuple[np.ndarray, np.ndarray]:
    """Point F(0) and the frame there suited to the unit tangents of the coordinate curves."""
    x0 = oracle.F(*[0.0] * oracle.n)
    tangents = []
    for i in range(1, oracle.n + 1):
        d = oracle.curve(i).dx(0.0)
        tangents.append(d / np.linalg.norm(d))
    return x0, suited_frame(algebra(oracle.n), x0, tangents)


def csurface_data_from_oracle(oracle, eps: float, r: float, stagger: bool = False, r2: float | None = None):
    """Goursat data of the surface solve for a planar (N = 2) oracle."""
    shift = eps / 2.0 if stagger else 0.0
    t1 = np.arange(mesh_points(r, eps)) * eps + shift
    t2 = t1 if r2 is None else np.arange(mesh_points(r2, eps)) * eps + shift
    a1, a2 = axis_data(oracle, 1, t1), axis_data(oracle, 2, t2)
    g1, g2 = np.meshgrid(t1, t2, indexing="ij")
    gam = np.broadcast_to(oracle.gamma_ij(1, 2, g1, g2), g1.shape).astype(float)
    _, psi0 = start_frame(oracle)
    return CSurfaceData(
        alg=algebra(2), psi0=psi0, eps=(eps, eps), npts=(len(t1), len(t2)), dirs=(1, 2),
        h1=a1.h, b1=a1.beta, h2=a2.h, b2=a2.beta, split=gam, splitting="gamma",
    )
