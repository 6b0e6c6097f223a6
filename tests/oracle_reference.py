"""Test-only reference: the oracle samplers that the one n-dimensional oracle protocol replaced.

The planar oracles below speak the two-dimensional dialect (`h`, `beta12`,
`beta21`, `gamma`, `c12`, `c21`) that `EllipticOracle` and `FlatOracle` had
before every oracle took the `h_i`/`beta`/`gamma_ij`/`c_ij` protocol.
`csurface_data_from_oracle`, `surface_spec` (the body of
`SphericalOracle.surface_spec` with `self` as an argument) and
`conjugate_from_oracle` are the samplers as they were.  The differential tests
in test_oracle_protocol.py hold the new samplers to bitwise-equal Goursat data
against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dlame.clifford import algebra
from dlame.conjugate import solve_conjugate_net
from dlame.curves import SmoothCurve
from dlame.errors import SingularPoint
from dlame.lattice import MeshSpec, mesh_points
from dlame.orthogonal import CSurfaceData, CurveData, OrthoSurfaceSpec, suited_frame


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

    def h(self, xi1, xi2):
        u1, u2 = self._u(xi1, xi2)
        hsq = np.sinh(u1) ** 2 + np.sin(u2) ** 2
        if np.any(hsq < 1e-24):
            raise SingularPoint("elliptic coordinates are singular at the foci")
        return np.sqrt(hsq)

    def beta12(self, xi1, xi2):
        u1, u2 = self._u(xi1, xi2)
        return np.sinh(2.0 * u1) / (2.0 * self.h(xi1, xi2) ** 2)

    def beta21(self, xi1, xi2):
        u1, u2 = self._u(xi1, xi2)
        return np.sin(2.0 * u2) / (2.0 * self.h(xi1, xi2) ** 2)

    def gamma(self, xi1, xi2):
        # equals d1 beta12 = -d2 beta21 for this conformal net
        u1, u2 = self._u(xi1, xi2)
        return (1.0 - np.cosh(2.0 * u1) * np.cos(2.0 * u2)) / (2.0 * self.h(xi1, xi2) ** 4)

    # conjugate-net coefficients c_ij = h_i beta_ij / h_j; here h_1 = h_2
    def c12(self, xi1, xi2):
        return self.beta12(xi1, xi2)

    def c21(self, xi1, xi2):
        return self.beta21(xi1, xi2)

    def curve(self, axis: int) -> SmoothCurve:
        o1, o2 = self.offset

        if axis == 1:
            def x(t):
                return np.array([np.cosh(o1 + t) * np.cos(o2), np.sinh(o1 + t) * np.sin(o2)])

            def dx(t):
                return np.array([np.sinh(o1 + t) * np.cos(o2), np.cosh(o1 + t) * np.sin(o2)])

            def d2x(t):
                return x(t)
        else:
            def x(t):
                return np.array([np.cosh(o1) * np.cos(o2 + t), np.sinh(o1) * np.sin(o2 + t)])

            def dx(t):
                return np.array([-np.cosh(o1) * np.sin(o2 + t), np.sinh(o1) * np.cos(o2 + t)])

            def d2x(t):
                return -x(t)
        return SmoothCurve(2, x, dx, d2x)


@dataclass(frozen=True)
class FlatOracle:
    """Identity coordinates; every discretization reproduces the grid exactly."""

    n: int = 2
    offset: tuple = ()

    def F(self, *xi):
        return np.stack([np.asarray(x, dtype=float) for x in xi], axis=-1)

    def h(self, *xi):
        return np.ones(np.broadcast_shapes(*(np.shape(x) for x in xi)))

    def beta12(self, *xi):
        return np.zeros(np.broadcast_shapes(*(np.shape(x) for x in xi)))

    beta21 = beta12
    gamma = beta12
    c12 = beta12
    c21 = beta12

    def curve(self, axis: int) -> SmoothCurve:
        d = np.eye(self.n)[axis - 1]
        return SmoothCurve(self.n, lambda t: t * d, lambda t: d.copy(), lambda t: np.zeros(self.n))


def csurface_data_from_oracle(oracle, eps: float, r: float, stagger: bool = False,
                              extra: int = 0, r2: float | None = None):
    """Goursat data of the surface solve for a planar (N = 2) oracle."""
    alg = algebra(2)
    n1 = mesh_points(r, eps) + extra
    n2 = n1 if r2 is None else mesh_points(r2, eps) + extra
    shift = eps / 2.0 if stagger else 0.0
    t1 = np.arange(n1) * eps + shift
    t2 = np.arange(n2) * eps + shift

    h1 = np.broadcast_to(oracle.h(t1, 0.0), t1.shape).astype(float)
    b1 = np.zeros((n1, 2))
    b1[:, 1] = oracle.beta21(t1, 0.0)
    h2 = np.broadcast_to(oracle.h(0.0, t2), t2.shape).astype(float)
    b2 = np.zeros((n2, 2))
    b2[:, 0] = oracle.beta12(0.0, t2)
    g1, g2 = np.meshgrid(t1, t2, indexing="ij")
    gam = np.broadcast_to(oracle.gamma(g1, g2), (n1, n2)).astype(float)

    x0 = oracle.F(0.0, 0.0)
    tangents = []
    for axis in (1, 2):
        d = oracle.curve(axis).dx(0.0)
        tangents.append(d / np.linalg.norm(d))
    psi0 = suited_frame(alg, x0, tangents)
    return CSurfaceData(
        alg=alg, psi0=psi0, eps=(eps, eps), npts=(n1, n2), dirs=(1, 2),
        h1=h1, b1=b1, h2=h2, b2=b2, split=gam, splitting="gamma",
    )


def surface_spec(self, eps: float, r: float, stagger: bool = False) -> OrthoSurfaceSpec:
    """Closed-form axis data and splitting fields on an extended box."""
    alg = algebra(3)
    npts = mesh_points(r, eps) + 1   # one spare site
    t = np.arange(npts) * eps + (eps / 2.0 if stagger else 0.0)
    zeros = np.zeros_like(t)

    def on_axis(i, arr_t):
        xi = [zeros, zeros, zeros]
        xi[i - 1] = arr_t
        return xi

    axis = {}
    for i in (1, 2, 3):
        xi = on_axis(i, t)
        h = np.broadcast_to(self.h_i(i, *xi), t.shape).astype(float)
        beta = np.zeros((npts, 3))
        for k in (1, 2, 3):
            if k == i:
                continue
            beta[:, k - 1] = np.broadcast_to(self.beta(k, i, *xi), t.shape)
        axis[i] = CurveData(t.copy(), h, beta)

    gamma = {}
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        ti, tj = np.meshgrid(t, t, indexing="ij")
        gamma[(i, j)] = self.gamma_ij(i, j, ti, tj)

    x0 = self.F(0.0, 0.0, 0.0)
    tangents = []
    for i in (1, 2, 3):
        c = self.curve(i)
        d = c.dx(0.0)
        tangents.append(d / np.linalg.norm(d))
    psi0 = suited_frame(algebra(3), x0, tangents)
    return OrthoSurfaceSpec(alg, psi0, eps, npts, axis, gamma, x0)


def conjugate_from_oracle(oracle, eps, r):
    """Conjugate net with coefficients c_ij = h_i beta_ij / h_j from the oracle."""
    npts = mesh_points(r, eps)
    t = np.arange(npts + 1) * eps
    if oracle.n == 2:
        mesh = MeshSpec((eps, eps), (npts, npts))
        X1 = oracle.F(t, 0.0)
        X2 = oracle.F(0.0, t)
        w_axis = {0: (X1[1:] - X1[:-1])[:npts] / eps, 1: (X2[1:] - X2[:-1])[:npts] / eps}
        tg = t[:npts]
        g1, g2 = np.meshgrid(tg, tg, indexing="ij")
        c_data = {(0, 1): oracle.c12(g1, g2), (1, 0): oracle.c21(g1, g2)}
        fields = solve_conjugate_net(mesh, oracle.F(0.0, 0.0), w_axis, c_data, N=2, request=("x",))
        return fields["x"].values
    mesh = MeshSpec((eps,) * 3, (npts,) * 3)
    w_axis = {}
    zeros = np.zeros(npts + 1)
    for a in range(3):
        xi = [zeros, zeros, zeros]
        xi[a] = t
        X = oracle.F(*xi)
        w_axis[a] = (X[1:] - X[:-1])[:npts] / eps
    tg = t[:npts]
    g1, g2 = np.meshgrid(tg, tg, indexing="ij")
    zz = np.zeros_like(g1)
    c_data = {}
    for a, b in ((0, 1), (0, 2), (1, 2)):
        xi = [zz, zz, zz]
        xi[a], xi[b] = g1, g2
        c_data[(a, b)] = np.broadcast_to(oracle.c_ij(a + 1, b + 1, *xi), g1.shape).astype(float)
        c_data[(b, a)] = np.broadcast_to(oracle.c_ij(b + 1, a + 1, *xi), g1.shape).astype(float)
    fields = solve_conjugate_net(mesh, oracle.F(0.0, 0.0, 0.0), w_axis, c_data, N=3, request=("x",))
    return fields["x"].values
