"""Convergence harness: mesh sweeps, difference-quotient error norms, rate fits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clifford import algebra
from .curves import SmoothCurve
from .errors import DegenerateFit
from .lattice import LatticeField, MeshSpec, cl_norm
from .oracles import csurface_data_from_oracle
from .orthogonal import (
    canonical_discretization,
    csurface_solve,
    enveloping_residual,
    ribaucour_solve,
    suited_frame,
    orthosys_assemble,
)

__all__ = [
    "RateFit",
    "SweepReport",
    "rate_fit",
    "csurface_sweep",
    "curve_sweep",
    "orthosys_sweep",
    "ribaucour_sweep",
    "run_sweep",
]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float


def rate_fit(eps, errors) -> RateFit:
    """Least squares on (log eps, log error)."""
    eps = np.asarray(eps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(eps) < 3 or len(errors) != len(eps):
        raise DegenerateFit("need at least three sweep points")
    if np.any(errors <= 0.0):
        raise DegenerateFit("errors must be strictly positive for a log fit")
    A = np.stack([np.log(eps), np.ones_like(eps)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(errors), rcond=None)
    resid = np.log(errors) - A @ coef
    return RateFit(float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2))))


@dataclass
class SweepReport:
    """Errors and fitted rates of one mesh-refinement sweep."""

    kind: str
    eps: list[float]
    errors: dict[int, list[float]]          # per difference-quotient order
    slopes: dict[int, float | None] = field(default_factory=dict)
    ratios: dict[int, list[float]] = field(default_factory=dict)
    fit_residual: dict[int, float | None] = field(default_factory=dict)
    exact: bool = False

    def __post_init__(self):
        if any(e2 >= e1 for e1, e2 in zip(self.eps, self.eps[1:])):
            raise ValueError("mesh sizes must be strictly decreasing")
        # errors at roundoff level mean the discretization reproduces the
        # target exactly; a log-log slope would be meaningless noise
        self.exact = all(max(v) <= 1e-14 for v in self.errors.values())
        for ell, errs in self.errors.items():
            if self.exact or min(errs) <= 0.0:
                self.slopes[ell] = None
                self.fit_residual[ell] = None
                self.ratios[ell] = []
                continue
            fit = rate_fit(self.eps, errs)
            self.slopes[ell] = fit.slope
            self.fit_residual[ell] = fit.residual
            self.ratios[ell] = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eps": list(self.eps),
            "errors": {str(k): list(v) for k, v in self.errors.items()},
            "slopes": {str(k): v for k, v in self.slopes.items()},
            "ratios": {str(k): list(v) for k, v in self.ratios.items()},
            "fit_residual": {str(k): v for k, v in self.fit_residual.items()},
            "exact": self.exact,
        }


def csurface_sweep(oracle, eps_list, r, l_max=1, stagger=False) -> SweepReport:
    """Solve the surface problem at every mesh size and compare with the oracle."""
    errors = {ell: [] for ell in range(l_max + 1)}
    for eps in eps_list:
        data = csurface_data_from_oracle(oracle, eps, r, stagger=stagger)
        res = csurface_solve(data)
        t = np.arange(res.mesh.npts[0]) * eps
        t1, t2 = np.meshgrid(t, t, indexing="ij")
        diff = LatticeField(res.mesh, res.x - oracle.F(t1, t2))
        for ell in range(l_max + 1):
            errors[ell].append(cl_norm(diff, ell))
    return SweepReport("csurface", list(eps_list), errors)


def curve_sweep(curve: SmoothCurve, eps_list, r, l_max=0) -> SweepReport:
    """Canonical discretization against the curve itself."""
    alg = algebra(curve.dim)
    x0 = curve.x(0.0)
    t1 = curve.dx(0.0)
    t1 = t1 / np.linalg.norm(t1)
    if curve.dim == 2:
        frame_vecs = [t1, np.array([-t1[1], t1[0]])]
        psi0 = suited_frame(alg, x0, frame_vecs)
    else:
        psi0 = suited_frame(alg, x0, [t1], slots=[1])
    errors = {ell: [] for ell in range(l_max + 1)}
    for eps in eps_list:
        dc = canonical_discretization(alg, curve, psi0, 1, eps, r)
        n = len(dc.points)
        exact = curve.x(np.arange(n) * eps)
        diff = LatticeField(MeshSpec((eps,), (n,)), dc.points - exact)
        for ell in range(l_max + 1):
            errors[ell].append(cl_norm(diff, ell))
    return SweepReport("curve", list(eps_list), errors)


def orthosys_sweep(oracle, eps_list, r, l_max=0, stagger=False) -> SweepReport:
    """Three-dimensional assembly against the oracle coordinates."""
    errors = {ell: [] for ell in range(l_max + 1)}
    for eps in eps_list:
        spec = oracle.surface_spec(eps, r, stagger=stagger)
        res = orthosys_assemble(spec)
        n = res.x.shape[0]
        t = np.arange(n) * eps
        g = np.meshgrid(t, t, t, indexing="ij")
        diff = LatticeField(MeshSpec((eps,) * 3, (n,) * 3), res.x - oracle.F(*g))
        for ell in range(l_max + 1):
            errors[ell].append(cl_norm(diff, ell))
    return SweepReport("orthosys", list(eps_list), errors)


def ribaucour_sweep(curve: SmoothCurve, alpha_fn, xplus0, eps_list, r) -> SweepReport:
    """Decay of the circle-congruence enveloping defect of the curve pair."""
    alg = algebra(curve.dim)
    errors = {0: []}
    for eps in eps_list:
        res = ribaucour_solve(alg, curve, alpha_fn, xplus0, eps, r)
        errors[0].append(enveloping_residual(res.base, res.transform, eps))
    return SweepReport("ribaucour", list(eps_list), errors)


def run_sweep(kind: str, oracle, eps_list, r, l_max=1, stagger=False) -> SweepReport:
    if kind == "csurface":
        return csurface_sweep(oracle, eps_list, r, l_max=l_max, stagger=stagger)
    if kind == "orthosys":
        return orthosys_sweep(oracle, eps_list, r, l_max=l_max, stagger=stagger)
    raise ValueError(f"unknown sweep kind {kind!r}")
