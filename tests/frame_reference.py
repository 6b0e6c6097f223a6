"""Test-only reference: the frame solve that the frame transport replaced.

`csurface_solve` below is `orthogonal.csurface_solve` as it was when the
Goursat driver stepped the frame psi together with h and beta in every level
call: one fused solve of all components, requesting psi alone for a
transform (alpha splitting), where a row that owns psi alone is gated on
N_a^2 > 0 alone.  The differential tests in test_orthogonal.py hold the
transported frame to bitwise-equal fields, nan patterns and `DomainViolation`
reports against it.

`coefficients` is `orthogonal._coefficients` as it was before a transform
(alpha splitting) solve carried h2, b2 along each transform layer on plain
floats: the Goursat driver's demand-driven solve of h1, b1 on the box minus
its last base row, one level call per site.  The transform tests hold the
recurrence to bitwise-equal fields and nan patterns against it.

`coordinate_surfaces` is the surface stage of `orthogonal.orthosys_assemble`
as it was before the three coordinate surfaces were solved as one stack: one
solve per surface (i, j) in `itertools.combinations` order, each followed by
its `extract_rotation_coeffs` call, so the first failing surface raises.
"""

from __future__ import annotations

import itertools

from dlame import orthogonal
from dlame.conjugate import extract_rotation_coeffs
from dlame.lattice import MeshSpec, goursat_solve
from dlame.orthogonal import CSurfaceData, CSurfaceResult, OrthoSurfaceSpec, frame_points


def csurface_solve(data: CSurfaceData) -> CSurfaceResult:
    alg = data.alg
    tail = 1 if data.splitting == "alpha" else 0
    if data.splitting == "gamma" and abs(data.eps[0] - data.eps[1]) > 1e-15:
        raise ValueError("the surface splitting assumes equal mesh sizes")
    request = ("psi",) if data.splitting == "alpha" else None
    mesh = MeshSpec(eps=data.eps, npts=data.npts, tail=tail)
    system = orthogonal.FrameSurfaceSystem(alg, dirs=data.dirs, splitting=data.splitting)
    fields = goursat_solve(system, mesh, {"psi": data.psi0, **{name: getattr(data, name) for name in
                                                              ("h1", "b1", "h2", "b2", "split")}}, request=request)
    x = frame_points(alg, fields["psi"].values)
    return CSurfaceResult(alg, mesh, data.dirs, data.splitting, fields, x)


def coefficients(system, mesh: MeshSpec, data, solve=goursat_solve):
    """(h, beta) fields of a frame solve, psi holding its Goursat datum only; `solve` is the Goursat driver."""
    if system.splitting == "gamma":
        return solve(system, mesh, data, request=("h1", "h2", "b1", "b2"))
    fields, n = solve(system, mesh, data, request=()), mesh.npts[0] - 1
    if n:
        part = solve(system, MeshSpec(mesh.eps, (n,) + mesh.npts[1:], mesh.tail),
                     {name: v[:n] if 0 in system.component(name).static else v for name, v in data.items()},
                     request=("h1", "b1"))
        for name in ("h1", "b1", "h2", "b2"):
            fields[name].values[:n] = part[name].values
    return fields


def coordinate_surface_data(spec: OrthoSurfaceSpec, i: int, j: int) -> CSurfaceData:
    return CSurfaceData(alg=spec.alg, psi0=spec.psi0, eps=(spec.eps, spec.eps), npts=(spec.npts, spec.npts),
                        dirs=(i, j), h1=spec.axis[i].h, b1=spec.axis[i].beta, h2=spec.axis[j].h,
                        b2=spec.axis[j].beta, split=spec.gamma[(i, j)])


def coordinate_surfaces(spec: OrthoSurfaceSpec):
    surfaces, cdata = {}, {}
    for i, j in itertools.combinations((1, 2, 3), 2):
        surf = csurface_solve(coordinate_surface_data(spec, i, j))
        surfaces[(i, j)] = surf
        x = surf.x
        cdata[(i, j)], cdata[(j, i)] = extract_rotation_coeffs(
            x[:-1, :-1], x[1:, :-1], x[:-1, 1:], x[1:, 1:], spec.eps, spec.eps)
    return surfaces, cdata
