"""Circle geometry of circular nets: concircularity tests, circumcircles, Miquel closure.

A circle in R^N corresponds to a 3-dimensional linear subspace of R^{N+1,1}
intersected with the light cone: four points are concircular exactly when
their canonical lifts are linearly dependent.
"""

from __future__ import annotations

import numpy as np

from .clifford import algebra
from .errors import CoincidentPoints, DegenerateEdges, raise_first

__all__ = [
    "circularity_residual",
    "circumcircle",
    "point_on_circumcircle",
    "miquel_eighth_vertex",
]


def circularity_residual(points: np.ndarray) -> float:
    """Dimensionless concircularity defect of four points in R^N.

    The canonical lifts are normalized to unit rows; the smallest singular
    value of the 4 x (N+2) matrix vanishes exactly when the points lie on a
    common circle (or line).
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] != 4:
        raise ValueError("need exactly four points")
    scale = 1.0 + float(np.max(np.abs(pts)))
    for i in range(4):
        for j in range(i + 1, 4):
            if np.linalg.norm(pts[i] - pts[j]) < 1e-14 * scale:
                raise CoincidentPoints("points must be pairwise distinct")
    return float(circularity_residual_batch(pts))


def circularity_residual_batch(quads: np.ndarray) -> np.ndarray:
    """Vectorized residual for an array of quads shaped (..., 4, N)."""
    pts = np.asarray(quads, dtype=float)
    alg = algebra(pts.shape[-1])
    lifts = alg.lift_point(pts)
    lifts = lifts / np.linalg.norm(lifts, axis=-1, keepdims=True)
    return np.linalg.svd(lifts, compute_uv=False)[..., -1]


def circumcircle(a, b, c):
    """Center, radius and an orthonormal in-plane basis of the circle through a, b, c.

    The points are (..., N) arrays with any (broadcastable) leading batch
    axes; the results carry the batch axes: center (..., N), radius (...),
    basis (..., N, 2).  Raises DegenerateEdges, carrying the first offending
    batch row, when a point is not finite or three points are collinear.
    """
    a, b, c = (np.asarray(p, dtype=float) for p in (a, b, c))
    uv = np.stack(np.broadcast_arrays(b - a, c - a), axis=-1)     # (..., N, 2)
    finite = np.isfinite(uv).all(axis=(-2, -1)) & np.isfinite(a).all(axis=-1)
    if not finite.all():  # the linear algebra sees zeros in place of an entry with a non-finite point
        uv = np.where(finite[..., None, None], uv, 0.0)
    basis, _ = np.linalg.qr(uv)
    p = np.swapaxes(basis, -1, -2) @ uv       # columns: u and v in the basis
    A = 2.0 * np.swapaxes(p, -1, -2)
    rhs = np.sum(p * p, axis=-2)
    bound = 1e-14 * np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1))) ** 2
    raise_first([(~finite, lambda row: DegenerateEdges("circumcircle of non-finite points")),
                 (np.abs(np.linalg.det(A)) < bound, lambda row: DegenerateEdges("circumcircle of collinear points"))])
    y = np.linalg.solve(A, rhs[..., None])
    center = a + (basis @ y)[..., 0]
    radius = np.linalg.norm(center - a, axis=-1)[()]
    return center, radius, basis


def point_on_circumcircle(a, b, c, angle) -> np.ndarray:
    """Point at the given angle parameter on the circle through a, b, c.

    The angle is measured from a.  The points are (..., N) arrays and angle a
    (...) array, all broadcasting as in `circumcircle`; the result is
    (..., N).
    """
    center, radius, basis = circumcircle(a, b, c)
    start = np.asarray(a, dtype=float) - center
    e1 = start / np.sqrt(start[..., None, :] @ start[..., :, None])[..., 0]
    t = (np.swapaxes(basis, -1, -2) @ e1[..., None])[..., 0]     # e1 in the plane basis
    e2 = (basis @ np.stack([-t[..., 1], t[..., 0]], axis=-1)[..., None])[..., 0]
    angle = np.asarray(angle, dtype=float)[..., None]
    return center + np.asarray(radius)[..., None] * (np.cos(angle) * e1 + np.sin(angle) * e2)


def miquel_eighth_vertex(x, x1, x2, x3, x12, x13, x23) -> np.ndarray:
    """Intersection point of the three circles through (x_i, x_ij, x_ik).

    Each circle spans a 3-dimensional linear subspace of lifted coordinates;
    their common null direction drops to the Miquel point.  The argument `x`
    only sets the ambient dimension check; the construction uses the other six
    vertices.
    """
    pts = [np.asarray(p, dtype=float) for p in (x, x1, x2, x3, x12, x13, x23)]
    n = pts[0].shape[0]
    alg = algebra(n)
    trip = [
        (pts[1], pts[4], pts[5]),  # circle through x1, x12, x13
        (pts[2], pts[4], pts[6]),  # circle through x2, x12, x23
        (pts[3], pts[5], pts[6]),  # circle through x3, x13, x23
    ]
    rows = []
    for tr in trip:
        lifts = alg.lift_point(np.stack(tr))
        q, _ = np.linalg.qr(lifts.T)            # (dim, 3) basis of the span
        proj = np.eye(alg.dim) - q @ q.T        # projector onto the complement
        rows.append(proj)
    stacked = np.concatenate(rows, axis=0)
    _, sv, vt = np.linalg.svd(stacked)
    if sv[-2] < 1e-8:
        raise DegenerateEdges("circle intersection is not a single point")
    u = vt[-1]
    return alg.drop_to_euclidean(u)
