"""Clifford model of Euclidean geometry inside the Minkowski space R^{N+1,1}.

Conventions
-----------
Vectors of the ambient Minkowski space are plain numpy arrays of length N+2 in
the basis e_1..e_{N+1}, e_{N+2}, carrying the Lorentz product

    <u, v> = sum_{k <= N+1} u_k v_k  -  u_{N+2} v_{N+2}.

Multivectors are dense numpy arrays of length 2^{N+2} indexed by blade
bitmasks (bit k-1 set means e_k participates).  The product obeys
``u v + v u = -2 <u, v>`` for grade-1 elements, so spacelike generators square
to -1 and the timelike generator squares to +1.

Euclidean points x embed on the light cone through the normalized section

    lift_point(x) = x + e0 + |x|^2 einf,     e0 = (e_{N+2}+e_{N+1})/2,
                                             einf = (e_{N+2}-e_{N+1})/2,

and Euclidean motions are adjoint actions psi^{-1} v psi of even products of
unit spacelike vectors orthogonal to einf.  This module is the reference model
of those frames; `Algebra.frame_matrix` turns a frame into the Lorentz matrix of
its adjoint action, the form the solver stores and steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import TOL
from .errors import AtInfinity, DegenerateBasis, NonVectorResult, NullVector

__all__ = [
    "Algebra",
    "algebra",
]


def _reorder_sign(a: int, b: int) -> int:
    """Permutation sign for merging blade bitmasks a and b into canonical order."""
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


@dataclass(frozen=True)
class Algebra:
    """Dense-coefficient Clifford algebra of R^{N+1,1} for Euclidean dimension N."""

    n: int
    dim: int = field(init=False)
    size: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("Euclidean dimension must be >= 1")
        object.__setattr__(self, "dim", self.n + 2)
        object.__setattr__(self, "size", 1 << self.dim)
        d, size = self.dim, self.size
        # square of each generator in the algebra: e_k^2 = -<e_k,e_k>
        gen_sq = np.full(d, -1.0)
        gen_sq[d - 1] = 1.0
        sign = np.zeros((size, size))
        for a in range(size):
            for b in range(size):
                s = _reorder_sign(a, b)
                common = a & b
                while common:
                    k = (common & -common).bit_length() - 1
                    s *= gen_sq[k]
                    common &= common - 1
                sign[a, b] = s
        grades = np.array([a.bit_count() for a in range(size)])
        object.__setattr__(self, "_sign", sign)
        object.__setattr__(self, "_grades", grades)
        object.__setattr__(self, "_rev", np.where(grades * (grades - 1) // 2 % 2, -1.0, 1.0))
        cols = np.arange(size)
        left_idx = cols[:, None] ^ cols[None, :]
        object.__setattr__(self, "_left_idx", left_idx)
        object.__setattr__(self, "_left_sign", sign[left_idx, cols[None, :]])
        vec_idx = np.array([1 << k for k in range(d)])
        object.__setattr__(self, "_vec_idx", vec_idx)
        metric = np.ones(d)
        metric[d - 1] = -1.0
        object.__setattr__(self, "_metric", metric)
        e0 = np.zeros(d)
        e0[d - 2] = 0.5
        e0[d - 1] = 0.5
        einf = np.zeros(d)
        einf[d - 2] = -0.5
        einf[d - 1] = 0.5
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "einf", einf)

    # -- multivector basics ------------------------------------------------

    def scalar(self, value: float) -> np.ndarray:
        out = np.zeros(self.size)
        out[0] = value
        return out

    def vector(self, coords: np.ndarray) -> np.ndarray:
        """Embed Minkowski coordinates (.., dim) as a grade-1 multivector (.., size)."""
        coords = np.asarray(coords, dtype=float)
        out = np.zeros(coords.shape[:-1] + (self.size,))
        out[..., self._vec_idx] = coords
        return out

    def vector_part(self, mv: np.ndarray) -> np.ndarray:
        return mv[..., self._vec_idx]

    def geometric_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geometric product; broadcasts over leading axes.

        (a b)[k] = sum_j L(a)[k, j] b[j] with the left-multiplication table
        L(a)[k, j] = a[k ^ j] sign[k ^ j, j]."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return np.einsum("...kj,kj,...j->...k", a[..., self._left_idx], self._left_sign, b)

    def reverse(self, mv: np.ndarray) -> np.ndarray:
        return mv * self._rev

    def parity(self, mv: np.ndarray) -> str:
        """'even', 'odd' or 'mixed' according to the grade support of mv."""
        bound = TOL.algebra * (np.max(np.abs(mv)) or 1.0)
        even = np.max(np.abs(mv[..., self._grades % 2 == 1])) <= bound
        odd = np.max(np.abs(mv[..., self._grades % 2 == 0])) <= bound
        if even and not odd:
            return "even"
        if odd and not even:
            return "odd"
        return "mixed"

    # -- Lorentz geometry ----------------------------------------------------

    def basis_vector(self, k: int) -> np.ndarray:
        """Coordinates of e_k, 1-based (k = dim means the timelike generator)."""
        out = np.zeros(self.dim)
        out[k - 1] = 1.0
        return out

    def lorentz_dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.sum(u * v * self._metric, axis=-1)

    def invert_vector(self, u: np.ndarray) -> np.ndarray:
        """Inverse -u/<u,u> of a non-null vector, as coordinates."""
        s = self.lorentz_dot(u, u)
        if abs(s) < TOL.algebra:
            raise NullVector("vector is on the light cone, no inverse")
        return -np.asarray(u, dtype=float) / s

    def pin_inverse(self, psi: np.ndarray) -> np.ndarray:
        """Inverse of a pin-group element (psi times its reverse is +-1)."""
        rev = self.reverse(psi)
        prod = self.geometric_product(psi, rev)
        s = prod[..., 0]
        if np.any(np.abs(s) < 0.5):
            raise NonVectorResult("element is not invertible as a pin element")
        return rev / s[..., None]

    def adjoint(self, psi: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Adjoint action psi^{-1} v psi on vector coordinates; broadcasts."""
        vmv = self.vector(v)
        out = self.geometric_product(self.geometric_product(self.pin_inverse(psi), vmv), psi)
        coords = self.vector_part(out)
        rest = out.copy()
        rest[..., self._vec_idx] = 0.0
        scale = np.maximum(np.max(np.abs(coords), axis=-1), 1.0)
        if np.any(np.max(np.abs(rest), axis=-1) > 1e-9 * scale):
            raise NonVectorResult("adjoint action produced non-vector mass")
        return coords

    def frame_matrix(self, psi: np.ndarray) -> np.ndarray:
        """Lorentz matrix L(psi) in O(N+1,1) of the adjoint action, (..., size)
        -> (..., dim, dim), so that adjoint(psi, v) == L @ v and L(-psi) == L(psi).

        This is the bridge from the multivector model to the frames the solver
        stores; the adjoint's non-vector mass check runs once per frame built.
        """
        images = self.adjoint(np.asarray(psi, dtype=float)[..., None, :], np.eye(self.dim))
        return np.swapaxes(images, -1, -2)

    def reflect(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Closed form 2<u,v>u - v of the adjoint action of a unit vector u."""
        return 2.0 * self.lorentz_dot(u, v)[..., None] * u - v

    # -- light cone / Euclidean embedding ------------------------------------

    def lift_point(self, x: np.ndarray) -> np.ndarray:
        """Canonical lift x + e0 + |x|^2 einf onto the normalized cone section."""
        x = np.asarray(x, dtype=float)
        sq = np.sum(x * x, axis=-1)
        out = np.zeros(x.shape[:-1] + (self.dim,))
        out[..., : self.n] = x
        out[..., self.dim - 2] = (1.0 - sq) / 2.0
        out[..., self.dim - 1] = (1.0 + sq) / 2.0
        return out

    def dot_einf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return -(u[..., self.dim - 2] + u[..., self.dim - 1]) / 2.0

    def project_sphere(self, u: np.ndarray) -> np.ndarray:
        """Central projection to the unit sphere chart, (u_1/u_{N+2}, ..)."""
        u = np.asarray(u, dtype=float)
        w = u[..., self.dim - 1]
        if np.any(np.abs(w) < TOL.infinity):
            raise AtInfinity("vanishing projective weight")
        return u[..., : self.dim - 1] / w[..., None]

    def drop_to_euclidean(self, p: np.ndarray) -> np.ndarray:
        """Inverse of lift_point: read the Euclidean point off a cone-section vector."""
        p = np.asarray(p, dtype=float)
        w = -2.0 * self.dot_einf(p)
        if np.any(np.abs(w) < TOL.infinity):
            raise AtInfinity("point at infinity has no Euclidean image")
        return p[..., : self.n] / w[..., None]

    def stereographic_inverse(self, x: np.ndarray) -> np.ndarray:
        """Inverse stereographic projection onto the unit sphere in R^{N+1}."""
        x = np.asarray(x, dtype=float)
        sq = np.sum(x * x, axis=-1)
        out = np.zeros(x.shape[:-1] + (self.n + 1,))
        out[..., : self.n] = 2.0 * x / (1.0 + sq)[..., None]
        out[..., self.n] = (1.0 - sq) / (1.0 + sq)
        return out

    def tangent_lift(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Lift of a Euclidean tangent vector v at x: v + 2(x.v) einf."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        dot = np.sum(x * v, axis=-1)
        out = np.zeros(v.shape[:-1] + (self.dim,))
        out[..., : self.n] = v
        out[..., self.dim - 2] = -dot
        out[..., self.dim - 1] = dot
        return out

    # -- frames ---------------------------------------------------------------

    def euclid_pin_defect(self, psi: np.ndarray) -> float:
        """Drift of psi from the Euclidean pin group: |A_psi(einf) - einf|."""
        return float(np.max(np.abs(self.adjoint(psi, self.einf) - self.einf)))

    def normalize_pin_sign(self, psi: np.ndarray) -> np.ndarray:
        idx = int(np.argmax(np.abs(psi)))
        return -psi if psi[idx] < 0 else psi

    def frame_from_adapted_basis(self, xhat, basis, slots=None) -> np.ndarray:
        """Even pin element psi with A_psi(e0) = xhat and A_psi(e_slot) = basis vector.

        basis holds M <= N mutually orthogonal unit tangent vectors at xhat
        (Minkowski coordinates); slots gives 1-based generator indices, defaulting
        to 1..M.  Missing directions are completed by pivoted Gram-Schmidt against
        the canonical images; the completion is flipped if needed so the motion is
        orientation preserving.
        """
        xhat = np.asarray(xhat, dtype=float)
        basis = [np.asarray(b, dtype=float) for b in basis]
        m = len(basis)
        if slots is None:
            slots = list(range(1, m + 1))
        if m > self.n or len(set(slots)) != m or any(not 1 <= s <= self.n for s in slots):
            raise DegenerateBasis("invalid basis slots")
        x = self.drop_to_euclidean(xhat)

        # Euclidean direction parts; validate the tangent structure and the Gram matrix.
        targets = np.zeros((self.n, self.n))
        have = np.zeros(self.n, dtype=bool)
        for s, b in zip(slots, basis):
            r = b[: self.n]
            if np.max(np.abs(self.tangent_lift(x, r) - b)) > 1e-8 * (1.0 + np.abs(b).max()):
                raise DegenerateBasis("basis vector is not tangent to the section at xhat")
            targets[s - 1] = r
            have[s - 1] = True
        gram = targets[have] @ targets[have].T
        if np.max(np.abs(gram - np.eye(m))) > 1e-8:
            raise DegenerateBasis("basis is not orthonormal")

        # complete with pivoted Gram-Schmidt against canonical candidates
        completed = []
        for s in range(self.n):
            if have[s]:
                continue
            best, best_norm = None, -1.0
            for cand in np.eye(self.n):
                v = cand - targets.T @ (targets @ cand)
                nv = np.linalg.norm(v)
                if nv > best_norm:
                    best, best_norm = v, nv
            if best_norm < 1e-8:
                raise DegenerateBasis("cannot complete basis")
            targets[s] = best / best_norm
            have[s] = True
            completed.append(s)
        det = np.linalg.det(targets.T)
        if det < 0:
            if not completed:
                raise DegenerateBasis(
                    "fully prescribed basis is negatively oriented; no even frame exists"
                )
            targets[completed[-1]] *= -1.0

        # rotation: chain of Euclidean-vector reflections mapping e_k -> targets[k]
        reflections = []
        imgs = np.eye(self.n)
        for k in range(self.n):
            d = imgs[k] - targets[k]
            nd = np.linalg.norm(d)
            if nd > 1e-13:
                u = d / nd
                imgs = imgs - 2.0 * np.outer(imgs @ u, u)
                reflections.append(u)
        # translation to x: two parallel affine-plane reflections
        trans = []
        nx = np.linalg.norm(x)
        if nx > 1e-15:
            a = x / nx
            u1 = np.zeros(self.dim)
            u1[: self.n] = a
            u2 = u1 + nx * self.einf
            trans = [u1, u2]

        psi = self.scalar(1.0)
        for u in reflections:
            uc = np.zeros(self.dim)
            uc[: self.n] = u
            psi = self.geometric_product(psi, self.vector(uc))
        for u in trans:
            psi = self.geometric_product(psi, self.vector(u))
        psi = self.normalize_pin_sign(psi)

        if np.max(np.abs(self.adjoint(psi, self.e0) - xhat)) > TOL.group * (1 + np.abs(xhat).max()):
            raise DegenerateBasis("frame construction failed to reach the target point")
        for s, b in zip(slots, basis):
            img = self.adjoint(psi, self.basis_vector(s))
            if np.max(np.abs(img - b)) > TOL.group * (1 + np.abs(b).max()):
                raise DegenerateBasis("frame construction failed to align a basis vector")
        return psi


@lru_cache(maxsize=None)
def algebra(n: int) -> Algebra:
    """Cached algebra instance for Euclidean dimension n."""
    return Algebra(n)
