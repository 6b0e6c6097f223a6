"""Smooth curves with two derivatives, as used for reading off frame data.

Every curve function takes a scalar parameter or an array of parameters of
shape (S,) and returns points of shape t.shape + (N,)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SmoothCurve", "line_curve", "circle_curve", "warped_circle_curve"]


@dataclass(frozen=True)
class SmoothCurve:
    """Arc x(t) in R^N together with its first two derivatives, each mapping
    t of shape () or (S,) to t.shape + (N,)."""

    dim: int
    x: Callable[[np.ndarray], np.ndarray]
    dx: Callable[[np.ndarray], np.ndarray]
    d2x: Callable[[np.ndarray], np.ndarray]


def _plane(a, b, dim: int) -> np.ndarray:
    """Vectors (a, b, 0, ..., 0) in R^dim, stacked over the shape of a and b."""
    a, b = np.broadcast_arrays(a, b)
    return np.stack([a, b] + [np.zeros_like(a)] * (dim - 2), axis=-1)


def line_curve(point, direction) -> SmoothCurve:
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    return SmoothCurve(len(p), lambda t: p + np.multiply.outer(t, d),
                       lambda t: np.broadcast_to(d, np.shape(t) + d.shape).copy(),
                       lambda t: np.zeros(np.shape(t) + d.shape))


def circle_curve(radius: float, dim: int = 2, center=None, phase: float = 0.0) -> SmoothCurve:
    """Unit-speed circle of the given radius in the first two coordinates."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def x(t):
        s = t / radius + phase
        return c + _plane(radius * np.cos(s), radius * np.sin(s), dim)

    def dx(t):
        s = t / radius + phase
        return _plane(-np.sin(s), np.cos(s), dim)

    def d2x(t):
        s = t / radius + phase
        return _plane(-np.cos(s) / radius, -np.sin(s) / radius, dim)

    return SmoothCurve(dim, x, dx, d2x)


def warped_circle_curve(radius: float = 1.0, amp: float = 0.35, dim: int = 2) -> SmoothCurve:
    """Circle traversed with smoothly varying speed.

    The arclength-parametrized circle is a superconvergent special case of the
    canonical discretization (the step motion is a single fixed rotation and
    the vertices land exactly on the circle); a warped parameter exposes the
    generic first-order rate.
    """
    def phi(t):
        return t / radius + amp * np.sin(t / radius)

    def dphi(t):
        return (1.0 + amp * np.cos(t / radius)) / radius

    def d2phi(t):
        return -amp * np.sin(t / radius) / radius**2

    def x(t):
        p = phi(t)
        return _plane(radius * np.cos(p), radius * np.sin(p), dim)

    def dx(t):
        p, dp = phi(t), dphi(t)
        return _plane(-radius * np.sin(p) * dp, radius * np.cos(p) * dp, dim)

    def d2x(t):
        p, dp, d2p = phi(t), dphi(t), d2phi(t)
        return _plane(-radius * np.cos(p) * dp**2 - radius * np.sin(p) * d2p,
                      -radius * np.sin(p) * dp**2 + radius * np.cos(p) * d2p, dim)

    return SmoothCurve(dim, x, dx, d2x)
