"""Tolerance constants of the solvers and their domain gates."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # algebraic identity checks (products, lifts)
    algebra: float = 1e-12
    # group-membership drift (pin elements, adjoint isometry)
    group: float = 1e-10
    # Hadamard ratio |det A| / prod_r |A_r| below which an implicit block is degenerate
    degeneracy: float = 1e-12
    # relative planarity pre-check in rotation-coefficient extraction
    planarity: float = 1e-8
    # |<v_i,v_j> - 1| below this means the elementary circle degenerated to a line
    line_circle: float = 1e-10
    # light-cone normalization considered "at infinity" below this
    infinity: float = 1e-12


TOL = Tolerances()
