"""Deterministic exports of solved lattices: CSV, JSON, SVG circle patterns.

Values are written with 17 significant digits so a round trip through text
reproduces the doubles bit for bit; re-running the same configuration yields
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .circles import circumcircle
from .errors import NonPlanarExport

__all__ = [
    "CircleRecord",
    "circle_records",
    "field_rows",
    "write_csv",
    "read_csv",
    "write_json",
    "write_svg",
]

FMT = "%.17g"


@dataclass(frozen=True)
class CircleRecord:
    """Circumcircle of one lattice cell of a planar circular net."""

    cell: tuple[int, int]
    center: tuple[float, float]
    radius: float


def circle_records(x: np.ndarray, tol_rel: float = 1e-8):
    """Circumcircles of all cells of a 2D point field (n1, n2, 2).

    The circle of a cell is determined by its first three vertices; the fourth
    vertex must sit on it within tol_rel * radius or ValueError is raised,
    naming the first such cell in row-major order, which makes the record
    list a circularity witness of the whole net.  A cell with collinear
    vertices raises DegenerateEdges first, with `row` its row-major index.
    Records are in row-major cell order.
    """
    if x.ndim != 3 or x.shape[-1] != 2:
        raise NonPlanarExport("circle records need a two-dimensional planar field")
    center, radius, _ = circumcircle(x[:-1, :-1], x[1:, :-1], x[1:, 1:])
    off = np.abs(np.linalg.norm(x[:-1, 1:] - center, axis=-1) - radius) > tol_rel * radius
    if off.any():
        i, j = np.argwhere(off)[0].tolist()
        raise ValueError(f"cell ({i}, {j}) is not concircular")
    cells = np.ndindex(radius.shape)
    return [CircleRecord(cell, (cx, cy), r) for cell, (cx, cy), r in
            zip(cells, center.reshape(-1, 2).tolist(), radius.ravel().tolist())]


def field_rows(x: np.ndarray, eps) -> tuple[list[str], np.ndarray]:
    """Lexicographically ordered rows (xi..., x...) of a point field, as one
    (sites, k + N) array for a field over k grid axes."""
    grid_axes = x.ndim - 1
    names = [f"xi{k + 1}" for k in range(grid_axes)] + [f"x{k + 1}" for k in range(x.shape[-1])]
    coords = np.indices(x.shape[:-1]).reshape(grid_axes, -1).T * np.asarray(eps, dtype=float)[:grid_axes]
    return names, np.concatenate([coords, x.reshape(-1, x.shape[-1])], axis=1)


def write_csv(path, x: np.ndarray, eps) -> None:
    names, rows = field_rows(x, eps)
    with open(path, "w", newline="") as f:
        np.savetxt(f, rows, fmt=FMT, delimiter=",", header=",".join(names), comments="")


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [[float(v) for v in line.strip().split(",")] for line in f if line.strip()]
    return header, np.array(rows)


def write_json(path, x: np.ndarray, eps, config: dict) -> None:
    names, rows = field_rows(x, eps)
    doc = {
        "meta": {
            "version": __version__,
            "eps": list(map(float, eps)),
            "config": {k: config[k] for k in sorted(config)},
        },
        "columns": names,
        "rows": rows.tolist(),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def write_svg(path, x: np.ndarray, eps: float, stroke=None) -> None:
    """Circle pattern of a planar circular net, one circle per lattice cell."""
    if x.ndim != 3 or x.shape[-1] != 2:
        raise NonPlanarExport("SVG output is only defined for planar nets")
    records = circle_records(x)
    stroke = eps / 10.0 if stroke is None else stroke
    cx = np.array([r.center[0] for r in records])
    cy = np.array([r.center[1] for r in records])
    rr = np.array([r.radius for r in records])
    x0, x1 = float(np.min(cx - rr)), float(np.max(cx + rr))
    y0, y1 = float(np.min(cy - rr)), float(np.max(cy + rr))
    pad = 0.05 * max(x1 - x0, y1 - y0)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{FMT % x0} {FMT % y0} {FMT % (x1 - x0)} {FMT % (y1 - y0)}">',
        f'<g fill="none" stroke="black" stroke-width="{FMT % stroke}" '
        f'transform="translate(0,{FMT % (y0 + y1)}) scale(1,-1)">',
    ]
    for rec in records:
        lines.append(
            f'<circle cx="{FMT % rec.center[0]}" cy="{FMT % rec.center[1]}" r="{FMT % rec.radius}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
