"""Deterministic exports of solved lattices: CSV, JSON, SVG circle patterns.

Values are written with 17 significant digits (JSON: the shortest repr) so a
round trip through text reproduces the doubles bit for bit; re-running the
same configuration yields byte-identical files.  Each writer formats its whole
body in one pass: one `%`-format of a row template repeated over every row,
with each lattice coordinate formatted once per axis and spliced in as a string.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .circles import circumcircle
from .errors import ConfigError, NonPlanarExport

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


def _cell_circles(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers (n1 - 1, n2 - 1, 2) and radii (n1 - 1, n2 - 1), gated as `circle_records` says."""
    if x.ndim != 3 or x.shape[-1] != 2:
        raise NonPlanarExport("circle records need a two-dimensional planar field")
    corners = x[:-1, :-1], x[1:, :-1], x[1:, 1:]
    ok = np.isfinite(x).all(axis=-1)
    finite = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:]
    if not finite.all():  # a cell with a non-finite corner gets a placeholder triangle and fails the test below
        corners = [np.where(finite[..., None], p, q) for p, q in zip(corners, np.eye(3, 2))]
    center, radius, _ = circumcircle(*corners)
    # fails closed: a nan deviation or radius fails the test
    off = ~finite | ~(np.abs(np.linalg.norm(x[:-1, 1:] - center, axis=-1) - radius) <= 1e-8 * radius)
    if off.any():
        i, j = np.argwhere(off)[0].tolist()
        raise ValueError(f"cell ({i}, {j}) is not concircular")
    return center, radius


def circle_records(x: np.ndarray):
    """Circumcircles of all cells of a 2D point field (n1, n2, 2).

    The circle of a cell is determined by its first three vertices; the fourth
    vertex must sit on it within 1e-8 * radius or ValueError is raised,
    naming the first such cell in row-major order (a cell with a non-finite
    vertex fails this test), which makes the record list a circularity
    witness of the whole net.  A cell with collinear vertices raises
    DegenerateEdges first, with `row` its row-major index.  Records are in
    row-major cell order.
    """
    center, radius = _cell_circles(x)
    cells = np.ndindex(radius.shape)
    return [CircleRecord(cell, (cx, cy), r) for cell, (cx, cy), r in
            zip(cells, center.reshape(-1, 2).tolist(), radius.ravel().tolist())]


def _format_rows(row: str, table: np.ndarray) -> str:
    """`row` repeated once per row of a 2D table, filled with its values in one format call."""
    return row * len(table) % tuple(table.ravel().tolist())


def _names(x: np.ndarray) -> list[str]:
    return [f"xi{k + 1}" for k in range(x.ndim - 1)] + [f"x{k + 1}" for k in range(x.shape[-1])]


def field_rows(x: np.ndarray, eps) -> tuple[list[str], np.ndarray]:
    """Lexicographically ordered rows (xi..., x...) of a point field, as one
    (sites, k + N) array for a field over k grid axes."""
    grid_axes = x.ndim - 1
    coords = np.indices(x.shape[:-1]).reshape(grid_axes, -1).T * np.asarray(eps, dtype=float)[:grid_axes]
    return _names(x), np.concatenate([coords, x.reshape(-1, x.shape[-1])], axis=1)


def _field_table(x: np.ndarray, eps, fmt: str) -> np.ndarray:
    """The rows of `field_rows` as an object table for `_format_rows`.  A grid axis has
    few distinct coordinates, so each is formatted once with `fmt` and its cells hold
    the string (template slot %s); the point coordinates stay floats."""
    k = x.ndim - 1
    idx = np.indices(x.shape[:-1]).reshape(k, -1)
    table = np.empty((idx.shape[1], k + x.shape[-1]), dtype=object)
    table[:, k:] = x.reshape(-1, x.shape[-1])
    for a, e in enumerate(np.broadcast_to(np.asarray(eps, dtype=float)[:k], (k,))):
        table[:, a] = np.array([fmt % v for v in (np.arange(x.shape[a]) * e).tolist()], dtype=object)[idx[a]]
    return table


def write_csv(path, x: np.ndarray, eps) -> None:
    body = _format_rows(",".join(["%s"] * (x.ndim - 1) + [FMT] * x.shape[-1]) + "\n", _field_table(x, eps, FMT))
    with open(path, "w", newline="") as f:
        f.write(",".join(_names(x)) + "\n" + body)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [[float(v) for v in line.strip().split(",")] for line in f if line.strip()]
    return header, np.array(rows)


def write_json(path, x: np.ndarray, eps, config: dict) -> None:
    """The columns, metadata and rows as `json.dump(..., indent=1, sort_keys=True)` writes them.

    `json` spells a finite float as its repr, so the "rows" block, which sorts
    last, is formatted with `%r` and spliced in; non-finite values are then
    respelled NaN, Infinity and -Infinity as `json` writes them.
    """
    head = json.dumps({
        "meta": {
            "version": __version__,
            "eps": list(map(float, eps)),
            "config": {k: config[k] for k in sorted(config)},
        },
        "columns": _names(x),
    }, indent=1, sort_keys=True)
    body = "[]"
    if math.prod(x.shape[:-1]):
        row = "  [\n" + ",\n".join(["   %s"] * (x.ndim - 1) + ["   %r"] * x.shape[-1]) + "\n  ],\n"
        body = "[\n" + _format_rows(row, _field_table(x, eps, "%r"))[:-2] + "\n ]"
        if "n" in body:  # the repr of a finite float has no n, those of nan and inf do
            body = body.replace("nan", "NaN").replace("inf", "Infinity")
    with open(path, "w") as f:
        f.write(head[:-2] + ',\n "rows": ' + body + "\n}\n")


def write_svg(path, x: np.ndarray, eps: float) -> None:
    """Circle pattern of a planar circular net, one circle per lattice cell.

    The net needs at least one cell (ConfigError otherwise) and every cell
    must pass the concircularity test of `circle_records`.
    """
    if x.ndim != 3 or x.shape[-1] != 2:
        raise NonPlanarExport("SVG output is only defined for planar nets")
    if min(x.shape[:2]) < 2:
        raise ConfigError(f"SVG output needs at least one lattice cell; the net has "
                          f"{x.shape[0]} x {x.shape[1]} sites")
    center, radius = _cell_circles(x)
    cx, cy, rr = center[..., 0].ravel(), center[..., 1].ravel(), radius.ravel()
    x0, x1 = float(np.min(cx - rr)), float(np.max(cx + rr))
    y0, y1 = float(np.min(cy - rr)), float(np.max(cy + rr))
    pad = 0.05 * max(x1 - x0, y1 - y0)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{FMT % x0} {FMT % y0} {FMT % (x1 - x0)} {FMT % (y1 - y0)}">\n'
        f'<g fill="none" stroke="black" stroke-width="{FMT % (eps / 10.0)}" '
        f'transform="translate(0,{FMT % (y0 + y1)}) scale(1,-1)">\n'
    )
    circles = _format_rows(f'<circle cx="{FMT}" cy="{FMT}" r="{FMT}"/>\n',
                           np.stack([cx, cy, rr], axis=-1))
    with open(path, "w") as f:
        f.write(head + circles + "</g>\n</svg>\n")
