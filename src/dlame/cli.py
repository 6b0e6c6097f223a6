"""Command-line front end: config-driven solves, exports and sweeps."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from .analysis import run_sweep
from .clifford import algebra
from .curves import circle_curve, line_curve, warped_circle_curve
from .errors import ConfigError, DLameError
from .io import write_csv, write_json, write_svg
from .oracles import EllipticOracle, FlatOracle, SphericalOracle, csurface_data_from_oracle
from .orthogonal import csurface_solve, orthosys_assemble, ribaucour_solve
from .conjugate import solve_conjugate_net
from .lattice import MeshSpec, mesh_points

__all__ = ["main", "parse_eps", "build_parser"]


def parse_eps(text: str) -> float:
    """Mesh size literal: a decimal or 'pi/<int>'."""
    text = text.strip()
    try:
        if text.startswith("pi/"):
            den = int(text[3:])
            if den <= 0:
                raise ValueError
            return float(np.pi / den)
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"malformed mesh size {text!r}") from exc
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"mesh size must be positive and finite, got {text!r}")
    return value


def _number(text: str, what: str) -> float:
    """A finite float literal; ConfigError, naming `what`, for anything else."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"malformed {what} {text!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return value


def parse_eps_list(text: str) -> list[float]:
    eps = [parse_eps(tok) for tok in text.split(",") if tok.strip()]
    if len(eps) < 3:
        raise ConfigError("need at least three mesh sizes for a rate fit")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("mesh sizes must be strictly decreasing")
    return eps


def make_oracle(name: str, n: int | None = None):
    """The named oracle; n, when given, is the dimension the command needs."""
    table = {"elliptic": EllipticOracle, "spherical": SphericalOracle, "flat": FlatOracle}
    if name not in table:
        raise ConfigError(f"unknown oracle {name!r} (choose from {sorted(table)})")
    oracle = table[name]()
    if n is not None and oracle.n != n:
        raise ConfigError(f"this command needs a {n}-dimensional oracle; {name!r} is {oracle.n}-dimensional")
    return oracle


def make_curve(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "line":
        return line_curve(np.zeros(2), np.array([1.0, 0.0]))
    if kind in ("circle", "warped"):
        radius = _number(arg, "curve radius") if arg else 1.0
        if not radius > 0:
            raise ConfigError(f"curve radius must be positive, got {arg!r}")
        return circle_curve(radius) if kind == "circle" else warped_circle_curve(radius, 0.3)
    raise ConfigError(f"unknown curve {spec!r}")


def make_alpha(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "const":
        v = _number(arg, "alpha constant") if arg else -1.0
        return lambda t: v
    if kind == "sinmod":
        terms = arg.split(",")
        if len(terms) != 2:
            raise ConfigError(f"sinmod needs two numbers 'base,amplitude', got {arg!r}")
        base, amp = (_number(x, "sinmod coefficient") for x in terms)
        return lambda t: base + amp * np.sin(t)
    raise ConfigError(f"unknown alpha function {spec!r}")


class _ConfigFileParser(argparse.ArgumentParser):
    """Accepts @file arguments holding one `key=value` or `--flag value` per line."""

    def convert_arg_line_to_args(self, line):
        line = line.strip()
        if not line or line.startswith("#"):
            return []
        if not line.startswith("-"):
            line = "--" + line
        return [line]


def build_parser() -> argparse.ArgumentParser:
    p = _ConfigFileParser(prog="dlame", description=__doc__, fromfile_prefix_chars="@")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_ConfigFileParser)

    def add_outputs(q, svg=False):
        q.add_argument("--csv", help="write the point lattice as CSV")
        q.add_argument("--json", help="write the point lattice as JSON")
        if svg:
            q.add_argument("--svg", help="write the circle pattern as SVG (planar nets only)")

    q = sub.add_parser("csurface", help="solve a surface from oracle data")
    q.add_argument("--oracle", default="elliptic")
    q.add_argument("--eps", required=True)
    q.add_argument("--r", type=float, default=1.2)
    q.add_argument("--r2", type=float, help="extent of the second direction (default --r)")
    q.add_argument("--stagger", action="store_true", help="sample data at cell midpoints")
    add_outputs(q, svg=True)

    q = sub.add_parser("conjugate", help="solve a conjugate net with oracle coefficients")
    q.add_argument("--oracle", default="elliptic")
    q.add_argument("--eps", required=True)
    q.add_argument("--r", type=float, default=1.2)
    add_outputs(q)

    q = sub.add_parser("orthosys", help="assemble a three-dimensional orthogonal system")
    q.add_argument("--oracle", default="spherical")
    q.add_argument("--eps", required=True)
    q.add_argument("--r", type=float, default=0.5)
    add_outputs(q)

    q = sub.add_parser("ribaucour", help="solve a curve/transform pair")
    q.add_argument("--curve", default="warped:1.0")
    q.add_argument("--alpha", default="const:-1.0")
    q.add_argument("--seed", default="0.55,0.0", help="transform seed point, comma separated")
    q.add_argument("--eps", required=True)
    q.add_argument("--r", type=float, default=1.2)
    add_outputs(q)

    q = sub.add_parser("sweep", help="mesh-refinement sweep with rate fit")
    q.add_argument("--problem", default="csurface", choices=["csurface", "orthosys"])
    q.add_argument("--oracle", default="elliptic")
    q.add_argument("--eps-list", required=True)
    q.add_argument("--r", type=float, default=4 * np.pi / 10)
    q.add_argument("--lmax", type=int, default=1)
    q.add_argument("--stagger", action="store_true")
    q.add_argument("--report", help="write the sweep report as JSON")
    return p


def _config_echo(args) -> dict:
    skip = {"command", "csv", "json", "svg", "report"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _export(args, x, eps_tuple):
    # the SVG goes first: its gates (planar, at least one cell, concircular) leave no file behind
    wrote = False
    if getattr(args, "svg", None):
        write_svg(args.svg, x, eps_tuple[0])
        wrote = True
    if getattr(args, "csv", None):
        write_csv(args.csv, x, eps_tuple)
        wrote = True
    if getattr(args, "json", None):
        write_json(args.json, x, eps_tuple, _config_echo(args))
        wrote = True
    if not wrote:
        print(f"solved lattice with shape {x.shape[:-1]} (no output files requested)")


def run(args) -> int:
    for name in ("r", "r2"):
        value = getattr(args, name, None)
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ConfigError(f"--{name} must be positive and finite, got {value!r}")
    if getattr(args, "lmax", 0) < 0:
        raise ConfigError(f"--lmax must be non-negative, got {args.lmax}")
    if args.command == "csurface":
        oracle = make_oracle(args.oracle, 2)
        eps = parse_eps(args.eps)
        data = csurface_data_from_oracle(oracle, eps, args.r, stagger=args.stagger, r2=args.r2)
        res = csurface_solve(data)
        _export(args, res.x, res.mesh.eps)
        return 0
    if args.command == "conjugate":
        oracle = make_oracle(args.oracle)
        eps = parse_eps(args.eps)
        x = _conjugate_from_oracle(oracle, eps, args.r)
        _export(args, x, (eps,) * (x.ndim - 1))
        return 0
    if args.command == "orthosys":
        oracle = make_oracle(args.oracle, 3)
        eps = parse_eps(args.eps)
        res = orthosys_assemble(oracle.surface_spec(eps, args.r))
        _export(args, res.x, (eps,) * 3)
        return 0
    if args.command == "ribaucour":
        eps = parse_eps(args.eps)
        curve = make_curve(args.curve)
        alpha = make_alpha(args.alpha)
        seed = np.array([_number(v, "seed coordinate") for v in args.seed.split(",")])
        if len(seed) != curve.dim:
            raise ConfigError("seed dimension does not match the curve")
        res = ribaucour_solve(algebra(curve.dim), curve, alpha, seed, eps, args.r)
        _export(args, res.x, (eps, 1.0))
        return 0
    if args.command == "sweep":
        oracle = make_oracle(args.oracle, 2 if args.problem == "csurface" else 3)
        eps_list = parse_eps_list(args.eps_list)
        report = run_sweep(args.problem, oracle, eps_list, args.r,
                           l_max=args.lmax, stagger=args.stagger)
        doc = report.to_dict()
        doc["config"] = _config_echo(args)
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        if args.report:
            with open(args.report, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return 0
    raise ConfigError(f"unknown command {args.command!r}")


def _conjugate_from_oracle(oracle, eps, r):
    """Conjugate net with coefficients c_ij = h_i beta_ij / h_j from the oracle."""
    n = oracle.n
    npts = mesh_points(r, eps)
    t = np.arange(npts + 1) * eps
    w_axis = {}
    for a in range(n):
        xi = [np.zeros_like(t)] * n
        xi[a] = t
        X = oracle.F(*xi)
        w_axis[a] = (X[1:] - X[:-1])[:npts] / eps
    g1, g2 = np.meshgrid(t[:npts], t[:npts], indexing="ij")
    c_data = {}
    for a, b in itertools.combinations(range(n), 2):
        xi = [np.zeros_like(g1)] * n
        xi[a], xi[b] = g1, g2
        c_data[(a, b)] = np.broadcast_to(oracle.c_ij(a + 1, b + 1, *xi), g1.shape).astype(float)
        c_data[(b, a)] = np.broadcast_to(oracle.c_ij(b + 1, a + 1, *xi), g1.shape).astype(float)
    mesh = MeshSpec((eps,) * n, (npts,) * n)
    fields = solve_conjugate_net(mesh, oracle.F(*[0.0] * n), w_axis, c_data, N=n, request=("x",))
    return fields["x"].values


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use: a parse leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DLameError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
