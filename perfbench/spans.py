"""Span tracing of the dlame layers from outside the package.

The tracer wraps public functions of the `dlame` modules where they are looked
up: in the defining module, in every `dlame` module that imported the same
object by value, and on the class for methods.  Each call records one span
(name, parent span, start, end) in flat in-memory arrays; self time and the
per-layer table are computed after the run, and every patched attribute is
restored when the tracer is closed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute path).  A dotted attribute path names
# a method, patched on its class.  Span names are "<layer>.<function>", where
# the layer is the dlame module; several targets may share one span name.
TARGETS = [
    ("clifford.geometric_product", "dlame.clifford", "Algebra.geometric_product"),
    ("clifford.adjoint", "dlame.clifford", "Algebra.adjoint"),
    ("lattice.goursat_solve", "dlame.lattice", "goursat_solve"),
    ("lattice.cl_norm", "dlame.lattice", "cl_norm"),
    ("lattice.consistency_residual", "dlame.lattice", "consistency_residual"),
    ("conjugate.step", "dlame.conjugate", "ConjugateSystem.step"),
    ("conjugate.dcn_step_c", "dlame.conjugate", "dcn_step_c"),
    ("conjugate.extract_rotation_coeffs", "dlame.conjugate", "extract_rotation_coeffs"),
    ("conjugate.shift_state", "dlame.conjugate", "shift_state"),
    ("conjugate.elementary_hexahedron", "dlame.conjugate", "elementary_hexahedron"),
    ("conjugate.check_4d_consistency", "dlame.conjugate", "check_4d_consistency"),
    ("conjugate.solve_conjugate_net", "dlame.conjugate", "solve_conjugate_net"),
    ("orthogonal.step", "dlame.orthogonal", "FrameSurfaceSystem.step"),
    ("orthogonal.splitting_rhos", "dlame.orthogonal", "FrameSurfaceSystem.splitting_rhos"),
    ("orthogonal.read_off_curve", "dlame.orthogonal", "read_off_curve"),
    ("orthogonal.canonical_discretization", "dlame.orthogonal", "canonical_discretization"),
    ("orthogonal.frame_points", "dlame.orthogonal", "frame_points"),
    ("orthogonal.csurface_solve", "dlame.orthogonal", "csurface_solve"),
    ("orthogonal.orthosys_assemble", "dlame.orthogonal", "orthosys_assemble"),
    ("orthogonal.ribaucour_solve", "dlame.orthogonal", "ribaucour_solve"),
    ("orthogonal.triple_ribaucour_net", "dlame.orthogonal", "triple_ribaucour_net"),
    ("orthogonal.ribaucour_pair_3d", "dlame.orthogonal", "ribaucour_pair_3d"),
    ("circles.circumcircle", "dlame.circles", "circumcircle"),
    ("circles.circularity_residual_batch", "dlame.circles", "circularity_residual_batch"),
    ("oracles.data", "dlame.oracles", "csurface_data_from_oracle"),
    ("oracles.data", "dlame.oracles", "SphericalOracle.surface_spec"),
    ("analysis.run_sweep", "dlame.analysis", "run_sweep"),
    ("io.write_csv", "dlame.io", "write_csv"),
    ("io.write_json", "dlame.io", "write_json"),
    ("io.write_svg", "dlame.io", "write_svg"),
    ("io.circle_records", "dlame.io", "circle_records"),
    ("cli.main", "dlame.cli", "main"),
]

ROOT = "bench.pass"
STEP_SPANS = ("conjugate.step", "orthogonal.step")


def _items(a, b) -> int:
    """Number of multivector pairs one geometric_product call multiplies."""
    shape = np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1])
    return int(np.prod(shape)) if shape else 1


class Tracer:
    """Patches the targets on `install`, records spans, restores on `close`."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        for name, _, _ in TARGETS:
            self._ids.setdefault(name, len(self.names))
            if self._ids[name] == len(self.names):
                self.names.append(name)
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.items = 0            # geometric_product multivector pairs
        self.blocks = 0           # dcn_step_c implicit 6x6 blocks
        self.bytes_written = 0    # io writers
        self.solves: list[dict] = []   # per goursat_solve: sites, steps, skipped values
        self._step_ids = [self._ids[n] for n in STEP_SPANS]

    # -- span recording ---------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(-1)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root_span(self):
        """Record the root span of one pass around a block."""
        idx = self._open(self._ids[ROOT])
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = self._ids[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count(name, idx, args, kwargs, out)
            return out

        return wrapper

    def _count(self, name, idx, args, kwargs, out) -> None:
        if name == "clifford.geometric_product":
            self.items += _items(args[1], args[2])
        elif name == "conjugate.dcn_step_c":
            self.blocks += len(out) // 6
        elif name in ("io.write_csv", "io.write_json", "io.write_svg"):
            self.bytes_written += os.path.getsize(args[0])
        elif name == "lattice.goursat_solve":
            self._count_solve(idx, args[1] if len(args) > 1 else kwargs["mesh"], out)

    def _count_solve(self, idx, mesh, fields) -> None:
        """Sites, step-rule calls and values skipped by demand marking of one solve."""
        parent = np.frombuffer(self.parent, dtype=np.int64)[idx + 1:]
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[idx + 1:]
        steps = int(np.count_nonzero((parent == idx) & np.isin(name_id, self._step_ids)))
        del parent, name_id          # release the buffers so the arrays can grow
        values = skipped = 0
        for f in fields.values():
            flat = f.values.reshape(f.values.shape[:f.mesh.M] + (-1,))
            nan_sites = np.isnan(flat).any(axis=-1)
            values += nan_sites.size
            skipped += int(np.count_nonzero(nan_sites))
        self.solves.append({"npts": list(mesh.npts), "step_calls": steps,
                            "values": values, "skipped": skipped})

    # -- patching ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target where it is looked up."""
        try:
            for name, modname, attr in TARGETS:
                module = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for key, mod in list(sys.modules.items()):
                    if key.split(".")[0] == "dlame" and vars(mod).get(attr) is original:
                        self._set(mod, attr, wrapper)
        except BaseException:
            self.close()
            raise
        return self

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def close(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()
        return False

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays (name_id, parent, start_ns, end_ns)."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def table(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, inclusive seconds and self seconds."""
        table = span_table(self.names, *self.arrays())
        del table[ROOT]
        return table

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start_ns=start, end_ns=end)


def span_table(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, since a single caller runs
    them one after another.
    """
    if np.any(end < start):
        raise ValueError("trace holds a span that never closed")
    dur = end - start
    child = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    out = {}
    for k, name in enumerate(names):
        sel = name_id == k
        out[name] = {
            "calls": int(np.count_nonzero(sel)),
            "incl_s": float(dur[sel].sum()) * 1e-9,
            "self_s": float(self_ns[sel].sum()) * 1e-9,
        }
    return out
