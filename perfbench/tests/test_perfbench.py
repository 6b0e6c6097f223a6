"""Tests of the benchmark itself: metric names, the circularity gate, the
self-time arithmetic and the tracer's patch/restore cycle.

    python -m pytest perfbench/tests -q
"""

import inspect
import json
import re
import sys

import numpy as np
import pytest

import run
import spans
from dlame import cli
from workloads import WORKLOADS, surface_gate

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for key in ("end_to_end", "per_layer"):
        for m in SPEC[key]:
            assert NAME.match(m["name"]), m["name"]
            assert UNIT.match(m["unit"]), m["unit"]
            assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _tiny_traced_run(tmp_path):
    """Two traced calls covering the Goursat solve, the frame step and the io layer."""
    tracer = spans.Tracer()
    csv = tmp_path / "tiny.csv"
    with tracer:
        with tracer.root_span():
            assert cli.main(["csurface", "--eps", "pi/20", "--r", "0.8", "--csv", str(csv)]) == 0
            assert cli.main(["conjugate", "--oracle", "spherical", "--eps", "0.2", "--r", "0.4"]) == 0
    return tracer


def test_per_layer_metrics_cover_benchmark_json(tmp_path):
    tracer = _tiny_traced_run(tmp_path)
    metrics = run.per_layer_metrics(tracer, 1, [1.0], [1.5])
    for m in SPEC["per_layer"]:
        assert m["name"] in metrics, m["name"]
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    # every step call of the two solves happened under a goursat_solve span
    steps = metrics["conjugate.step.calls"] + metrics["orthogonal.step.calls"]
    assert metrics["lattice.goursat_solve.step_calls"] == steps > 0
    assert 0 < metrics["conjugate.dcn_step_c.calls"] <= metrics["conjugate.step.calls"]
    assert metrics["io.bytes_written"] == (tmp_path / "tiny.csv").stat().st_size


def test_self_time_on_a_synthetic_call_tree():
    # root [0, 100] > a [10, 60] > (b [20, 30], b [35, 55] > c [40, 45]); a [70, 90]
    names = ["root", "a", "b", "c"]
    name_id = np.array([0, 1, 2, 2, 3, 1])
    parent = np.array([-1, 0, 1, 1, 3, 0])
    start = np.array([0, 10, 20, 35, 40, 70])
    end = np.array([100, 60, 30, 55, 45, 90])
    table = spans.span_table(names, name_id, parent, start, end)
    ns = 1e-9
    assert table["root"]["self_s"] == pytest.approx((100 - 50 - 20) * ns)
    assert table["a"]["self_s"] == pytest.approx((50 - 10 - 20 + 20) * ns)
    assert table["b"]["self_s"] == pytest.approx((10 + 20 - 5) * ns)
    assert table["c"]["self_s"] == pytest.approx(5 * ns)
    assert table["a"]["calls"] == 2 and table["a"]["incl_s"] == pytest.approx(70 * ns)
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(100 * ns)
    with pytest.raises(ValueError):
        spans.span_table(names, name_id, parent, start, np.array([100, 60, 30, 55, -1, 90]))


def _lookup_table():
    """Every function or method reachable as an attribute of a dlame module or class."""
    table = {}
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "dlame":
            continue
        for attr, value in vars(mod).items():
            table[(modname, attr)] = value
            if inspect.isclass(value):
                for meth, fn in vars(value).items():
                    table[(modname, attr, meth)] = fn
    return table


def test_every_patched_name_is_restored(tmp_path):
    before = _lookup_table()
    tracer = spans.Tracer()
    with tracer:
        during = _lookup_table()
        patched = [k for k in before if during[k] is not before[k]]
        cli.main(["csurface", "--eps", "pi/20", "--r", "0.4", "--csv", str(tmp_path / "a.csv")])
    after = _lookup_table()
    # the by-value imports the consumers look up are patched as well
    for key in [("dlame.conjugate", "goursat_solve"), ("dlame.orthogonal", "goursat_solve"),
                ("dlame.orthogonal", "extract_rotation_coeffs"), ("dlame.io", "circumcircle"),
                ("dlame.cli", "csurface_solve"), ("dlame.clifford", "Algebra", "geometric_product"),
                ("dlame.conjugate", "ConjugateSystem", "step"),
                ("dlame.orthogonal", "FrameSurfaceSystem", "step")]:
        assert key in patched, key
    assert all(after[k] is before[k] for k in before)
    assert tracer.table()["orthogonal.step"]["calls"] > 0


def _surface_outputs(tmp_path):
    csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    rc = cli.main(["csurface", "--oracle", "elliptic", "--eps", "pi/40", "--r", repr(4 * np.pi / 10),
                   "--csv", str(csv), "--svg", str(svg)])
    assert rc == 0
    return csv, svg


def test_surface_gate_passes_on_solver_output(tmp_path):
    csv, svg = _surface_outputs(tmp_path)
    gate = surface_gate(csv, svg, np.pi / 40)
    assert gate["ok"], gate["failures"]
    assert gate["detail"]["svg_circles"] == 16 * 16


def test_perturbed_csv_point_trips_the_circularity_gate(tmp_path):
    csv, svg = _surface_outputs(tmp_path)
    lines = csv.read_text().splitlines()
    row = 1 + 8 * 17 + 8          # interior site (8, 8) of the 17 x 17 grid
    cells = lines[row].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[row] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    gate = surface_gate(csv, svg, np.pi / 40)
    assert not gate["ok"]
    assert any("circularity" in f for f in gate["failures"])
