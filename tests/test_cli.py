import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dlame.cli import main, parse_eps, parse_eps_list
from dlame.errors import ConfigError, NonPlanarExport
from dlame.io import circle_records, read_csv, write_csv, write_svg
from dlame.lattice import mesh_points


class TestParsing:
    def test_decimal(self):
        assert parse_eps("0.125") == 0.125

    def test_pi_literal(self):
        assert parse_eps("pi/20") == np.pi / 20

    @pytest.mark.parametrize("bad", ["bogus", "pi/0", "pi/-3", "-0.5", "0", "nan", "inf"])
    def test_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_eps(bad)

    def test_eps_list_must_decrease(self):
        with pytest.raises(ConfigError):
            parse_eps_list("pi/20,pi/10")

    def test_eps_list_needs_three_sizes(self):
        # the rate fit needs three points
        with pytest.raises(ConfigError):
            parse_eps_list("0.1,0.05")
        assert parse_eps_list("0.1,0.05,0.025") == [0.1, 0.05, 0.025]


class TestExitCodes:
    def test_malformed_eps_exits_2(self, capsys):
        assert main(["csurface", "--oracle", "elliptic", "--eps", "nope"]) == 2

    @pytest.mark.parametrize("argv", [
        ["csurface", "--eps", "0.1", "--r", "-1"],
        ["csurface", "--eps", "0.1", "--r", "nan"],
        ["csurface", "--eps", "0.1", "--r2", "inf"],
        ["orthosys", "--eps", "0.1", "--r", "0"],
        ["sweep", "--eps-list", "0.1,0.05", "--lmax", "-1"],
        # malformed or non-finite numbers in the curve, alpha and seed specs
        *(["ribaucour", "--eps", "0.1", "--r", "0.5", flag, spec] for flag, spec in [
            ("--alpha", "sinmod:1"), ("--alpha", "const:x"), ("--alpha", "sinmod:a,b"),
            ("--alpha", "const:nan"), ("--alpha", "sinmod:-1.0,inf"),
            ("--curve", "circle:abc"), ("--curve", "circle:0"), ("--curve", "circle:-1"),
            ("--curve", "warped:inf"), ("--seed", "0.55,nan"), ("--seed", "0.55,x"),
        ]),
    ])
    def test_out_of_range_extent_or_order_exits_2(self, argv):
        assert main(argv) == 2

    def test_unknown_oracle_exits_2(self):
        assert main(["csurface", "--oracle", "does-not-exist", "--eps", "0.1"]) == 2

    def test_solver_error_exits_1(self, tmp_path):
        # a transform seed on the tangent line is outside the admissible set
        rc = main(["ribaucour", "--curve", "line", "--alpha", "const:0.0",
                   "--seed", "0.5,0.0", "--eps", "0.1", "--r", "0.5"])
        assert rc == 1

    def test_seed_at_curve_start_exits_1_with_the_solver_error_alone(self):
        # warnings are errors: a warning before the typed error would end in a traceback
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dlame.cli", "ribaucour", "--curve", "warped:1.0",
             "--alpha", "sinmod:-1.0,0.3", "--seed", "1.0,0", "--eps", "pi/80", "--r", "1.2"],
            capture_output=True, text=True, cwd=src, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == "solver error: transform seed coincides with the curve start\n"

    @pytest.mark.parametrize("exts", [("csv", "json", "svg"), ("json", "svg"), ("csv", "svg")])
    def test_rejected_svg_leaves_no_file(self, tmp_path, exts):
        # a 1 x 1 net has no cell to draw: the SVG gate rejects it before any file is written
        paths = [tmp_path / f"a.{ext}" for ext in exts]
        argv = ["csurface", "--oracle", "elliptic", "--eps", "1.0", "--r", "0.5"]
        assert main(argv + [arg for p in paths for arg in (f"--{p.suffix[1:]}", str(p))]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_success_exit_0(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = main(["csurface", "--oracle", "elliptic", "--eps", "pi/10",
                   "--r", "1.0", "--csv", str(out)])
        assert rc == 0 and out.exists()


class TestOracleDimension:
    # command line and the oracle dimension it needs (None: any)
    COMMANDS = {
        "csurface": (["csurface", "--eps", "pi/10", "--r", "0.6"], 2),
        "conjugate": (["conjugate", "--eps", "0.1", "--r", "0.3"], None),
        "orthosys": (["orthosys", "--eps", "0.1", "--r", "0.3"], 3),
        "sweep-csurface": (["sweep", "--problem", "csurface", "--eps-list", "pi/10,pi/20,pi/40",
                            "--r", "0.6", "--lmax", "0"], 2),
        "sweep-orthosys": (["sweep", "--problem", "orthosys", "--eps-list", "0.2,0.1,0.05",
                            "--r", "0.4", "--lmax", "0"], 3),
    }
    DIMS = {"elliptic": 2, "spherical": 3, "flat": 2}

    @pytest.mark.parametrize("oracle", sorted(DIMS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_code_follows_dimension(self, command, oracle, capsys):
        argv, n = self.COMMANDS[command]
        ok = n is None or n == self.DIMS[oracle]
        assert main(argv + ["--oracle", oracle]) == (0 if ok else 2)
        if not ok:
            assert f"needs a {n}-dimensional oracle" in capsys.readouterr().err

    def test_flat_conjugate_reproduces_the_grid(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert main(["conjugate", "--oracle", "flat", "--eps", "0.1", "--r", "0.5", "--csv", str(out)]) == 0
        _, arr = read_csv(out)
        t = np.arange(mesh_points(0.5, 0.1)) * 0.1
        grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        assert arr[:, 2:].shape == grid.shape
        assert np.max(np.abs(arr[:, 2:] - grid)) <= 1e-14


class TestExports:
    def test_csv_round_trip_bitwise(self, tmp_path, rng):
        x = rng.normal(size=(4, 3, 2))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(p1, x, (0.1, 0.1))
        header, arr = read_csv(p1)
        assert header == ["xi1", "xi2", "x1", "x2"]
        back = arr[:, 2:].reshape(4, 3, 2)
        assert np.array_equal(back, x)
        write_csv(p2, back, (0.1, 0.1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_flat_grid_circle_record(self):
        eps = 0.5
        t = np.arange(2) * eps
        g1, g2 = np.meshgrid(t, t, indexing="ij")
        x = np.stack([g1, g2], axis=-1)
        records = circle_records(x)
        assert len(records) == 1
        rec = records[0]
        assert np.allclose(rec.center, [eps / 2, eps / 2])
        assert abs(rec.radius - eps / np.sqrt(2)) < 1e-14

    def test_circle_records_name_first_bad_cell_in_row_major_order(self):
        g1, g2 = np.meshgrid(np.arange(5.0), np.arange(6.0), indexing="ij")
        x = np.stack([g1, g2], axis=-1)
        # the vertex (1, 4) spoils cells (0, 3) .. (1, 4), the vertex (3, 1)
        # cells (2, 0) .. (3, 1); column-major order would meet (2, 0) first
        x[1, 4] += [0.1, 0.05]
        x[3, 1] += [0.1, 0.05]
        with pytest.raises(ValueError, match=r"^cell \(0, 3\) is not concircular$"):
            circle_records(x)

    def test_svg_rejects_space_nets(self, tmp_path, rng):
        x = rng.normal(size=(3, 3, 3))
        with pytest.raises(NonPlanarExport):
            write_svg(tmp_path / "x.svg", x, 0.1)

    def test_identical_configs_are_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            csv = tmp_path / f"{tag}.csv"
            js = tmp_path / f"{tag}.json"
            rc = main(["csurface", "--oracle", "elliptic", "--eps", "pi/20",
                       "--r", "1.0", "--csv", str(csv), "--json", str(js)])
            assert rc == 0
            outs.append((csv.read_bytes(), js.read_bytes()))
        assert outs[0] == outs[1]

    def test_json_structure(self, tmp_path):
        js = tmp_path / "x.json"
        main(["csurface", "--oracle", "elliptic", "--eps", "pi/10", "--r", "1.0",
              "--json", str(js)])
        doc = json.loads(js.read_text())
        assert doc["meta"]["version"]
        assert doc["columns"][0] == "xi1"
        assert len(doc["rows"]) == len(doc["rows"][0]) * 0 + len(doc["rows"])
        # numbers round trip exactly through the JSON text
        assert isinstance(doc["rows"][0][2], float)


class TestConfigFile:
    def test_key_value_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# figure run\noracle=elliptic\neps=pi/10\nr=1.0\n")
        out = tmp_path / "out.csv"
        rc = main(["csurface", f"@{cfg}", "--csv", str(out)])
        assert rc == 0
        direct = tmp_path / "direct.csv"
        main(["csurface", "--oracle", "elliptic", "--eps", "pi/10", "--r", "1.0",
              "--csv", str(direct)])
        assert out.read_bytes() == direct.read_bytes()


class TestSweepCommand:
    def test_two_mesh_sizes_exit_2_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("sweep solved with a malformed mesh list")

        monkeypatch.setattr("dlame.cli.run_sweep", no_solve)
        assert main(["sweep", "--problem", "orthosys", "--oracle", "spherical",
                     "--eps-list", "0.1,0.05", "--r", "0.4"]) == 2

    def test_orthosys_stagger_changes_the_report(self, tmp_path):
        docs = {}
        for flag in ([], ["--stagger"]):
            rep = tmp_path / f"report{len(flag)}.json"
            rc = main(["sweep", "--problem", "orthosys", "--oracle", "spherical",
                       "--eps-list", "0.1,0.05,0.025", "--r", "0.4", "--lmax", "0",
                       "--report", str(rep)] + flag)
            assert rc == 0
            docs[bool(flag)] = json.loads(rep.read_text())
        assert docs[True]["config"]["stagger"] and not docs[False]["config"]["stagger"]
        plain, staggered = docs[False]["errors"]["0"], docs[True]["errors"]["0"]
        assert all(a != b for a, b in zip(plain, staggered))
        assert 0.8 < docs[True]["slopes"]["0"] < 1.2

    def test_report_file(self, tmp_path):
        rep = tmp_path / "report.json"
        rc = main(["sweep", "--problem", "csurface", "--oracle", "elliptic",
                   "--eps-list", "pi/10,pi/20,pi/40", "--report", str(rep)])
        assert rc == 0
        doc = json.loads(rep.read_text())
        assert 0.8 < doc["slopes"]["0"] < 1.2
        assert doc["config"]["oracle"] == "elliptic"

    def test_entry_point_runs(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "dlame.cli", "sweep", "--problem", "csurface",
             "--oracle", "elliptic", "--eps-list", "pi/10,pi/20,pi/40", "--lmax", "0"],
            capture_output=True, text=True, cwd=src,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "csurface"
