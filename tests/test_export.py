"""The single-pass writers against the exporters they replaced, byte for byte."""

import numpy as np
import pytest
from export_reference import circle_records as reference_circle_records
from export_reference import write_csv as reference_write_csv
from export_reference import write_json as reference_write_json
from export_reference import write_svg as reference_write_svg

from dlame.cli import main, make_alpha, make_curve
from dlame.clifford import algebra
from dlame.errors import ConfigError
from dlame.io import circle_records, write_csv, write_json, write_svg
from dlame.oracles import EllipticOracle, SphericalOracle, csurface_data_from_oracle
from dlame.orthogonal import csurface_solve, orthosys_assemble, ribaucour_solve

CONFIG = {"r": 1.2566370614359172, "oracle": "elliptic", "stagger": False, "eps": "pi/160",
          "lmax": 1, "r2": None}

SPECIAL = [-0.0, 5e-324, 1e-5, 1e16, 1e22, np.nan, np.inf, -np.inf]


def _elliptic():
    res = csurface_solve(csurface_data_from_oracle(EllipticOracle(), np.pi / 160, 4 * np.pi / 10))
    return res.x, res.mesh.eps


def _orthosys():
    return orthosys_assemble(SphericalOracle().surface_spec(0.1, 0.5)).x, (0.1,) * 3


def _ribaucour():
    res = ribaucour_solve(algebra(2), make_curve("warped:1.0"), make_alpha("sinmod:-1.0,0.3"),
                          np.array([0.55, 0.0]), np.pi / 40, 1.2)
    return res.x, (np.pi / 40, 1.0)


FIELDS = {
    "elliptic": _elliptic,
    "orthosys": _orthosys,
    "ribaucour": _ribaucour,
    "single_site": lambda: (np.array([[[0.25, -1.5]]]), (0.1, 0.1)),
    "special_values": lambda: (np.array(SPECIAL).reshape(2, 2, 2), (0.1, 0.2)),
    "special_values_3d": lambda: (np.array(SPECIAL * 3).reshape(2, 2, 2, 3), (1e-5, 1e22, 5e-324)),
    "no_rows": lambda: (np.zeros((0, 3, 2)), (0.1, 0.1)),
    "random": lambda: (np.random.default_rng(7).normal(scale=1e3, size=(7, 5, 2)), (0.3, 0.7)),
}


@pytest.fixture(scope="module", params=sorted(FIELDS))
def field(request):
    x, eps = FIELDS[request.param]()
    return request.param, x, eps


def test_expected_field_shapes():
    assert _elliptic()[0].shape == (65, 65, 2)
    assert _orthosys()[0].shape == (6, 6, 6, 3)
    assert _ribaucour()[0].shape[1:] == (2, 2)


def test_csv_matches_reference_bytewise(field, tmp_path):
    _, x, eps = field
    write_csv(tmp_path / "new.csv", x, eps)
    reference_write_csv(tmp_path / "ref.csv", x, eps)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_json_matches_reference_bytewise(field, tmp_path):
    _, x, eps = field
    write_json(tmp_path / "new.json", x, eps, CONFIG)
    reference_write_json(tmp_path / "ref.json", x, eps, CONFIG)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_json_spells_non_finite_values_as_json_does(tmp_path):
    x, eps = FIELDS["special_values"]()
    write_json(tmp_path / "x.json", x, eps, CONFIG)
    text = (tmp_path / "x.json").read_text()
    assert "   NaN\n" in text and "   Infinity,\n" in text and "   -Infinity\n" in text
    assert "nan" not in text and "inf" not in text


def test_json_of_a_field_without_rows(tmp_path):
    x, eps = FIELDS["no_rows"]()
    write_json(tmp_path / "x.json", x, eps, CONFIG)
    assert (tmp_path / "x.json").read_text().endswith(' "rows": []\n}\n')


def test_circle_records_and_svg_match_reference(field, tmp_path):
    name, x, eps = field
    if x.ndim != 3 or x.shape[-1] != 2 or min(x.shape[:2]) < 2 or name.startswith("special"):
        pytest.skip("the SVG needs a planar net with finite cells")
    try:
        expected = reference_circle_records(x)
    except ValueError:
        with pytest.raises(ValueError):
            circle_records(x)
        return
    assert circle_records(x) == expected
    write_svg(tmp_path / "new.svg", x, eps[0])
    reference_write_svg(tmp_path / "ref.svg", x, eps[0])
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_svg_with_explicit_stroke_matches_reference(tmp_path):
    x, _ = _elliptic()
    write_svg(tmp_path / "new.svg", x[:9, :7], 0.1, stroke=0.003)
    reference_write_svg(tmp_path / "ref.svg", x[:9, :7], 0.1, stroke=0.003)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_circle_records_of_a_net_without_cells():
    x, _ = FIELDS["single_site"]()
    assert circle_records(x) == reference_circle_records(x) == []


# -- gates ------------------------------------------------------------------


def _grid3():
    g1, g2 = np.meshgrid(np.arange(3.0), np.arange(3.0), indexing="ij")
    return np.stack([g1, g2], axis=-1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("vertex, cell", [((2, 2), (1, 1)), ((0, 0), (0, 0)), ((0, 2), (0, 1)),
                                          ((2, 0), (1, 0)), ((1, 1), (0, 0))])
def test_non_finite_vertex_fails_the_concircularity_gate(tmp_path, bad, vertex, cell):
    x = _grid3()
    x[vertex] = bad
    message = rf"^cell \({cell[0]}, {cell[1]}\) is not concircular$"
    with pytest.raises(ValueError, match=message):
        circle_records(x)
    with pytest.raises(ValueError, match=message):
        write_svg(tmp_path / "x.svg", x, 0.1)
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("shape", [(1, 1, 2), (1, 4, 2), (3, 1, 2), (0, 0, 2)])
def test_svg_of_a_net_without_cells_is_a_config_error(tmp_path, shape):
    with pytest.raises(ConfigError, match="at least one lattice cell"):
        write_svg(tmp_path / "x.svg", np.zeros(shape), 0.1)
    assert not (tmp_path / "x.svg").exists()


def test_cli_svg_of_a_single_site_lattice_exits_2(tmp_path, capsys):
    argv = ["csurface", "--oracle", "elliptic", "--eps", "1.0", "--r", "0.5"]
    for ext in ("csv", "json", "svg"):
        argv += [f"--{ext}", str(tmp_path / f"a.{ext}")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: SVG output needs at least one lattice cell")
    assert err.count("\n") == 1
