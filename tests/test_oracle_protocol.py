"""The one n-dimensional oracle protocol and the samplers built on it.

Differential tests hold the Goursat data that `csurface_data_from_oracle`,
`SphericalOracle.surface_spec` and the conjugate CLI net build from the
protocol to bitwise equality with the samplers they replaced
(`oracle_reference.py`).
"""

import dataclasses

import numpy as np
import pytest

import oracle_reference as ref
from dlame.cli import _conjugate_from_oracle
from dlame.oracles import EllipticOracle, FlatOracle, SphericalOracle, csurface_data_from_oracle

R = 4 * np.pi / 10
OFFSETS = [(0.3, 0.3), (0.6, 0.45)]


def assert_bitwise(new, old, path="data"):
    """Every array field equal in dtype, shape and bytes; every other field equal."""
    if isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray), path
        assert (new.dtype, new.shape) == (old.dtype, old.shape), path
        assert new.tobytes() == old.tobytes(), path
    elif isinstance(old, dict):
        assert new.keys() == old.keys(), path
        for k in old:
            assert_bitwise(new[k], old[k], f"{path}[{k}]")
    elif dataclasses.is_dataclass(old):
        assert type(new) is type(old), path
        for f in dataclasses.fields(old):
            assert_bitwise(getattr(new, f.name), getattr(old, f.name), f"{path}.{f.name}")
    else:
        assert new == old, path


def _planar(kind, offset):
    if kind == "flat":
        return FlatOracle(), ref.FlatOracle()
    return EllipticOracle(offset=offset), ref.EllipticOracle(offset=offset)


class TestOneProtocol:
    @pytest.mark.parametrize("cls", [EllipticOracle, FlatOracle])
    def test_planar_oracles_have_no_2d_names(self, cls):
        for name in ("h", "beta12", "beta21", "gamma", "c12", "c21"):
            assert not hasattr(cls, name), name

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_elliptic_methods_equal_the_2d_dialect(self, offset):
        new, old = EllipticOracle(offset=offset), ref.EllipticOracle(offset=offset)
        g1, g2 = np.meshgrid(np.linspace(0.0, 1.3, 9), np.linspace(0.0, 1.1, 7), indexing="ij")
        pairs = [
            (new.h_i(1, g1, g2), old.h(g1, g2)),
            (new.h_i(2, g1, g2), old.h(g1, g2)),
            (new.beta(1, 2, g1, g2), old.beta12(g1, g2)),
            (new.beta(2, 1, g1, g2), old.beta21(g1, g2)),
            (new.gamma_ij(1, 2, g1, g2), old.gamma(g1, g2)),
            (new.c_ij(1, 2, g1, g2), old.c12(g1, g2)),
            (new.c_ij(2, 1, g1, g2), old.c21(g1, g2)),
        ]
        for k, (a, b) in enumerate(pairs):
            assert_bitwise(a, b, f"pair {k}")

    def test_flat_F_broadcasts(self):
        assert FlatOracle().F(np.arange(3), 0.0).shape == (3, 2)
        assert np.array_equal(FlatOracle().F(np.arange(3), 0.0), [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


class TestSamplersMatchReference:
    @pytest.mark.parametrize("eps", [np.pi / 20, np.pi / 160])
    @pytest.mark.parametrize("variant", ["plain", "stagger", "r2"])
    @pytest.mark.parametrize("kind,offset", [("elliptic", OFFSETS[0]), ("elliptic", OFFSETS[1]), ("flat", None)])
    def test_csurface_data(self, kind, offset, variant, eps):
        new, old = _planar(kind, offset)
        kw = {"stagger": True} if variant == "stagger" else {"r2": 2 * R} if variant == "r2" else {}
        assert_bitwise(csurface_data_from_oracle(new, eps, R, **kw), ref.csurface_data_from_oracle(old, eps, R, **kw))

    @pytest.mark.parametrize("stagger", [False, True])
    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
    def test_spherical_surface_spec(self, eps, stagger):
        oracle = SphericalOracle()
        assert_bitwise(oracle.surface_spec(eps, 0.4, stagger=stagger),
                       ref.surface_spec(oracle, eps, 0.4, stagger=stagger))

    @pytest.mark.parametrize("new,old", [
        (EllipticOracle(offset=OFFSETS[0]), ref.EllipticOracle(offset=OFFSETS[0])),
        (EllipticOracle(offset=OFFSETS[1]), ref.EllipticOracle(offset=OFFSETS[1])),
        (SphericalOracle(), SphericalOracle()),
    ], ids=["elliptic", "elliptic-offset", "spherical"])
    def test_conjugate_cli_net(self, new, old):
        assert_bitwise(_conjugate_from_oracle(new, 0.1, 0.5), ref.conjugate_from_oracle(old, 0.1, 0.5))
