"""The stacked curve contract and the batched read-off against the scalar one."""

import warnings

import numpy as np
import pytest
from readoff_reference import read_off_curve as reference_read_off

from dlame.clifford import algebra
from dlame.curves import SmoothCurve, circle_curve, line_curve, warped_circle_curve
from dlame.errors import ConfigError, DegenerateBasis, FrameDrift, ImmersionFailure
from dlame.lattice import mesh_points
from dlame.oracles import EllipticOracle, FlatOracle, SphericalOracle, start_frame
from dlame.orthogonal import read_off_curve, suited_frame

ALG2 = algebra(2)

BUILDERS = {
    "line2": lambda: line_curve([0.2, -0.1], [0.6, 0.8]),
    "line3": lambda: line_curve([0.2, -0.1, 0.3], [0.5, 1.0, -0.4]),
    "circle2": lambda: circle_curve(0.8, center=[0.1, 0.2], phase=0.3),
    "circle3": lambda: circle_curve(0.8, dim=3),
    "warped2": lambda: warped_circle_curve(1.0, 0.3),
    "warped3": lambda: warped_circle_curve(1.0, 0.3, dim=3),
    "elliptic1": lambda: EllipticOracle().curve(1),
    "elliptic2": lambda: EllipticOracle().curve(2),
    "spherical1": lambda: SphericalOracle().curve(1),
    "spherical2": lambda: SphericalOracle().curve(2),
    "spherical3": lambda: SphericalOracle().curve(3),
    "flat2-1": lambda: FlatOracle().curve(1),
    "flat3-3": lambda: FlatOracle(n=3).curve(3),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stacked_calls_equal_scalar_calls_bitwise(name):
    curve = BUILDERS[name]()
    t = np.linspace(-0.3, 1.7, 23)
    for f in (curve.x, curve.dx, curve.d2x):
        stacked = f(t)
        assert stacked.shape == (len(t), curve.dim)
        scalar = np.stack([f(float(s)) for s in t])
        assert stacked.dtype == scalar.dtype == np.float64
        assert stacked.tobytes() == scalar.tobytes()
        assert f(0.3).shape == (curve.dim,)


# -- the batched read-off against the scalar reference ------------------------


def _suited(alg, curve):
    x0 = curve.x(0.0)
    t1 = curve.dx(0.0) / np.linalg.norm(curve.dx(0.0))
    if alg.n == 2:
        return suited_frame(alg, x0, [t1, np.array([-t1[1], t1[0]])])
    return suited_frame(alg, x0, [t1], slots=[1])


def _cases():
    for name in ("line2", "circle2", "warped2", "line3", "circle3", "warped3"):
        curve = BUILDERS[name]()
        alg = algebra(curve.dim)
        yield name, alg, curve, _suited(alg, curve), 1
    for oracle in (EllipticOracle(), SphericalOracle()):
        _, psi0 = start_frame(oracle)
        for i in range(1, oracle.n + 1):
            yield f"{type(oracle).__name__}-{i}", algebra(oracle.n), oracle.curve(i), psi0, i


CASES = {case[0]: case[1:] for case in _cases()}
SAMPLES = {
    "uniform-explicit": (np.arange(12) * np.pi / 40, np.pi / 160),
    "uniform-default": (np.linspace(0.0, 1.0, 9), None),
    "uneven-default": (np.array([0.0, 0.05, 0.2, 0.21, 0.5, 0.9]), None),
    "repeated-start-explicit": (np.array([0.0, 0.0, 0.1, 0.35]), 0.03),
}


def _assert_matches_reference(alg, curve, psi0, direction, t, substep):
    ref = reference_read_off(alg, curve, psi0, direction, t, substep=substep)
    got = read_off_curve(alg, curve, psi0, direction, t, substep=substep)
    assert np.array_equal(got.t, ref.t)
    assert got.h.shape == ref.h.shape and got.beta.shape == ref.beta.shape
    h_scale = np.max(np.abs(ref.h))
    assert np.max(np.abs(got.h - ref.h)) <= 1e-13 * h_scale
    # straight axes have round-off betas, so measure against h as well
    beta_scale = max(np.max(np.abs(ref.beta)), h_scale)
    assert np.max(np.abs(got.beta - ref.beta)) <= 1e-13 * beta_scale
    assert np.all(got.beta[:, direction - 1] == 0.0)


@pytest.mark.parametrize("samples", sorted(SAMPLES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_matches_scalar_reference(case, samples):
    alg, curve, psi0, direction = CASES[case]
    t, substep = SAMPLES[samples]
    _assert_matches_reference(alg, curve, psi0, direction, t, substep)


# the running product of the substep factors is never re-orthonormalized in
# between, so hold long runs to the reference as well: 815 samples (3,260
# substeps), 408 samples in R^3, and the pi/320 read-off of `dlame ribaucour
# --curve warped:1.0 --eps pi/320 --r 1.2`
LONG_RUNS = {
    "warped2-pi/1280": ("warped2", np.pi / 1280, 2.0),
    "warped3-pi/640": ("warped3", np.pi / 640, 2.0),
    "cli-pi/320": ("warped2", np.pi / 320, 1.2),
}


@pytest.mark.parametrize("run", sorted(LONG_RUNS))
def test_long_runs_match_scalar_reference(run):
    name, eps, r = LONG_RUNS[run]
    alg, curve, psi0, direction = CASES[name]
    _assert_matches_reference(alg, curve, psi0, direction, np.arange(mesh_points(r, eps)) * eps, eps / 4.0)


def test_reruns_are_bitwise_equal():
    alg, curve, psi0, direction = CASES["warped3"]
    t = np.arange(mesh_points(1.2, np.pi / 160)) * (np.pi / 160)
    a, b = (read_off_curve(alg, curve, psi0, direction, t, substep=np.pi / 640) for _ in range(2))
    assert a.h.tobytes() == b.h.tobytes() and a.beta.tobytes() == b.beta.tobytes()


def test_empty_samples():
    curve = BUILDERS["warped2"]()
    got = read_off_curve(ALG2, curve, _suited(ALG2, curve), 1, np.array([]))
    assert got.h.shape == (0,) and got.beta.shape == (0, 2)


# -- domain gates ---------------------------------------------------------------


def _cubic_stall(c):
    """Planar curve ((t - c)^3 / 3, 0) whose speed vanishes at t = c."""
    return SmoothCurve(
        2,
        lambda t: np.stack([(t - c) ** 3 / 3.0, np.zeros_like(t)], axis=-1),
        lambda t: np.stack([(t - c) ** 2, np.zeros_like(t)], axis=-1),
        lambda t: np.stack([2 * (t - c), np.zeros_like(t)], axis=-1),
    )


def _raised(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return info.type, str(info.value)


@pytest.mark.parametrize("c,samples", [
    (0.0, np.linspace(0.0, 1.0, 5)),
    (0.5, np.linspace(0.0, 1.0, 5)),
    # the stall sits at a sample; the substep end reached just before it,
    # accumulated to 0.6666666666666665, is the node named
    (np.linspace(0.0, 1.0, 7)[4], np.linspace(0.0, 1.0, 7)),
])
def test_immersion_failure_names_the_same_node(c, samples):
    curve = _cubic_stall(c)
    psi0 = suited_frame(ALG2, curve.x(0.0), [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    kind, message = _raised(read_off_curve, ALG2, curve, psi0, 1, samples)
    assert kind is ImmersionFailure
    assert (kind, message) == _raised(reference_read_off, ALG2, curve, psi0, 1, samples)


def test_frame_drift_raises_like_the_reference():
    curve = circle_curve(0.05)
    psi0 = _suited(ALG2, curve)
    t = np.linspace(0, 1.0, 3)
    kind, message = _raised(read_off_curve, ALG2, curve, psi0, 1, t, substep=0.5)
    assert kind is FrameDrift
    assert (kind, message) == _raised(reference_read_off, ALG2, curve, psi0, 1, t, substep=0.5)


def _spin_curve():
    """Unit circle at angle t + t^3: its turning rate 1 + 3 t^2 grows along the curve."""
    def x(t):
        p = t + t**3
        return np.stack([np.cos(p), np.sin(p)], axis=-1)

    def dx(t):
        p, dp = t + t**3, 1 + 3 * t**2
        return np.stack([-np.sin(p) * dp, np.cos(p) * dp], axis=-1)

    def d2x(t):
        p, dp, d2p = t + t**3, 1 + 3 * t**2, 6 * t
        return np.stack([-np.cos(p) * dp**2 - np.sin(p) * d2p, -np.sin(p) * dp**2 + np.cos(p) * d2p], axis=-1)

    return SmoothCurve(2, x, dx, d2x)


def test_frame_drift_first_failing_mid_run_raises_like_the_reference():
    curve = _spin_curve()
    psi0 = suited_frame(ALG2, curve.x(0.0), [np.array([0.0, 1.0]), np.array([-1.0, 0.0])])
    t = np.linspace(0.0, 30.0, 301)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the substeps up to t = 0.9 pass the gate, a later one fails, and the
        # integration past it overflows without a warning
        _assert_matches_reference(ALG2, curve, psi0, 1, t[:10], 0.05)
        kind, message = _raised(read_off_curve, ALG2, curve, psi0, 1, t, substep=0.05)
        assert kind is FrameDrift
        assert (kind, message) == _raised(reference_read_off, ALG2, curve, psi0, 1, t, substep=0.05)


@pytest.mark.parametrize("fault", ["off-start", "misaligned"])
def test_degenerate_basis_raises_like_the_reference(fault):
    curve = BUILDERS["warped2"]()
    x0, t1 = curve.x(0.0), curve.dx(0.0) / np.linalg.norm(curve.dx(0.0))
    if fault == "off-start":
        psi0 = suited_frame(ALG2, x0 + 0.01, [t1, np.array([-t1[1], t1[0]])])
    else:
        t1 = np.array([np.cos(0.1), np.sin(0.1)])
        psi0 = suited_frame(ALG2, x0, [t1, np.array([-t1[1], t1[0]])])
    t = np.linspace(0, 1.0, 5)
    kind, message = _raised(read_off_curve, ALG2, curve, psi0, 1, t)
    assert kind is DegenerateBasis
    assert (kind, message) == _raised(reference_read_off, ALG2, curve, psi0, 1, t)


# -- non-finite inputs fail closed, with warnings as errors --------------------


@pytest.mark.parametrize("column", [0, 1, 2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_initial_frame_raises_degenerate_basis(column, value):
    curve = BUILDERS["warped2"]()
    psi0 = _suited(ALG2, curve)
    psi0[1, column] = value  # column 1 is the companion vector, 2 and 3 the null vectors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kind, message = _raised(read_off_curve, ALG2, curve, psi0, 1, np.linspace(0.0, 1.0, 5))
    assert (kind, message) == (DegenerateBasis, "initial frame is not finite")


def _broken_past(curve, t_bad, value):
    """The curve with every point, velocity and acceleration past t_bad replaced by value."""
    def cut(f):
        return lambda t: np.where(np.asarray(t)[..., None] > t_bad, value, f(t))
    return SmoothCurve(curve.dim, cut(curve.x), cut(curve.dx), cut(curve.d2x))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stall,message", [
    # the first node past t = 0.5 in visiting order is the midpoint of the
    # first substep after the sample 0.5, with the default substep 0.0625
    (None, "curve is not finite at t=0.53125"),
    (0.25, "curve speed vanished at t=0.25"),
])
def test_non_finite_curve_names_the_first_bad_node(value, stall, message):
    curve = _broken_past(_cubic_stall(stall) if stall is not None else BUILDERS["warped2"](), 0.5, value)
    psi0 = _suited(ALG2, curve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kind, got = _raised(read_off_curve, ALG2, curve, psi0, 1, np.linspace(0.0, 1.0, 5))
    assert (kind, got) == (ImmersionFailure, message)


# -- arguments are checked before any lift ---------------------------------------


def _unevaluated(dim):
    """A curve that fails the test if the read-off evaluates it."""
    def never(t):
        raise AssertionError("the curve was evaluated")
    return SmoothCurve(dim, never, never, never)


@pytest.mark.parametrize("samples,substep,message", [
    ([0.0, 0.1, np.nan], None, "samples must be finite"),
    ([0.0, np.inf], None, "samples must be finite"),
    ([-np.inf, 0.0], 0.1, "samples must be finite"),
    ([0.0, 0.1], np.nan, "substep must be positive, got nan"),
    ([0.0, 0.1], 0.0, "substep must be positive, got 0.0"),
    ([0.0, 0.1], -0.1, "substep must be positive, got -0.1"),
])
def test_bad_samples_or_substep_raise_a_config_error(samples, substep, message):
    psi0 = _suited(ALG2, BUILDERS["warped2"]())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kind, got = _raised(read_off_curve, ALG2, _unevaluated(2), psi0, 1, np.array(samples), substep=substep)
    assert (kind, got) == (ConfigError, message)


@pytest.mark.parametrize("samples,substep,count", [
    ([0.0, 0.1, 0.2], 1e-300, "2e+299"),        # a tiny substep
    ([0.0, 1e-6, 1e6], None, "4e+12"),          # a huge gap against the default substep, 2.5e-07
    ([0.0, 0.1, 1e300], 0.025, "4e+301"),       # a huge gap against a given substep
    ([0.0, 1e308, -1e308], 1e-308, "inf"),      # a count past the float range
    ([0.0, 1e308, -1e308], np.inf, "nan"),      # no count at all
])
def test_substep_count_is_bounded(samples, substep, count):
    # the substeps are counted before any node is listed: the call returns at once, curve never evaluated
    psi0 = _suited(ALG2, BUILDERS["warped2"]())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kind, got = _raised(read_off_curve, ALG2, _unevaluated(2), psi0, 1, np.array(samples), substep=substep)
    shown = repr(substep if substep is not None else 1e-6 / 4.0)
    assert (kind, got) == (ConfigError, f"substep {shown} needs {count} substeps over the samples, more than 100000")


def test_samples_without_a_positive_gap_take_the_default_substep():
    # no two samples differ: the substep falls back to 0.25, as for a single sample
    curve = BUILDERS["warped2"]()
    psi0 = _suited(ALG2, curve)
    got = read_off_curve(ALG2, curve, psi0, 1, np.array([0.3, 0.3]))
    ref = reference_read_off(ALG2, curve, psi0, 1, np.array([0.3, 0.3]), substep=0.25)
    assert got.h.tobytes() == read_off_curve(ALG2, curve, psi0, 1, np.array([0.3, 0.3]), substep=0.25).h.tobytes()
    np.testing.assert_allclose(got.h, ref.h, rtol=1e-13)
    np.testing.assert_allclose(got.beta, ref.beta, rtol=1e-13, atol=1e-15)
