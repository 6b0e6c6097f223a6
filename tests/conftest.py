import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_frame(alg, rng):
    """Random Euclidean-pin frame at a random point with random orientation."""
    x0 = rng.normal(size=alg.n)
    Q, _ = np.linalg.qr(rng.normal(size=(alg.n, alg.n)))
    if np.linalg.det(Q) < 0:
        Q[:, -1] *= -1
    basis = [alg.tangent_lift(x0, Q[:, k]) for k in range(alg.n)]
    return alg.frame_from_adapted_basis(alg.lift_point(x0), basis), x0, Q


def random_surface_state(alg, rng, dirs=(1, 2), split_range=0.5, beta_range=0.8):
    """Admissible per-site state of the two-dimensional frame system."""
    psi, _, _ = random_frame(alg, rng)
    psi = alg.frame_matrix(psi)
    d1, d2 = dirs
    b1 = rng.uniform(-beta_range, beta_range, alg.n)
    b1[d1 - 1] = 0.0
    b2 = rng.uniform(-beta_range, beta_range, alg.n)
    b2[d2 - 1] = 0.0
    return {
        "psi": psi,
        "h1": rng.uniform(0.5, 1.5),
        "h2": rng.uniform(0.5, 1.5),
        "b1": b1,
        "b2": b2,
        "split": rng.uniform(-split_range, split_range),
    }
