import numpy as np
import pytest
from hypothesis import settings

from revem.classical import Channel

# Every run draws the same examples, and none writes an example database.
settings.register_profile("revem", derandomize=True, database=None)
settings.load_profile("revem")


def chan1(t: float) -> Channel:
    cols = np.array([
        [0.05, 0.9 - t, 0.05, t],
        [0.05, 0.05, 0.9 - t, t],
        [0.9, 0.05, 0.05, 0.0],
        [0.05, 0.05, 0.05, 0.85],
    ])
    return Channel(cols.T)


def random_channel(rng: np.random.Generator, n_in: int, n_out: int,
                   min_mass: float = 0.02) -> Channel:
    cols = rng.dirichlet(np.ones(n_out), size=n_in).T
    cols = (cols + min_mass) / (1.0 + n_out * min_mass)
    return Channel(cols)


def random_features(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Feature matrix with independent columns whose span avoids constants."""
    while True:
        feats = rng.normal(size=(n, d))
        feats -= feats.mean(axis=0)  # orthogonal to constants
        aug = np.hstack([feats, np.ones((n, 1))])
        if np.linalg.matrix_rank(aug, tol=1e-8) == d + 1:
            return feats


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
