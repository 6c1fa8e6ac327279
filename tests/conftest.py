"""Shared helpers for the test suite.

Oracles deliberately avoid the package's own linear algebra: reference
eigendecompositions and inverses use numpy.linalg directly, so the
ordering, sign convention and error mapping that ``mlearn.linalg`` adds on
top of LAPACK ``eigh``, and everything built on it, are checked against
plain numpy calls.
"""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def random_spd(rng, n, jitter=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


def finite_diff_grad(fun, x, h=1e-5):
    """Central finite differences of a scalar function of an ndarray."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric):
    scale = max(float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / scale


def two_class_noise_data(seed, n=60, sep=4.0, noise_scale=100.0):
    """Two classes separated in feature 1; feature 2 is large-scale noise."""
    r = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    x = np.column_stack([y * sep + 0.5 * r.standard_normal(n),
                         noise_scale * r.standard_normal(n)])
    return x, y
