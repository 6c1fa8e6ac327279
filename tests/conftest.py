"""Shared helpers for the test suite.

Oracles deliberately avoid the package's own linear algebra: reference
eigendecompositions and inverses use numpy.linalg directly, so the
ordering, sign convention and error mapping that ``mlearn.linalg`` adds on
top of LAPACK ``eigh``, and everything built on it, are checked against
plain numpy calls.
"""

import numpy as np
import pytest


# ITML inputs whose Bregman updates turn M non-finite: (gamma, and the two
# coordinates every feature of the last, dissimilar pair of
# labeled_pairs(seed=0, n=10) is set to)
NON_FINITE_ITML_CASES = [
    # gamma / (gamma + 1) rounds to 1: a dissimilar pair far inside its
    # bound divides by 1 - 1 = 0
    (1e20, 0.5, 0.5 + 1e-9),
    # the pair's squared distance overflows to inf
    (1.0, 0.0, 1e155),
    # it is a subnormal number, whose reciprocal overflows
    (1.0, 0.0, 1e-156),
]


def labeled_pairs(seed=0, n=10, d=3, sim_scale=0.2, dis_scale=3.0):
    """Similar pairs close together, dissimilar pairs far apart."""
    r = np.random.default_rng(seed)
    base = r.standard_normal((2 * n, d))
    pairs, y = [], []
    for i in range(n):
        pairs.append([base[i], base[i] + sim_scale * r.standard_normal(d)])
        y.append(1)
        pairs.append([base[n + i], base[n + i] + dis_scale * (
            r.standard_normal(d) + 2.0)])
        y.append(-1)
    return np.array(pairs), np.array(y)


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
