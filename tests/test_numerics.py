"""Numerics that hold at any offset, rotation, sample order and scale.

The n x n learners compute distances and gradients with Gram formulas on
centred rows and keep their kernel weights off numpy's subnormal ``exp``
path; these tests pin what that buys: fits that do not move under a common
offset, transform distances that follow a rotation or a reordering of the
samples, and an MLKR fit that still sees its objective when the features
are scaled far beyond the kernel's width.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlearn import (
    ITML,
    LFDA,
    LMNN,
    LSML,
    MLKR,
    MMC,
    NCA,
    RCA,
    pairs_from_labels,
    quadruplets_from_labels,
)
from mlearn.exceptions import NumericalError
from mlearn.supervised import _exp_flushed

TINY = np.finfo(float).tiny


class TestExpFlushed:
    def _arguments(self):
        log_tiny = np.log(TINY)
        around = [np.linspace(e - 0.05, e + 0.05, 4001)
                  for e in (-707.8, -708.396, -745.13)]
        ulps = [log_tiny]
        for _ in range(8):
            ulps.append(np.nextafter(ulps[-1], np.inf))
            ulps.insert(0, np.nextafter(ulps[0], -np.inf))
        special = [-np.inf, np.inf, np.nan, 0.0, -745.2, -1e300, 700.0]
        return np.concatenate(around + [ulps, np.linspace(-800.0, 5.0, 20001),
                                        special])

    def test_bits_of_exp_where_normal_and_zero_elsewhere(self):
        a = self._arguments()
        with np.errstate(under="ignore", over="ignore"):
            ref = np.exp(a)
        got = _exp_flushed(a)
        normal = ref >= TINY
        subnormal = (ref > 0.0) & (ref < TINY)
        assert subnormal.sum() > 1000
        assert np.array_equal(got[normal].view(np.int64),
                              ref[normal].view(np.int64))
        nan = np.isnan(a)
        assert np.all(np.isnan(got[nan]))
        assert np.all(got[~normal & ~nan] == 0.0)
        assert np.all(got[a <= -745.2] == 0.0)

    def test_two_dimensional_input_is_not_modified(self):
        a = np.resize(self._arguments(), (200, 200))
        before = a.copy()
        got = _exp_flushed(a)
        assert got.shape == a.shape
        assert np.array_equal(a, before, equal_nan=True)

    def test_in_place_gives_the_same_bits(self):
        a = np.resize(self._arguments(), (200, 200))
        want = _exp_flushed(a)
        got = _exp_flushed(a, out=a)
        assert got is a
        assert got.tobytes() == want.tobytes()


def test_mlkr_sees_its_objective_far_beyond_the_kernel_width():
    # integer features keep exact distance ties between neighbors, so the
    # gradient stays non-zero at x 1000, where every other kernel weight of
    # a row is below exp(-708) of its largest
    r = np.random.default_rng(0)
    x = r.integers(0, 10, size=(120, 3)).astype(float)
    y = x @ [1.0, -0.5, 0.25]
    y -= y.mean()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = MLKR(max_iter=50).fit(1000.0 * x, y).fit_report_.objective_trace
    # all kernel weights underflowing would predict 0 everywhere
    assert trace[0] < float(y @ y)
    assert len(trace) >= 2
    assert trace[-1] < trace[0]


# -- invariances of whole fits ---------------------------------------------

def _blobs(seed, per=10, d=3):
    r = np.random.default_rng(seed)
    y = np.repeat([0, 1, 2], per)
    x = r.standard_normal((len(y), d)) + 3.0 * np.eye(d)[y]
    return x, y


def _fit(name, x, y):
    """Fit one learner on points x with classes y, ignoring its warnings.

    Tuple learners draw their tuples by class and a fixed seed, so moved or
    rotated copies of x give moved or rotated copies of the same tuples.
    """
    args = (x, y)
    if name in ("mmc", "itml"):
        est = MMC(max_iter=20) if name == "mmc" else ITML(max_iter=10)
        args = pairs_from_labels(x, y, 2, seed=3)
    elif name == "lsml":
        est = LSML(max_iter=10)
        args = (quadruplets_from_labels(x, y, 2, seed=3),)
    else:
        est = {"nca": NCA(max_iter=20), "lmnn": LMNN(k=3, max_iter=20),
               "mlkr": MLKR(max_iter=20), "lfda": LFDA(knn=3),
               "rca": RCA()}[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return est.fit(*args)


ALL = ["nca", "lmnn", "mlkr", "lfda", "rca", "mmc", "itml", "lsml"]
POINT_LEARNERS = ["nca", "lmnn", "mlkr", "lfda", "rca"]


def _distances(est, x):
    z = est.transform(x)
    return np.sqrt(np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2))


def _assert_same_distances(d, d_ref, rtol=1e-6):
    assert np.max(np.abs(d - d_ref)) <= rtol * np.max(d_ref)


@pytest.mark.parametrize("name", ALL)
def test_fit_ignores_a_large_offset(name):
    for seed in range(3):
        x, y = _blobs(seed)
        m = _fit(name, x, y).get_mahalanobis_matrix()
        m_far = _fit(name, x + 1e6, y).get_mahalanobis_matrix()
        assert np.max(np.abs(m_far - m)) <= 1e-6 * np.max(np.abs(m))


_PROPERTY = settings(max_examples=6, deadline=None, derandomize=True,
                     database=None)


@pytest.mark.parametrize("name", ALL)
@_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1),
       shift=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3))
def test_transform_distances_are_translation_invariant(name, seed, shift):
    x, y = _blobs(seed)
    d = _distances(_fit(name, x, y), x)
    c = np.array(shift)
    _assert_same_distances(_distances(_fit(name, x + c, y), x + c), d)


@pytest.mark.parametrize("name", ALL)
@_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_transform_distances_follow_a_rotation(name, seed):
    x, y = _blobs(seed)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    d = _distances(_fit(name, x, y), x)
    _assert_same_distances(_distances(_fit(name, x @ q.T, y), x @ q.T),
                           d)


@pytest.mark.parametrize("name", POINT_LEARNERS)
@_PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_transform_distances_ignore_sample_order(name, seed):
    # continuous data has no distance ties, so no neighbor choice depends
    # on the sample index
    x, y = _blobs(seed)
    perm = np.random.default_rng(seed).permutation(len(x))
    d = _distances(_fit(name, x, y), x)
    _assert_same_distances(_distances(_fit(name, x[perm], y[perm]), x),
                           d)


_OVERFLOW = {
    "lfda": lambda x, y: LFDA().fit(x, y),
    "rca": lambda x, y: RCA().fit(x, y),
    "itml covariance-inverse": lambda x, y: ITML(
        prior="covariance-inverse").fit(*pairs_from_labels(x, y, 2, seed=3)),
    "lsml covariance-inverse": lambda x, y: LSML(
        prior="covariance-inverse").fit(quadruplets_from_labels(x, y, 2, seed=3)),
    "itml identity": lambda x, y: ITML().fit(*pairs_from_labels(x, y, 2, seed=3)),
    "lsml identity": lambda x, y: LSML().fit(
        quadruplets_from_labels(x, y, 2, seed=3)),
    "nca": lambda x, y: NCA().fit(x, y),
    "lmnn": lambda x, y: LMNN().fit(x, y),
    "mlkr": lambda x, y: MLKR().fit(x, y.astype(float)),
    "mmc": lambda x, y: MMC().fit(*pairs_from_labels(x, y, 2, seed=3)),
    "mmc diagonal": lambda x, y: MMC(diagonal=True).fit(
        *pairs_from_labels(x, y, 2, seed=3)),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOW))
def test_finite_features_that_overflow_a_fit_raise_numerical_error(name):
    # finite input passes the gate; the scatter matrices, priors and
    # objectives built from it overflow, which is a numerical failure
    x, y = _blobs(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError):
            _OVERFLOW[name](x * 1e200, y)


@pytest.mark.parametrize("name, match", [
    ("itml covariance-inverse", "ITML diverged"),
    ("lsml covariance-inverse", "prior matrix has non-finite entries")])
def test_tiny_features_whose_prior_overflows_raise_numerical_error(name,
                                                                   match):
    # at 1e-160 the covariance underflows, so its regularized inverse, the
    # prior, overflows: a numerical failure, not an invalid prior
    x, y = _blobs(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError, match=match):
            _OVERFLOW[name](x * 1e-160, y)


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("scale", [1e200, 1e153])
def test_mmc_checks_its_pair_norms_for_overflow_without_a_warning(
        diagonal, scale):
    # the squared norms of the pair differences are checked once, before
    # any objective is built from them, and numpy's overflow stays inside;
    # at 1e153 every norm is finite but the similar pairs' sum is not
    x, y = _blobs(0)
    pairs, labels = pairs_from_labels(x * scale, y, 2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="squared norms"):
            MMC(diagonal=diagonal).fit(pairs, labels)
