"""Symmetries of the n x n learners and of serving, as hypothesis properties.

A metric learner's answer should not depend on the basis or the row order
of its data: for NCA, LMNN, MLKR, LFDA and RCA (its chunklets the class
labels), a fit on ``x Q`` (Q orthogonal) gives ``Q^T M Q`` and a fit on
shuffled rows gives M, both to 1e-9 relative in the Frobenius norm.
Serving must not depend on the orientation of a tuple, bit for bit: a
pair scores the same both ways round, and swapping the two pairs of a
quadruplet, or the positive and negative of a triplet, flips every
prediction whose two distances do not tie exactly.

The data are Gaussian class blobs like the benchmark's, drawn from a
generated seed: three classes offset by 2.5 along the first three features,
further features noise scaled by 4, with few points and features so that
the suite stays cheap.

NCA and MLKR miss the 1e-9 bound on some of these small sets: their fits
drift toward an objective they approach only as M grows, and a difference
in the last bits grows with every step (about 1e-8 after 30 iterations in
about one case in ten, up to 1e-4 on separable seeds). Their fit
properties are expected failures until those fits stop at a finite M; the
bound stays. LMNN holds to about 1e-13, and the closed-form LFDA and RCA to
about 2e-14 over 200 generated cases.

The weak learners fit on pairs or quadruplets sampled from the same blobs:
a fit on rotated tuples (MMC full, ITML and LSML with either prior) gives
``Q^T M Q``, a diagonal MMC fit on permuted features the permuted M, and a
fit on shuffled tuples or on pairs with their two points swapped gives M,
all to 1e-9 relative. ITML is checked for tuple order only on fits that
converge, and even those miss the bound (see its test).
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

LEARNERS = {
    "nca": lambda: NCA(max_iter=30),
    "lmnn": lambda: LMNN(k=2, max_iter=30),
    "mlkr": lambda: MLKR(max_iter=30),
    "lfda": LFDA,
    "rca": RCA,
}
_DRIFTS = pytest.mark.xfail(
    strict=False, raises=AssertionError,
    reason="the fit drifts toward a supremum as M grows, and its rounding "
    "differences grow with it")
FIT_LEARNERS = ["lmnn", "lfda", "rca", pytest.param("nca", marks=_DRIFTS),
                pytest.param("mlkr", marks=_DRIFTS)]

_PROPERTY = settings(max_examples=5, deadline=None, derandomize=True,
                     database=None)

cases = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(6, 12),
                  st.integers(3, 5))
# (seed, points per class, features) where an NCA fit and an MLKR fit miss
# the bound both ways: rotation 1.9e-8 and 1.3e-8, row order 3.6e-8 and 3.3e-9
NCA_DRIFTS = (3716098960, 12, 3)
MLKR_DRIFTS = (333186254, 7, 4)


def _blobs(seed, per, d):
    r = np.random.default_rng(seed)
    y = np.repeat([0, 1, 2], per)
    x = r.standard_normal((len(y), d))
    x[:, :3] += 2.5 * np.eye(3)[y]
    x[:, 3:] *= 4.0
    return x, y, r


def _fit_m(name, x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return LEARNERS[name]().fit(x, y).get_mahalanobis_matrix()


def _assert_close(m, m_ref):
    assert np.linalg.norm(m - m_ref) <= 1e-9 * np.linalg.norm(m_ref)


@pytest.mark.parametrize("name", FIT_LEARNERS)
@_PROPERTY
@given(case=cases)
@example(case=NCA_DRIFTS)
@example(case=MLKR_DRIFTS)
def test_fit_on_rotated_data_rotates_the_metric(name, case):
    x, y, r = _blobs(*case)
    q, _ = np.linalg.qr(r.standard_normal((x.shape[1],) * 2))
    _assert_close(_fit_m(name, x @ q, y), q.T @ _fit_m(name, x, y) @ q)


@pytest.mark.parametrize("name", FIT_LEARNERS)
@_PROPERTY
@given(case=cases)
@example(case=NCA_DRIFTS)
@example(case=MLKR_DRIFTS)
def test_fit_ignores_row_order(name, case):
    x, y, r = _blobs(*case)
    perm = r.permutation(len(x))
    _assert_close(_fit_m(name, x[perm], y[perm]), _fit_m(name, x, y))


def _flips_unless_tied(pred, swapped, near, far):
    tie = near == far
    assert np.all(swapped[tie] == -1) and np.all(pred[tie] == -1)
    assert np.array_equal(swapped[~tie], -pred[~tie])


@pytest.mark.parametrize("name", sorted(LEARNERS))
@_PROPERTY
@given(case=cases)
def test_serving_ignores_tuple_orientation(name, case):
    x, y, r = _blobs(*case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = LEARNERS[name]().fit(x, y).model_
    # tuples of data rows, with repeated rows so that some distances tie
    idx = r.integers(0, len(x), size=(200, 4))
    idx[::5, 3] = idx[::5, 1]
    idx[::7, 2:] = idx[::7, :2]
    quads = x[idx]
    pairs = quads[:, :2]
    d = model.score_pairs(pairs)
    assert d.tobytes() == model.score_pairs(pairs[:, ::-1]).tobytes()

    far = model.score_pairs(quads[:, 2:])
    _flips_unless_tied(model.predict_quadruplets(quads),
                       model.predict_quadruplets(quads[:, [2, 3, 0, 1]]),
                       d, far)

    triplets = quads[:, [0, 1, 3]]
    far = model.score_pairs(triplets[:, [0, 2]])
    _flips_unless_tied(model.predict_triplets(triplets),
                       model.predict_triplets(triplets[:, [0, 2, 1]]),
                       d, far)


# the weak learners, on pairs or quadruplets sampled from the same blobs
WEAK = {
    "mmc": lambda: MMC(max_iter=30),
    "mmc_diag": lambda: MMC(diagonal=True, max_iter=30),
    "itml": lambda: ITML(max_iter=30),
    "itml_cov": lambda: ITML(prior="covariance-inverse", max_iter=30),
    "lsml": lambda: LSML(max_iter=30),
    "lsml_cov": lambda: LSML(prior="covariance-inverse", max_iter=30),
}
ROTATED_WEAK = ["mmc", "itml", "itml_cov", "lsml", "lsml_cov"]


def _weak_tuples(name, case):
    """(tuples, labels or None, r) for the learner, from the case's blobs."""
    x, y, r = _blobs(*case)
    if name.startswith("lsml"):
        return quadruplets_from_labels(x, y, 2, seed=1), None, r
    return (*pairs_from_labels(x, y, 2, seed=1), r)


def _fit_weak(name, tuples, labels):
    """(M, converged) of one weak fit."""
    args = (tuples,) if labels is None else (tuples, labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = WEAK[name]().fit(*args)
    return est.get_mahalanobis_matrix(), est.fit_report_.converged


@pytest.mark.parametrize("name", ROTATED_WEAK)
@_PROPERTY
@given(case=cases)
def test_weak_fit_on_rotated_tuples_rotates_the_metric(name, case):
    tuples, labels, r = _weak_tuples(name, case)
    q, _ = np.linalg.qr(r.standard_normal((tuples.shape[-1],) * 2))
    m, _ = _fit_weak(name, tuples, labels)
    _assert_close(_fit_weak(name, tuples @ q, labels)[0], q.T @ m @ q)


@_PROPERTY
@given(case=cases)
def test_diagonal_mmc_fit_on_permuted_features_permutes_the_metric(case):
    tuples, labels, r = _weak_tuples("mmc_diag", case)
    perm = r.permutation(tuples.shape[-1])
    m, _ = _fit_weak("mmc_diag", tuples, labels)
    _assert_close(_fit_weak("mmc_diag", tuples[..., perm], labels)[0],
                  m[np.ix_(perm, perm)])


@pytest.mark.parametrize("name", ["mmc", "mmc_diag", "lsml", "lsml_cov"])
@_PROPERTY
@given(case=cases)
def test_weak_fit_ignores_tuple_order(name, case):
    tuples, labels, r = _weak_tuples(name, case)
    perm = r.permutation(len(tuples))
    m_perm, _ = _fit_weak(name, tuples[perm],
                          None if labels is None else labels[perm])
    _assert_close(m_perm, _fit_weak(name, tuples, labels)[0])


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ITML stops once no multiplier moves by more than tol (1e-6); "
    "the metric it stops at depends on the order of its projections by "
    "about 1e-6 to 1e-5 relative")
@pytest.mark.parametrize("prior", ["identity", "covariance-inverse"])
def test_converged_itml_fit_ignores_pair_order(prior):
    # ITML projects onto one pair's bound at a time, so only converged fits
    # can agree; this small case converges in about 220 cycles either way
    tuples, labels, r = _weak_tuples("itml", (5, 6, 3))
    perm = r.permutation(len(tuples))
    fits = [ITML(prior=prior, max_iter=1000).fit(t, lab)
            for t, lab in ((tuples, labels), (tuples[perm], labels[perm]))]
    if not all(est.fit_report_.converged for est in fits):
        pytest.fail("the ITML fits did not converge")
    m, m_perm = (est.get_mahalanobis_matrix() for est in fits)
    _assert_close(m_perm, m)


@pytest.mark.parametrize("name", sorted(WEAK))
@_PROPERTY
@given(case=cases)
def test_weak_fit_ignores_pair_orientation(name, case):
    # each pair swaps its two points; a quadruplet swaps within both pairs
    tuples, labels, _ = _weak_tuples(name, case)
    swap = [1, 0] if labels is not None else [1, 0, 3, 2]
    _assert_close(_fit_weak(name, tuples[:, swap], labels)[0],
                  _fit_weak(name, tuples, labels)[0])
