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
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlearn import LFDA, LMNN, MLKR, NCA, RCA

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
