import hashlib
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mlearn
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
from mlearn import supervised
from mlearn.exceptions import ValidationError
from mlearn.linalg import gen_sym_eig
from mlearn.model import FitReport
from mlearn.supervised import (
    _centred_gram,
    _class_sorted,
    _exp_flushed,
    _init_transform,
    _lfda_scatters,
    _local_scaling,
    _neighbour_weights,
    lmnn_objective,
    lmnn_targets,
    mlkr_objective,
    nca_objective,
    pairwise_sq_dists,
    weighted_outer_sum,
)

from conftest import finite_diff_grad, max_rel_err, two_class_noise_data


def clustered_data(seed=0, n_per=8, d=3, sep=4.0):
    r = np.random.default_rng(seed)
    x = np.vstack([
        r.standard_normal((n_per, d)) + sep * np.eye(d)[0],
        r.standard_normal((n_per, d)) - sep * np.eye(d)[0],
    ])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def _fit_args(cls):
    """The arguments of cls.fit on clustered_data, by its supervision kind."""
    x, y = clustered_data()
    return {"labels": (x, y), "chunks": (x, y),
            "pairs": pairs_from_labels(x, y, 2, seed=0),
            "quads": (quadruplets_from_labels(x, y, 2, seed=0),)}[cls.supervision]


class TestNCA:
    def test_objective_improves_over_init(self):
        x, y = clustered_data()
        est = NCA(max_iter=50).fit(x, y)
        trace = est.fit_report_.objective_trace
        assert trace[-1] >= trace[0]
        assert est.model_.algorithm == "nca"

    def test_gradient_finite_differences(self):
        r = np.random.default_rng(1)
        x = r.standard_normal((10, 4))
        y = r.integers(0, 2, 10)
        l = r.standard_normal((4, 4)) * 0.3
        x, _, blocks = _class_sorted(x, y)
        g = nca_objective(l, x, blocks)[1]()
        fd = finite_diff_grad(lambda l_: nca_objective(l_, x, blocks)[0], l)
        assert max_rel_err(g, fd) <= 1e-5

    def test_noise_column_shrinks(self):
        x, y = two_class_noise_data(seed=0, noise_scale=10.0)
        x = x / np.array([1.0, 1.0])
        est = NCA(max_iter=100).fit(x, y)
        l = est.components_
        # relative weight on the noise feature drops well below the init ratio
        assert np.linalg.norm(l[:, 1]) / np.linalg.norm(l[:, 0]) < 0.5

    def test_trace_monotone_nondecreasing(self):
        x, y = clustered_data(seed=3)
        trace = NCA(max_iter=40).fit(x, y).fit_report_.objective_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_objective_orthogonal_invariance(self):
        r = np.random.default_rng(5)
        x = r.standard_normal((12, 3))
        y = r.integers(0, 2, 12)
        l = r.standard_normal((3, 3))
        q, _ = np.linalg.qr(r.standard_normal((3, 3)))
        x, _, blocks = _class_sorted(x, y)
        f1, _ = nca_objective(l, x, blocks)
        f2, _ = nca_objective(q @ l, x, blocks)
        assert abs(f1 - f2) <= 1e-9 * (1 + abs(f1))

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="class"):
            NCA().fit(np.random.default_rng(0).standard_normal((5, 2)), [1] * 5)

    def test_n_components_reduction(self):
        x, y = clustered_data()
        est = NCA(n_components=2, max_iter=20).fit(x, y)
        assert est.components_.shape == (2, 3)


@pytest.mark.parametrize("labels", [[0, 1], ["a", "b"]])
@pytest.mark.parametrize("fit", ["lmnn", "lfda", "pairs"])
def test_errors_print_a_class_as_its_plain_label(fit, labels):
    # numpy 2 prints a numpy scalar's repr as np.int64(0) or np.str_('a')
    first, second = labels
    x = np.random.default_rng(0).standard_normal((5, 2))
    y = np.array([first] * 4 + [second])
    call = {"lmnn": lambda: lmnn_targets(x, y, 4),
            "lfda": lambda: LFDA().fit(x, y),
            "pairs": lambda: pairs_from_labels(x, y, 1, seed=0)}[fit]
    with pytest.raises(ValidationError) as err:
        call()
    assert f"class {second!r} has " in str(err.value)
    assert "np." not in str(err.value)


class TestLMNN:
    def test_targets_by_inspection(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        t = lmnn_targets(x, y, 1)
        assert np.array_equal(t.ravel(), [1, 0, 3, 2])

    def test_small_class_error_names_class_and_k(self):
        x = np.zeros((4, 2))
        y = np.array([0, 0, 0, 7])
        with pytest.raises(ValidationError, match="7"):
            lmnn_targets(x, y, 1)

    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_targets_refuse_a_k_that_is_not_a_positive_integer(self, k):
        x = np.random.default_rng(0).standard_normal((10, 2))
        y = np.repeat([0, 1], 5)
        with pytest.raises(ValidationError) as err:
            lmnn_targets(x, y, k)
        assert str(err.value) == f"k must be an integer >= 1, got {k!r}"

    def test_zero_push_at_separated_identity(self):
        x, y = clustered_data(sep=50.0)
        targets = lmnn_targets(x, y, 2)
        f, _ = _lmnn(np.eye(3), x, y, targets, 0.5, 1.0)
        # margin satisfied everywhere: objective is the pull term only
        z2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        pull = sum(z2[i, j] for i in range(len(x)) for j in targets[i])
        assert abs(f - 0.5 * pull) <= 1e-9 * (1 + pull)

    def test_gradient_finite_differences(self):
        r = np.random.default_rng(2)
        x, y, _ = _class_sorted(r.standard_normal((10, 4)), r.integers(0, 2, 10))
        targets = lmnn_targets(x, y, 1)
        l = np.eye(4) + 0.1 * r.standard_normal((4, 4))
        g = _lmnn(l, x, y, targets, 0.5, 1.0)[1]()
        fd = finite_diff_grad(
            lambda l_: _lmnn(l_, x, y, targets, 0.5, 1.0)[0], l)
        assert max_rel_err(g, fd) <= 1e-5

    def test_trace_monotone_nonincreasing(self):
        x, y = clustered_data(seed=7)
        trace = LMNN(k=2, max_iter=30).fit(x, y).fit_report_.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_push_weight_bounds(self):
        x, y = clustered_data()
        with pytest.raises(ValidationError):
            LMNN(push_weight=1.5).fit(x, y)

    def test_subnormal_push_weight_fits_finite(self):
        # the push counts are scaled by push_weight, never divided by it
        x, y = clustered_data(seed=1, sep=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = LMNN(push_weight=1e-320, max_iter=10).fit(x, y)
        assert np.all(np.isfinite(est.components_))

    def test_targets_match_per_point_loop(self):
        # exact distances, ties to the lower index, on data full of ties
        for seed in range(20):
            x, y = tie_heavy_data(seed)
            for k in (1, 2, 3):
                assert np.array_equal(lmnn_targets(x, y, k),
                                      _lmnn_targets_oracle(x, y, k))

    def test_targets_match_gram_search_on_continuous_data(self):
        # where no two distances tie, the targets a Gram distance matrix
        # gives are the exact ones, so LMNN fits keep their bits
        for seed in range(10):
            r = np.random.default_rng(seed)
            n = 30 + 37 * seed
            x = r.standard_normal((n, 5)) * 10.0 ** (seed % 5 - 2)
            y = np.arange(n) % 3
            for k in (1, 3, 5):
                assert np.array_equal(lmnn_targets(x, y, k),
                                      _lmnn_targets_gram_oracle(x, y, k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_duplicates_give_lower_index_copies_never_the_point(self, k):
        # class 0: a point 1e-9 off, then k + 2 copies of one point, then a
        # far one. A copy's targets are the other copies (distance 0) in
        # index order; a Gram distance rounds the near point's 1e-18 to 0
        # and ranks it first by index
        v = np.array([3.0, -2.0])
        x = np.vstack([v + [1e-9, 0.0], np.tile(v, (k + 2, 1)), [1.0, 0.0],
                       np.full((k + 1, 2), 5.0)])
        y = np.array([0] * (k + 4) + [1] * (k + 1))
        t = lmnn_targets(x, y, k)
        copies = np.arange(1, k + 3)
        for i in copies:
            assert np.array_equal(t[i], copies[copies != i][:k])

    def test_target_search_memory_does_not_grow_as_n_squared(self):
        n = 2000
        r = np.random.default_rng(4)
        y = np.arange(n) % 3
        x = r.standard_normal((n, 20)) + y[:, None]
        tracemalloc.start()
        try:
            lmnn_targets(x, y, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a distance matrix over all n points alone would be 1 n^2 floats
        assert peak < 0.25 * n * n * 8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_objective_matches_per_point_loop(self, k):
        for seed in range(12):
            x, y, _ = _class_sorted(*tie_heavy_data(seed))
            targets = lmnn_targets(x, y, k)
            r = np.random.default_rng(100 + seed)
            m = x.shape[1] - 1 if seed % 2 else x.shape[1]
            l = r.standard_normal((m, x.shape[1]))
            if seed % 3 == 0:
                # half-integer maps keep distances exact, so hinges sit at 0
                l = np.round(2.0 * l) / 2.0
            for margin in (1.0, 0.5):
                f, grad = _lmnn(l, x, y, targets, 0.3, margin)
                g = grad()
                f_ref, g_ref = _lmnn_objective_oracle(l, x, y, targets, 0.3,
                                                      margin)
                assert np.array_equal(g, g_ref)
                assert abs(f - f_ref) <= 1e-14 * abs(f_ref)

    def test_fit_components_are_frozen(self):
        # SHA-256 of the fitted map, recorded with the per-point impostor
        # loop (again once distances and gradients were computed from
        # centred rows, for the fixed-shape Gram product and the copy-free
        # weighted scatter sum, and for the fit on class-sorted rows with
        # one scatter sum per gradient); a BLAS build that rounds x @ l.T
        # differently would need a new digest, the oracle tests above are
        # the portable check
        r = np.random.default_rng(20240601)
        centers = np.array([[0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 1.0, 0.0],
                            [0.0, 3.0, 0.0, 1.0]])
        x = np.vstack([c + r.standard_normal((15, 4)) for c in centers])
        y = np.repeat([0, 1, 2], 15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            l = LMNN(k=3, max_iter=20).fit(x, y).components_
        h = hashlib.sha256(f"{l.dtype.str}{l.shape}".encode())
        h.update(np.ascontiguousarray(l).tobytes())
        assert h.hexdigest() == \
            "425707e0e413202aacd1cec0eef5da8d0b3e1da85f2fc3ee61de0688b71fa9d9"

    def test_objective_memory_stays_quadratic(self):
        n, k = 800, 10
        r = np.random.default_rng(3)
        y = np.arange(n) % 4
        x, y, blocks = _class_sorted(r.standard_normal((n, 5)) + y[:, None], y)
        targets = lmnn_targets(x, y, k)
        l = np.eye(5)
        tracemalloc.start()
        try:
            lmnn_objective(l, x, targets, 0.5, 1.0, blocks)[1]()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # eight n x n float arrays; an (n, k, n) block alone would be 51 MB
        assert peak < 8 * n * n * 8


@pytest.mark.parametrize("objective", ["nca", "mlkr"])
def test_value_call_holds_two_n_by_n_arrays(objective):
    n = 800
    y = np.arange(n) % 4
    x = np.random.default_rng(3).standard_normal((n, 5)) + y[:, None]
    x, y, blocks = _class_sorted(x, y)
    call = {"nca": lambda: nca_objective(np.eye(5), x, blocks),
            "mlkr": lambda: mlkr_objective(np.eye(5), x, y.astype(float))}
    tracemalloc.start()
    try:
        call[objective]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the distances, built in the Gram buffer, which then become the
    # weights in place; a fresh array per step peaks above 3
    assert peak < 2.5 * n * n * 8


def test_nca_value_call_holds_one_n_by_n_array():
    n = 800
    y = np.arange(n) % 4
    x = np.random.default_rng(3).standard_normal((n, 5)) + y[:, None]
    x, _, blocks = _class_sorted(x, y)
    tracemalloc.start()
    try:
        nca_objective(np.eye(5), x, blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the probabilities; keeping their same-class part for grad() as well
    # peaks at about 2
    assert peak < 1.3 * n * n * 8


def _lmnn(l, x, y, targets, push_weight, margin):
    """lmnn_objective on rows already sorted by class, as an LMNN fit has
    them."""
    assert np.all(y[:-1] <= y[1:])
    return lmnn_objective(l, x, targets, push_weight, margin,
                          _class_sorted(x, y)[2])


def tie_heavy_data(seed, n=24, d=4):
    """Small-integer points in three classes: many exact distance ties."""
    r = np.random.default_rng(seed)
    x = r.integers(-2, 3, size=(n, d)).astype(float)
    y = np.arange(n) % 3
    return x, y


def _lmnn_targets_oracle(x, y, k):
    """Per point, np.linalg.norm to the other class members, then a stable
    argsort: the documented (distance, index) order, exactly."""
    targets = np.empty((len(x), k), dtype=int)
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        for i in members:
            others = members[members != i]
            d = np.linalg.norm(x[others] - x[i], axis=1)
            targets[i] = others[np.argsort(d, kind="stable")][:k]
    return targets


def _lmnn_targets_gram_oracle(x, y, k):
    """Per point, a stable argsort of the Gram distances to the other class
    members; Gram rounding decides exact ties."""
    d2 = pairwise_sq_dists(x)
    targets = np.empty((len(x), k), dtype=int)
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        for i in members:
            others = members[members != i]
            targets[i] = others[np.argsort(d2[i, others], kind="stable")][:k]
    return targets


def _lmnn_objective_oracle(l, x, y, targets, push_weight, margin):
    """The per-point, per-target impostor loop the slot-wise form replaced,
    with the pull weights added to the scaled push counts."""
    z = x @ l.T
    d2 = pairwise_sq_dists(z)
    n = len(x)
    w_push = np.zeros((n, n))
    pull = 0.0
    push = 0.0
    for i in range(n):
        diff = np.flatnonzero(y != y[i])
        for j in targets[i]:
            pull += d2[i, j]
            h = margin + d2[i, j] - d2[i, diff]
            active = diff[h > 0.0]
            push += float(np.sum(h[h > 0.0]))
            w_push[i, j] += len(active)
            for li in active:
                w_push[i, li] -= 1.0
    w = push_weight * w_push
    for i in range(n):
        w[i, targets[i]] += 1.0 - push_weight
    f = (1.0 - push_weight) * pull + push_weight * push
    return f, 2.0 * l @ weighted_outer_sum(x, w)


def _same_class_mask(y):
    """n x n mask of pairs i != j with equal labels."""
    return (y[:, None] == y[None, :]) & ~np.eye(len(y), dtype=bool)


def _lmnn_objective_by_masks(l, x, y, targets, push_weight, margin):
    """LMNN with an n x n class mask and a separate pull scatter sum (the
    value oracle)."""
    d2 = pairwise_sq_dists(x @ l.T)
    n = len(x)
    rows = np.arange(n)
    differ = y[:, None] != y[None, :]
    w_pull = np.zeros((n, n))
    w_push = np.zeros((n, n))
    pull = push = 0.0
    for t in targets.T:
        w_pull[rows, t] += 1.0
        pull += float(np.sum(d2[rows, t]))
        h = margin + d2[rows, t][:, None] - d2
        active = (h > 0.0) & differ
        push += float(np.sum(h[active]))
        w_push[rows, t] += active.sum(axis=1)
        w_push -= active
    g = (1.0 - push_weight) * weighted_outer_sum(x, w_pull) \
        + push_weight * weighted_outer_sum(x, w_push)
    return (1.0 - push_weight) * pull + push_weight * push, 2.0 * l @ g


def _pairwise_sq_dists_oracle(z):
    """The one-line formula the in-place distance pass finishes the Gram
    product by."""
    sq, g = _centred_gram(z)
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _neighbour_weights_oracle(z):
    """Row-shifted logits |z_j|^2 - 2 z_i.z_j, with a fresh array per step."""
    sq, g = _centred_gram(z)
    e = sq[None, :] - 2.0 * g
    np.fill_diagonal(e, np.inf)
    return _exp_flushed(e.min(axis=1, keepdims=True) - e)


def _nca_objective_oracle(l, x, y):
    """NCA with a fresh array per step on rows sorted by class, each class
    block found from y."""
    p = _neighbour_weights_oracle(x @ l.T)
    p /= p.sum(axis=1, keepdims=True)
    blocks = [slice(np.flatnonzero(y == c)[0], np.flatnonzero(y == c)[-1] + 1)
              for c in np.unique(y)]
    p_i = np.concatenate([np.sum(p[b, b], axis=1) for b in blocks])
    w = p * p_i[:, None]
    for b in blocks:
        w[b, b] = w[b, b] - p[b, b]
    return float(p_i.sum()), 2.0 * l @ weighted_outer_sum(x, w)


def _nca_objective_by_masks(l, x, y):
    """NCA with an n x n same-class mask (the value oracle)."""
    same = _same_class_mask(y)
    p = _neighbour_weights(x @ l.T)
    p /= p.sum(axis=1, keepdims=True)
    p_i = np.sum(p * same, axis=1)
    w = (p_i[:, None] - same) * p
    return float(p_i.sum()), 2.0 * l @ weighted_outer_sum(x, w)


def _mlkr_objective_oracle(l, x, y):
    """MLKR with a fresh array per step, as before the in-place passes."""
    k = _neighbour_weights_oracle(x @ l.T)
    s = k.sum(axis=1)
    yhat = (k @ y) / s
    r = yhat - y
    w = -2.0 * (r / s)[:, None] * (y[None, :] - yhat[:, None]) * k
    return float(np.sum(r * r)), 2.0 * l @ weighted_outer_sum(x, w)


def _distances_by_syrk(z):
    """True squared distances from the syrk Gram product z @ z.T."""
    z = z - z.mean(axis=0)
    sq = np.sum(z * z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _weighted_outer_sum_by_symmetrized_weights(x, w):
    """The scatter sum through the symmetrized weights w + w^T."""
    x = x - x.mean(axis=0)
    s = w + w.T
    g = x.T @ (s.sum(axis=1)[:, None] * x) - x.T @ (s @ x)
    return 0.5 * (g + g.T)


def _nca_objective_by_distances(l, x, y):
    """NCA's softmax over true distances (the value oracle)."""
    same = _same_class_mask(y)
    logits = -_distances_by_syrk(x @ l.T)
    np.fill_diagonal(logits, -np.inf)
    p = _exp_flushed(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p_i = np.sum(p * same, axis=1)
    w = p * p_i[:, None] - p * same
    return float(p_i.sum()), \
        2.0 * l @ _weighted_outer_sum_by_symmetrized_weights(x, w)


def _mlkr_objective_by_distances(l, x, y):
    """MLKR's kernel over true distances (the value oracle)."""
    d2 = _distances_by_syrk(x @ l.T)
    np.fill_diagonal(d2, np.inf)
    k = _exp_flushed(d2.min(axis=1, keepdims=True) - d2)
    s = k.sum(axis=1)
    yhat = (k @ y) / s
    r = yhat - y
    w = -2.0 * (r / s)[:, None] * (y[None, :] - yhat[:, None]) * k
    return float(np.sum(r * r)), \
        2.0 * l @ _weighted_outer_sum_by_symmetrized_weights(x, w)


@st.composite
def objective_cases(draw):
    """(l, x, y): tie-heavy small integers or normal draws scaled by 1e-6,
    1 or 1e6, three classes of at least 3 points, and maps with fewer
    rows than columns or rounded to halves (exact distance ties, hinges
    at exactly 0)."""
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, d = draw(st.integers(9, 30)), draw(st.integers(1, 5))
    m = draw(st.integers(1, d))
    if draw(st.booleans()):
        x = r.integers(-2, 3, size=(n, d)).astype(float)
    else:
        x = r.standard_normal((n, d)) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    l = r.standard_normal((m, d))
    if draw(st.booleans()):
        l = np.round(2.0 * l) / 2.0
    return l, x, np.arange(n) % 3


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [63, 64, 65, 200, 300, 800])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_blocked_distance_pass_gives_the_oracle_bits(n, scale):
    z = np.random.default_rng(n).standard_normal((n, 20)) * scale + scale
    assert _same_bits(pairwise_sq_dists(z), _pairwise_sq_dists_oracle(z))


def test_distance_pass_holds_one_n_by_n_array():
    n = 800
    z = np.random.default_rng(2).standard_normal((n, 20))
    tracemalloc.start()
    try:
        pairwise_sq_dists(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the Gram buffer, which becomes the result, and one block of rows; a
    # second n x n array for the distances would peak at about 2
    assert peak < 1.25 * n * n * 8


@pytest.mark.parametrize("n", [63, 64, 65, 200])
def test_blocked_nca_row_sums_give_the_oracle_bits(n):
    r = np.random.default_rng(n)
    y = np.arange(n) % 3
    x, y, blocks = _class_sorted(r.standard_normal((n, 5)) + y[:, None], y)
    l = r.standard_normal((3, 5))
    f, grad = nca_objective(l, x, blocks)
    f_ref, g_ref = _nca_objective_oracle(l, x, y)
    assert _same_bits(f, f_ref) and _same_bits(grad(), g_ref)


@settings(max_examples=80, deadline=None)
@given(case=objective_cases())
def test_in_place_passes_give_the_oracle_bits(case):
    l, x, y = case
    z = x @ l.T
    assert _same_bits(pairwise_sq_dists(z), _pairwise_sq_dists_oracle(z))
    # a target with ties: y + the first feature
    t = y + x[:, 0]
    f, grad = mlkr_objective(l, x, t)
    f_ref, g_ref = _mlkr_objective_oracle(l, x, t)
    assert _same_bits(f, f_ref) and _same_bits(grad(), g_ref)
    # NCA and LMNN fit on rows sorted by class
    x, y, blocks = _class_sorted(x, y)
    f, grad = nca_objective(l, x, blocks)
    f_ref, g_ref = _nca_objective_oracle(l, x, y)
    assert _same_bits(f, f_ref) and _same_bits(grad(), g_ref)
    # LMNN's loss adds its hinges in another order: 1e-14 relative
    targets = lmnn_targets(x, y, 2)
    f_ref, g_ref = _lmnn_objective_oracle(l, x, y, targets, 0.3, 1.0)
    f, grad = _lmnn(l, x, y, targets, 0.3, 1.0)
    assert _same_bits(grad(), g_ref)
    assert abs(f - f_ref) <= 1e-14 * abs(f_ref)


def _term_scale(l, x):
    """|l| times the largest squared distance times n: a bound on the size
    of the terms a gradient with row weight sums at most 1 adds up."""
    d2 = np.sum((x[:, None] - x[None]) ** 2, axis=-1)
    return np.abs(l).max() * d2.max() * len(x)


@settings(max_examples=200, deadline=None)
@given(case=objective_cases())
def test_row_shifted_logits_give_the_true_distance_values(case):
    # the value oracles form true distances with syrk and symmetrize the
    # gradient weights; the values agree to 1e-12 relative (plus n * tiny,
    # the most that flushing a subnormal weight in one and not the other
    # moves a value), the gradients to 1e-12 of the size of their terms (an
    # exactly cancelling gradient, which tie-heavy data gives, has no
    # relative accuracy)
    l, x, y = case
    t = y + x[:, 0]
    flush = len(x) * np.finfo(float).tiny
    xs, _, blocks = _class_sorted(x, y)
    for f, grad, (f_ref, g_ref), scale in [
            (*nca_objective(l, xs, blocks),
             _nca_objective_by_distances(l, x, y), _term_scale(l, x)),
            (*mlkr_objective(l, x, t), _mlkr_objective_by_distances(l, x, t),
             2.0 * np.ptp(t) ** 2 * _term_scale(l, x))]:
        assert abs(f - f_ref) <= 1e-12 * abs(f_ref) + flush
        assert np.abs(grad() - g_ref).max() <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(case=objective_cases())
def test_class_blocks_give_the_mask_based_values(case):
    # the value oracles weigh the same class-sorted rows through n x n
    # class masks, and LMNN's through a separate pull scatter sum; values
    # agree to 1e-12 relative, gradients to 1e-12 of the size of their
    # terms (LMNN's row weights add up to at most 2 k n in magnitude)
    l, x, y = case
    x, y, blocks = _class_sorted(x, y)
    k = 2
    targets = lmnn_targets(x, y, k)
    for f, grad, (f_ref, g_ref), scale in [
            (*nca_objective(l, x, blocks), _nca_objective_by_masks(l, x, y),
             _term_scale(l, x)),
            (*lmnn_objective(l, x, targets, 0.3, 1.0, blocks),
             _lmnn_objective_by_masks(l, x, y, targets, 0.3, 1.0),
             2 * k * len(x) * _term_scale(l, x))]:
        assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
        assert np.abs(grad() - g_ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("learner", [NCA, LMNN])
def test_fit_set_up_holds_no_n_by_n_array(learner, monkeypatch):
    # the solver stubbed out: what a fit builds before its first evaluation
    n = 2000
    y = np.arange(n) % 3
    x = np.random.default_rng(6).standard_normal((n, 20)) + y[:, None]
    monkeypatch.setattr(supervised, "backtracking_solve",
                        lambda objective, l0, **_: (l0, FitReport()))
    tracemalloc.start()
    try:
        learner().fit(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an n x n boolean class mask alone is 0.125 n^2 floats
    assert peak < 0.25 * n * n * 8


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200, 667])
@pytest.mark.parametrize("c", [1, 5, 20])
def test_gram_product_matches_the_syrk_values(n, c):
    z = np.random.default_rng(n + c).standard_normal((n, c)) + 1e3
    sq, g = _centred_gram(z)
    zc = z - z.mean(axis=0)
    assert g.shape == (n, n) and g.flags.c_contiguous
    assert _same_bits(sq, np.einsum("ij,ij->i", zc, zc))
    assert np.abs(g - zc @ zc.T).max() <= 1e-14 * c * sq.max()


def _gram_digest() -> str:
    """sha256 of the Gram kernel's output over shapes whose column count is
    not a multiple of 8 (667) as well as ones that are."""
    r = np.random.default_rng(12)
    h = hashlib.sha256()
    for n in (200, 300, 667, 1000):
        for c in (5, 20):
            sq, g = _centred_gram(r.standard_normal((n, c)) + 2.0)
            h.update(sq.tobytes())
            h.update(g.tobytes())
    return h.hexdigest()


def test_gram_bits_do_not_depend_on_the_blas_thread_count():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    paths = [str(pathlib.Path(mlearn.__file__).parents[1]),
             str(pathlib.Path(__file__).parent)]
    code = ("import sys; sys.path[:0] = " + repr(paths) + "; "
            "import test_supervised; print(test_supervised._gram_digest())")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == _gram_digest()


class TestMLKR:
    def test_loss_halves_on_linear_target(self):
        r = np.random.default_rng(4)
        x = r.standard_normal((20, 3))
        y = 3.0 * x[:, 0] + 0.01 * r.standard_normal(20)
        est = MLKR(max_iter=60).fit(x, y)
        trace = est.fit_report_.objective_trace
        assert trace[-1] <= 0.5 * trace[0]

    def test_gradient_finite_differences(self):
        r = np.random.default_rng(6)
        x = r.standard_normal((8, 3))
        y = r.standard_normal(8)
        l = r.standard_normal((3, 3)) * 0.4
        g = mlkr_objective(l, x, y)[1]()
        fd = finite_diff_grad(lambda l_: mlkr_objective(l_, x, y)[0], l)
        assert max_rel_err(g, fd) <= 1e-5

    def test_constant_targets_warn_and_return_init(self):
        r = np.random.default_rng(1)
        x = r.standard_normal((5, 2))
        with pytest.warns(UserWarning, match="constant"):
            est = MLKR().fit(x, np.ones(5))
        assert np.array_equal(est.components_, np.eye(2))
        assert est.fit_report_.converged

    def test_equal_targets_zero_loss(self):
        # two samples sharing a target contribute no residual pressure
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        y = np.array([2.0, 2.0, 2.0 + 1e-9])
        f, _ = mlkr_objective(np.eye(2), x, y)
        assert f <= 1e-9

    def test_trace_monotone_nonincreasing(self):
        r = np.random.default_rng(9)
        x = r.standard_normal((15, 3))
        y = x[:, 0] ** 2
        trace = MLKR(max_iter=40).fit(x, y).fit_report_.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


class TestLFDA:
    def test_direction_matches_dense_oracle(self):
        x, y = clustered_data(seed=2, n_per=10, d=3)
        est = LFDA(n_components=1).fit(x, y)
        v = est.components_[0]
        v = v / np.linalg.norm(v)
        # independently rebuild the scatter pencil and dense-solve it
        sb, sw = _lfda_scatters_oracle(x, y, knn=7)
        eps = 1e-9 * np.trace(sw) / x.shape[1]
        vals, vecs = np.linalg.eig(np.linalg.inv(sw + eps * np.eye(3)) @ sb)
        top = vecs[:, np.argmax(vals.real)].real
        top = top / np.linalg.norm(top)
        assert abs(v @ top) >= 0.99

    def test_generalized_residual(self):
        x, y = clustered_data(seed=2, n_per=10, d=3)
        sb, sw = _lfda_scatters_oracle(x, y, knn=7)
        eps = 1e-9 * np.trace(sw) / x.shape[1]
        res = gen_sym_eig(sb, sw + eps * np.eye(3), 3)
        for lam, v in zip(res.eigenvalues, res.eigenvectors.T):
            r = np.linalg.norm(sb @ v - lam * ((sw + eps * np.eye(3)) @ v))
            assert r <= 1e-8 * (1 + abs(lam)) * max(np.max(np.abs(sb)), 1.0)

    def test_plain_vs_weighted_row_scaling(self):
        x, y = clustered_data(seed=5, n_per=8, d=3)
        lw = LFDA(embedding="weighted").fit(x, y).components_
        lp = LFDA(embedding="plain").fit(x, y).components_
        for rw, rp in zip(lw, lp):
            nw, npn = np.linalg.norm(rw), np.linalg.norm(rp)
            if nw <= 1e-12:
                continue
            scale = nw / npn
            assert np.allclose(rw, scale * rp, atol=1e-8 * max(scale, 1.0))

    def test_deterministic(self):
        x, y = clustered_data(seed=6)
        l1 = LFDA().fit(x, y).components_
        l2 = LFDA().fit(x, y).components_
        assert np.array_equal(l1, l2)

    def test_permutation_equivariance(self):
        x, y = clustered_data(seed=8, n_per=7)
        perm = np.random.default_rng(0).permutation(len(x))
        m1 = LFDA().fit(x, y).get_mahalanobis_matrix()
        m2 = LFDA().fit(x[perm], y[perm]).get_mahalanobis_matrix()
        assert np.max(np.abs(m1 - m2)) <= 1e-8 * max(np.max(np.abs(m1)), 1.0)

    def test_repeated_rows_fit_without_warnings(self):
        # point 1 repeats point 0, so its nearest same-class neighbor sits
        # at distance 0 (up to Gram rounding) and gives no local scale
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5],
                      [4.0, 4.0], [5.0, 3.5], [4.5, 5.0]])
        y = [0, 0, 0, 1, 1, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l = LFDA(knn=1).fit(x, y).components_
        assert np.all(np.isfinite(l))
        d2 = pairwise_sq_dists(x[:3])
        assert np.array_equal(_local_scaling(d2, 1),
                              np.sqrt([d2[0, 2], d2[1, 2], min(d2[2, :2])]))

    def test_one_point_class_has_unit_scale(self):
        assert np.array_equal(_local_scaling(np.zeros((3, 3)), 2), np.ones(3))

    def test_singleton_class_rejected(self):
        x = np.random.default_rng(0).standard_normal((4, 2))
        with pytest.raises(ValidationError, match="single member"):
            LFDA().fit(x, [0, 0, 0, 1])

    def test_local_scaling_matches_per_point_loop(self):
        for seed in range(20):
            x, _ = tie_heavy_data(seed, n=9)
            d2 = pairwise_sq_dists(x)
            d = np.sqrt(d2)
            for knn in (1, 3, 7, 20):
                kn = min(knn, len(x) - 1)
                ref = [np.sort(np.delete(d[a], a), kind="stable")[kn - 1]
                       for a in range(len(x))]
                assert np.array_equal(_local_scaling(d2, knn), ref)

    def test_blocked_scatters_match_dense_oracle(self):
        cases = [clustered_data(seed=2, n_per=10, d=3),
                 clustered_data(seed=3, n_per=5, d=4, sep=0.5)]
        r = np.random.default_rng(4)
        # uneven classes, one of them a pair, and an offset far from 0
        y = np.array([0] * 14 + [1] * 2 + [2] * 7)
        cases.append((r.standard_normal((len(y), 3)) + 50.0, y))
        for x, y in cases:
            for knn in (1, 3, 7):
                sb, sw = _lfda_scatters(x, y, knn)
                sb_ref, sw_ref = _lfda_scatters_oracle(x, y, knn)
                for got, ref in ((sb, sb_ref), (sw, sw_ref)):
                    assert np.max(np.abs(got - ref)) \
                        <= 1e-12 * np.max(np.abs(ref))

    def test_translation_invariance(self):
        for seed in range(3):
            x, y = clustered_data(seed=seed, n_per=12, d=3)
            l = LFDA().fit(x, y).components_
            l_far = LFDA().fit(x + 1e6, y).components_
            assert np.max(np.abs(l_far - l)) <= 1e-9 * np.max(np.abs(l))

    def test_fit_memory_stays_below_one_n_by_n_matrix(self):
        n, d = 2000, 20
        r = np.random.default_rng(0)
        y = np.arange(n) % 3
        x = r.standard_normal((n, d)) + 2.0 * np.eye(d)[y]
        tracemalloc.start()
        try:
            LFDA().fit(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_scatters_peak_below_four_class_blocks(self):
        # a class block forms its affinity in the distance buffer and takes
        # one weighted sum of it: no second n_c x n_c weight matrix
        n, d = 2000, 20
        r = np.random.default_rng(0)
        y = np.arange(n) % 3
        x = r.standard_normal((n, d)) + 2.0 * np.eye(d)[y]
        nc = np.bincount(y).max()
        tracemalloc.start()
        try:
            _lfda_scatters(x, y, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * nc * nc * 8


def _lfda_scatters_oracle(x, y, knn):
    """Dense reference construction of the local-Fisher scatter pencil."""
    n, d = x.shape
    w_within = np.zeros((n, n))
    w_between = np.full((n, n), 1.0 / n)
    np.fill_diagonal(w_between, 0.0)
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        nc = len(members)
        xm = x[members]
        dist = np.sqrt(np.sum((xm[:, None] - xm[None, :]) ** 2, axis=2))
        sigma = np.empty(nc)
        kn = min(knn, nc - 1)
        for a in range(nc):
            others = np.sort(np.delete(dist[a], a))
            sigma[a] = max(others[kn - 1], np.finfo(float).tiny)
        aff = np.exp(-dist ** 2 / np.outer(sigma, sigma))
        np.fill_diagonal(aff, 0.0)
        for ai, i in enumerate(members):
            for bi, j in enumerate(members):
                w_within[i, j] = aff[ai, bi] / nc
                w_between[i, j] = aff[ai, bi] * (1.0 / n - 1.0 / nc)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    for i in range(n):
        for j in range(n):
            diff = x[i] - x[j]
            sw += 0.5 * w_within[i, j] * np.outer(diff, diff)
            sb += 0.5 * w_between[i, j] * np.outer(diff, diff)
    return sb, sw


def _local_scaling_oracle(d2, knn):
    """The stable sort of each row without its diagonal entry, which the
    selection replaced."""
    m = len(d2)
    kn = min(knn, m - 1)
    off = d2[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    ranked = np.sort(off, axis=1, kind="stable")
    s2 = ranked[:, kn - 1].copy()
    tol = 1e-12 * ranked[:, -1].max()
    coincide = s2 <= tol
    if coincide.any():
        rows = ranked[coincide]
        nearest = rows[np.arange(len(rows)), np.argmax(rows > tol, axis=1)]
        s2[coincide] = np.where(nearest > tol, nearest, 1.0)
    return np.sqrt(s2)


@st.composite
def class_blocks(draw):
    """(x, knn) for one class: tie-heavy small integers or normal draws
    scaled by 1e-6, 1, 1e6 or 1e200 (whose Gram distances overflow to inf
    and NaN), classes of 2 likely, some rows repeated, knn up to past the
    class size."""
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = 2 if draw(st.integers(0, 3)) == 0 else draw(st.integers(3, 40))
    d = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([None, 1e-6, 1.0, 1e6, 1e200]))
    if scale is None:
        x = r.integers(-2, 3, size=(m, d)).astype(float)
    else:
        x = r.standard_normal((m, d)) * scale
    repeats = draw(st.integers(0, m - 1))
    x[r.integers(0, m, size=repeats)] = x[r.integers(0, m, size=repeats)]
    return x, draw(st.integers(1, m + 2))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=class_blocks())
def test_selected_local_scale_gives_the_sorted_bits(case):
    x, knn = case
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = pairwise_sq_dists(x)
    d2_in = d2.copy()
    assert np.array_equal(_local_scaling(d2, knn),
                          _local_scaling_oracle(d2, knn), equal_nan=True)
    assert np.array_equal(d2, d2_in, equal_nan=True)


class TestRCA:
    def test_hand_covariance_case(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        est = RCA(reg=1e-8).fit(x, [0, 0])
        m = est.get_mahalanobis_matrix()
        # C = [[1,0],[0,0]]; whitening gives M ~ diag(1/(1+eps), 1/eps)
        assert abs(m[0, 0] - 1.0) <= 1e-6
        assert m[1, 1] >= 1e6

    def test_identical_points_pure_regularization(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        est = RCA(reg=1e-4).fit(x, [0, 0])
        assert np.allclose(est.components_ @ est.components_.T,
                           np.eye(2) * 1e4, rtol=1e-6)

    def test_whitening_recompute_oracle(self):
        r = np.random.default_rng(3)
        x = r.standard_normal((30, 3)) @ np.diag([1.0, 5.0, 0.2])
        chunks = np.repeat(np.arange(6), 5)
        est = RCA(reg=1e-8).fit(x, chunks)
        z = est.transform(x)
        cov = np.zeros((3, 3))
        cnt = 0
        for c in range(6):
            zm = z[chunks == c]
            centered = zm - zm.mean(axis=0)
            cov += centered.T @ centered
            cnt += len(zm)
        cov /= cnt
        assert np.max(np.abs(cov - np.eye(3))) <= 1e-6

    def test_singletons_ignored(self):
        r = np.random.default_rng(5)
        x = r.standard_normal((6, 2))
        m1 = RCA().fit(x, [0, 0, 1, 1, -1, -1]).get_mahalanobis_matrix()
        m2 = RCA().fit(x[:4], [0, 0, 1, 1]).get_mahalanobis_matrix()
        assert np.allclose(m1, m2)

    def test_no_valid_chunklet_rejected(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValidationError, match="chunklet"):
            RCA().fit(x, [-1, -1, 0])

    def test_reduction_unsupported(self):
        # RCA whitens in the input space: it has no n_components to set
        with pytest.raises(ValidationError,
                           match="unknown parameter 'n_components'"):
            RCA().set_params(n_components=2)


class TestCommonEstimatorBehaviour:
    def test_get_set_params_round_trip(self):
        est = NCA(n_components=2, max_iter=17)
        params = est.get_params()
        assert params["n_components"] == 2 and params["max_iter"] == 17
        est.set_params(tol=1e-3)
        assert est.tol == 1e-3
        with pytest.raises(ValidationError):
            est.set_params(bogus=1)

    @pytest.mark.parametrize("name,value", [
        ("max_iter", 2.5), ("max_iter", "abc"), ("max_iter", None),
        ("max_iter", True), ("tol", "abc"), ("tol", None), ("margin", "abc"),
        ("k", 2.0), ("diagonal", "abc"), ("diagonal", 1), ("init", 1),
        ("percentiles", 5), ("n_components", 2.0), ("n_components", True),
    ])
    def test_set_params_rejects_the_wrong_type(self, name, value):
        est = next(cls() for cls in (LMNN, MMC, ITML)
                   if name in cls._param_defaults())
        with pytest.raises(ValidationError, match=name):
            est.set_params(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("max_iter", 0), ("max_iter", np.int64(7)), ("tol", 1),
        ("tol", np.float32(0.5)), ("diagonal", True), ("init", "random"),
        ("percentiles", [10, 90]), ("n_components", None),
        ("n_components", 2),
    ])
    def test_set_params_accepts_the_default_type(self, name, value):
        est = next(cls() for cls in (LMNN, MMC, ITML)
                   if name in cls._param_defaults())
        assert est.set_params(**{name: value}).get_params()[name] is value

    @pytest.mark.parametrize("cls,name,value", [
        (LFDA, "knn", 0), (LFDA, "knn", -1), (LFDA, "knn", 2.5), (LMNN, "k", 0),
    ] + [(cls, name, -1) for cls in (NCA, LMNN, MLKR, MMC, ITML, LSML)
         for name in ("max_iter", "tol")])
    def test_out_of_range_values_rejected(self, cls, name, value):
        # unchecked, each of these fits without complaint: knn=0 scales by
        # the farthest same-class point, k=0 returns the identity as
        # converged, max_iter=-1 runs no iteration, tol=-1 never converges
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            cls(**{name: value}).fit(*_fit_args(cls))

    # one case per rule of base._PARAM_RULES
    @pytest.mark.parametrize("cls,name,value", [
        (LMNN, "k", 0), (LFDA, "knn", 0), (LMNN, "push_weight", 0.0),
        (LMNN, "push_weight", 1.0), (ITML, "gamma", 0.0), (LSML, "reg", -1.0),
        (RCA, "reg", -1.0), (NCA, "init", "bogus"), (LSML, "prior", "bogus"),
        (LFDA, "embedding", "bogus"), (ITML, "percentiles", (95, 5)),
        (ITML, "percentiles", (5, "abc")), (MLKR, "max_iter", -1),
        (MMC, "tol", -1.0),
    ])
    def test_set_params_refuses_each_rule_at_once(self, cls, name, value):
        with pytest.raises(ValidationError) as at_once:
            cls().set_params(**{name: value})
        assert re.fullmatch(f"{name} must be .+, got {re.escape(repr(value))}",
                            str(at_once.value))
        # the gate of fit gives the same error
        with pytest.raises(ValidationError) as at_fit:
            cls(**{name: value}).fit(*_fit_args(cls))
        assert str(at_fit.value) == str(at_once.value)

    @pytest.mark.parametrize("cls,name,value", [
        (LMNN, "k", 1), (LSML, "reg", 0.0), (RCA, "reg", 0.0),
        (ITML, "percentiles", (0, 100))])
    def test_set_params_accepts_the_rules_boundaries(self, cls, name, value):
        est = cls(max_iter=5) if "max_iter" in cls._param_defaults() else cls()
        assert est.set_params(**{name: value}).get_params()[name] is value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mlearn.ConvergenceWarning)
            est.fit(*_fit_args(cls))
        assert np.all(np.isfinite(est.components_))

    def test_clone_is_unfitted_copy(self):
        x, y = clustered_data()
        est = LMNN(k=2, max_iter=5).fit(x, y)
        c = est.clone()
        assert c.k == 2 and not hasattr(c, "model_")

    def test_iterative_determinism(self):
        x, y = clustered_data(seed=4)
        l1 = NCA(max_iter=15).fit(x, y).components_
        l2 = NCA(max_iter=15).fit(x, y).components_
        assert np.max(np.abs(l1 - l2)) <= 1e-12

    def test_psd_invariant_after_fit(self):
        x, y = clustered_data(seed=1)
        for est in (NCA(max_iter=10), LMNN(k=2, max_iter=10), LFDA()):
            est.fit(x, y)
            assert est.model_.min_mahalanobis_eigenvalue() >= -1e-9


class TestRandomInit:
    def test_seed_reproduces_and_varies(self):
        x, y = clustered_data()
        fit = lambda seed: NCA(init="random", max_iter=5, seed=seed).fit(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a, b, c = fit(3).components_, fit(3).components_, fit(4).components_
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draws_lie_in_scaled_unit_interval(self):
        l = _init_transform("random", 3, 16, seed=0)
        assert l.shape == (3, 16)
        assert np.all(np.abs(l) <= 1.0 / 4.0) and len(np.unique(l)) == l.size
        # the top 53 bits of SplitMix64(0)'s first draw, mapped to [-1, 1)
        assert l[0, 0] == ((0xE220A8397B1DCDAF >> 11) * 2.0 ** -52 - 1.0) / 4.0

    def test_package_never_uses_numpy_random(self):
        # every random draw must go through SplitMix64 (see mlearn.rng)
        pattern = re.compile(r"\b(np|numpy)\.random\b|from numpy import .*\brandom\b")
        src = pathlib.Path(mlearn.__file__).parent
        offenders = [p.name for p in sorted(src.glob("*.py"))
                     if pattern.search(p.read_text(encoding="utf-8"))]
        assert offenders == []
