import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlearn import (
    ITML,
    LSML,
    MMC,
    accuracy_score,
    calibrate_threshold,
    f1_score,
    from_components,
    pairs_from_labels,
)
import mlearn.linalg
import mlearn.model
import mlearn.tuples
import mlearn.weak
from mlearn.calibration import candidate_thresholds
from mlearn.exceptions import DimensionError, NumericalError, ValidationError
from mlearn.linalg import psd_project, psd_sqrt
from mlearn.tuples import validate_tuples
from mlearn.weak import (
    _prior_matrix,
    itml_bounds,
    lsml_objective,
    mmc_diag_objective,
    mmc_objective,
)

from conftest import (NON_FINITE_ITML_CASES, finite_diff_grad, labeled_pairs,
                      max_rel_err)


def reference_lsml_objective(m, close, far, m0inv, logdet_m0, reg):
    """LSML's objective as it was written before slogdet and inv: log det M
    and M^-1 from an eigendecomposition, eigenvalues floored at 1e-10.

    Returns (value, gradient).
    """
    vals, vecs = np.linalg.eigh(m)
    vals = np.maximum(vals, 1e-10)
    smooth = reg * (float(np.trace(m @ m0inv))
                    - (float(np.sum(np.log(vals))) - logdet_m0) - len(m))
    dc = np.sqrt(np.maximum(np.sum((close @ m) * close, axis=1), 0.0))
    df = np.sqrt(np.maximum(np.sum((far @ m) * far, axis=1), 0.0))
    viol = np.maximum(dc - df, 0.0)
    c, f = (viol > 0.0) & (dc > 0.0), (viol > 0.0) & (df > 0.0)
    g = (reg * (m0inv - (vecs / vals) @ vecs.T)
         + (close[c].T * (viol[c] / dc[c])) @ close[c]
         - (far[f].T * (viol[f] / df[f])) @ far[f])
    return smooth + float(np.sum(viol * viol)), 0.5 * (g + g.T)


def fit_quiet(est, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return est.fit(*args)


def reference_itml_cycles(est, pairs, y):
    """ITML's cycle loop as it was written before zero-multiplier steps
    skipped the rank-one update: numpy state, ``v @ a @ v``, ``np.outer``.

    Returns ([(M, change, adjusted bounds), ...], the number of steps whose
    multiplier change alpha was 0), copying each yielded value.
    """
    pairs = np.asarray(pairs, dtype=float)
    y = np.asarray(y)
    pos = pairs[y == 1, 0] - pairs[y == 1, 1]
    neg = pairs[y == -1, 0] - pairs[y == -1, 1]
    d = pos.shape[1]
    u, l = itml_bounds(pairs, est.percentiles)
    gamma = float(est.gamma)
    gamma_proj = gamma / (gamma + 1.0)
    a = _prior_matrix(est.prior, pairs.reshape(-1, d), d).copy()
    vecs = np.vstack([pos, neg])
    n_pos = len(pos)
    lam = np.zeros(len(vecs))
    bhat = np.concatenate([np.full(n_pos, u), np.full(len(neg), l)])
    out, zero_steps = [(a.copy(), None, bhat.copy())], 0
    for _ in range(est.max_iter):
        lam_old = lam.copy()
        for i, v in enumerate(vecs):
            wtw = float(v @ a @ v)
            if wtw <= 0.0:
                continue
            if i < n_pos:
                alpha = min(lam[i], gamma_proj * (1.0 / wtw - 1.0 / bhat[i]))
                beta = alpha / (1.0 - alpha * wtw)
                bhat[i] = 1.0 / (1.0 / bhat[i] + alpha / gamma)
            else:
                alpha = min(lam[i], gamma_proj * (1.0 / bhat[i] - 1.0 / wtw))
                beta = -alpha / (1.0 + alpha * wtw)
                bhat[i] = 1.0 / (1.0 / bhat[i] - alpha / gamma)
            zero_steps += alpha == 0.0
            lam[i] -= alpha
            av = a @ v
            a += beta * np.outer(av, av)
        a = 0.5 * (a + a.T)
        delta = float(np.max(np.abs(lam - lam_old)))
        out.append((a.copy(), delta, bhat.copy()))
        if delta <= est.tol:
            break
    return out, zero_steps


class TestMMC:
    def test_diagonal_grid_search_oracle(self):
        # one similar difference along axis 1, one dissimilar along axis 2:
        # the learned diagonal must shrink axis 1 relative to axis 2
        pairs = np.array([
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.0]],
        ])
        est = fit_quiet(MMC(diagonal=True), pairs, [1, -1])
        m = est.get_mahalanobis_matrix()
        w1, w2 = m[0, 0], m[1, 1]
        assert w1 / max(w2, 1e-300) < 1.0
        # the fit must do at least as well as a grid search over a bounded box
        # (the feasible set contains the box, so fit objective <= grid best)
        pos2 = np.array([[1.0, 0.0]])
        neg2 = np.array([[0.0, 1.0]])
        grid_best = min(
            mmc_diag_objective(np.array([a, b]), pos2, neg2)[0]
            for a in np.linspace(0, 5, 51) for b in np.linspace(0.1, 5, 50)
        )
        fitted = mmc_diag_objective(np.array([w1, w2]), pos2, neg2)[0]
        assert fitted <= grid_best + 1e-9

    def test_full_similarity_budget(self):
        pairs, y = labeled_pairs(seed=1)
        est = fit_quiet(MMC(), pairs, y)
        m = est.get_mahalanobis_matrix()
        pos = pairs[y == 1, 0] - pairs[y == 1, 1]
        assert float(np.sum((pos @ m) * pos)) <= 1.0 + 1e-6

    def test_psd_after_fit(self):
        for seed in (0, 1, 2):
            pairs, y = labeled_pairs(seed=seed)
            for diag in (False, True):
                est = fit_quiet(MMC(diagonal=diag), pairs, y)
                assert est.model_.min_mahalanobis_eigenvalue() >= -1e-9

    def test_diagonal_trace_monotone(self):
        pairs, y = labeled_pairs(seed=4)
        est = fit_quiet(MMC(diagonal=True), pairs, y)
        trace = est.fit_report_.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_diagonal_gradient_finite_differences(self):
        r = np.random.default_rng(7)
        pos2 = r.random((5, 4))
        neg2 = r.random((5, 4)) + 0.5
        w = r.random(4) + 0.5
        g = mmc_diag_objective(w, pos2, neg2)[1]()
        fd = finite_diff_grad(lambda w_: mmc_diag_objective(w_, pos2, neg2)[0], w)
        assert max_rel_err(g, fd) <= 1e-5

    def test_full_gradient_finite_differences(self):
        r = np.random.default_rng(9)
        neg = r.standard_normal((6, 4))
        neg[2] = 0.0  # a coincident pair contributes no gradient
        a = r.standard_normal((4, 4))
        m = a @ a.T + 0.5 * np.eye(4)
        g = mmc_objective(m, neg)[1]()
        fd = finite_diff_grad(lambda m_: mmc_objective(m_, neg)[0], m)
        assert max_rel_err(g, fd) <= 1e-5

    def test_full_gradient_matches_outer_product_loop(self):
        r = np.random.default_rng(10)
        neg = r.standard_normal((7, 3))
        neg[4] = 0.0
        m = np.diag([1.0, 2.0, 0.5])
        dist = np.sqrt(np.sum((neg @ m) * neg, axis=1))
        ref = np.zeros((3, 3))
        for v, dv in zip(neg[dist > 0], dist[dist > 0]):
            ref += np.outer(v, v) / (2.0 * dv)
        f, grad = mmc_objective(m, neg)
        g = grad()
        assert abs(f - np.sum(dist)) <= 1e-12 * np.sum(dist)
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_missing_label_class_rejected(self):
        pairs, y = labeled_pairs()
        with pytest.raises(ValidationError, match="degenerate"):
            MMC().fit(pairs, np.ones_like(y))

    def test_full_fit_decomposes_only_the_final_matrix(self, monkeypatch):
        # the ascent stays in the PSD cone, so no trial point is projected:
        # the final square root is the fit's one eigendecomposition
        calls = []
        sym_eig = mlearn.linalg.sym_eig

        def counting(a):
            calls.append(np.array(a))
            return sym_eig(a)
        monkeypatch.setattr(mlearn.linalg, "sym_eig", counting)
        pairs, y = labeled_pairs(seed=2)
        est = fit_quiet(MMC(), pairs, y)
        assert est.fit_report_.n_iter > 2
        assert len(calls) == 1
        m = est.get_mahalanobis_matrix()
        assert np.max(np.abs(calls[0] - m)) <= 1e-12 * np.max(np.abs(m))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           d=st.integers(1, 5), sim_scale=st.sampled_from([0.01, 0.2, 1.0]))
    def test_full_fit_evaluates_only_symmetric_psd_points(
            self, seed, n, d, sim_scale):
        pairs, y = labeled_pairs(seed=seed, n=n, d=d, sim_scale=sim_scale)
        seen = []

        def recording(m, neg):
            seen.append(m.copy())
            return mmc_objective(m, neg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mlearn.weak, "mmc_objective", recording)
            fit_quiet(MMC(max_iter=40), pairs, y)
        assert len(seen) > 1
        for m in seen:
            assert np.array_equal(m, m.T)
            vals = np.linalg.eigvalsh(m)
            assert vals[0] >= -1e-12 * vals[-1]

    def test_coincident_dissimilar_pairs_numerical_error(self):
        pairs = np.array([
            [[0.0, 0.0], [1.0, 0.0]],
            [[2.0, 2.0], [2.0, 2.0]],
        ])
        with pytest.raises(NumericalError, match="zero distance"):
            MMC().fit(pairs, [1, -1])


class TestITML:
    def test_satisfied_constraint_fixed_point(self):
        # a single similar pair whose distance already equals the (degenerate)
        # bound triggers no update: M stays at the identity prior
        pairs = np.array([
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]],
        ])
        est = fit_quiet(ITML(), pairs, [1, -1])
        # with one distinct distance, u = l and the pair is already on the
        # boundary; the similar constraint needs no tightening
        m = est.get_mahalanobis_matrix()
        pos_d2 = float(np.array([1.0, 0.0]) @ m @ np.array([1.0, 0.0]))
        u, l = est.bounds_
        assert pos_d2 <= u + 1e-6

    def test_constraint_satisfaction_on_separable_data(self):
        pairs, y = labeled_pairs(seed=2, n=10, d=4)
        est = fit_quiet(ITML(gamma=1.0, max_iter=200), pairs, y)
        assert est.fit_report_.converged
        m = est.get_mahalanobis_matrix()
        diffs = pairs[:, 0] - pairs[:, 1]
        # order constraints as the fit does: positives first
        order = np.concatenate([np.flatnonzero(y == 1), np.flatnonzero(y == -1)])
        bhat = est.adjusted_bounds_
        n_pos = est.n_pos_constraints_
        ok = 0
        for slot, idx in enumerate(order):
            d2 = float(diffs[idx] @ m @ diffs[idx])
            if slot < n_pos:
                ok += d2 <= bhat[slot] + 1e-6
            else:
                ok += d2 >= bhat[slot] - 1e-6
        assert ok / len(order) >= 0.9

    def test_symmetric_and_psd_every_cycle(self):
        pairs, y = labeled_pairs(seed=3, n=6)
        est = ITML(max_iter=30)
        for a, _delta in est._cycles(pairs, y):
            assert np.max(np.abs(a - a.T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(a)) >= -1e-9

    def test_gamma_drift_monotone(self):
        # larger gamma enforces the bounds harder, so M moves further from
        # the prior on data with a hard-to-satisfy similar pair
        r = np.random.default_rng(5)
        base = r.standard_normal((4, 3))
        pairs = np.stack([
            np.stack([base[0], base[0] + np.array([5.0, 0, 0])]),
            np.stack([base[1], base[1] + np.array([0.05, 0, 0])]),
            np.stack([base[2], base[2] + np.array([0.1, 0.1, 0])]),
            np.stack([base[3], base[3] + np.array([3.0, 1, 0])]),
        ])
        y = np.array([1, -1, 1, -1])
        drifts = []
        for gamma in (1.0, 1e6):
            est = fit_quiet(ITML(gamma=gamma, max_iter=100), pairs, y)
            drifts.append(np.linalg.norm(est.get_mahalanobis_matrix() - np.eye(3)))
        assert drifts[1] > drifts[0]

    def test_bounds_percentiles(self):
        pairs, _ = labeled_pairs(seed=1)
        d2 = np.sum((pairs[:, 0] - pairs[:, 1]) ** 2, axis=1)
        u, l = itml_bounds(pairs, (5, 95))
        assert abs(u - np.percentile(d2, 5)) <= 1e-12 * max(u, 1.0)
        assert abs(l - np.percentile(d2, 95)) <= 1e-12 * max(l, 1.0)

    def test_bad_percentiles_rejected(self):
        pairs, _ = labeled_pairs()
        with pytest.raises(ValidationError):
            itml_bounds(pairs, (95, 5))

    def test_prior_covariance_inverse(self):
        pairs, y = labeled_pairs(seed=6)
        est = fit_quiet(ITML(prior="covariance-inverse"), pairs, y)
        assert est.model_.min_mahalanobis_eigenvalue() >= -1e-9

    def test_zero_cycles_returns_prior(self):
        pairs, y = labeled_pairs(seed=7)
        est = ITML(max_iter=0).fit(pairs, y)
        assert not est.fit_report_.converged
        assert np.allclose(est.get_mahalanobis_matrix(), np.eye(3), atol=1e-12)

    @staticmethod
    def _cycles_and_reference(est, pairs, y):
        got = [(a.copy(), delta, est.adjusted_bounds_)
               for a, delta in est._cycles(pairs, y)]
        want, zero_steps = reference_itml_cycles(est, pairs, y)
        assert got[0][1] is None
        assert len(got) == len(want)
        for (a, delta, bounds), (ref_a, ref_delta, ref_bounds) in zip(got, want):
            assert a.tobytes() == ref_a.tobytes()
            assert delta == ref_delta or np.isnan(delta) and np.isnan(ref_delta)
            assert isinstance(bounds, np.ndarray)
            assert bounds.tobytes() == ref_bounds.tobytes()
        return zero_steps, len(want) - 1

    @staticmethod
    def _blob_pairs(seed, n=60, d=20, sep=4.0):
        r = np.random.default_rng(seed)
        x = np.vstack([r.standard_normal((n, d)) + sep * c
                       for c in np.eye(d)[:3]])
        labels = np.repeat(np.arange(3), n)
        idx = r.integers(0, len(x), size=(150, 2))
        y = np.where(labels[idx[:, 0]] == labels[idx[:, 1]], 1, -1)
        return x[idx], y

    @pytest.mark.parametrize("kw", [
        {}, {"prior": "covariance-inverse"}, {"gamma": 1e6},
        {"gamma": 0.1, "percentiles": (20, 80)}])
    def test_cycles_match_the_reference_loop(self, kw):
        pairs, y = self._blob_pairs(seed=11)
        self._cycles_and_reference(ITML(max_iter=15, **kw), pairs, y)

    def test_zero_difference_pair_matches_the_reference_loop(self):
        # the coincident pairs have wtw == 0 and are skipped before any update
        pairs, y = labeled_pairs(seed=4, n=8)
        pairs[0, 1] = pairs[0, 0]
        pairs[1, 1] = pairs[1, 0]
        est = ITML(max_iter=20)
        self._cycles_and_reference(est, pairs, y)
        assert est.adjusted_bounds_[0] == est.bounds_[0]

    def test_inactive_constraints_match_the_reference_loop(self):
        # separable pairs with both bounds between the two groups: most
        # constraints hold from the start, so most steps take the
        # zero-multiplier path that skips the rank-one update
        pairs, y = labeled_pairs(seed=9, n=30, d=4)
        est = ITML(max_iter=10, percentiles=(40, 60))
        zero_steps, n_cycles = self._cycles_and_reference(est, pairs, y)
        assert n_cycles >= 2
        assert zero_steps > 0.5 * len(pairs) * n_cycles

    @pytest.mark.parametrize("gamma,near,far", NON_FINITE_ITML_CASES)
    def test_non_finite_steps_match_the_reference_loop(self, gamma, near, far):
        # inf and nan spread through M, the bounds and the multiplier
        # changes exactly as in the reference loop
        pairs, y = labeled_pairs(seed=0, n=10)
        pairs[-1, 0], pairs[-1, 1] = near, far
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self._cycles_and_reference(ITML(gamma=gamma, max_iter=4), pairs, y)

    @pytest.mark.parametrize("gamma,near,far", NON_FINITE_ITML_CASES)
    def test_non_finite_fit_raises_numerical_error(self, gamma, near, far):
        # a blow-up of the updates is a numerical failure, not bad input
        pairs, y = labeled_pairs(seed=0, n=10)
        pairs[-1, 0], pairs[-1, 1] = near, far
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalError, match="ITML diverged"):
                ITML(gamma=gamma, max_iter=4).fit(pairs, y)

    def test_zero_division_warns_as_numpy_does(self):
        pairs, y = labeled_pairs(seed=0, n=10)
        pairs[-1, 0], pairs[-1, 1] = 0.5, 0.5 + 1e-9
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            list(ITML(gamma=1e20, max_iter=3)._cycles(pairs, y))
        assert any(w.category is RuntimeWarning
                   and "divide by zero" in str(w.message) for w in caught)

    def test_fit_matches_the_reference_loop(self):
        pairs, y = self._blob_pairs(seed=12)
        est = ITML(max_iter=8).fit(pairs, y)
        want, _ = reference_itml_cycles(est, pairs, y)
        ref = psd_sqrt(psd_project(want[-1][0]))
        assert est.components_.tobytes() == ref.tobytes()
        assert est.fit_report_.objective_trace == tuple(w[1] for w in want[1:])
        assert est.adjusted_bounds_.tobytes() == want[-1][2].tobytes()

    @pytest.mark.parametrize("percentiles", [(5, "abc"), (5,), (5, 95, 99),
                                             5, (True, 95), "ab"])
    def test_malformed_percentiles_rejected(self, percentiles):
        pairs, y = labeled_pairs()
        with pytest.raises(ValidationError, match="two numbers"):
            itml_bounds(pairs, percentiles)
        with pytest.raises(ValidationError, match="two numbers"):
            ITML(percentiles=percentiles).fit(pairs, y)

    def test_fit_projects_a_last_matrix_that_rounding_left_indefinite(
            self, monkeypatch):
        # found by a seeded scan: the last cycle's M has min eigenvalue
        # -9.9e-6 of its largest, which psd_sqrt alone rejects; the fit
        # returns the square root of its PSD projection
        y = np.repeat([0, 1, 2], 12)
        x = (np.random.default_rng(33).standard_normal((36, 11))
             + 3.0 * np.eye(11)[y])
        pairs, labels = pairs_from_labels(x * 5.6e4, y, 2, seed=33)
        last = []

        def recording(a):
            last.append(a.copy())
            return psd_project(a)
        monkeypatch.setattr(mlearn.weak, "psd_project", recording)
        est = fit_quiet(ITML(gamma=100.0, prior="covariance-inverse",
                             max_iter=152), pairs, labels)
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            psd_sqrt(last[0])
        m, p = est.get_mahalanobis_matrix(), psd_project(last[0])
        assert np.max(np.abs(m - p)) <= 1e-12 * np.max(np.abs(p))
        vals = np.linalg.eigvalsh(m)
        assert vals[0] >= -1e-12 * vals[-1]


class TestLSML:
    def test_zero_violation_fixed_point(self):
        quads = np.array([[[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [5.0, 0.0]]])
        est = fit_quiet(LSML(), quads)
        assert np.allclose(est.get_mahalanobis_matrix(), np.eye(2), atol=1e-8)
        assert est.fit_report_.converged

    def test_smooth_gradient_finite_differences(self):
        r = np.random.default_rng(8)
        a = r.standard_normal((3, 3))
        m = a @ a.T + 0.5 * np.eye(3)
        empty = np.empty((0, 3))
        m0inv = np.eye(3)
        g = lsml_objective(m, empty, empty, m0inv, 0.0, 1.0)[1]()
        fd = finite_diff_grad(
            lambda m_: lsml_objective(0.5 * (m_ + m_.T), empty, empty,
                                      m0inv, 0.0, 1.0)[0], m)
        assert max_rel_err(g, 0.5 * (fd + fd.T)) <= 1e-4

    def test_hinge_gradient_finite_differences(self):
        # mixed active set: some quadruplets violate the ordering by a clear
        # margin, the rest are clearly satisfied, so the set is locally fixed
        r = np.random.default_rng(11)
        close = r.standard_normal((8, 3)) * np.repeat([2.0, 0.2], 4)[:, None]
        far = r.standard_normal((8, 3))
        a = r.standard_normal((3, 3))
        m = a @ a.T + 0.5 * np.eye(3)
        m0inv = np.diag([1.0, 2.0, 0.5])
        dc = np.sqrt(np.sum((close @ m) * close, axis=1))
        df = np.sqrt(np.sum((far @ m) * far, axis=1))
        assert 0 < np.sum(dc > df) < len(dc)
        assert np.min(np.abs(dc - df)) > 1e-3
        g = lsml_objective(m, close, far, m0inv, 0.0, 0.3)[1]()
        fd = finite_diff_grad(
            lambda m_: lsml_objective(0.5 * (m_ + m_.T), close, far,
                                      m0inv, 0.0, 0.3)[0], m)
        assert max_rel_err(g, 0.5 * (fd + fd.T)) <= 1e-4
        # reference: the per-quadruplet loop over the active set
        g0 = lsml_objective(m, close[:0], far[:0], m0inv, 0.0, 0.3)[1]()
        for vc, vf, a_, b_ in zip(close, far, dc, df):
            if a_ > b_:
                g0 = g0 + (a_ - b_) * (np.outer(vc, vc) / a_ - np.outer(vf, vf) / b_)
        assert np.max(np.abs(g - g0)) <= 1e-12 * np.max(np.abs(g0))

    def test_single_violated_quadruplet_corrected(self):
        # start with a gross ordering violation (gap 3 - 1 = 2); the squared
        # hinge drives the violation to the constraint boundary, which a
        # zero-margin hinge approaches from the violating side, so we check
        # that the residual gap shrinks by > 99% rather than a strict flip
        quads = np.array([[[0.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, 1.0]]])
        est = fit_quiet(LSML(reg=0.01, max_iter=200), quads)
        d = est.model_.score_pairs(
            np.array([[quads[0, 0], quads[0, 1]], [quads[0, 2], quads[0, 3]]]))
        assert d[0] - d[1] <= 0.01  # was 2.0 under the identity prior
        m = est.get_mahalanobis_matrix()
        assert np.min(np.linalg.eigvalsh(m)) >= 1e-10 - 1e-15

    def test_trace_monotone_nonincreasing(self):
        r = np.random.default_rng(2)
        quads = r.standard_normal((15, 4, 3))
        est = fit_quiet(LSML(max_iter=60), quads)
        trace = est.fit_report_.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_empty_quadruplets_rejected(self):
        with pytest.raises(ValidationError):
            LSML().fit(np.empty((0, 4, 2)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 5),
           n=st.integers(0, 8), log_cond=st.floats(0.0, 6.0),
           log_scale=st.floats(-3.0, 3.0),
           reg=st.sampled_from([0.0, 0.1, 1.0, 3.0]))
    def test_objective_matches_the_eigen_reference(
            self, seed, d, n, log_cond, log_scale, reg):
        # positive-definite points of condition number <= 1e6
        r = np.random.default_rng(seed)
        q, _ = np.linalg.qr(r.standard_normal((d, d)))
        vals = 10.0 ** (log_scale + log_cond * np.linspace(0.0, 1.0, d))
        m = (q * vals) @ q.T
        m = 0.5 * (m + m.T)
        a = r.standard_normal((d, d))
        m0 = a @ a.T + np.eye(d)
        m0inv = np.linalg.inv(m0)
        m0inv = 0.5 * (m0inv + m0inv.T)
        logdet_m0 = float(np.linalg.slogdet(m0)[1])
        close, far = r.standard_normal((2, n, d))
        f, grad = lsml_objective(m, close, far, m0inv, logdet_m0, reg)
        f_ref, g_ref = reference_lsml_objective(m, close, far, m0inv,
                                                logdet_m0, reg)
        assert abs(f - f_ref) <= 1e-9 * abs(f_ref)
        assert np.max(np.abs(grad() - g_ref)) <= 1e-9 * np.max(np.abs(g_ref))

    def test_objective_makes_no_eigendecomposition(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran")
        monkeypatch.setattr(mlearn.linalg, "sym_eig", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        r = np.random.default_rng(9)
        a = r.standard_normal((3, 3))
        close, far = r.standard_normal((2, 6, 3))
        f, grad = lsml_objective(a @ a.T + 0.5 * np.eye(3), close, far,
                                 np.eye(3), 0.0, 0.3)
        assert np.isfinite(f)
        assert np.all(np.isfinite(grad()))

    @pytest.mark.parametrize("m", [np.diag([1.0, -1e-3, 2.0]),
                                   np.diag([1.0, 0.0, 2.0]),
                                   -np.eye(3)])
    def test_objective_is_infinite_where_det_is_not_positive(self, m):
        # the LogDet divergence is infinite off the positive-definite cone
        close, far = np.ones((2, 2, 3))
        f, _ = lsml_objective(m, close, far, np.eye(3), 0.0, 1.0)
        assert f == np.inf

    def test_psd_after_fit(self):
        r = np.random.default_rng(4)
        quads = r.standard_normal((10, 4, 3))
        est = fit_quiet(LSML(max_iter=40), quads)
        assert est.model_.min_mahalanobis_eigenvalue() >= -1e-9


class TestEstimatorDelegates:
    """The estimator's serving methods return its model's bits."""

    def test_pair_learner(self):
        pairs, y = labeled_pairs(seed=2)
        est = fit_quiet(MMC(max_iter=10), pairs, y)
        a, b = pairs[0]
        assert est.get_metric()(a, b) == est.model_.get_metric()(a, b)
        assert (est.decision_function(pairs).tobytes()
                == est.model_.decision_function_pairs(pairs).tobytes())

    def test_quadruplet_learner(self):
        quads = np.random.default_rng(6).standard_normal((20, 4, 3))
        est = fit_quiet(LSML(max_iter=10), quads)
        pred = est.predict(quads)
        assert pred.tobytes() == est.model_.predict_quadruplets(quads).tobytes()
        assert set(pred.tolist()) == {1, -1}


class TestSetThreshold:
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, "abc", None, True,
                                     np.True_, "0.5",
                                     pytest.param(10 ** 400, id="int-1e400")])
    def test_bad_value_rejected_and_state_kept(self, bad):
        pairs, y = labeled_pairs(seed=1)
        est = MMC(max_iter=10).fit(pairs, y)
        est.set_threshold(1.5)
        with pytest.raises(ValidationError, match="threshold"):
            est.set_threshold(bad)
        assert est.threshold_ == est.model_.threshold == 1.5

    def test_good_value_changes_predictions(self):
        pairs, y = labeled_pairs(seed=1)
        est = MMC(max_iter=10).fit(pairs, y)
        d = est.score_pairs(pairs)
        est.set_threshold(0.0)
        assert np.all(est.predict(pairs) == -1)
        est.set_threshold(float(np.max(d)))
        assert est.threshold_ == est.model_.threshold == float(np.max(d))
        assert np.all(est.predict(pairs) == 1)


class TestCalibrateThreshold:
    def _model_for(self, distances):
        # 1-D identity model turns |x - y| into the distance directly
        pairs = np.array([[[0.0], [d]] for d in distances])
        return from_components(np.eye(1)), pairs

    def test_separable_accuracy(self):
        model, pairs = self._model_for([1.0, 2.0, 3.0, 4.0])
        res = calibrate_threshold(model, pairs, [1, 1, -1, -1], "accuracy")
        assert res.threshold == 2.5
        assert res.achieved_score == 1.0

    def test_all_positive_labels(self):
        model, pairs = self._model_for([1.0, 2.0, 3.0])
        res = calibrate_threshold(model, pairs, [1, 1, 1], "accuracy")
        assert res.threshold == 4.0  # max + 1 sentinel
        assert res.achieved_score == 1.0

    def test_matches_dense_grid_oracle(self):
        r = np.random.default_rng(9)
        for metric in ("accuracy", "f1"):
            for trial in range(10):
                n = 40
                distances = r.random(n) * 3.0
                y = r.choice([-1, 1], n)
                if not np.any(y == 1):
                    y[0] = 1
                model, pairs = self._model_for(distances)
                res = calibrate_threshold(model, pairs, y, metric)
                grid = np.arange(distances.min() - 1.0,
                                 distances.max() + 1.0 + 1e-4, 1e-4)
                best = _dense_grid_best(metric, distances, y, grid)
                assert abs(res.achieved_score - best) <= 1e-12

    def test_tie_breaks_to_smallest_threshold(self):
        # thresholds 1.5 and below all give the same accuracy here
        model, pairs = self._model_for([1.0, 2.0])
        res = calibrate_threshold(model, pairs, [-1, -1], "accuracy")
        assert res.threshold == 0.0  # min - 1 sentinel, smallest candidate

    def test_achieved_score_consistent(self):
        r = np.random.default_rng(3)
        distances = r.random(30) * 2.0
        y = r.choice([-1, 1], 30)
        y[0] = 1
        model, pairs = self._model_for(distances)
        res = calibrate_threshold(model, pairs, y, "f1")
        assert res.achieved_score == _score_at("f1", distances, y, res.threshold)

    def test_scale_equivariance(self):
        r = np.random.default_rng(6)
        distances = r.random(20) * 1.5 + 0.25
        y = r.choice([-1, 1], 20)
        y[:2] = [1, -1]
        model, pairs = self._model_for(distances)
        res1 = calibrate_threshold(model, pairs, y, "accuracy")
        scaled = from_components(3.0 * np.eye(1))
        res2 = calibrate_threshold(scaled, pairs, y, "accuracy")
        assert res2.achieved_score == res1.achieved_score
        if 0.0 < res1.threshold:  # sentinel candidates are offset, not scaled
            interior = res1.threshold < distances.max()
            if interior:
                assert abs(res2.threshold - 3.0 * res1.threshold) <= 1e-12

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_threshold(from_components(np.eye(1)),
                                np.empty((0, 2, 1)), [], "accuracy")

    def test_validates_pairs_once_against_model_width(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return validate_tuples(*args, **kwargs)

        # calibration validates through the input gate in mlearn.tuples
        for module in (mlearn.tuples, mlearn.model):
            monkeypatch.setattr(module, "validate_tuples", counting)
        model, pairs = self._model_for([1.0, 2.0, 3.0])
        calibrate_threshold(model, pairs, [1, -1, -1], "accuracy")
        assert calls == [(2, 1)]
        with pytest.raises(DimensionError, match="width mismatch"):
            calibrate_threshold(from_components(np.eye(2)), pairs, [1, -1, -1])

    def test_f1_without_positives_rejected(self):
        model, pairs = self._model_for([1.0, 2.0])
        with pytest.raises(ValidationError, match="f1"):
            calibrate_threshold(model, pairs, [-1, -1], "f1")

    @pytest.mark.parametrize("metric", ["accuracy", "f1"])
    def test_equals_rescoring_loop_with_ties(self, metric):
        r = np.random.default_rng(21)
        for trial in range(60):
            n = int(r.integers(1, 80))
            distances = r.integers(0, 6, n) * 0.25  # few distinct values
            y = r.choice([-1, 1], n, p=[0.3, 0.7] if trial % 2 else [0.7, 0.3])
            y[0] = 1
            model, pairs = self._model_for(distances)
            res = calibrate_threshold(model, pairs, y, metric)
            assert (res.threshold, res.achieved_score) == \
                _rescoring_oracle(metric, model.score_pairs(pairs), y)

    def test_candidates_are_np_uniques_midpoints(self):
        # NaN and inf distances come from finite pairs whose difference
        # overflows; NaNs count as one distinct value, as in np.unique
        d = np.array([3.0, np.nan, 1.0, 3.0, np.inf, np.nan, 0.0, np.inf])
        u = np.unique(d)
        expected = np.concatenate(([u[0] - 1.0], 0.5 * (u[:-1] + u[1:]),
                                   [u[-1] + 1.0]))
        assert candidate_thresholds(d).tobytes() == expected.tobytes()

    def test_equals_rescoring_loop_on_a_learned_metric(self):
        r = np.random.default_rng(8)
        model = from_components(r.standard_normal((2, 3)))
        pairs = np.round(r.standard_normal((300, 2, 3)), 1)
        pairs[::4, 1] = pairs[::4, 0]  # zero distances tie
        y = r.choice([-1, 1], 300)
        distances = model.score_pairs(pairs)
        for metric in ("accuracy", "f1"):
            res = calibrate_threshold(model, pairs, y, metric)
            assert (res.threshold, res.achieved_score) == \
                _rescoring_oracle(metric, distances, y)

    def test_peak_memory_is_linear(self):
        r = np.random.default_rng(0)
        n = 50_000
        model, pairs = from_components(np.eye(1)), r.random((n, 2, 1))
        y = r.choice([-1, 1], n)
        tracemalloc.start()
        try:
            for metric in ("accuracy", "f1"):
                calibrate_threshold(model, pairs, y, metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _rescoring_oracle(metric, distances, y):
    """Rescore every candidate threshold; the first best one wins."""
    scorer = accuracy_score if metric == "accuracy" else f1_score
    best_thr, best_score = None, -1.0
    for thr in candidate_thresholds(distances):
        s = scorer(y, np.where(distances <= thr, 1, -1))
        if s > best_score:
            best_thr, best_score = float(thr), s
    return best_thr, best_score


def _dense_grid_best(metric, distances, y, grid):
    """Best score over a dense threshold grid, evaluated with broadcasting."""
    pos = (distances[:, None] <= grid[None, :])  # predicted +1
    is_pos = (y == 1)[:, None]
    if metric == "accuracy":
        scores = np.mean(pos == is_pos, axis=0)
    else:
        tp = np.sum(pos & is_pos, axis=0).astype(float)
        fp = np.sum(pos & ~is_pos, axis=0)
        fn = np.sum(~pos & is_pos, axis=0)
        denom = 2 * tp + fp + fn
        scores = np.where(denom == 0, 0.0, 2 * tp / np.maximum(denom, 1))
    return float(np.max(scores))


def _score_at(metric, distances, y, thr):
    pred = np.where(distances <= thr, 1, -1)
    if metric == "accuracy":
        return float(np.mean(pred == y))
    tp = np.sum((y == 1) & (pred == 1))
    fp = np.sum((y != 1) & (pred == 1))
    fn = np.sum((y == 1) & (pred != 1))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom
