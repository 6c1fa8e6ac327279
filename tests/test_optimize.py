"""The line-search solver asks for gradients only at accepted points, and the
value-first objective of every learner gives the same fit as the eager
(objective, gradient) solver it replaced (the digests pinned below)."""

import hashlib
import warnings

import numpy as np
import pytest

from mlearn import ITML, LMNN, LSML, MLKR, MMC, NCA, pairs_from_labels
from mlearn import supervised, weak
from mlearn.exceptions import ConvergenceWarning, NumericalError
from mlearn.optimize import backtracking_solve


def _quadratic(center, log):
    """f(x) = |x - center|^2 whose gradient callable records each call."""
    def fun(x):
        def grad():
            log.append(x.copy())
            return 2.0 * (x - center)
        return float(np.sum((x - center) ** 2)), grad
    return fun


class TestBacktrackingSolve:
    @pytest.mark.parametrize("max_iter", [0, 1, 3, 200])
    def test_gradient_runs_once_per_trace_entry(self, max_iter):
        log = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x, report = backtracking_solve(
                _quadratic(np.array([3.0, -1.0]), log), np.array([10.0, 4.0]),
                max_iter=max_iter, tol=1e-9)
        assert len(log) == len(report.objective_trace)
        assert np.array_equal(log[-1], x)

    def test_first_trial_step_is_two(self):
        trials = []

        def fun(x):
            trials.append(float(x[0]))
            return float(x[0] ** 2), lambda: 2.0 * x

        with pytest.warns(ConvergenceWarning):
            backtracking_solve(fun, np.array([10.0]), max_iter=1, tol=0.0)
        assert trials[:2] == [10.0, 8.0]

    @pytest.mark.parametrize("start", [np.inf, np.nan])
    def test_non_finite_start_raises(self, start):
        with pytest.raises(NumericalError, match="starting point"):
            backtracking_solve(lambda x: (start, lambda: x), np.zeros(2),
                               max_iter=5, tol=1e-6)

    @pytest.mark.parametrize("make", ["nca", "lmnn", "mlkr", "mmc", "mmc_diag",
                                      "lsml"])
    def test_learner_gradients_only_at_accepted_points(self, make, monkeypatch):
        module, name, est, args = _FITS[make]()
        value = getattr(module, name)
        grads = 0

        def counted(*a, **k):
            f, grad = value(*a, **k)

            def counted_grad():
                nonlocal grads
                grads += 1
                return grad()
            return f, counted_grad

        monkeypatch.setattr(module, name, counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = est.fit(*args).fit_report_
        assert grads == len(report.objective_trace)


def _blobs(seed=20240601, per=15, d=4):
    r = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 1.0, 0.0],
                        [0.0, 3.0, 0.0, 1.0]])[:, :d]
    x = np.vstack([c + r.standard_normal((per, d)) for c in centers])
    return x, np.repeat([0, 1, 2], per)


def _regression():
    x = _blobs()[0]
    return x, x @ [1.0, -0.5, 0.2, 0.0]


def _pairs():
    x, y = _blobs()
    return pairs_from_labels(x, y, 3, seed=4)


def _quads():
    r = np.random.default_rng(7)
    return r.standard_normal((30, 4, 3)) * np.array([2.0, 1.0, 0.5])


_FITS = {
    "nca": lambda: (supervised, "nca_objective", NCA(max_iter=20), _blobs()),
    "lmnn": lambda: (supervised, "lmnn_objective", LMNN(k=3, max_iter=20),
                     _blobs()),
    "mlkr": lambda: (supervised, "mlkr_objective", MLKR(max_iter=20),
                     _regression()),
    "mmc": lambda: (weak, "mmc_objective", MMC(max_iter=20), _pairs()),
    "mmc_diag": lambda: (weak, "mmc_diag_objective",
                         MMC(diagonal=True, max_iter=20), _pairs()),
    "lsml": lambda: (weak, "lsml_objective", LSML(max_iter=20), (_quads(),)),
}


class TestValueThenGradient:
    """Each objective's gradient closure gives, bit for bit, what a fresh
    evaluate-then-grad() at its point gives, even when another point was
    evaluated and differentiated in between (a closure must not share state
    with a later evaluation)."""

    def _check(self, objective, point_a, point_b):
        f_a, grad_a = objective(point_a)
        f_b, grad_b = objective(point_b)
        g_b = grad_b()
        g_a = grad_a()
        for f, g, p in ((f_a, g_a, point_a), (f_b, g_b, point_b)):
            f_ref, grad_ref = objective(p)
            assert f == f_ref
            assert np.array_equal(g, grad_ref())

    def test_supervised(self):
        x, y = _blobs(per=8)
        r = np.random.default_rng(3)
        la, lb = np.eye(4) + 0.3 * r.standard_normal((2, 4, 4))
        targets = supervised.lmnn_targets(x, y, 3)
        y_reg = x @ [1.0, -0.5, 0.2, 0.0]
        cases = [
            (supervised.nca_objective, (x, y)),
            (supervised.lmnn_objective, (x, y, targets, 0.3, 1.0)),
            (supervised.mlkr_objective, (x, y_reg)),
        ]
        for objective, args in cases:
            self._check(lambda p: objective(p, *args), la, lb)

    def test_weak(self):
        r = np.random.default_rng(5)
        pos, neg = r.standard_normal((2, 12, 3))
        a = r.standard_normal((3, 3))
        ma, mb = a @ a.T + 0.5 * np.eye(3), np.diag([1.0, 2.0, 0.5])
        self._check(lambda m: weak.mmc_objective(m, neg), ma, mb)
        wa, wb = r.random(3) + 0.5, np.array([0.0, 1.0, 2.0])
        self._check(lambda w: weak.mmc_diag_objective(w, pos ** 2, neg ** 2),
                    wa, wb)
        args = (pos, neg, np.diag([1.0, 2.0, 0.5]), 0.1, 0.3)
        self._check(lambda m: weak.lsml_objective(m, *args), ma, mb)

    def test_infeasible_mmc_diag_point(self):
        pos2, neg2 = np.ones((2, 3)), np.ones((2, 3))
        f, grad = weak.mmc_diag_objective(np.zeros(3), pos2, neg2)
        assert f == np.inf
        assert np.array_equal(grad(), np.zeros(3))


def _digest(l):
    h = hashlib.sha256(f"{l.dtype.str}{l.shape}".encode())
    h.update(np.ascontiguousarray(l).tobytes())
    return h.hexdigest()


# SHA-256 of the fitted components, recorded with the eager (objective,
# gradient) solver (nca, lmnn and mlkr again once distances and gradients
# were computed from centred rows and subnormal kernel weights flushed); a
# BLAS build that rounds the products differently needs new digests, the
# value-then-gradient tests above are the portable check
_FROZEN = {
    "nca":
        "b3d44ec9adf080e71bf7d1270b4b615016489c416a28e137f5f70950dd02f9fe",
    "lmnn":
        "73115023f56b64f8766ac7e5a55583edb0652cc77b553f736096164f0db90236",
    "mlkr":
        "98b568e75709a9ae3d6409d0f061bf9b83869407835f4dde1fa78403895322f3",
    "mmc":
        "15cc838987d8907e859034b2e1d4e09c0ccd5029066ab08af37be866e83b4fb5",
    "mmc_diag":
        "fa507ec9dff39631fad26ce507b1bdd803649a10c1f000f6d141b13bf75cd945",
    "itml":
        "ac634c6c8c8f952d4d2953028f3e7f6dad6ee73ae2d1b22fe08f12fbf2af4cd2",
    "lsml":
        "e41e165f753aee21d934de2ac54daf649e441f1f07769c5b3938cae773b40ca4",
}


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_fit_components_are_frozen(name):
    if name == "itml":
        est, args = ITML(max_iter=10), _pairs()
    else:
        _, _, est, args = _FITS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        l = est.fit(*args).components_
    assert _digest(l) == _FROZEN[name]
