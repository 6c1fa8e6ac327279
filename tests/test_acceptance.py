"""Acceptance gate: twelve property/oracle criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL <summary>` to the real terminal
(outside pytest's capture) so the gate's verdict is visible in any run mode,
then asserts the criterion at its stated tolerance.
"""

import json
import time
import warnings

import numpy as np
import pytest

from mlearn import (
    ITML,
    LFDA,
    LMNN,
    LSML,
    MLKR,
    MMC,
    NCA,
    RCA,
    calibrate_threshold,
    from_components,
    knn_predict,
    pairs_from_labels,
    quadruplets_from_labels,
    roc_auc_score,
)
from mlearn.cli import main as cli_main
from mlearn.model import MahalanobisModel
from mlearn.supervised import (
    _class_sorted,
    lmnn_objective,
    lmnn_targets,
    mlkr_objective,
    nca_objective,
)
from mlearn.weak import lsml_objective, mmc_diag_objective

from conftest import finite_diff_grad, max_rel_err, two_class_noise_data


@pytest.fixture
def verdict(capsys):
    """Print the criterion verdict on the real terminal, then assert it."""

    def check(number, summary, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'} {summary}")
        assert ok, f"criterion {number}: {summary}"

    return check


def fit_quiet(est, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return est.fit(*args)


def test_criterion_01_distance_definition_equivalence(verdict):
    r = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        d = int(r.integers(1, 9))
        m = int(r.integers(1, d + 1))
        l = r.standard_normal((m, d))
        x, xp = r.standard_normal(d), r.standard_normal(d)
        model = from_components(l)
        d1 = model.score_pairs([[x, xp]])[0]
        mm = model.get_mahalanobis_matrix()
        d2 = np.sqrt(max((x - xp) @ mm @ (x - xp), 0.0))
        worst = max(worst, abs(d1 - d2) / (1.0 + d1))
    verdict(1, f"distance formulations agree (worst rel err {worst:.2e})",
            worst <= 1e-9)


def test_criterion_02_gradient_audits(verdict):
    r = np.random.default_rng(202)
    x = r.standard_normal((10, 4))
    y_cls = r.integers(0, 2, 10)
    y_reg = r.standard_normal(10)
    l = np.eye(4) + 0.1 * r.standard_normal((4, 4))
    checks = []

    def audit(name, fun_grad, point, tol):
        t0 = time.perf_counter()
        g = fun_grad(point)[1]()
        fd = finite_diff_grad(lambda p: fun_grad(p)[0], point)
        err = max_rel_err(g, fd)
        dt = time.perf_counter() - t0
        checks.append((name, err, tol, dt))
        return err <= tol and dt < 1.0

    ok = True
    # NCA and LMNN fit on rows sorted by class
    xs, ys, blocks = _class_sorted(x, y_cls)
    ok &= audit("nca", lambda p: nca_objective(p, xs, blocks), l, 1e-5)
    targets = lmnn_targets(xs, ys, 1)
    ok &= audit("lmnn",
                lambda p: lmnn_objective(p, xs, targets, 0.5, 1.0, blocks),
                l, 1e-5)
    ok &= audit("mlkr", lambda p: mlkr_objective(p, x, y_reg), l, 1e-5)
    w = r.random(4) + 0.5
    pos2, neg2 = r.random((5, 4)), r.random((5, 4)) + 0.5
    ok &= audit("mmc-diag", lambda p: mmc_diag_objective(p, pos2, neg2), w, 1e-5)
    a = r.standard_normal((4, 4))
    spd = a @ a.T + 0.5 * np.eye(4)
    empty = np.empty((0, 4))
    ok &= audit(
        "lsml",
        lambda p: lsml_objective(0.5 * (p + p.T), empty, empty, np.eye(4),
                                 0.0, 1.0),
        spd, 1e-4)
    detail = ", ".join(f"{n} {e:.1e}" for n, e, _, _ in checks)
    verdict(2, f"gradient audits ({detail})", bool(ok))


def _forty_fitted_models():
    r = np.random.default_rng(303)
    models = []
    for seed in range(5):
        x = np.vstack([r.standard_normal((8, 3)) + [3, 0, 0],
                       r.standard_normal((8, 3)) - [3, 0, 0]])
        y = np.array([0] * 8 + [1] * 8)
        pairs, py = pairs_from_labels(x, y, 1, seed=seed)
        quads = quadruplets_from_labels(x, y, 1, seed=seed)
        chunks = np.repeat(np.arange(4), 4)
        models.append(fit_quiet(NCA(max_iter=15, seed=seed), x, y).model_)
        models.append(fit_quiet(LMNN(k=2, max_iter=15), x, y).model_)
        models.append(fit_quiet(MLKR(max_iter=15), x, x[:, 0] + 0.1 * x[:, 1]).model_)
        models.append(fit_quiet(LFDA(knn=3), x, y).model_)
        models.append(fit_quiet(RCA(), x, chunks).model_)
        models.append(fit_quiet(MMC(max_iter=20, diagonal=(seed % 2 == 0)),
                                pairs, py).model_)
        models.append(fit_quiet(ITML(max_iter=30), pairs, py).model_)
        models.append(fit_quiet(LSML(max_iter=20), quads).model_)
    return models


def test_criterion_03_psd_invariant(verdict):
    models = _forty_fitted_models()
    worst = min(m.min_mahalanobis_eigenvalue() for m in models)
    verdict(3, f"PSD invariant over {len(models)} fitted models "
               f"(min eigenvalue {worst:.2e})", worst >= -1e-9)


def test_criterion_04_monotone_solvers(verdict):
    ok = True
    for seed in range(10):
        r = np.random.default_rng(404 + seed)
        x = np.vstack([r.standard_normal((8, 3)) + [2.5, 0, 0],
                       r.standard_normal((8, 3)) - [2.5, 0, 0]])
        y = np.array([0] * 8 + [1] * 8)
        pairs, py = pairs_from_labels(x, y, 1, seed=seed)
        quads = quadruplets_from_labels(x, y, 1, seed=seed)

        def ascending(trace):
            return all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

        def descending(trace):
            return all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

        ok &= ascending(fit_quiet(NCA(max_iter=20), x, y)
                        .fit_report_.objective_trace)
        ok &= descending(fit_quiet(LMNN(k=2, max_iter=20), x, y)
                         .fit_report_.objective_trace)
        ok &= descending(fit_quiet(MLKR(max_iter=20), x, x[:, 0])
                         .fit_report_.objective_trace)
        ok &= descending(fit_quiet(LSML(max_iter=20), quads)
                         .fit_report_.objective_trace)
        ok &= descending(fit_quiet(MMC(diagonal=True, max_iter=20), pairs, py)
                         .fit_report_.objective_trace)
    verdict(4, "objective traces monotone for all five solvers on 10 seeds",
            bool(ok))


def test_criterion_05_calibration_exactness(verdict):
    r = np.random.default_rng(505)
    ok = True
    for trial in range(50):
        n = 30
        distances = np.round(r.random(n) * 2.0, 3)
        y = r.choice([-1, 1], n)
        y[0] = 1
        pairs = np.stack([np.zeros((n, 1)), distances[:, None]], axis=1)
        model = from_components(np.eye(1))
        grid = np.arange(distances.min() - 1.0,
                         distances.max() + 1.0 + 1e-4, 1e-4)
        pos = (distances[:, None] <= grid[None, :])
        is_pos = (y == 1)[:, None]
        for metric in ("accuracy", "f1"):
            res = calibrate_threshold(model, pairs, y, metric)
            if metric == "accuracy":
                scores = np.mean(pos == is_pos, axis=0)
            else:
                tp = np.sum(pos & is_pos, axis=0).astype(float)
                fp = np.sum(pos & ~is_pos, axis=0)
                fn = np.sum(~pos & is_pos, axis=0)
                denom = 2 * tp + fp + fn
                scores = np.where(denom == 0, 0.0, 2 * tp / np.maximum(denom, 1))
            best_idx = int(np.argmax(scores))
            ok &= abs(res.achieved_score - float(scores[best_idx])) <= 1e-12
            # threshold within one grid step of a grid-optimal threshold
            optimal = grid[scores == scores[best_idx]]
            ok &= np.min(np.abs(optimal - res.threshold)) <= 1e-4 + 1e-12
    verdict(5, "calibration equals the dense-grid oracle on 100 set/metric "
               "combinations", bool(ok))


def test_criterion_06_scorer_oracles(verdict):
    ok = roc_auc_score([-1, -1, 1, 1], [0.1, 0.4, 0.35, 0.8]) == 0.75
    r = np.random.default_rng(606)
    for _ in range(100):
        n = 25
        y = r.choice([-1, 1], n)
        y[:2] = [1, -1]
        dec = np.round(r.random(n), 1)  # coarse grid forces ties
        auc = roc_auc_score(y, dec)
        pos, neg = dec[y == 1], dec[y != 1]
        conc = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        ok &= auc == conc / (len(pos) * len(neg))
    verdict(6, "roc_auc matches concordance oracle on 100 sets, worked "
               "example = 0.75", bool(ok))


def test_criterion_07_metric_recovery(verdict):
    from mlearn import kfold_split

    accs = {"nca": [], "lmnn": [], "identity": []}
    for seed in range(10):
        x, y = two_class_noise_data(seed=seed, n=60)
        train, test = kfold_split(len(x), 3, seed, stratify_labels=y)[0]
        for name, est in (("nca", NCA(max_iter=100)),
                          ("lmnn", LMNN(k=3, max_iter=100))):
            model = fit_quiet(est, x[train], y[train]).model_
            pred = knn_predict(x[train], y[train], x[test], 1, model)
            accs[name].append(float(np.mean(pred == y[test])))
        pred = knn_predict(x[train], y[train], x[test], 1,
                           from_components(np.eye(2)))
        accs["identity"].append(float(np.mean(pred == y[test])))
    means = {k: np.mean(v) for k, v in accs.items()}
    ok = means["nca"] >= 0.9 and means["lmnn"] >= 0.9 and means["identity"] <= 0.75
    verdict(7, f"metric recovery (nca {means['nca']:.3f}, lmnn "
               f"{means['lmnn']:.3f}, identity {means['identity']:.3f})", ok)


def test_criterion_08_itml_constraints(verdict):
    r = np.random.default_rng(808)
    base = r.standard_normal((40, 4))
    pairs, y = [], []
    for i in range(10):
        pairs.append([base[i], base[i] + 0.2 * r.standard_normal(4)])
        y.append(1)
        pairs.append([base[20 + i],
                      base[20 + i] + 3.0 * (r.standard_normal(4) + 2.0)])
        y.append(-1)
    pairs, y = np.array(pairs), np.array(y)
    est = fit_quiet(ITML(max_iter=300), pairs, y)
    m = est.get_mahalanobis_matrix()
    diffs = pairs[:, 0] - pairs[:, 1]
    order = np.concatenate([np.flatnonzero(y == 1), np.flatnonzero(y == -1)])
    bhat, n_pos = est.adjusted_bounds_, est.n_pos_constraints_
    ok_count = 0
    for slot, idx in enumerate(order):
        d2 = float(diffs[idx] @ m @ diffs[idx])
        slack = 1e-6 * (1.0 + abs(bhat[slot]))
        if slot < n_pos:
            ok_count += d2 <= bhat[slot] + slack
        else:
            ok_count += d2 >= bhat[slot] - slack
    frac = ok_count / len(order)
    verdict(8, f"ITML satisfies {frac:.0%} of 20 pair constraints "
               "(slack-adjusted)", frac >= 0.9)


def test_criterion_09_rca_whitening(verdict):
    worst = 0.0
    for seed in range(5):
        r = np.random.default_rng(909 + seed)
        scalemat = np.diag(r.random(3) * 4.0 + 0.3)
        x = r.standard_normal((30, 3)) @ scalemat
        chunks = np.repeat(np.arange(6), 5)
        est = fit_quiet(RCA(reg=1e-8), x, chunks)
        z = est.transform(x)
        cov = np.zeros((3, 3))
        cnt = 0
        for c in range(6):
            zm = z[chunks == c]
            centered = zm - zm.mean(axis=0)
            cov += centered.T @ centered
            cnt += len(zm)
        cov /= cnt
        worst = max(worst, float(np.max(np.abs(cov - np.eye(3)))))
    verdict(9, f"RCA whitening on 5 datasets (worst deviation {worst:.2e})",
            worst <= 1e-6)


def test_criterion_10_lfda_residual(verdict):
    r = np.random.default_rng(1010)
    x = np.vstack([r.standard_normal((12, 3)) + [3, 0, 0],
                   r.standard_normal((12, 3)) - [3, 0, 0]])
    y = np.array([0] * 12 + [1] * 12)
    est = fit_quiet(LFDA(n_components=1), x, y)
    # rebuild the pencil exactly as the learner documents it, then
    # dense-solve it with numpy as the independent oracle
    from test_supervised import _lfda_scatters_oracle

    sb, sw = _lfda_scatters_oracle(x, y, knn=7)
    eps = 1e-9 * np.trace(sw) / 3
    sw_reg = sw + eps * np.eye(3)
    vals, vecs = np.linalg.eig(np.linalg.inv(sw_reg) @ sb)
    top = vecs[:, np.argmax(vals.real)].real
    top /= np.linalg.norm(top)
    v = est.components_[0] / np.linalg.norm(est.components_[0])
    cosine = abs(float(v @ top))
    lam = float(np.max(vals.real))
    residual = float(np.linalg.norm(sb @ v - lam * (sw_reg @ v)))
    scale = (1.0 + abs(lam)) * max(float(np.max(np.abs(sb))), 1.0)
    ok = residual <= 1e-8 * scale and cosine >= 0.99
    verdict(10, f"LFDA residual {residual:.2e}, |cosine| {cosine:.4f} vs "
                "dense oracle", ok)


def test_criterion_11_serialization_round_trip(verdict, tmp_path):
    r = np.random.default_rng(1111)
    x = np.vstack([r.standard_normal((8, 3)) + [3, 0, 0],
                   r.standard_normal((8, 3)) - [3, 0, 0]])
    y = np.array([0] * 8 + [1] * 8)
    pairs, py = pairs_from_labels(x, y, 1, seed=0)
    quads = quadruplets_from_labels(x, y, 1, seed=0)
    chunks = np.repeat(np.arange(4), 4)
    fitted = {
        "nca": fit_quiet(NCA(max_iter=15), x, y),
        "lmnn": fit_quiet(LMNN(k=2, max_iter=15), x, y),
        "mlkr": fit_quiet(MLKR(max_iter=15), x, x[:, 0]),
        "lfda": fit_quiet(LFDA(knn=3), x, y),
        "rca": fit_quiet(RCA(), x, chunks),
        "mmc": fit_quiet(MMC(max_iter=20), pairs, py),
        "itml": fit_quiet(ITML(max_iter=30), pairs, py),
        "lsml": fit_quiet(LSML(max_iter=20), quads),
    }
    fitted["mmc"].calibrate_threshold(pairs, py, "accuracy")
    fitted["itml"].calibrate_threshold(pairs, py, "f1")
    probe_pairs = np.random.default_rng(1).standard_normal((100, 2, 3))
    probe_trip = np.random.default_rng(2).standard_normal((100, 3, 3))
    probe_quad = np.random.default_rng(3).standard_normal((100, 4, 3))
    ok = True
    for name, est in fitted.items():
        path = tmp_path / f"{name}.json"
        est.model_.save(path)
        loaded = MahalanobisModel.load(path)
        ok &= np.array_equal(est.model_.score_pairs(probe_pairs),
                             loaded.score_pairs(probe_pairs))
        ok &= np.array_equal(est.model_.predict_triplets(probe_trip),
                             loaded.predict_triplets(probe_trip))
        ok &= np.array_equal(est.model_.predict_quadruplets(probe_quad),
                             loaded.predict_quadruplets(probe_quad))
        if est.model_.threshold is not None:
            ok &= np.array_equal(est.model_.predict_pairs(probe_pairs),
                                 loaded.predict_pairs(probe_pairs))
    verdict(11, "save/load prediction bit-identical for all 8 algorithms",
            bool(ok))


def test_criterion_12_cli_reproducibility(verdict, tmp_path, capsys):
    r = np.random.default_rng(1212)
    n_per = 12
    x = np.vstack([r.standard_normal((n_per, 2)) + [4, 0],
                   r.standard_normal((n_per, 2)) - [4, 0]])
    y = [0] * n_per + [1] * n_per
    data = tmp_path / "X.csv"
    data.write_text("\n".join(
        ["f1,f2,y"] + [f"{float(a)},{float(b)},{lab}"
                       for (a, b), lab in zip(x, y)]) + "\n")
    pairs = tmp_path / "P.csv"
    plines = ["i,j,label"]
    for i in range(n_per - 1):
        plines += [f"{i},{i + 1},1", f"{n_per + i},{n_per + i + 1},1",
                   f"{i},{n_per + i},-1", f"{i + 1},{n_per + i + 1},-1"]
    pairs.write_text("\n".join(plines) + "\n")
    grid = tmp_path / "grid.json"
    grid.write_text('{"lmnn_k": [1, 2], "knn_k": [1, 2]}')

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    cv_argv = ["cv", "--algo", "lmnn", "--data", str(data), "--label-col",
               "y", "--folds", "3", "--grid", str(grid), "--metric",
               "accuracy", "--seed", "7", "--max-iter", "15"]
    code1, cv1 = run(cv_argv)
    code2, cv2 = run(cv_argv)

    def mmc_workflow(tag):
        model = tmp_path / f"mmc_{tag}.json"
        c1 = cli_main(["fit", "--algo", "mmc", "--data", str(data),
                       "--label-col", "y", "--pairs", str(pairs),
                       "--opt", "diagonal=true", "--calibrate", "f1",
                       "--seed", "3", "--out", str(model)])
        capsys.readouterr()
        c2 = cli_main(["predict", "--model", str(model), "--data", str(data),
                       "--label-col", "y", "--pairs", str(pairs)])
        out = capsys.readouterr().out
        return c1, c2, model.read_text(), out

    f1a, p1a, m1, pred1 = mmc_workflow("a")
    f1b, p1b, m2, pred2 = mmc_workflow("b")
    ok = (code1 == code2 == 0 and cv1 == cv2 and cv1.strip() != ""
          and f1a == p1a == f1b == p1b == 0
          and m1 == m2 and pred1 == pred2
          and json.loads(m1)["threshold"] is not None)
    verdict(12, "CLI grid-cv and fit/calibrate/predict workflows "
                "byte-identical across runs", ok)
