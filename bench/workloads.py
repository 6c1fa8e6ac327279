"""The four benchmark workloads and the checks run on every pass.

Each workload builds its inputs from the workload seed in ``setup`` (numpy's
generator; the program only ever receives arrays, CSV files and JSON files)
and then runs one closed-loop pass per ``run`` call: one caller, each call
waiting for the previous one. Every call goes through ``mlearn``'s module
attributes at call time, so a traced pass sees the wrappers the tracer put
there.

Inputs are Gaussian class blobs: the first ``n_classes`` of ``INFORMATIVE``
dimensions carry a class offset of ``SEPARATION`` and the remaining dimensions
are noise scaled by ``NOISE_SCALE``. The class geometry is fixed; the seed
only draws the points, so the work a pass does changes little between seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import mlearn as ml
import mlearn.cli  # noqa: F401  (the CLI module is not imported by the package)

SEPARATION = 2.5
INFORMATIVE = 4
NOISE_SCALE = 4.0
N_CLASSES = 3
# relative agreement required between two computations of one distance
DIST_RTOL = 1e-9


def make_blobs(rng, n: int, d: int):
    y = rng.permutation(np.arange(n) % N_CLASSES)
    x = rng.standard_normal((n, d))
    x[:, :N_CLASSES] += SEPARATION * np.eye(N_CLASSES)[y]
    x[:, INFORMATIVE:] *= NOISE_SCALE
    return x, y


def labeled_pair_index(rng, y, n_pairs: int):
    """Index pairs, half same-class and half different-class, with +/-1 labels."""
    i = rng.integers(0, len(y), size=4 * n_pairs)
    j = rng.integers(0, len(y), size=4 * n_pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    same = y[i] == y[j]
    half = n_pairs // 2
    pos = np.flatnonzero(same)[:half]
    neg = np.flatnonzero(~same)[:n_pairs - half]
    order = rng.permutation(np.concatenate([pos, neg]))
    idx = np.column_stack([i[order], j[order]])
    return idx, np.where(same[order], 1, -1)


def ordered_tuple_index(rng, y, n: int, arity: int):
    """Tuples whose first pair shares a class and whose last pair does not."""
    by_class = np.argsort(y, kind="stable")
    count = np.bincount(y, minlength=N_CLASSES)
    start = np.concatenate([[0], np.cumsum(count)[:-1]])
    c = rng.integers(0, N_CLASSES, size=n)
    other = (c + rng.integers(1, N_CLASSES, size=n)) % N_CLASSES

    def member(cls, pos):
        return by_class[start[cls] + pos]

    ia = rng.integers(0, count[c])
    ib = rng.integers(0, count[c] - 1)
    cols = [member(c, ia), member(c, ib + (ib >= ia))]
    if arity == 4:
        cols.append(member(c, rng.integers(0, count[c])))
    cols.append(member(other, rng.integers(0, count[other])))
    return np.column_stack(cols)


class PassAborted(Exception):
    """An operation raised; the rest of the pass cannot run."""


class PassRecord:
    """What one pass did: operations, failures, stage times, quality, digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.stage_s = defaultdict(float)
        self.work = defaultdict(int)
        self.quality = defaultdict(list)
        self.digests = {}
        self.wall_s = 0.0    # time spent inside operations; the checks are not timed
        self._op_failed = False

    def call(self, name: str, fn, *args, stage: str | None = None, **kwargs):
        """Run one timed operation; an exception aborts the pass."""
        self.attempted += 1
        self._op_failed = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # the benchmark reports the failure instead of dying with it
            self._op_failed = True
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise PassAborted(name) from exc
        finally:
            elapsed = time.perf_counter() - start
            self.wall_s += elapsed
            if stage is not None:
                self.stage_s[stage] += elapsed

    def check(self, ok, what: str) -> None:
        """A failed check marks the latest operation as failed."""
        if ok:
            return
        self.errors.append(f"check failed: {what}")
        if not self._op_failed:
            self._op_failed = True
            self.failed += 1

    def verify(self, ok, what: str) -> None:
        """A standalone check that counts as one operation of its own."""
        self.attempted += 1
        self._op_failed = False
        self.check(ok, what)

    def digest(self, name: str, *parts) -> None:
        h = hashlib.sha256()
        for part in parts:
            if isinstance(part, np.ndarray):
                part = np.ascontiguousarray(part).tobytes()
            elif isinstance(part, str):
                part = part.encode()
            elif not isinstance(part, bytes):
                part = repr(part).encode()
            h.update(part)
        self.digests[name] = h.hexdigest()


# -- independent checks -----------------------------------------------------
# Checks use numpy only; every call into mlearn goes through PassRecord.call,
# so it is timed and, in a traced pass, attributed to its layer.

def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=float))))


def check_components(rec: PassRecord, components, what: str) -> None:
    rec.check(_finite(components), f"{what}: components finite")
    w = np.linalg.eigvalsh(components.T @ components)
    rec.check(w[0] >= -1e-9 * max(1.0, float(np.max(np.abs(w)))), f"{what}: M is PSD")


def batched_distances(components, a, b) -> np.ndarray:
    z = (a - b) @ components.T
    return np.sqrt(np.sum(z * z, axis=1))


def check_distances(rec, model, pairs, dist, what: str, rng) -> None:
    rec.check(dist.shape == (len(pairs),) and _finite(dist), f"{what}: distances finite")
    ref = batched_distances(model.components, pairs[:, 0], pairs[:, 1])
    rec.check(np.all(np.abs(dist - ref) <= DIST_RTOL * np.maximum(ref, 1.0)),
              f"{what}: distances match the batched formula")
    metric = rec.call(f"get_metric {what}", model.get_metric)
    sample = rng.choice(len(pairs), size=min(50, len(pairs)), replace=False)
    worst = max(abs(dist[i] - metric(*pairs[i])) / max(abs(dist[i]), 1e-300) for i in sample)
    rec.check(worst <= DIST_RTOL, f"{what}: score_pairs agrees with get_metric")


def check_signs(rec, pred, n: int, what: str) -> None:
    pred = np.asarray(pred)
    rec.check(pred.shape == (n,) and np.all(np.isin(pred, (-1, 1))),
              f"{what}: predictions in {{+1, -1}}")


def check_order_predictions(rec, components, tuples, pred, what: str) -> None:
    """+1 exactly where the first pair is closer, except at near-ties."""
    near = batched_distances(components, tuples[:, 0], tuples[:, 1])
    far_a = tuples[:, 0] if tuples.shape[1] == 3 else tuples[:, 2]
    far = batched_distances(components, far_a, tuples[:, -1])
    clear = np.abs(near - far) > DIST_RTOL * np.maximum(np.maximum(near, far), 1.0)
    expect = np.where(near < far, 1, -1)
    rec.check(np.all(pred[clear] == expect[clear]), f"{what}: predictions match distances")


def reference_auc(y, scores) -> float:
    """Rank-sum ROC-AUC with half credit for ties."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    mid_rank = np.cumsum(counts) - 0.5 * (counts - 1)
    pos = y == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return (mid_rank[inverse][pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_calibration(dist, y, metric: str):
    """Best midpoint threshold by one sort and a cumulative-count sweep."""
    d = np.sort(dist)
    u = np.unique(d)
    cand = np.concatenate(([u[0] - 1.0], 0.5 * (u[:-1] + u[1:]), [u[-1] + 1.0]))
    pos_sorted = np.sort(dist[y == 1])
    tp = np.searchsorted(pos_sorted, cand, side="right")
    pred_pos = np.searchsorted(d, cand, side="right")
    fp = pred_pos - tp
    n_pos = len(pos_sorted)
    fn = n_pos - tp
    if metric == "accuracy":
        tn = (len(y) - n_pos) - fp
        scores = (tp + tn) / len(y)
    else:
        denom = 2.0 * tp + fp + fn
        scores = np.where(denom == 0, 0.0, 2.0 * tp / np.where(denom == 0, 1.0, denom))
    best = int(np.argmax(scores))
    return float(cand[best]), float(scores[best])


def reference_knn(components, train_x, train_y, test_x, k: int):
    """Predictions, plus a mask of queries whose k-th neighbour is not near-tied."""
    zt = train_x @ components.T
    zq = test_x @ components.T
    d = np.sqrt(np.maximum(np.sum(zq * zq, 1)[:, None] + np.sum(zt * zt, 1)[None, :]
                           - 2.0 * zq @ zt.T, 0.0))
    order = np.argsort(d, axis=1, kind="stable")
    labels = np.unique(train_y)
    votes = (train_y[order[:, :k]][:, :, None] == labels[None, None, :]).sum(axis=1)
    pred = labels[np.argmax(votes, axis=1)]
    rows = np.arange(len(d))
    gap = d[rows, order[:, k]] - d[rows, order[:, k - 1]] if k < d.shape[1] else np.inf
    clear = gap > 1e-6 * np.maximum(d[rows, order[:, k - 1]], 1.0)
    return pred, clear


def check_knn(rec, components, train_x, train_y, test_x, pred, what: str) -> None:
    ref, clear = reference_knn(components, train_x, train_y, test_x, 3)
    rec.check(np.all(np.asarray(pred)[clear] == ref[clear]),
              f"{what}: k-NN predictions match a brute-force reference")


# -- workloads ----------------------------------------------------------------

class Workload:
    """A seeded input set plus the pass that runs on it."""

    name = ""

    def __init__(self, seed: int, quick: bool, workdir: str):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, rec: PassRecord) -> None:
        raise NotImplementedError

    def run_in_process(self, rec: PassRecord) -> None:
        """Extra traced work that the timed pass cannot expose (CLI only)."""


class SupervisedCV(Workload):
    """Stratified 3-fold CV with k-NN scoring for the five label learners."""

    name = "supervised-cv"

    def setup(self):
        n, d = (60, 6) if self.quick else (300, 20)
        iters = 3 if self.quick else 20
        self.x, self.y = make_blobs(np.random.default_rng(self.seed), n, d)
        self.learners = [
            ("NCA", lambda: ml.NCA(max_iter=iters), self.y),
            ("LMNN", lambda: ml.LMNN(k=3, max_iter=iters), self.y),
            ("MLKR", lambda: ml.MLKR(max_iter=iters), self.y.astype(float)),
            ("LFDA", lambda: ml.LFDA(), self.y),
            ("RCA", lambda: ml.RCA(), self.y),   # labels used as chunklets
        ]

    def run(self, rec):
        check_rng = np.random.default_rng(0)
        for name, make, target in self.learners:
            task = ml.SupervisedTask(self.x, target, make(), knn_k=3)
            res = rec.call(f"cross_validate {name}", ml.cross_validate, task, 3,
                           self.seed, stage="cv")
            rec.check(len(res.test_scores) == 3 and _finite(res.test_scores)
                      and all(0.0 <= s <= 1.0 for s in res.test_scores),
                      f"{name}: fold scores in [0, 1]")
            for fold, model in enumerate(res.fold_models):
                check_components(rec, model.components, f"{name} fold {fold}")
            train, test = res.folds[0]
            model = res.fold_models[0]
            ref, clear = reference_knn(model.components, self.x[train], target[train],
                                       self.x[test], 3)
            # near-tied queries may go either way; every other one must agree
            rec.check(abs(float(np.mean(ref == target[test])) - res.test_scores[0])
                      <= float(np.mean(~clear)) + 1e-12,
                      f"{name} fold 0: k-NN score matches a brute-force reference")
            half = min(20, len(test) // 2)
            sample = np.stack([self.x[test[:half]], self.x[test[half:2 * half]]], axis=1)
            dist = rec.call(f"score_pairs {name}", model.score_pairs, sample)
            check_distances(rec, model, sample, dist, name, check_rng)
            rec.quality["knn_accuracy"].append(res.mean)
            rec.digest(f"{name}.components", *(m.components for m in res.fold_models))
            rec.digest(f"{name}.scores", np.array(res.test_scores))


class WeakFit(Workload):
    """MMC (full and diagonal), ITML and LSML on sampler-built constraints."""

    name = "weak-fit"

    def setup(self):
        n, d, k = (40, 5, 2) if self.quick else (200, 20, 3)
        self.iters = 3 if self.quick else 10
        self.lsml_iters = 2 if self.quick else 5
        rng = np.random.default_rng(self.seed)
        x, y = make_blobs(rng, n, d)
        xt, yt = make_blobs(rng, n, d)
        self.pairs, self.pair_y = ml.pairs_from_labels(x, y, k, self.seed)
        self.quads = ml.quadruplets_from_labels(x, y, k, self.seed)
        self.test_pairs, self.test_y = ml.pairs_from_labels(xt, yt, k, self.seed + 1)
        self.test_quads = ml.quadruplets_from_labels(xt, yt, k, self.seed + 1)

    def run(self, rec):
        check_rng = np.random.default_rng(0)
        pair_learners = [
            ("MMC", ml.MMC()),
            ("MMC_diag", ml.MMC(diagonal=True)),
            ("ITML", ml.ITML(max_iter=self.iters)),
        ]
        for name, est in pair_learners:
            rec.call(f"fit {name}", est.fit, self.pairs, self.pair_y, stage="fit")
            check_components(rec, est.model_.components, name)
            dist = rec.call(f"score_pairs {name}", est.score_pairs, self.test_pairs,
                            stage="score_pairs")
            rec.work["score_pairs"] += len(self.test_pairs)
            check_distances(rec, est.model_, self.test_pairs, dist, name, check_rng)
            auc = rec.call(f"roc_auc {name}", ml.roc_auc_score, self.test_y, -dist)
            rec.check(abs(auc - reference_auc(self.test_y, -dist)) <= 1e-12,
                      f"{name}: ROC-AUC matches the rank-sum reference")
            rec.quality["pair_roc_auc"].append(auc)
            rec.digest(f"{name}.components", est.model_.components)
        est = ml.LSML(prior="covariance-inverse", max_iter=self.lsml_iters)
        rec.call("fit LSML", est.fit, self.quads, stage="fit")
        check_components(rec, est.model_.components, "LSML")
        pred = rec.call("predict_quadruplets LSML", est.predict, self.test_quads,
                        stage="predict_tuples")
        rec.work["predict_tuples"] += len(self.test_quads)
        check_signs(rec, pred, len(self.test_quads), "LSML")
        check_order_predictions(rec, est.model_.components, self.test_quads, pred, "LSML")
        rec.quality["quad_accuracy"].append(float(np.mean(pred == 1)))
        rec.digest("LSML.components", est.model_.components)
        rec.digest("LSML.predictions", pred)


class ServeTuples(Workload):
    """Read-only serving of one saved LFDA model: no fitting in the pass."""

    name = "serve-tuples"

    def setup(self):
        q = self.quick
        n = 200 if q else 2000
        self.n_score = 2000 if q else 100_000
        self.n_order = 500 if q else 20_000
        self.n_calib = 400 if q else 8000
        self.n_knn = 100 if q else 1000
        d = 6 if q else 20
        rng = np.random.default_rng(self.seed)
        x, y = make_blobs(rng, n, d)
        self.xe, self.ye = make_blobs(rng, n, d)
        est = ml.LFDA().fit(x, y)
        self.model_path = os.path.join(self.workdir, "serve-model.json")
        est.model_.save(self.model_path)
        self.model = ml.MahalanobisModel.load(self.model_path)
        self.roundtrip_path = os.path.join(self.workdir, "serve-roundtrip.json")
        xe = self.xe
        self.score_pairs = xe[rng.integers(0, n, size=(self.n_score, 2))]
        self.triplets = xe[ordered_tuple_index(rng, self.ye, self.n_order, 3)]
        self.quads = xe[ordered_tuple_index(rng, self.ye, self.n_order, 4)]
        idx, self.calib_y = labeled_pair_index(rng, self.ye, self.n_calib)
        self.calib_pairs = xe[idx]
        self.knn_train, self.knn_train_y = x[:self.n_knn], y[:self.n_knn]
        self.knn_query, self.knn_query_y = xe[:self.n_knn], self.ye[:self.n_knn]

    def run(self, rec):
        model = self.model
        check_rng = np.random.default_rng(0)
        dist = rec.call("score_pairs", model.score_pairs, self.score_pairs,
                        stage="score_pairs")
        rec.work["score_pairs"] += self.n_score
        check_distances(rec, model, self.score_pairs, dist, "score_pairs", check_rng)
        rec.digest("score_pairs", dist)

        for what, tuples, fn in (("triplets", self.triplets, model.predict_triplets),
                                 ("quadruplets", self.quads, model.predict_quadruplets)):
            pred = rec.call(f"predict_{what}", fn, tuples, stage="predict_tuples")
            rec.work["predict_tuples"] += len(tuples)
            check_signs(rec, pred, len(tuples), what)
            check_order_predictions(rec, model.components, tuples, pred, what)
            rec.digest(f"predict_{what}", pred)
            if what == "quadruplets":
                rec.quality["quad_accuracy"].append(float(np.mean(pred == 1)))

        decision = rec.call("decision_function_pairs", model.decision_function_pairs,
                            self.calib_pairs)
        auc = rec.call("roc_auc_score", ml.roc_auc_score, self.calib_y, decision)
        rec.check(abs(auc - reference_auc(self.calib_y, decision)) <= 1e-12,
                  "roc_auc matches the rank-sum reference")
        rec.quality["pair_roc_auc"].append(auc)

        for metric in ("accuracy", "f1"):
            res = rec.call(f"calibrate_threshold {metric}", ml.calibrate_threshold, model,
                           self.calib_pairs, self.calib_y, metric, stage="calibrate")
            thr, best = reference_calibration(-decision, self.calib_y, metric)
            rec.check(res.threshold == thr and res.achieved_score == best,
                      f"calibrate {metric}: matches the sweep reference")
            rec.digest(f"threshold_{metric}", res.threshold, res.achieved_score)

        pred = rec.call("knn_predict", ml.knn_predict, self.knn_train, self.knn_train_y,
                        self.knn_query, 3, model, stage="knn")
        rec.work["knn"] += self.n_knn
        check_knn(rec, model.components, self.knn_train, self.knn_train_y, self.knn_query,
                  pred, "knn")
        rec.quality["knn_accuracy"].append(float(np.mean(pred == self.knn_query_y)))
        rec.digest("knn_predict", pred)

        rec.call("save", model.save, self.roundtrip_path)
        loaded = rec.call("load", ml.MahalanobisModel.load, self.roundtrip_path)
        head = self.score_pairs[:1000]
        rec.check(np.array_equal(rec.call("score_pairs loaded", loaded.score_pairs, head),
                                 dist[:1000]),
                  "save/load round trip is bit-exact")
        with open(self.roundtrip_path, "rb") as fh:
            rec.digest("model_json", fh.read())

        # k=1: one similar and one dissimilar pair per sample, one other tuple
        for sampler, arity, per_sample in (("pairs_from_labels", 2, 2),
                                           ("triplets_from_labels", 3, 1),
                                           ("quadruplets_from_labels", 4, 1)):
            out = rec.call(sampler, getattr(ml, sampler), self.xe, self.ye, 1, self.seed,
                           stage="sample")
            parts = out if arity == 2 else (out,)    # pairs come with their labels
            tuples = parts[0]
            rec.work["sample"] += len(tuples)
            rec.check(tuples.shape == (per_sample * len(self.xe), arity, self.xe.shape[1])
                      and _finite(tuples), f"{sampler}: output shape")
            if arity == 2:
                check_signs(rec, parts[1], len(tuples), sampler)
            rec.digest(sampler, *parts)


class CliPipeline(Workload):
    """The `mlearn` command line, each command its own subprocess."""

    name = "cli-pipeline"

    def setup(self):
        q = self.quick
        n, d = (60, 4) if q else (300, 10)
        n_train, n_score, n_quads = (200, 500, 200) if q else (2000, 20_000, 2000)
        iters = 2 if q else 5
        rng = np.random.default_rng(self.seed)
        x, y = make_blobs(rng, n, d)
        self.x, self.n = x, n
        w = self.workdir
        self.paths = {name: os.path.join(w, name) for name in (
            "X.csv", "train_pairs.csv", "score_pairs.csv", "quads.csv", "grid.json",
            "model.json")}
        self._write_csv("X.csv", [f"f{i}" for i in range(d)] + ["y"],
                        np.column_stack([x, y]), ["%.17g"] * d + ["%d"])
        idx, lab = labeled_pair_index(rng, y, n_train)
        self._write_csv("train_pairs.csv", ["i", "j", "label"], np.column_stack([idx, lab]),
                        ["%d"] * 3)
        idx, lab = labeled_pair_index(rng, y, n_score)
        self.score_idx = idx
        self._write_csv("score_pairs.csv", ["i", "j", "label"], np.column_stack([idx, lab]),
                        ["%d"] * 3)
        self.quad_idx = ordered_tuple_index(rng, y, n_quads, 4)
        self._write_csv("quads.csv", ["i", "j", "k", "l"], self.quad_idx, ["%d"] * 4)
        with open(self.paths["grid.json"], "w", encoding="utf-8") as fh:
            json.dump({"k": [2, 3]}, fh)
        p = self.paths
        data = ["--data", p["X.csv"], "--label-col", "y"]
        seed = str(self.seed)
        self.commands = [
            ("fit", ["fit", "--algo", "mmc", *data, "--pairs", p["train_pairs.csv"],
                     "--opt", "diagonal=true", "--calibrate", "f1",
                     "--out", p["model.json"]]),
            ("score-pairs", ["score-pairs", "--model", p["model.json"], *data,
                             "--pairs", p["score_pairs.csv"]]),
            ("predict", ["predict", "--model", p["model.json"], *data,
                         "--pairs", p["score_pairs.csv"]]),
            ("predict", ["predict", "--model", p["model.json"], *data,
                         "--quads", p["quads.csv"]]),
            ("transform", ["transform", "--model", p["model.json"], *data]),
            ("cv", ["cv", "--algo", "lmnn", *data, "--grid", p["grid.json"],
                    "--folds", "3", "--seed", seed, "--max-iter", str(iters)]),
            ("cv", ["cv", "--algo", "itml", *data, "--pairs", p["train_pairs.csv"],
                    "--metric", "roc_auc", "--folds", "3", "--seed", seed,
                    "--max-iter", str(iters)]),
        ]

    def _write_csv(self, name, header, rows, fmt):
        np.savetxt(self.paths[name], rows, fmt=fmt, delimiter=",",
                   header=",".join(header), comments="")

    def run(self, rec):
        outputs = []
        for i, (stage, argv) in enumerate(self.commands):
            # quick mode spawns one subprocess and runs the rest in this process
            spawn = not self.quick or i == 0
            out = rec.call(f"mlearn {argv[0]}", run_cli, argv, spawn, stage=f"cli.{stage}")
            rec.check(out.returncode == 0,
                      f"mlearn {argv[0]} exit {out.returncode}: {out.stderr.strip()[:200]}")
            outputs.append(out.stdout)
        self._check_outputs(rec, outputs)

    def run_in_process(self, rec):
        """The same commands through ``cli.main`` in this process, for tracing."""
        for _stage, argv in self.commands:
            out = rec.call(f"cli.main {argv[0]}", run_cli, argv, False)
            rec.check(out.returncode == 0, f"in-process mlearn {argv[0]} exit {out.returncode}")

    def _check_outputs(self, rec, outputs):
        _fit, scores, pair_pred, quad_pred, transform, lmnn_cv, itml_cv = outputs
        with open(self.paths["model.json"], "rb") as fh:
            text = fh.read()
        rec.digest("model_json", text)
        doc = json.loads(text)
        components = np.array(doc["components"], dtype=float)
        check_components(rec, components, "cli mmc")
        rec.check(doc["threshold"] is not None, "cli fit --calibrate stored a threshold")
        pairs = self.x[self.score_idx]
        dist = batched_distances(components, pairs[:, 0], pairs[:, 1])
        got = np.array([float(v) for v in scores.split()])
        rec.check(got.shape == dist.shape
                  and np.all(np.abs(got - dist) <= DIST_RTOL * np.maximum(dist, 1.0)),
                  "cli score-pairs: one distance per pair, matching the model")
        pred = np.array([int(v) for v in pair_pred.split()])
        check_signs(rec, pred, len(pairs), "cli predict pairs")
        qpred = np.array([int(v) for v in quad_pred.split()])
        check_signs(rec, qpred, len(self.quad_idx), "cli predict quads")
        if len(qpred) == len(self.quad_idx):
            check_order_predictions(rec, components, self.x[self.quad_idx], qpred,
                                    "cli predict quads")
        rows = transform.splitlines()
        rec.check(len(rows) == self.n + 1 and all(len(r.split(",")) == len(components)
                                                  for r in rows),
                  "cli transform: header plus one row per sample")
        lmnn_mean = _cv_mean(lmnn_cv, "best ")
        itml_mean = _cv_mean(itml_cv, "mean ")
        rec.check(lmnn_mean is not None and lmnn_cv.count("candidate ") == 2,
                  "cli cv --grid: two candidates and a best row")
        rec.check(itml_mean is not None and itml_cv.startswith("fold test train"),
                  "cli cv: fold table and mean row")
        rec.quality["knn_accuracy"].append(lmnn_mean or 0.0)
        rec.quality["pair_roc_auc"].append(itml_mean or 0.0)
        rec.quality["quad_accuracy"].append(float(np.mean(qpred == 1)))
        for i, ((_stage, argv), text) in enumerate(zip(self.commands, outputs)):
            rec.digest(f"stdout {i} {argv[0]}", text)


def _cv_mean(text: str, prefix: str):
    for line in text.splitlines():
        if line.startswith(prefix):
            parts = line.split()
            return float(parts[parts.index("mean") + 1])
    return None


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ml.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv, spawn: bool) -> subprocess.CompletedProcess:
    """Run one ``mlearn`` command as a subprocess, or through ``cli.main``."""
    if spawn:
        return subprocess.run([sys.executable, "-m", "mlearn.cli", *argv], env=cli_env(),
                              capture_output=True, text=True, timeout=150)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ml.cli.main(argv)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def time_cli_import(repeats: int) -> float:
    """Median wall time of a subprocess that only imports ``mlearn.cli``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mlearn.cli"], env=cli_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


WORKLOADS = {cls.name: cls for cls in (SupervisedCV, WeakFit, ServeTuples, CliPipeline)}
