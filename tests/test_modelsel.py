import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from mlearn import (
    LMNN,
    LSML,
    MMC,
    NCA,
    ITML,
    LFDA,
    RCA,
    SupervisedTask,
    accuracy_score,
    cross_validate,
    f1_score,
    grid_search,
    kfold_split,
    knn_predict,
    from_components,
    pairs_from_labels,
    quadruplets_from_labels,
    roc_auc_score,
    score,
)
from mlearn.exceptions import ValidationError


def supervised_data(seed=0, n_per=12, d=2, sep=4.0):
    r = np.random.default_rng(seed)
    x = np.vstack([
        r.standard_normal((n_per, d)) + [sep, 0.0],
        r.standard_normal((n_per, d)) - [sep, 0.0],
    ])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


class TestKfoldSplit:
    def test_two_folds_of_two(self):
        folds = kfold_split(4, 2, seed=0)
        tests = [set(t.tolist()) for _, t in folds]
        assert all(len(t) == 2 for t in tests)
        assert tests[0] | tests[1] == {0, 1, 2, 3}
        assert tests[0] & tests[1] == set()

    def test_uneven_sizes(self):
        folds = kfold_split(5, 2, seed=1)
        sizes = sorted(len(t) for _, t in folds)
        assert sizes == [2, 3]

    def test_stratified_counts(self):
        labels = ["A", "A", "B", "B", "A", "B"]
        folds = kfold_split(6, 3, seed=0, stratify_labels=labels)
        labels = np.array(labels)
        for _, test in folds:
            counts = dict(zip(*np.unique(labels[test], return_counts=True)))
            assert counts == {"A": 1, "B": 1}

    def test_partition_property(self):
        folds = kfold_split(17, 4, seed=9)
        all_test = np.sort(np.concatenate([t for _, t in folds]))
        assert np.array_equal(all_test, np.arange(17))
        for train, test in folds:
            assert set(train.tolist()) == set(range(17)) - set(test.tolist())

    def test_determinism(self):
        f1 = kfold_split(10, 3, seed=5)
        f2 = kfold_split(10, 3, seed=5)
        for (a, b), (c, d) in zip(f1, f2):
            assert np.array_equal(a, c) and np.array_equal(b, d)

    def test_small_stratum_warns_and_falls_back(self):
        with pytest.warns(UserWarning, match="stratum"):
            kfold_split(5, 3, seed=0, stratify_labels=[0, 0, 0, 0, 1])

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            kfold_split(3, 4, seed=0)


def _kfold_split_oracle(n, k, seed, stratify_labels=None):
    """The per-index loops that the array version replaced."""
    from mlearn.rng import SplitMix64
    rng = SplitMix64(seed)
    assignment = np.empty(n, dtype=int)
    if stratify_labels is not None:
        labels = np.asarray(stratify_labels)
        counts = {c: int(np.sum(labels == c)) for c in np.unique(labels)}
        if min(counts.values()) < k:
            stratify_labels = None
    if stratify_labels is None:
        order = list(range(n))
        rng.shuffle(order)
        sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
        start = 0
        for fold, size in enumerate(sizes):
            assignment[order[start:start + size]] = fold
            start += size
    else:
        counter = 0
        for c in np.unique(labels):
            members = np.flatnonzero(labels == c).tolist()
            rng.shuffle(members)
            for idx in members:
                assignment[idx] = counter % k
                counter += 1
    return [(np.flatnonzero(assignment != f), np.flatnonzero(assignment == f))
            for f in range(k)]


def _kfold_cases():
    r = np.random.default_rng(7)
    cases = []
    for n in (2, 3, 7, 10, 31, 64):
        for k in sorted({2, 3, 5, n}):
            if k > n:
                continue
            seed = int(r.integers(0, 2 ** 40))
            cases.append((n, k, seed, None))
            for n_classes in (1, 2, 4):
                labels = r.integers(0, n_classes, n)
                cases.append((n, k, seed, labels))
                cases.append((n, k, seed, np.array(list("xyzw"))[labels]))
            cases.append((n, k, seed, np.sort(r.integers(0, 2, n)) * 0.5))
    return cases


class TestKfoldSplitOracle:
    @pytest.mark.parametrize("n,k,seed,labels", _kfold_cases())
    def test_folds_equal_the_loop_version(self, n, k, seed, labels):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = kfold_split(n, k, seed, stratify_labels=labels)
        want = _kfold_split_oracle(n, k, seed, labels)
        assert len(got) == len(want)
        for (train, test), (train0, test0) in zip(got, want):
            assert np.array_equal(train, train0) and np.array_equal(test, test0)

    def test_nan_labels_fall_back_to_unstratified(self):
        labels = np.repeat([0.0, np.nan], 5)
        with pytest.warns(UserWarning, match="stratum"):
            got = kfold_split(10, 2, 3, stratify_labels=labels)
        for (train, test), (train0, test0) in zip(got, kfold_split(10, 2, 3)):
            assert np.array_equal(train, train0) and np.array_equal(test, test0)


class TestScorers:
    def test_hand_confusion_matrix(self):
        y_true = [1, -1, 1, -1]
        y_pred = [1, -1, -1, -1]
        assert accuracy_score(y_true, y_pred) == 0.75
        assert abs(f1_score(y_true, y_pred) - 2.0 / 3.0) <= 1e-15

    def test_worked_roc_auc(self):
        auc = roc_auc_score([-1, -1, 1, 1], [0.1, 0.4, 0.35, 0.8])
        assert auc == 0.75

    def test_perfect_predictions(self):
        y = np.array([1, -1, 1, -1])
        assert score("accuracy", y, y) == 1.0
        assert score("f1", y, y) == 1.0
        assert score("roc_auc", y, y.astype(float)) == 1.0

    def test_roc_auc_ties_count_half(self):
        assert roc_auc_score([1, -1], [0.5, 0.5]) == 0.5

    def test_roc_auc_concordance_oracle(self):
        r = np.random.default_rng(2)
        for _ in range(20):
            n = 20
            y = r.choice([-1, 1], n)
            y[:2] = [1, -1]
            dec = np.round(r.random(n), 1)  # coarse values force ties
            auc = roc_auc_score(y, dec)
            pos = dec[y == 1]
            neg = dec[y != 1]
            conc = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            assert auc == conc / (len(pos) * len(neg))

    def test_roc_auc_monotone_transform_invariance(self):
        r = np.random.default_rng(4)
        y = r.choice([-1, 1], 30)
        y[:2] = [1, -1]
        dec = r.standard_normal(30)
        base = roc_auc_score(y, dec)
        assert roc_auc_score(y, dec ** 3) == base
        assert roc_auc_score(y, 2.0 * dec + 5.0) == base

    def test_roc_auc_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc_score([1, 1], [0.1, 0.2])

    def test_roc_auc_equals_pairwise_matrix_formula(self):
        r = np.random.default_rng(17)
        for _ in range(200):
            n = int(r.integers(2, 300))
            y = r.choice([-1, 1], n)
            y[:2] = [1, -1]
            dec = r.integers(-4, 5, n) * 0.3  # heavy ties
            pos, neg = dec[y == 1], dec[y != 1]
            diff = pos[:, None] - neg[None, :]
            expected = (float(np.sum(diff > 0)) + 0.5 * float(np.sum(diff == 0))) \
                / (len(pos) * len(neg))
            assert roc_auc_score(y, dec) == expected

    def test_roc_auc_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            roc_auc_score([1, -1, 1], [0.1, np.nan, 0.3])

    def test_roc_auc_peak_memory_is_linear(self):
        r = np.random.default_rng(1)
        n = 200_000
        y = r.choice([-1, 1], n)
        dec = np.round(r.standard_normal(n), 2)
        tracemalloc.start()
        try:
            roc_auc_score(y, dec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # a P x N matrix would need about 10 GB

    def test_f1_zero_division(self):
        assert f1_score([-1, -1], [-1, -1]) == 0.0

    def test_hard_label_requirement(self):
        with pytest.raises(ValidationError):
            score("accuracy", [1, -1], [0.5, -0.5])


class TestKnnPredict:
    def test_exact_training_point(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0]])
        y = np.array([3, 7])
        model = from_components(np.eye(2))
        assert knn_predict(x, y, [[5.0, 5.0]], 1, model)[0] == 7

    def test_majority_vote_equidistant(self):
        x = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
        y = np.array(["A", "A", "B"])
        model = from_components(np.eye(2))
        assert knn_predict(x, y, [[0.0, 0.0]], 3, model)[0] == "A"

    def test_vote_tie_smallest_label(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([5, 2])
        model = from_components(np.eye(2))
        assert knn_predict(x, y, [[0.0, 0.0]], 2, model)[0] == 2

    def test_learned_metric_beats_identity(self):
        # anisotropic data: class signal in feature 1, large noise in feature 2
        r = np.random.default_rng(0)
        n = 40
        y = np.array([1] * (n // 2) + [-1] * (n // 2))
        x = np.column_stack([y * 1.5 + 0.5 * r.standard_normal(n),
                             30.0 * r.standard_normal(n)])
        train, test = np.arange(0, n, 2), np.arange(1, n, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = NCA(max_iter=100).fit(x[train], y[train])
        acc_learned = np.mean(knn_predict(x[train], y[train], x[test], 1,
                                          est.model_) == y[test])
        acc_identity = np.mean(knn_predict(x[train], y[train], x[test], 1,
                                           from_components(np.eye(2))) == y[test])
        assert acc_learned >= acc_identity

    def test_empty_training_rejected(self):
        with pytest.raises(ValidationError):
            knn_predict(np.empty((0, 2)), np.array([]), [[0.0, 0.0]], 1,
                        from_components(np.eye(2)))

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError, match="knn_k"):
            knn_predict(np.zeros((3, 2)), np.array([0, 1, 1]), [[0.0, 0.0]], 0,
                        from_components(np.eye(2)))

    @pytest.mark.parametrize("labels", ["int", "str"])
    def test_matches_per_query_loop(self, labels):
        for seed in range(40):
            r = np.random.default_rng(seed)
            n, d = int(r.integers(1, 30)), int(r.integers(1, 5))
            # rounded coordinates: many exact distance ties and vote ties
            train_x = np.round(r.standard_normal((n, d)))
            test_x = np.round(r.standard_normal((int(r.integers(1, 40)), d)))
            y = r.integers(0, 4, n) * 3 - 2
            if labels == "str":
                y = np.array(["a", "bb", "c", "dddd"])[(y + 2) // 3]
            l = np.round(2.0 * r.standard_normal((int(r.integers(1, d + 1)), d))) / 2.0
            model = from_components(l)
            for k in sorted({1, 2, 3, 7, n} & set(range(1, n + 1))):
                for queries in (test_x, test_x[:1]):
                    got = knn_predict(train_x, y, queries, k, model)
                    want = _knn_predict_oracle(train_x, y, queries, k, model)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale, offset", [(1e-160, 0.0), (1e-3, 1e6),
                                               (1e150, 0.0)])
    def test_matches_per_query_loop_at_extreme_scales(self, scale, offset):
        # the pruning bound must hold where squares underflow, where a large
        # offset cancels and near overflow; three repeated points tie often
        for seed in range(10):
            r = np.random.default_rng(seed)
            base = np.round(r.standard_normal((3, 3)))
            train_x = np.vstack([base[r.integers(0, 3, 12)],
                                 np.round(r.standard_normal((12, 3)), 1)])
            test_x = np.vstack([base, np.round(r.standard_normal((6, 3)), 1)])
            train_x, test_x = train_x * scale + offset, test_x * scale + offset
            y = r.integers(0, 3, len(train_x))
            model = from_components(r.standard_normal((3, 3)))
            for k in (1, 3, 5):
                assert np.array_equal(
                    knn_predict(train_x, y, test_x, k, model),
                    _knn_predict_oracle(train_x, y, test_x, k, model))

    def test_matches_per_query_loop_across_chunks(self):
        # several query chunks; k=300 also splits the exact recheck
        r = np.random.default_rng(7)
        train_x = np.round(3.0 * r.standard_normal((300, 20)), 1)
        test_x = np.round(3.0 * r.standard_normal((200, 20)), 1)
        y = r.integers(0, 3, 300)
        model = from_components(r.standard_normal((20, 20)))
        for k in (1, 4, 300):
            assert np.array_equal(knn_predict(train_x, y, test_x, k, model),
                                  _knn_predict_oracle(train_x, y, test_x, k, model))

    def test_peak_memory_is_bounded_by_the_chunk(self):
        r = np.random.default_rng(2)
        train_x = r.standard_normal((2000, 20))
        test_x = r.standard_normal((5000, 20))
        y = r.integers(0, 3, 2000)
        model = from_components(np.eye(20))
        tracemalloc.start()
        try:
            knn_predict(train_x, y, test_x, 3, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the whole difference block would be 1.6 GB


def _knn_predict_oracle(train_x, train_y, test_x, knn_k, model):
    """The per-query loop that the chunked search replaced."""
    z_train = model.transform(train_x)
    out = []
    for z in model.transform(test_x):
        d = np.linalg.norm(z_train - z, axis=1)
        nearest = np.argsort(d, kind="stable")[:knn_k]
        votes, counts = np.unique(np.asarray(train_y)[nearest], return_counts=True)
        out.append(votes[np.argmax(counts == counts.max())])
    return np.array(out)


class _IdentityPairEstimator(MMC):
    """Dummy pair learner that always returns the identity metric."""

    def fit(self, pairs, y):
        self._set_model(from_components(np.eye(pairs.shape[2])))
        return self


class TestCrossValidate:
    def test_supervised_fold_count_and_scores(self):
        x, y = supervised_data()
        res = cross_validate(SupervisedTask(x, y, NCA(max_iter=10), knn_k=1),
                             3, seed=0)
        assert len(res.test_scores) == 3
        assert len(res.train_scores) == 3
        assert abs(res.mean - np.mean(res.test_scores)) <= 1e-15

    def test_pairs_task_matches_per_fold_oracle(self):
        r = np.random.default_rng(1)
        n = 18
        y = np.concatenate([np.ones(n // 2, int), -np.ones(n // 2, int)])
        d = np.where(y == 1, r.random(n) * 0.5, 1.0 + r.random(n))
        pairs = np.stack([np.zeros((n, 1)), d[:, None]], axis=1)
        task = SupervisedTask(pairs, y, _IdentityPairEstimator())
        res = cross_validate(task, 3, seed=0, metric_name="accuracy")
        for (train, test), model, train_got, test_got in zip(
                res.folds, res.fold_models, res.train_scores, res.test_scores):
            # the per-fold calibration must reach the exhaustive optimum on
            # its training portion...
            thr_grid = np.unique(np.concatenate([d[train] - 1e-9,
                                                 d[train] + 1e-9]))
            best_train = max(np.mean(np.where(d[train] <= t, 1, -1) == y[train])
                             for t in thr_grid)
            assert train_got == best_train
            # ...and the reported test score must follow from the threshold
            # actually stored on the fold model
            expect = np.mean(np.where(d[test] <= model.threshold, 1, -1)
                             == y[test])
            assert test_got == expect

    def test_quadruplets_fold_shapes(self):
        r = np.random.default_rng(3)
        quads = r.standard_normal((9, 4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = cross_validate(SupervisedTask(quads, None, LSML(max_iter=10)),
                                 3, seed=0)
        assert len(res.test_scores) == 3
        assert all(len(t) == 3 for _, t in res.folds)

    @pytest.mark.parametrize("metric", ["accuracy", "f1"])
    def test_quadruplet_scores_are_the_metric_of_order_predictions(self, metric):
        r = np.random.default_rng(3)
        quads = r.standard_normal((12, 4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = cross_validate(SupervisedTask(quads, None, LSML(max_iter=10)),
                                 3, seed=0, metric_name=metric)
        scorer = {"accuracy": lambda p: float(np.mean(p == 1)),
                  "f1": lambda p: f1_score(np.ones(len(p)), p)}[metric]
        for (train, test), model, tr, te in zip(res.folds, res.fold_models,
                                                res.train_scores, res.test_scores):
            assert te == scorer(model.predict_quadruplets(quads[test]))
            assert tr == scorer(model.predict_quadruplets(quads[train]))
        assert min(res.test_scores) < 1.0  # the data is not trivially ordered

    @pytest.mark.filterwarnings("ignore::mlearn.ConvergenceWarning")
    def test_knn_f1_on_signed_labels(self):
        x, y = supervised_data(seed=4, sep=0.8)
        y = np.where(y == 1, 1, -1)
        res = cross_validate(SupervisedTask(x, y, NCA(max_iter=5), knn_k=3),
                             3, seed=2, metric_name="f1")
        for (train, test), model, te in zip(res.folds, res.fold_models,
                                            res.test_scores):
            pred = knn_predict(x[train], y[train], x[test], 3, model)
            assert te == f1_score(y[test], pred)
        assert res.test_scores != [1.0] * 3

    def test_seed_determinism(self):
        x, y = supervised_data(seed=2)
        task = SupervisedTask(x, y, NCA(max_iter=5), knn_k=1)
        r1 = cross_validate(task, 3, seed=4)
        r2 = cross_validate(task, 3, seed=4)
        assert r1.test_scores == r2.test_scores
        assert r1.mean == r2.mean

    def test_no_test_fold_leakage(self):
        x, y = supervised_data(seed=5)
        task = SupervisedTask(x, y, NCA(max_iter=5), knn_k=1)
        res1 = cross_validate(task, 3, seed=1)
        # perturbing a test fold's labels must not change that fold's model
        for i, (train, test) in enumerate(res1.folds):
            y2 = y.copy()
            y2[test[0]] = 1 - y2[test[0]]
            if len(np.unique(y2[train])) < 2:
                continue
            # refit on the same training rows with the perturbed label vector
            est = task.estimator.clone().fit(x[train], y2[train])
            assert np.array_equal(est.components_,
                                  res1.fold_models[i].components)

    def test_roc_auc_pairs_task(self):
        pairs, y = _separable_pairs()
        res = cross_validate(SupervisedTask(pairs, y, _IdentityPairEstimator()),
                             3, seed=0, metric_name="roc_auc")
        assert all(0.0 <= s <= 1.0 for s in res.test_scores)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValidationError):
            cross_validate(object(), 3, seed=0)


def _separable_pairs(seed=0, n=18):
    r = np.random.default_rng(seed)
    y = np.concatenate([np.ones(n // 2, int), -np.ones(n // 2, int)])
    d = np.where(y == 1, r.random(n) * 0.5, 1.0 + r.random(n))
    pairs = np.stack([np.zeros((n, 1)), d[:, None]], axis=1)
    return pairs, y


class TestGridSearch:
    def test_candidate_count(self):
        x, y = supervised_data()
        task = SupervisedTask(x, y, NCA(max_iter=3), knn_k=1)
        _, table = grid_search(task, {"max_iter": [3, 5], "knn_k": [1]},
                               3, seed=0)
        assert len(table) == 2

    def test_best_is_max_of_table(self):
        x, y = supervised_data(seed=1)
        task = SupervisedTask(x, y, LMNN(k=1, max_iter=10), knn_k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best, table = grid_search(
                task, {"k": [1, 2], "knn_k": [1, 2]}, 3, seed=7)
        assert best["mean"] == max(row["mean"] for row in table)

    def test_tie_breaks_to_first_candidate(self):
        pairs, y = _separable_pairs()
        task = SupervisedTask(pairs, y, _IdentityPairEstimator())
        # both max_iter values are ignored by the dummy learner: exact tie
        best, table = grid_search(task, {"max_iter": [10, 20]}, 3, seed=0)
        assert all(row["mean"] == best["mean"] for row in table)
        assert best["params"] == {"max_iter": 10}

    def test_knn_k_rejected_for_pairs(self):
        pairs, y = _separable_pairs()
        task = SupervisedTask(pairs, y, _IdentityPairEstimator())
        with pytest.raises(ValidationError, match="knn_k"):
            grid_search(task, {"knn_k": [1, 3]}, 3, seed=0)

    def test_identical_folds_across_candidates(self):
        x, y = supervised_data(seed=3)
        task = SupervisedTask(x, y, NCA(max_iter=3), knn_k=1)
        _, table = grid_search(task, {"max_iter": [3, 4]}, 3, seed=5)
        # same seed means the same folds, so train scores of a deterministic
        # model must be reproducible per candidate
        assert len(table[0]["test_scores"]) == len(table[1]["test_scores"]) == 3

    def test_empty_grid_rejected(self):
        x, y = supervised_data()
        task = SupervisedTask(x, y, NCA(), knn_k=1)
        with pytest.raises(ValidationError):
            grid_search(task, {}, 3, seed=0)
        with pytest.raises(ValidationError):
            grid_search(task, {"max_iter": []}, 3, seed=0)

    def test_candidate_annotated_error(self):
        x, y = supervised_data()
        task = SupervisedTask(x, y, NCA(), knn_k=1)
        with pytest.raises(ValidationError, match="candidate"):
            grid_search(task, {"bogus_param": [1]}, 3, seed=0)


def _three_class_data(seed=11):
    r = np.random.default_rng(seed)
    y = np.repeat([0, 1, 2], [10, 12, 14])
    x = r.standard_normal((len(y), 3)) + 3.0 * np.eye(3)[y]
    return x, y


def _pinned_tasks():
    """Name -> (task, metric) for one learner of each supervision kind."""
    x, y = _three_class_data()
    chunks = np.where(np.arange(len(y)) % 5 == 0, -1, 2 * y + np.arange(len(y)) % 2)
    pairs, pair_y = pairs_from_labels(x, y, 2, seed=3)
    quads = quadruplets_from_labels(x, y, 1, seed=3)
    return {
        "lfda-labels": (SupervisedTask(x, y, LFDA(knn=3), knn_k=5), "accuracy"),
        "rca-chunks": (SupervisedTask(x, chunks, RCA()), "accuracy"),
        "itml-pairs-accuracy": (SupervisedTask(pairs, pair_y, ITML(max_iter=20)),
                                "accuracy"),
        "itml-pairs-roc_auc": (SupervisedTask(pairs, pair_y, ITML(max_iter=20)),
                               "roc_auc"),
        "lsml-quads": (SupervisedTask(quads, None, LSML(max_iter=10)), "accuracy"),
    }


def _cv_digest(res):
    h = hashlib.sha256()
    h.update(np.asarray(res.test_scores, dtype=float).tobytes())
    h.update(np.asarray(res.train_scores, dtype=float).tobytes())
    for model in res.fold_models:
        h.update(np.ascontiguousarray(model.components).tobytes())
    return h.hexdigest()


# SHA-256 of the fold test scores, train scores and fold components, recorded
# before the fold loop was shared by all supervision kinds (lfda again with
# centred rows); like the fit
# digests in test_optimize, a BLAS build that rounds differently needs new ones
_PINNED_CV = {
    "lfda-labels":
        "9016113ee0397f2d5860d120b0e357af951c1e108d252981423e00ef5ea66540",
    "rca-chunks":
        "4fce89f39be0d884d38847429e55c69b3346fe0b1c94580657c49f2d9f3bbf3a",
    "itml-pairs-accuracy":
        "25bbbcf875622aabfe06279a9881b036994d0f128ff4e078f4f78313f4606d7e",
    "itml-pairs-roc_auc":
        "3b0d65bfdf8b2cd80b5eeae665d77c51dea92a931f5233cbabfa7201b73d0812",
    "lsml-quads":
        "be57240807efda443bc6e3d4429124051d03e3c9bcd6a001740386c83214edad",
}


@pytest.mark.parametrize("name", sorted(_PINNED_CV))
def test_cross_validate_outputs_are_pinned(name):
    task, metric = _pinned_tasks()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = cross_validate(task, 3, seed=2, metric_name=metric)
    assert _cv_digest(res) == _PINNED_CV[name]
