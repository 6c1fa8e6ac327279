"""The input gate: every bad parameter or data value raises ValidationError,
and through the CLI exits 2 with exactly one ``error:`` line."""

import math

import numpy as np
import pytest

import mlearn as ml
from mlearn.cli import main
from mlearn.exceptions import ValidationError
from mlearn.linalg import gen_sym_eig, psd_sqrt

R = np.random.default_rng(0)
X = R.standard_normal((18, 3)) + 4.0 * np.repeat(np.eye(3), 6, axis=0)
Y = np.repeat([0, 1, 2], 6)
PAIRS, PAIR_Y = ml.pairs_from_labels(X, Y, 2, 0)
QUADS = ml.quadruplets_from_labels(X, Y, 2, 0)
MODEL = ml.from_components(np.eye(3))
Y_NAN = np.where(np.arange(len(Y)) == 0, math.nan, Y)
# object labels of mixed types: np.unique cannot sort them
Y_MIXED = np.array([3, "b", "c"], dtype=object)[Y]
Y_OBJECT_NAN = Y_NAN.astype(object)

# what each kind fits on: (learner, x, y)
KINDS = {
    "labels": (ml.NCA(max_iter=5), X, Y),
    "chunks": (ml.RCA(), X, Y),
    "pairs": (ml.MMC(max_iter=5), PAIRS, PAIR_Y),
    "quads": (ml.LSML(max_iter=3), QUADS, None),
}


def _bad_y(kind, y):
    """A 2-D y, a y of the wrong length and a y with a NaN for the kind."""
    y = np.ones(len(KINDS[kind][1])) if y is None else y
    nan_y = y.astype(float)
    nan_y[0] = math.nan
    return {"2-D y": y[:, None], "short y": y[:-1], "NaN y": nan_y}


FIT = ["fit", "--data", "{data}", "--label-col", "y", "--out", "{out}"]

# id -> (call that must raise ValidationError or None, CLI argv that must
# exit 2 or None); {name} in an argv is a file the fixture below writes
CASES = {
    "NCA n_components=2.7": (lambda: ml.NCA(n_components=2.7).fit(X, Y),
                             FIT + ["--algo", "nca", "--opt", "n_components=2.7"]),
    "MMC diagonal='no'": (lambda: ml.MMC(diagonal="no").fit(PAIRS, PAIR_Y),
                          FIT + ["--algo", "mmc", "--pairs", "{pairs}",
                                 "--opt", "diagonal=no"]),
    "LMNN push_weight='0.5'": (lambda: ml.LMNN(push_weight="0.5").fit(X, Y),
                               FIT + ["--algo", "lmnn", "--opt", "push_weight=abc"]),
    "ITML gamma=nan": (lambda: ml.ITML(gamma=math.nan).fit(PAIRS, PAIR_Y),
                       FIT + ["--algo", "itml", "--pairs", "{pairs}",
                              "--opt", "gamma=nan"]),
    "NCA tol=nan": (lambda: ml.NCA(tol=math.nan).fit(X, Y),
                    FIT + ["--algo", "nca", "--tol", "nan"]),
    "NCA max_iter=2.5": (lambda: ml.NCA(max_iter=2.5).fit(X, Y), None),
    "NCA 2-D y": (lambda: ml.NCA().fit(X, Y[:, None]), None),
    "LMNN 2-D y": (lambda: ml.LMNN().fit(X, Y[:, None]), None),
    "MLKR 2-D y": (lambda: ml.MLKR().fit(X, Y[:, None]), None),
    "pairs_from_labels 2-D y": (
        lambda: ml.pairs_from_labels(X, Y[:, None], 2, 0), None),
    "triplets_from_labels 2-D y": (
        lambda: ml.triplets_from_labels(X, Y[:, None], 2, 0), None),
    "quadruplets_from_labels 2-D y": (
        lambda: ml.quadruplets_from_labels(X, Y[:, None], 2, 0), None),
    "sampler short y": (lambda: ml.pairs_from_labels(X, Y[:-1], 2, 0), None),
    "knn_predict 2-D y": (lambda: ml.knn_predict(X, Y[:, None], X, 3, MODEL), None),
    "knn_predict short y": (lambda: ml.knn_predict(X, Y[:-1], X, 3, MODEL), None),
    "knn_predict NaN y": (lambda: ml.knn_predict(X, Y_NAN, X, 3, MODEL), None),
    "sampler NaN y": (lambda: ml.pairs_from_labels(X, Y_NAN, 2, 0), None),
    "LFDA NaN y": (lambda: ml.LFDA(knn=1).fit(X, Y_NAN), None),
    "NCA mixed-type y": (lambda: ml.NCA(max_iter=2).fit(X, Y_MIXED), None),
    "RCA mixed-type chunk ids": (lambda: ml.RCA().fit(X, Y_MIXED), None),
    "cross_validate mixed-type y": (
        lambda: ml.cross_validate(ml.SupervisedTask(X, Y_MIXED, ml.NCA(max_iter=2)),
                                  3, 0), None),
    "knn_predict mixed-type y": (
        lambda: ml.knn_predict(X, Y_MIXED, X, 3, MODEL), None),
    "sampler mixed-type y": (
        lambda: ml.triplets_from_labels(X, Y_MIXED, 2, 0), None),
    "NCA object NaN y": (lambda: ml.NCA(max_iter=2).fit(X, Y_OBJECT_NAN), None),
    "knn_predict object NaN y": (
        lambda: ml.knn_predict(X, Y_OBJECT_NAN, X, 3, MODEL), None),
    "calibrate_threshold y=None": (
        lambda: ml.calibrate_threshold(MODEL, PAIRS, None),
        ["calibrate", "--model", "{model}", "--data", "{data}", "--label-col",
         "y", "--pairs", "{unlabeled}"]),
    "MMC pairs without labels": (
        lambda: ml.MMC().fit(PAIRS, None),
        FIT + ["--algo", "mmc", "--pairs", "{unlabeled}"]),
    "unknown init": (lambda: ml.NCA(init="bogus").fit(X, Y),
                     FIT + ["--algo", "nca", "--opt", "init=bogus"]),
    "n_components out of range": (lambda: ml.NCA(n_components=5).fit(X, Y),
                                  FIT + ["--algo", "nca", "--n-components", "5"]),
    "LFDA embedding": (lambda: ml.LFDA(embedding="bogus").fit(X, Y),
                       FIT + ["--algo", "lfda", "--opt", "embedding=bogus"]),
    "ITML gamma <= 0": (lambda: ml.ITML(gamma=-1.0).fit(PAIRS, PAIR_Y),
                        FIT + ["--algo", "itml", "--pairs", "{pairs}",
                               "--opt", "gamma=-1"]),
    "LSML reg < 0": (lambda: ml.LSML(reg=-1.0).fit(QUADS),
                     FIT + ["--algo", "lsml", "--quads", "{quads}",
                            "--opt", "reg=-1"]),
    "MLKR 2 samples": (lambda: ml.MLKR().fit(X[:2], [0.0, 1.0]),
                       ["fit", "--algo", "mlkr", "--data", "{small}",
                        "--label-col", "y", "--out", "{out}"]),
    "calibrate unsupported metric": (
        lambda: ml.calibrate_threshold(MODEL, PAIRS, PAIR_Y, "bogus"), None),
    "LFDA --max-iter --tol": (None, FIT + ["--algo", "lfda", "--max-iter", "3",
                                           "--tol", "0.1"]),
    "MMC --n-components": (None, FIT + ["--algo", "mmc", "--pairs", "{pairs}",
                                        "--n-components", "2"]),
}
X_NAN = X.copy()
X_NAN[3, 1] = math.nan
ONE_NEGATIVE = np.where(np.arange(len(PAIR_Y)) == 0, -1, 1)
CV = ["cv", "--data", "{data}", "--label-col", "y"]
CASES.update({
    "fit 1-D x": (lambda: ml.NCA().fit(X[0], Y), None),
    "fit non-finite x": (lambda: ml.NCA().fit(X_NAN, Y),
                         ["fit", "--algo", "nca", "--data", "{nan}",
                          "--label-col", "y", "--out", "{out}"]),
    "score_pairs 2-D block": (lambda: MODEL.score_pairs(X), None),
    "transform strings": (lambda: MODEL.transform([["a", "b", "c"]]), None),
    "transform dict": (lambda: MODEL.transform({"a": 1}), None),
    "transform ragged rows": (lambda: MODEL.transform([[0, 0, 0], [0, 0]]), None),
    "transform complex array": (
        lambda: MODEL.transform(np.array([[1j, 0, 0]])), None),
    "score_pairs string": (lambda: MODEL.score_pairs([[["a", 0, 0], [0, 0, 0]]]),
                           None),
    "fit on strings": (lambda: ml.NCA(max_iter=2).fit(np.full(X.shape, "a"), Y),
                       None),
    "knn_predict string queries": (
        lambda: ml.knn_predict(X, Y, [["a", "b", "c"]], 3, MODEL), None),
    "knn_predict ragged queries": (
        lambda: ml.knn_predict(X, Y, [[0, 0, 0], [0, 0]], 3, MODEL), None),
    "get_metric NaN": (lambda: MODEL.get_metric()([math.nan, 0, 0], [0, 0, 0]),
                       None),
    "get_metric inf": (lambda: MODEL.get_metric()([0, 0, 0], [math.inf, 0, 0]),
                       None),
    "get_metric strings": (lambda: MODEL.get_metric()(["a", 0, 0], [0, 0, 0]),
                           None),
    "from_components strings": (lambda: ml.from_components([["a", "b"]]), None),
    "sampler on one class": (
        lambda: ml.pairs_from_labels(X, np.zeros(len(X), int), 2, 0), None),
    "cross_validate degenerate fold": (
        lambda: ml.cross_validate(
            ml.SupervisedTask(PAIRS, ONE_NEGATIVE, ml.MMC(max_iter=5)), 3, 0),
        CV + ["--algo", "mmc", "--pairs", "{one_negative}", "--max-iter", "5"]),
    "not fitted": (lambda: ml.NCA().transform(X), None),
    "score length mismatch": (lambda: ml.score("accuracy", [1, -1], [1]), None),
    "score unknown metric": (lambda: ml.score("bogus", [1, -1], [1, 1]), None),
    "psd_sqrt not PSD": (lambda: psd_sqrt(-np.eye(2)), None),
    "gen_sym_eig k=0": (lambda: gen_sym_eig(np.eye(2), np.eye(2), 0), None),
    "gen_sym_eig k > d": (lambda: gen_sym_eig(np.eye(2), np.eye(2), 3), None),
    "ITML unknown prior": (lambda: ml.ITML(prior="bogus").fit(PAIRS, PAIR_Y),
                           FIT + ["--algo", "itml", "--pairs", "{pairs}",
                                  "--opt", "prior=bogus"]),
    "ITML gamma=10**400": (lambda: ml.ITML(gamma=10 ** 400).fit(PAIRS, PAIR_Y),
                           FIT + ["--algo", "itml", "--pairs", "{pairs}",
                                  "--opt", "gamma=1" + "0" * 400]),
    "ITML gamma=inf": (lambda: ml.ITML(gamma=math.inf).fit(PAIRS, PAIR_Y),
                       FIT + ["--algo", "itml", "--pairs", "{pairs}",
                              "--opt", "gamma=inf"]),
    "LMNN margin=inf": (lambda: ml.LMNN(margin=math.inf).fit(X, Y),
                        FIT + ["--algo", "lmnn", "--opt", "margin=inf"]),
    # k is checked against the classes before the (n, k) targets exist
    "LMNN k=10**12": (lambda: ml.LMNN(k=10 ** 12).fit(X, Y),
                      FIT + ["--algo", "lmnn", "--opt", "k=1000000000000"]),
    "LMNN k=10**400": (lambda: ml.LMNN(k=10 ** 400).fit(X, Y),
                       FIT + ["--algo", "lmnn", "--opt", "k=1" + "0" * 400]),
    "RCA n_components": (
        lambda: ml.RCA().set_params(n_components=3),
        ["fit", "--algo", "rca", "--data", "{data}", "--chunk-col", "y",
         "--n-components", "3", "--out", "{out}"]),
    "RCA string chunklet ids": (
        lambda: ml.RCA().fit(X, np.repeat(list("abc"), 6)), None),
    "MLKR string targets": (
        lambda: ml.MLKR().fit(X, np.repeat(list("abc"), 6)), None),
    "quads cross_validate roc_auc": (
        lambda: ml.cross_validate(ml.SupervisedTask(QUADS, None, ml.LSML(max_iter=3)),
                                  3, 0, "roc_auc"),
        CV + ["--algo", "lsml", "--quads", "{quads6}", "--max-iter", "3",
              "--metric", "roc_auc"]),
    # a k-NN vote is a label, not a decision value
    "labels cross_validate roc_auc": (
        lambda: ml.cross_validate(ml.SupervisedTask(X, Y, ml.NCA(max_iter=3)),
                                  3, 0, "roc_auc"),
        CV + ["--algo", "nca", "--metric", "roc_auc"]),
    # F1 takes +1 as its positive class: a vote among 0, 1 and 2 has none
    "labels cross_validate f1": (
        lambda: ml.cross_validate(ml.SupervisedTask(X, Y, ml.NCA(max_iter=3)),
                                  3, 0, "f1"),
        CV + ["--algo", "nca", "--metric", "f1"]),
    "quads cross_validate unknown metric": (
        lambda: ml.cross_validate(ml.SupervisedTask(QUADS, None, ml.LSML(max_iter=3)),
                                  3, 0, "bogus"), None),
    "NaN label cell": (None, ["fit", "--algo", "nca", "--data", "{nan_label}",
                              "--label-col", "y", "--out", "{out}"]),
    "empty file": (None, ["fit", "--algo", "nca", "--data", "{empty}",
                          "--label-col", "y", "--out", "{out}"]),
    "feature row of the wrong width": (
        None, ["fit", "--algo", "nca", "--data", "{ragged}", "--label-col",
               "y", "--out", "{out}"]),
    "non-integer pair label": (None, FIT + ["--algo", "mmc", "--pairs",
                                            "{label_x}"]),
    "--opt without =": (None, FIT + ["--algo", "nca", "--opt", "max_iter"]),
    "fit mmc without --pairs": (None, FIT + ["--algo", "mmc"]),
    "grid not JSON": (None, CV + ["--algo", "nca", "--grid", "{grid_text}"]),
    "grid not an object": (None, CV + ["--algo", "nca", "--grid", "{grid_list}"]),
    "grid entry not a list": (None, CV + ["--algo", "nca", "--grid",
                                          "{grid_scalar}"]),
})
TRIPLETS = ml.triplets_from_labels(X, Y, 2, 0)
THRESHOLD_MODEL = ml.MahalanobisModel(np.eye(3), threshold=1.0)
# serving entry point -> (its valid input, the entry a non-finite value goes
# to, the call); the serving methods judge finiteness in the map kernel, so
# the entries sit in different columns, rows and kernel passes
SERVING = {
    "score_pairs": (PAIRS, (-1, 1, 2), MODEL.score_pairs),
    "decision_function_pairs": (PAIRS, (0, 0, 0), MODEL.decision_function_pairs),
    "predict_pairs": (PAIRS, (-1, 1, 2), THRESHOLD_MODEL.predict_pairs),
    # the negative point is read only by the second distance pass
    "predict_triplets": (TRIPLETS, (-1, 2, 0), MODEL.predict_triplets),
    "predict_quadruplets": (QUADS, (-1, 3, 1), MODEL.predict_quadruplets),
    "calibrate_threshold": (
        PAIRS, (0, 1, 0), lambda p: ml.calibrate_threshold(MODEL, p, PAIR_Y)),
    "transform": (X, (3, 1), MODEL.transform),
    "knn_predict queries": (X, (5, 2), lambda q: ml.knn_predict(X, Y, q, 3, MODEL)),
    "knn_predict training rows": (
        X, (5, 2), lambda t: ml.knn_predict(t, Y, X, 3, MODEL)),
}
for _name, (_data, _index, _call) in SERVING.items():
    for _what, _value in (("NaN", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
        _poisoned = _data.copy()
        _poisoned[_index] = _value
        CASES[f"{_name} {_what}"] = (lambda c=_call, a=_poisoned: c(a), None)
    if _data.ndim == 3:
        # inf - inf: the one subtract that sets numpy's invalid flag
        _poisoned = _data.copy()
        _poisoned[0, :, 0] = math.inf
        CASES[f"{_name} inf in every point"] = (lambda c=_call, a=_poisoned: c(a),
                                                None)
SERVE = ["--model", "{model}", "--data", "{nan}", "--label-col", "y"]
CASES.update({
    "score-pairs NaN feature cell": (None, ["score-pairs", *SERVE, "--pairs",
                                           "{nan_pairs}"]),
    "predict pairs NaN feature cell": (
        None, ["predict", "--model", "{model_thr}", *SERVE[2:], "--pairs",
               "{nan_pairs}"]),
    "predict quads NaN feature cell": (None, ["predict", *SERVE, "--quads",
                                              "{nan_quads}"]),
    "transform NaN feature cell": (None, ["transform", *SERVE]),
    "calibrate NaN feature cell": (None, ["calibrate", *SERVE, "--pairs",
                                          "{nan_pairs}", "--out", "{out}"]),
})
for _kind, (_est, _x, _y) in KINDS.items():
    for _what, _bad in _bad_y(_kind, _y).items():
        CASES[f"{_kind} fit {_what}"] = (
            lambda e=_est, x=_x, y=_bad: e.clone().fit(x, y), None)
        CASES[f"{_kind} cross_validate {_what}"] = (
            lambda e=_est, x=_x, y=_bad: ml.cross_validate(
                ml.SupervisedTask(x, y, e), 3, 0), None)


@pytest.mark.parametrize("case", [c for c, (call, _) in CASES.items() if call])
def test_bad_input_raises_validation_error(case):
    with pytest.raises(ValidationError):
        CASES[case][0]()


@pytest.fixture
def files(tmp_path):
    paths = {name: tmp_path / name for name in
             ("data", "small", "pairs", "unlabeled", "quads", "model", "out",
              "nan", "nan_label", "one_negative", "quads6", "empty", "ragged",
              "label_x", "grid_text", "grid_list", "grid_scalar", "nan_pairs",
              "nan_quads", "model_thr")}
    def rows(x, y=Y):
        return "f1,f2,f3,y\n" + "".join(",".join(map(repr, row.tolist())) +
                                        f",{lab}\n" for row, lab in zip(x, y))
    paths["data"].write_text(rows(X))
    paths["small"].write_text("f1,f2,f3,y\n0,0,0,0\n1,0,0,1\n")
    paths["pairs"].write_text("i,j,label\n0,1,1\n6,7,1\n0,6,-1\n1,12,-1\n")
    paths["unlabeled"].write_text("i,j\n0,1\n0,6\n")
    paths["quads"].write_text("i,j,k,l\n0,1,0,6\n6,7,6,12\n")
    MODEL.save(paths["model"])
    THRESHOLD_MODEL.save(paths["model_thr"])
    paths["nan"].write_text(rows(X_NAN))
    # tuples over row 3 of the nan file, whose second feature is NaN
    paths["nan_pairs"].write_text("i,j,label\n0,1,1\n3,4,1\n0,6,-1\n")
    paths["nan_quads"].write_text("i,j,k,l\n0,1,0,6\n6,7,12,3\n")
    paths["nan_label"].write_text(rows(X, Y_NAN))
    paths["one_negative"].write_text(
        "i,j,label\n0,1,1\n6,7,1\n12,13,1\n2,3,1\n0,6,-1\n8,9,1\n")
    paths["quads6"].write_text("i,j,k,l\n" + "".join(
        f"{i},{i + 1},{i},{(i + 6) % 18}\n" for i in range(0, 18, 3)))
    paths["empty"].write_text("")
    paths["ragged"].write_text("f1,f2,f3,y\n0,0,0,0\n1,0,0\n")
    paths["label_x"].write_text("i,j,label\n0,1,1\n0,6,x\n")
    paths["grid_text"].write_text("{max_iter: [2]}")
    paths["grid_list"].write_text("[2, 3]")
    paths["grid_scalar"].write_text('{"max_iter": 2}')
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv", [
    FIT + ["--algo", "nca"], FIT + ["--algo", "lfda"],
    FIT + ["--algo", "itml", "--pairs", "{pairs}", "--max-iter", "3"],
    FIT + ["--algo", "lsml", "--quads", "{quads}", "--max-iter", "3"],
    ["calibrate", "--model", "{model}", "--data", "{data}", "--label-col", "y",
     "--pairs", "{pairs}"],
    # the NaN feature-cell cases fail on the nan file alone
    *[[a.replace("{nan}", "{data}") for a in CASES[case][1]] for case in (
        "score-pairs NaN feature cell", "predict pairs NaN feature cell",
        "predict quads NaN feature cell", "transform NaN feature cell",
        "calibrate NaN feature cell")]])
def test_the_files_are_valid_input(argv, files, capsys):
    assert main([a.format(**files) for a in argv]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("case", [c for c, (_, argv) in CASES.items() if argv])
def test_bad_input_exits_2_with_one_error_line(case, files, capsys):
    code = main([a.format(**files) for a in CASES[case][1]])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:") and err.count("\n") == 1


def test_serving_does_not_scan_its_input_before_the_kernel(monkeypatch):
    # serving input is judged finite where the map kernel holds it; a
    # second, input-wide scan at the gate must not come back
    calls = []
    all_finite = ml.tuples._all_finite

    def counting(a):
        calls.append(a.shape)
        return all_finite(a)

    monkeypatch.setattr(ml.tuples, "_all_finite", counting)
    for _, (data, _, call) in SERVING.items():
        call(data)
    MODEL.get_metric()(X[0], X[1])
    assert calls == []
    ml.pairs_from_labels(X, Y, 2, 0)  # samplers and fits keep the scan
    assert calls == [X.shape]


@pytest.mark.filterwarnings("ignore::mlearn.ConvergenceWarning")
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_list_inputs_fit_and_cross_validate_as_arrays(kind):
    est, x, y = KINDS[kind]
    listed = (x.tolist(), None if y is None else y.tolist())
    fitted = est.clone().fit(x, y).components_
    assert est.clone().fit(*listed).components_.tobytes() == fitted.tobytes()
    want = ml.cross_validate(ml.SupervisedTask(x, y, est), 3, 0)
    got = ml.cross_validate(ml.SupervisedTask(*listed, est), 3, 0)
    assert got.test_scores == want.test_scores
