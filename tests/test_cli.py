import hashlib
import json

import numpy as np
import pytest

import mlearn.model
import mlearn.tuples
from mlearn.cli import ALGORITHMS, load_features, load_tuples, main
from mlearn.exceptions import ValidationError
from mlearn.model import MahalanobisModel
from mlearn.modelsel import SUPERVISION
from mlearn.tuples import validate_tuples

from conftest import NON_FINITE_ITML_CASES, labeled_pairs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dataset(tmp_path, seed=0, n_per=12, sep=4.0):
    """Two separable classes in 2-D plus pair/quadruplet index files."""
    r = np.random.default_rng(seed)
    x = np.vstack([
        r.standard_normal((n_per, 2)) + [sep, 0.0],
        r.standard_normal((n_per, 2)) - [sep, 0.0],
    ])
    y = [0] * n_per + [1] * n_per
    data = tmp_path / "X.csv"
    lines = ["f1,f2,y"]
    lines += [f"{float(a)},{float(b)},{lab}" for (a, b), lab in zip(x, y)]
    data.write_text("\n".join(lines) + "\n")

    pairs = tmp_path / "P.csv"
    plines = ["i,j,label"]
    for i in range(n_per - 1):
        plines.append(f"{i},{i + 1},1")
        plines.append(f"{n_per + i},{n_per + i + 1},1")
        plines.append(f"{i},{n_per + i},-1")
        plines.append(f"{i + 1},{n_per + i + 1},-1")
    pairs.write_text("\n".join(plines) + "\n")

    quads = tmp_path / "Q.csv"
    qlines = ["i,j,k,l"]
    for i in range(n_per - 1):
        qlines.append(f"{i},{i + 1},{i},{n_per + i}")
    quads.write_text("\n".join(qlines) + "\n")
    return data, pairs, quads


class TestLoadFeatures:
    def test_label_column_split(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,y\n0,1,0\n2,3,1\n")
        x, y, _ = load_features(p, label_col="y")
        assert x.shape == (2, 2)
        assert np.array_equal(y, [0, 1])
        assert y.dtype.kind == "i"

    def test_no_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,y\n0,1,0\n2,3,1\n")
        x, y, _ = load_features(p)
        assert x.shape == (2, 3) and y is None

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2\nabc,1\n")
        with pytest.raises(ValidationError, match="row 1.*f1"):
            load_features(p)

    def test_missing_header_detected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(ValidationError, match="header"):
            load_features(p)

    def test_missing_label_column_lists_available(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2\n0,1\n")
        with pytest.raises(ValidationError, match="f1, f2"):
            load_features(p, label_col="y")

    def test_float_labels_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,y\n0,0.5\n1,1.5\n")
        _, y, _ = load_features(p, label_col="y")
        assert np.array_equal(y, [0.5, 1.5])

    def test_labels_beyond_int64_stay_distinct(self, tmp_path):
        # an int cast would wrap both onto -2**63 (with a RuntimeWarning,
        # which pytest turns into an error)
        p = tmp_path / "d.csv"
        p.write_text("f1,y\n0,1e20\n1,2e20\n")
        _, y, _ = load_features(p, label_col="y")
        assert np.array_equal(y, [1e20, 2e20])


class TestLoadTuples:
    def test_labeled_pairs(self, tmp_path):
        base = np.arange(6, dtype=float).reshape(3, 2)
        p = tmp_path / "p.csv"
        p.write_text("i,j,label\n0,1,1\n0,2,-1\n")
        tuples, labels = load_tuples(p, base, 2)
        assert tuples.shape == (2, 2, 2)
        assert np.array_equal(labels, [1, -1])
        assert np.array_equal(tuples[0, 1], base[1])

    def test_quadruplets(self, tmp_path):
        base = np.arange(8, dtype=float).reshape(4, 2)
        p = tmp_path / "q.csv"
        p.write_text("i,j,k,l\n0,1,2,3\n")
        tuples, labels = load_tuples(p, base, 4)
        assert tuples.shape == (1, 4, 2) and labels is None

    def test_out_of_range_index_names_row(self, tmp_path):
        base = np.zeros((3, 2))
        p = tmp_path / "p.csv"
        p.write_text("i,j\n0,9\n")
        with pytest.raises(ValidationError, match="tuple row 1"):
            load_tuples(p, base, 2)

    def test_bad_label_rejected(self, tmp_path):
        base = np.zeros((3, 2))
        p = tmp_path / "p.csv"
        p.write_text("i,j,label\n0,1,2\n")
        with pytest.raises(ValidationError, match="label"):
            load_tuples(p, base, 2)

    def test_short_row_names_row(self, tmp_path):
        base = np.zeros((3, 2))
        p = tmp_path / "p.csv"
        p.write_text("i,j,label\n0,1,1\n2\n")
        with pytest.raises(ValidationError,
                           match="tuple row 2 has 1 cells, expected 3"):
            load_tuples(p, base, 2)

    def test_gathers_rows_in_file_order(self, tmp_path):
        base = np.arange(12, dtype=float).reshape(4, 3)
        p = tmp_path / "t.csv"
        p.write_text("i,j,k\n3,0,2\n1,1,0\n")
        tuples, labels = load_tuples(p, base, 3)
        assert labels is None
        assert np.array_equal(tuples, base[[[3, 0, 2], [1, 1, 0]]])
        p.write_text("i,j,k\n")
        assert load_tuples(p, base, 3)[0].shape == (0, 3, 3)


class TestFitTransform:
    def test_nca_fit_then_transform_shapes(self, tmp_path, capsys):
        data, _, _ = write_dataset(tmp_path)
        model_path = tmp_path / "m.json"
        code, _, err = run_cli(capsys, "fit", "--algo", "nca", "--data",
                               str(data), "--label-col", "y",
                               "--n-components", "2", "--max-iter", "30",
                               "--out", str(model_path))
        assert code == 0
        out_path = tmp_path / "Z.csv"
        code, _, _ = run_cli(capsys, "transform", "--model", str(model_path),
                             "--data", str(data), "--label-col", "y",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "c0,c1"
        assert len(lines) == 25  # header + 24 rows

    def test_mmc_diagonal_with_calibration(self, tmp_path, capsys):
        data, pairs, _ = write_dataset(tmp_path)
        model_path = tmp_path / "mmc.json"
        code, _, _ = run_cli(capsys, "fit", "--algo", "mmc", "--data",
                             str(data), "--label-col", "y", "--pairs",
                             str(pairs), "--opt", "diagonal=true",
                             "--calibrate", "f1", "--out", str(model_path))
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["algorithm"] == "mmc"
        assert doc["threshold"] is not None

    def test_rca_via_chunk_column(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        r = np.random.default_rng(1)
        lines = ["f1,f2,chunk"]
        for i in range(12):
            a, b = r.standard_normal(2)
            lines.append(f"{float(a)},{float(b)},{i // 3}")
        p.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "rca.json"
        code, _, _ = run_cli(capsys, "fit", "--algo", "rca", "--data", str(p),
                             "--chunk-col", "chunk", "--out", str(model_path))
        assert code == 0

    def test_rca_drops_the_label_column(self, tmp_path, capsys):
        r = np.random.default_rng(2)
        rows = [(*r.standard_normal(2), i // 6, i // 3) for i in range(12)]
        both = tmp_path / "both.csv"
        both.write_text("f1,f2,y,c\n" + "".join(
            f"{a},{b},{y},{c}\n" for a, b, y, c in rows))
        model_path = tmp_path / "rca.json"
        code, _, _ = run_cli(capsys, "fit", "--algo", "rca", "--data",
                             str(both), "--label-col", "y", "--chunk-col",
                             "c", "--out", str(model_path))
        assert code == 0
        assert json.loads(model_path.read_text())["n_features"] == 2
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("f1,f2,y\n" + "".join(
            f"{a},{b},{y}\n" for a, b, y, _ in rows))
        code, out, _ = run_cli(capsys, "transform", "--model",
                               str(model_path), "--data", str(labeled),
                               "--label-col", "y")
        assert code == 0
        assert out.splitlines()[0] == "c0,c1"
        # the chunk column is no feature either: it cannot slip into a slot
        code, _, err = run_cli(capsys, "transform", "--model",
                               str(model_path), "--data", str(both),
                               "--label-col", "y")
        assert code == 2
        assert err.startswith("error:")

    def test_lsml_from_quads(self, tmp_path, capsys):
        data, _, quads = write_dataset(tmp_path)
        model_path = tmp_path / "lsml.json"
        code, _, _ = run_cli(capsys, "fit", "--algo", "lsml", "--data",
                             str(data), "--label-col", "y", "--quads",
                             str(quads), "--max-iter", "20",
                             "--out", str(model_path))
        assert code == 0

    def test_unknown_option_exits_2(self, tmp_path, capsys):
        data, _, _ = write_dataset(tmp_path)
        code, _, err = run_cli(capsys, "fit", "--algo", "nca", "--data",
                               str(data), "--label-col", "y", "--opt",
                               "bogus=1", "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert err.strip().startswith("error:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("algo", ["itml", "lsml", "mmc"])
    def test_seed_option_unknown_for_weak_learners(self, algo, tmp_path, capsys):
        data, _, _ = write_dataset(tmp_path)
        code, _, err = run_cli(capsys, "fit", "--algo", algo, "--data",
                               str(data), "--label-col", "y", "--opt",
                               "seed=1", "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert err.startswith(f"error: unknown option 'seed' for algorithm {algo}")

    def test_calibrate_flag_rejected_for_supervised(self, tmp_path, capsys):
        data, pairs, _ = write_dataset(tmp_path)
        code, _, err = run_cli(capsys, "fit", "--algo", "nca", "--data",
                               str(data), "--label-col", "y", "--calibrate",
                               "f1", "--out", str(tmp_path / "m.json"))
        assert code == 2


class TestScoreAndPredict:
    @pytest.fixture
    def fitted(self, tmp_path, capsys):
        data, pairs, quads = write_dataset(tmp_path)
        model_path = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "fit", "--algo", "mmc", "--data",
                             str(data), "--label-col", "y", "--pairs",
                             str(pairs), "--calibrate", "accuracy",
                             "--out", str(model_path))
        assert code == 0
        return data, pairs, quads, model_path

    def test_score_pairs_output(self, fitted, capsys, tmp_path):
        data, pairs, _, model_path = fitted
        out = tmp_path / "scores.txt"
        code, _, _ = run_cli(capsys, "score-pairs", "--model", str(model_path),
                             "--data", str(data), "--label-col", "y",
                             "--pairs", str(pairs), "--out", str(out))
        assert code == 0
        values = [float(v) for v in out.read_text().split()]
        assert all(v >= 0 for v in values)
        # round trip through text must be exact at 17 significant digits
        model = MahalanobisModel.load(model_path)
        x, _, _ = load_features(data, label_col="y")
        t, _ = load_tuples(pairs, x, 2)
        assert values == list(model.score_pairs(t))

    def test_predict_pairs_labels(self, fitted, capsys):
        data, pairs, _, model_path = fitted
        code, out, _ = run_cli(capsys, "predict", "--model", str(model_path),
                               "--data", str(data), "--label-col", "y",
                               "--pairs", str(pairs))
        assert code == 0
        labels = [int(v) for v in out.split()]
        assert set(labels) <= {1, -1}

    def test_predict_quadruplets(self, fitted, capsys):
        data, _, quads, model_path = fitted
        code, out, _ = run_cli(capsys, "predict", "--model", str(model_path),
                               "--data", str(data), "--label-col", "y",
                               "--quads", str(quads))
        assert code == 0
        assert set(int(v) for v in out.split()) <= {1, -1}

    def test_predict_validates_tuples_once(self, fitted, capsys, monkeypatch):
        data, pairs, _, model_path = fitted
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return validate_tuples(*args, **kwargs)

        for module in (mlearn.model, mlearn.tuples):
            monkeypatch.setattr(module, "validate_tuples", counting)
        code, _, _ = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(data), "--label-col", "y",
                             "--pairs", str(pairs))
        assert code == 0 and calls == [(2, 2)]

    def test_predict_width_mismatch_exits_2(self, fitted, capsys, tmp_path):
        data, pairs, _, _ = fitted
        model_path = tmp_path / "wide.json"
        MahalanobisModel(np.eye(3), threshold=1.0).save(model_path)
        code, _, err = run_cli(capsys, "predict", "--model", str(model_path),
                               "--data", str(data), "--label-col", "y",
                               "--pairs", str(pairs))
        assert code == 2 and "width mismatch" in err

    def test_predict_requires_exactly_one_tuple_file(self, fitted, capsys):
        data, pairs, quads, model_path = fitted
        code, _, err = run_cli(capsys, "predict", "--model", str(model_path),
                               "--data", str(data), "--label-col", "y",
                               "--pairs", str(pairs), "--quads", str(quads))
        assert code == 2

    def test_standalone_calibrate_updates_model(self, fitted, capsys, tmp_path):
        data, pairs, _, model_path = fitted
        out_model = tmp_path / "recal.json"
        code, out, _ = run_cli(capsys, "calibrate", "--model", str(model_path),
                               "--data", str(data), "--label-col", "y",
                               "--pairs", str(pairs), "--metric", "f1",
                               "--out", str(out_model))
        assert code == 0
        metric, value = out.split()
        assert metric == "f1" and 0.0 <= float(value) <= 1.0
        assert json.loads(out_model.read_text())["threshold"] is not None


class TestCv:
    def test_plain_cv_table(self, tmp_path, capsys):
        data, _, _ = write_dataset(tmp_path)
        code, out, _ = run_cli(capsys, "cv", "--algo", "lfda", "--data",
                               str(data), "--label-col", "y", "--knn-k", "1",
                               "--folds", "3", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "fold test train"
        assert len(lines) == 5  # header + 3 folds + mean line
        assert lines[-1].startswith("mean ")

    def test_grid_cv_deterministic(self, tmp_path, capsys):
        data, _, _ = write_dataset(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text('{"lmnn_k": [1, 2], "knn_k": [1, 2]}')
        argv = ("cv", "--algo", "lmnn", "--data", str(data), "--label-col",
                "y", "--folds", "3", "--grid", str(grid), "--metric",
                "accuracy", "--seed", "7", "--max-iter", "15")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert len(lines) == 5  # 4 candidates + best row
        assert lines[-1].startswith("best ")

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_every_algorithm_cross_validates(self, algo, tmp_path, capsys):
        data, pairs, quads = write_dataset(tmp_path)
        inputs = {"labels": ["--label-col", "y"], "chunks": ["--chunk-col", "y"],
                  "pairs": ["--label-col", "y", "--pairs", str(pairs)],
                  "quads": ["--label-col", "y", "--quads", str(quads)]}
        # a flag for a parameter the learner lacks exits 2 (LFDA, RCA)
        cap = (["--max-iter", "10"]
               if "max_iter" in ALGORITHMS[algo]._param_defaults() else [])
        code, out, err = run_cli(capsys, "cv", "--algo", algo, "--data",
                                 str(data), *inputs[ALGORITHMS[algo].supervision],
                                 *cap)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "fold test train"
        assert [line.split()[0] for line in lines[1:]] == ["0", "1", "2", "mean"]

    def test_grid_cv_stdout_is_pinned(self, tmp_path, capsys):
        data, _, _ = write_dataset(tmp_path, seed=1, sep=1.0)
        grid = tmp_path / "grid.json"
        grid.write_text('{"max_iter": [2, 6], "knn_k": [1, 5]}')
        code, out, _ = run_cli(capsys, "cv", "--algo", "nca", "--data",
                               str(data), "--label-col", "y", "--folds", "3",
                               "--grid", str(grid), "--seed", "3")
        assert code == 0
        assert out == (
            "candidate max_iter=2,knn_k=1 folds 0.875000,1.000000,0.875000 "
            "mean 0.916667 std 0.058926\n"
            "candidate max_iter=2,knn_k=5 folds 0.875000,1.000000,1.000000 "
            "mean 0.958333 std 0.058926\n"
            "candidate max_iter=6,knn_k=1 folds 0.875000,1.000000,0.875000 "
            "mean 0.916667 std 0.058926\n"
            "candidate max_iter=6,knn_k=5 folds 0.875000,1.000000,0.750000 "
            "mean 0.875000 std 0.102062\n"
            "best max_iter=2,knn_k=5 mean 0.958333\n"
        )

    def test_labels_beyond_int64_cross_validate(self, tmp_path, capsys):
        data, _, _ = write_dataset(tmp_path)
        text = data.read_text().replace(",0\n", ",1e20\n").replace(",1\n", ",2e20\n")
        data.write_text(text)
        code, out, err = run_cli(capsys, "cv", "--algo", "nca", "--data",
                                 str(data), "--label-col", "y", "--max-iter",
                                 "5")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("mean ")

    def test_pairs_cv_roc_auc(self, tmp_path, capsys):
        data, pairs, _ = write_dataset(tmp_path)
        code, out, _ = run_cli(capsys, "cv", "--algo", "itml", "--data",
                               str(data), "--label-col", "y", "--pairs",
                               str(pairs), "--folds", "3", "--metric",
                               "roc_auc", "--max-iter", "30")
        assert code == 0
        assert out.splitlines()[0] == "fold test train"


def test_every_algorithm_declares_a_supervision_kind():
    for name, cls in ALGORITHMS.items():
        assert vars(cls).get("supervision") in SUPERVISION, name


# command -> (tuple arity, argv without --data/--label-col/tuple file)
_TUPLE_COMMANDS = {
    "fit-mmc": (2, ["fit", "--algo", "mmc", "--out", "{out}"]),
    "fit-lsml": (4, ["fit", "--algo", "lsml", "--out", "{out}"]),
    "score-pairs": (2, ["score-pairs", "--model", "{model}"]),
    "predict-pairs": (2, ["predict", "--model", "{model}"]),
    "predict-quads": (4, ["predict", "--model", "{model}"]),
    "cv-mmc": (2, ["cv", "--algo", "mmc"]),
    "cv-lsml": (4, ["cv", "--algo", "lsml"]),
}
# arity -> bad row appended after two valid rows, so it is tuple row 3
_BAD_ROWS = {
    2: {"short row": "2", "non-integer": "0,x,1", "float index": "0,1.5,1",
        "empty cell": "0,,1", "negative index": "-1,2,1",
        "out of range": "0,999,1", "bad label": "0,1,7",
        "long row": "0,1,1,5"},
    4: {"short row": "0,1", "non-integer": "0,1,x,2",
        "float index": "0,1,2,1.5", "empty cell": "0,,2,3",
        "negative index": "0,1,2,-1", "out of range": "0,1,999,2",
        "long row": "0,1,2,3,4"},
}


class TestMalformedTupleFiles:
    """Every command that reads a tuple file exits 2 on a malformed one,
    with a one-line error and no traceback."""

    @pytest.fixture
    def setup(self, tmp_path, capsys):
        data, pairs, _ = write_dataset(tmp_path)
        model = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "fit", "--algo", "mmc", "--data",
                             str(data), "--label-col", "y", "--pairs",
                             str(pairs), "--out", str(model))
        assert code == 0
        return tmp_path, data, model

    def _run(self, capsys, setup, command, text):
        tmp_path, data, model = setup
        arity, argv = _TUPLE_COMMANDS[command]
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        argv = [a.format(out=tmp_path / "out.json", model=model) for a in argv]
        flag = "--pairs" if arity == 2 else "--quads"
        code, _, err = run_cli(capsys, *argv, "--data", str(data),
                               "--label-col", "y", flag, str(bad))
        assert code == 2, err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command,case", [
        (command, case) for command, (arity, _) in _TUPLE_COMMANDS.items()
        for case in _BAD_ROWS[arity]])
    def test_bad_row_exits_2_naming_the_row(self, capsys, setup, command,
                                            case):
        arity = _TUPLE_COMMANDS[command][0]
        row = _BAD_ROWS[arity][case]
        good = "0,1,1\n0,12,-1\n" if arity == 2 else "0,1,0,12\n1,2,1,13\n"
        header = "i,j,label\n" if arity == 2 else "i,j,k,l\n"
        err = self._run(capsys, setup, command, header + good + row + "\n")
        assert "tuple row 3" in err

    @pytest.mark.parametrize("command", sorted(_TUPLE_COMMANDS))
    def test_missing_column_exits_2(self, capsys, setup, command):
        arity = _TUPLE_COMMANDS[command][0]
        text = "i,label\n0,1\n" if arity == 2 else "i,j,k\n0,1,2\n"
        err = self._run(capsys, setup, command, text)
        assert "expected columns" in err


class TestMalformedOptionsAndModels:
    """Mistyped options, mistyped grid values and malformed model JSON exit
    2 with a one-line error and no traceback."""

    def _exits_2(self, capsys, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [
        ("fit_report", 5), ("fit_report", [1]), ("n_features", None),
        ("n_components", None), ("components", [[1.0, 0.0], [0.0]]),
        ("components", "abc"), ("fit_report.final_objective", "x"),
        ("fit_report.n_iter", "x"), ("fit_report.converged", "false"),
        ("fit_report.n_iter", 2.7), ("n_components", 2.7),
        ("n_features", True)])
    def test_malformed_model_field(self, tmp_path, capsys, field, value):
        data, _, _ = write_dataset(tmp_path)
        model = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "fit", "--algo", "lfda", "--data",
                             str(data), "--label-col", "y", "--out",
                             str(model))
        assert code == 0
        doc = json.loads(model.read_text())
        parent, _, key = field.rpartition(".")
        (doc[parent] if parent else doc)[key] = value
        model.write_text(json.dumps(doc))
        self._exits_2(capsys, "transform", "--model", str(model), "--data",
                      str(data), "--label-col", "y")

    @pytest.mark.parametrize("algo,opt", [
        ("nca", "max_iter=2.5"), ("nca", "max_iter=abc"),
        ("itml", "max_iter=2.5"), ("itml", "max_iter=abc"),
        ("lmnn", "tol=abc"), ("lmnn", "margin=abc"), ("mmc", "diagonal=abc"),
        ("itml", "percentiles=5,abc"), ("itml", "percentiles=5"),
        ("itml", "percentiles=5,95,99")])
    def test_mistyped_option(self, tmp_path, capsys, algo, opt):
        data, pairs, _ = write_dataset(tmp_path)
        self._exits_2(capsys, "fit", "--algo", algo, "--data", str(data),
                      "--label-col", "y", "--pairs", str(pairs), "--opt", opt,
                      "--out", str(tmp_path / "m.json"))

    @pytest.mark.parametrize("grid", [
        '{"max_iter": [null]}', '{"tol": ["x"]}', '{"knn_k": [null]}',
        '{"knn_k": [1.5]}', '{"push_weight": ["a"]}'])
    def test_mistyped_grid_value(self, tmp_path, capsys, grid):
        data, _, _ = write_dataset(tmp_path)
        path = tmp_path / "grid.json"
        path.write_text(grid)
        self._exits_2(capsys, "cv", "--algo", "lmnn", "--data", str(data),
                      "--label-col", "y", "--grid", str(path))


class TestExitCodes:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--algo", "nca", "--data",
                               str(tmp_path / "nope.csv"), "--label-col", "y",
                               "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert err.strip().startswith("error:")

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # dissimilar pair of identical points: log of zero distance
        data = tmp_path / "X.csv"
        data.write_text("f1,f2\n0,0\n1,0\n")
        pairs = tmp_path / "P.csv"
        pairs.write_text("i,j,label\n0,1,1\n0,0,-1\n")
        code, _, err = run_cli(capsys, "fit", "--algo", "mmc", "--data",
                               str(data), "--pairs", str(pairs),
                               "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("gamma,near,far", NON_FINITE_ITML_CASES)
    def test_itml_blow_up_exits_3(self, tmp_path, capsys, gamma, near, far):
        pairs, y = labeled_pairs(seed=0, n=10)
        pairs[-1, 0], pairs[-1, 1] = near, far
        data = tmp_path / "X.csv"
        data.write_text("f1,f2,f3\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n"
            for row in pairs.reshape(-1, 3)))
        index = tmp_path / "P.csv"
        index.write_text("i,j,label\n" + "".join(
            f"{2 * p},{2 * p + 1},{lab}\n" for p, lab in enumerate(y)))
        code, _, err = run_cli(capsys, "fit", "--algo", "itml", "--data",
                               str(data), "--pairs", str(index), "--opt",
                               f"gamma={gamma!r}", "--opt", "max_iter=4",
                               "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert err.startswith("error: ITML diverged") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_success_stderr_empty(self, tmp_path, capsys):
        data, _, _ = write_dataset(tmp_path)
        code, _, err = run_cli(capsys, "fit", "--algo", "lfda", "--data",
                               str(data), "--label-col", "y",
                               "--out", str(tmp_path / "m.json"))
        assert code == 0
        assert err == ""

    def test_nonconvergence_warns_but_exits_0(self, tmp_path, capsys):
        # class signal in feature 1 drowned by noise in feature 2: two
        # iterations cannot reach the tolerance, so the cap is hit
        r = np.random.default_rng(0)
        n = 24
        y = np.array([1] * (n // 2) + [-1] * (n // 2))
        lines = ["f1,f2,y"]
        for i in range(n):
            a = float(y[i] * 1.5 + 0.5 * r.standard_normal())
            b = float(100.0 * r.standard_normal())
            lines.append(f"{a},{b},{y[i]}")
        data = tmp_path / "noise.csv"
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "fit", "--algo", "nca", "--data",
                               str(data), "--label-col", "y", "--max-iter",
                               "2", "--tol", "1e-12",
                               "--out", str(tmp_path / "m.json"))
        assert code == 0
        assert "warning" in err


class TestRoundTrip:
    @pytest.mark.parametrize("algo", ["nca", "lmnn", "lfda", "mmc", "itml",
                                      "lsml", "rca", "mlkr"])
    def test_saved_model_predicts_identically(self, algo, tmp_path, capsys):
        import warnings as w

        from mlearn import ITML, LFDA, LMNN, LSML, MLKR, MMC, NCA, RCA
        from mlearn.tuples import pairs_from_labels, quadruplets_from_labels

        r = np.random.default_rng(0)
        x = np.vstack([r.standard_normal((8, 3)) + [3, 0, 0],
                       r.standard_normal((8, 3)) - [3, 0, 0]])
        y = np.array([0] * 8 + [1] * 8)
        with w.catch_warnings():
            w.simplefilter("ignore")
            if algo in ("nca", "lmnn", "lfda"):
                est = {"nca": NCA(max_iter=10), "lmnn": LMNN(k=2, max_iter=10),
                       "lfda": LFDA()}[algo].fit(x, y)
            elif algo == "mlkr":
                est = MLKR(max_iter=10).fit(x, x[:, 0])
            elif algo == "rca":
                est = RCA().fit(x, np.repeat(np.arange(4), 4))
            elif algo in ("mmc", "itml"):
                pairs, py = pairs_from_labels(x, y, 1, seed=0)
                est = {"mmc": MMC(max_iter=20),
                       "itml": ITML(max_iter=20)}[algo].fit(pairs, py)
                est.calibrate_threshold(pairs, py, "accuracy")
            else:
                quads = quadruplets_from_labels(x, y, 1, seed=0)
                est = LSML(max_iter=20).fit(quads)
        path = tmp_path / f"{algo}.json"
        est.model_.save(path)
        loaded = MahalanobisModel.load(path)
        probe = np.random.default_rng(1).standard_normal((100, 2, 3))
        assert np.array_equal(est.model_.score_pairs(probe),
                              loaded.score_pairs(probe))
        trip = np.random.default_rng(2).standard_normal((50, 3, 3))
        assert np.array_equal(est.model_.predict_triplets(trip),
                              loaded.predict_triplets(trip))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# command -> sha256 prefix of its stdout (fit: of the model file it writes)
_PINNED_STDOUT = {
    "fit": "22020b67777662a2", "score-pairs": "e8d520c6e71059af",
    "predict-pairs": "24a80af80adb9d19", "predict-triplets": "e9913a59810ba359",
    "predict-quads": "7c78d32d064a325e", "transform": "74ace33580e70dc8",
    "calibrate": "9fd4818bd3d00f4a", "cv-nca": "ccc564df813f2b1c",
    "cv-lsml": "d67d32f4a6a0b3e0",
}


def test_every_command_stdout_is_pinned(tmp_path, capsys):
    data, pairs, _ = write_dataset(tmp_path, seed=1, sep=1.0)
    rows = range(24)
    triplets = tmp_path / "T.csv"
    triplets.write_text("i,j,k\n" + "".join(
        f"{i},{5 * i % 24},{(7 * i + 3) % 24}\n" for i in rows))
    quads = tmp_path / "Q.csv"
    quads.write_text("i,j,k,l\n" + "".join(
        f"{i},{5 * i % 24},{(7 * i + 3) % 24},{(11 * i + 1) % 24}\n"
        for i in rows))
    model = tmp_path / "m.json"
    served = ["--model", str(model), "--data", str(data), "--label-col", "y"]
    learned = ["--data", str(data), "--label-col", "y"]
    runs = {
        "fit": ["fit", "--algo", "mmc", *learned, "--pairs", str(pairs),
                "--calibrate", "accuracy", "--out", str(model)],
        "score-pairs": ["score-pairs", *served, "--pairs", str(pairs)],
        "predict-pairs": ["predict", *served, "--pairs", str(pairs)],
        "predict-triplets": ["predict", *served, "--triplets", str(triplets)],
        "predict-quads": ["predict", *served, "--quads", str(quads)],
        "transform": ["transform", *served],
        "calibrate": ["calibrate", *served, "--pairs", str(pairs), "--metric",
                      "f1", "--out", str(tmp_path / "c.json")],
        "cv-nca": ["cv", "--algo", "nca", *learned, "--max-iter", "5"],
        "cv-lsml": ["cv", "--algo", "lsml", *learned, "--quads", str(quads),
                    "--max-iter", "10"],
    }
    got = {}
    for name, argv in runs.items():
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), name
        got[name] = _digest(out + model.read_text() if name == "fit" else out)
    assert got == _PINNED_STDOUT
