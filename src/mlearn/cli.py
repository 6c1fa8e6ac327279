"""`mlearn` command line: fit, transform, score-pairs, predict, calibrate, cv.

Data comes in as headered CSV (comma separator, dot decimal point). Tuple
files reference 0-based rows of the feature file via index columns
(i,j[,label] for pairs, i,j,k for triplets, i,j,k,l for quadruplets).
``fit`` and ``cv`` load what a learner fits on from its supervision kind:
class labels from --label-col (nca, lmnn, mlkr, lfda), chunklet ids from
--chunk-col (rca), labeled pairs from --pairs (mmc, itml) or quadruplets
from --quads (lsml). Models persist as JSON. Exit codes: 0 success, 2
validation or format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from .exceptions import MetricLearnError, NumericalError, ValidationError
from .model import MahalanobisModel
from .modelsel import SUPERVISION, SupervisedTask, cross_validate, grid_search
from .supervised import LFDA, LMNN, MLKR, NCA, RCA
from .tuples import validate_tuples
from .weak import ITML, LSML, MMC

ALGORITHMS = {
    "nca": NCA, "lmnn": LMNN, "mlkr": MLKR, "lfda": LFDA, "rca": RCA,
    "mmc": MMC, "itml": ITML, "lsml": LSML,
}


# -- file I/O ----------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if all(_is_number(c) for c in header):
        raise ValidationError(f"{path}: missing header row")
    return header, rows[1:]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_features(path, label_col=None, chunk_col=None):
    """Load a feature CSV; returns (X, labels, chunks).

    Features keep column order with the label/chunk columns removed. Labels
    come back as integers when every value is integral, floats otherwise.
    """
    header, rows = _read_csv(path)
    special = {}
    for name in (label_col, chunk_col):
        if name is None:
            continue
        if name not in header:
            raise ValidationError(
                f"{path}: column {name!r} not found; available columns: "
                f"{', '.join(header)}"
            )
        special[name] = header.index(name)
    feature_idx = [i for i in range(len(header)) if i not in special.values()]
    x = np.empty((len(rows), len(feature_idx)))
    raw_special = {name: [] for name in special}
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: row {r + 1} has {len(row)} cells, expected {len(header)}"
            )
        for out_c, c in enumerate(feature_idx):
            try:
                x[r, out_c] = float(row[c])
            except ValueError:
                raise ValidationError(
                    f"{path}: unparseable value {row[c]!r} at row {r + 1}, "
                    f"column {header[c]}"
                ) from None
        for name, c in special.items():
            try:
                raw_special[name].append(float(row[c]))
            except ValueError:
                raise ValidationError(
                    f"{path}: unparseable value {row[c]!r} at row {r + 1}, "
                    f"column {header[c]}"
                ) from None

    def finalize(vals):
        arr = np.asarray(vals)
        # past 2**53 a float need not be the integer written, and past int64
        # the cast would wrap distinct labels onto one
        if np.all(arr == np.round(arr)) and np.all(np.abs(arr) <= 2.0 ** 53):
            return arr.astype(int)
        return arr

    labels = finalize(raw_special[label_col]) if label_col else None
    chunks = finalize(raw_special[chunk_col]) if chunk_col else None
    return x, labels, chunks


_TUPLE_COLUMNS = {2: ["i", "j"], 3: ["i", "j", "k"], 4: ["i", "j", "k", "l"]}


def load_tuples(path, base: np.ndarray, arity: int):
    """Load an index-based tuple CSV over the feature rows of ``base``.

    Returns (tuples, labels); labels are only ever present for pairs.
    """
    header, rows = _read_csv(path)
    wanted = _TUPLE_COLUMNS[arity]
    for name in wanted:
        if name not in header:
            raise ValidationError(
                f"{path}: expected columns {','.join(wanted)}, got {','.join(header)}"
            )
    cols = [header.index(name) for name in wanted]
    label_idx = header.index("label") if arity == 2 and "label" in header else None
    indices = []
    labels = [] if label_idx is not None else None
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: tuple row {r + 1} has {len(row)} cells, expected "
                f"{len(header)}"
            )
        for c in cols:
            try:
                idx = int(row[c])
            except ValueError:
                raise ValidationError(
                    f"{path}: unparseable index {row[c]!r} at tuple row {r + 1}"
                ) from None
            if not 0 <= idx < len(base):
                raise ValidationError(
                    f"{path}: index {idx} out of range at tuple row {r + 1} "
                    f"(base has {len(base)} rows)"
                )
            indices.append(idx)
        if labels is not None:
            try:
                lab = int(row[label_idx])
            except ValueError:
                lab = None
            if lab not in (1, -1):
                raise ValidationError(
                    f"{path}: bad label {row[label_idx]!r} at tuple row {r + 1}; "
                    "labels must be 1 or -1"
                )
            labels.append(lab)
    tuples = base[np.array(indices, dtype=int).reshape(len(rows), arity)]
    return tuples, (np.array(labels) if labels is not None else None)


def _write_lines(out_path, lines):
    text = "".join(line + "\n" for line in lines)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fmt(v: float) -> str:
    return "%.17g" % v


# -- option plumbing ---------------------------------------------------------

def _coerce_option(value: str):
    if "," in value:
        return tuple(_coerce_option(v) for v in value.split(","))
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _resolve_param(algo: str, estimator, name: str) -> str:
    valid = estimator._param_defaults()
    if name in valid:
        return name
    prefix = algo + "_"
    if name.startswith(prefix) and name[len(prefix):] in valid:
        return name[len(prefix):]
    raise ValidationError(
        f"unknown option {name!r} for algorithm {algo}; valid options: "
        f"{sorted(valid)}"
    )


def build_estimator(args):
    algo = args.algo
    if algo not in ALGORITHMS:
        raise ValidationError(
            f"unknown algorithm {algo!r}; expected one of {sorted(ALGORITHMS)}"
        )
    est = ALGORITHMS[algo]()
    params = {}
    for flag, name in (("n_components", "n_components"), ("max_iter", "max_iter"),
                       ("tol", "tol"), ("seed", "seed")):
        value = getattr(args, flag, None)
        if value is not None and name in est._param_defaults():
            params[name] = value
    for opt in getattr(args, "opt", None) or []:
        if "=" not in opt:
            raise ValidationError(f"options must look like key=value, got {opt!r}")
        name, _, raw = opt.partition("=")
        params[_resolve_param(algo, est, name)] = _coerce_option(raw)
    est.set_params(**params)
    return est


def _fit_inputs(est, args) -> tuple:
    """(x, y) for ``est.fit``, loaded as its supervision kind needs; y is
    None for quadruplets."""
    kind = est.supervision
    flag, source = {
        "labels": ("--label-col", args.label_col),
        "chunks": ("--chunk-col", args.chunk_col),
        "pairs": ("--pairs", args.pairs),
        "quads": ("--quads", args.quads),
    }[kind]
    if source is None:
        raise ValidationError(f"{flag} is required for {args.algo}")
    if kind == "chunks":
        x, _, chunks = load_features(args.data, label_col=args.label_col,
                                     chunk_col=source)
        return x, chunks
    x, y, _ = load_features(args.data, label_col=args.label_col)
    if kind == "labels":
        return x, y
    tuples, y = load_tuples(source, x, SUPERVISION[kind].arity)
    if kind == "pairs" and y is None:
        raise ValidationError("pairs file must include a label column")
    return tuples, y


# -- commands ----------------------------------------------------------------

def cmd_fit(args) -> int:
    est = build_estimator(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x, y = _fit_inputs(est, args)
        if y is None:
            est.fit(x)
        else:
            est.fit(x, y)
        if args.calibrate is not None:
            if est.supervision != "pairs":
                raise ValidationError("--calibrate only applies to pair learners")
            est.calibrate_threshold(x, y, args.calibrate)
    if not est.model_.fit_report.converged:
        print("warning: solver stopped before reaching its tolerance",
              file=sys.stderr)
    est.model_.save(args.out)
    return 0


def cmd_transform(args) -> int:
    model = MahalanobisModel.load(args.model)
    x, _, _ = load_features(args.data, label_col=args.label_col)
    z = model.transform(x)
    lines = [",".join(f"c{i}" for i in range(z.shape[1]))]
    lines += [",".join(_fmt(v) for v in row) for row in z]
    _write_lines(args.out, lines)
    return 0


def _load_prediction_tuples(args, model) -> np.ndarray:
    """The one tuple file given, checked once against the model's width."""
    x, _, _ = load_features(args.data, label_col=args.label_col)
    given = [(a, f) for a, f in ((2, args.pairs), (3, args.triplets),
                                 (4, args.quads)) if f is not None]
    if len(given) != 1:
        raise ValidationError(
            "exactly one of --pairs, --triplets, --quads is required"
        )
    arity, path = given[0]
    tuples, labels = load_tuples(path, x, arity)
    return validate_tuples(tuples, arity, model.n_features, labels=labels)


def cmd_score_pairs(args) -> int:
    model = MahalanobisModel.load(args.model)
    x, _, _ = load_features(args.data, label_col=args.label_col)
    pairs, _ = load_tuples(args.pairs, x, 2)
    distances = model.score_pairs(pairs)
    _write_lines(args.out, [_fmt(d) for d in distances])
    return 0


def cmd_predict(args) -> int:
    model = MahalanobisModel.load(args.model)
    labels = model._predict(_load_prediction_tuples(args, model))
    _write_lines(args.out, [str(int(v)) for v in labels])
    return 0


def cmd_calibrate(args) -> int:
    from .calibration import calibrate_threshold

    model = MahalanobisModel.load(args.model)
    x, _, _ = load_features(args.data, label_col=args.label_col)
    pairs, y = load_tuples(args.pairs, x, 2)
    if y is None:
        raise ValidationError("pairs file must include a label column")
    result = calibrate_threshold(model, pairs, y, args.metric)
    model.threshold = result.threshold
    model.save(args.out or args.model)
    print(f"{result.metric_name} {_fmt(result.achieved_score)}")
    return 0


def _params_str(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def cmd_cv(args) -> int:
    est = build_estimator(args)
    task = SupervisedTask(*_fit_inputs(est, args), est, knn_k=args.knn_k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if args.grid is not None:
            with open(args.grid, encoding="utf-8") as fh:
                try:
                    grid = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"invalid grid JSON: {exc}") from exc
            if not isinstance(grid, dict):
                raise ValidationError("grid file must hold a {name: [values]} object")
            resolved = {}
            for name, values in grid.items():
                if not isinstance(values, list):
                    raise ValidationError(f"grid entry {name!r} must be a list")
                key = name if name == "knn_k" else _resolve_param(
                    args.algo, task.estimator, name)
                resolved[key] = values
            best, table = grid_search(task, resolved, args.folds, args.seed,
                                      args.metric)
            for row in table:
                folds = ",".join("%.6f" % s for s in row["test_scores"])
                print(f"candidate {_params_str(row['params'])} folds {folds} "
                      f"mean {row['mean']:.6f} std {row['std']:.6f}")
            print(f"best {_params_str(best['params'])} mean {best['mean']:.6f}")
        else:
            result = cross_validate(task, args.folds, args.seed, args.metric)
            print("fold test train")
            for i, (t, tr) in enumerate(zip(result.test_scores,
                                            result.train_scores)):
                print(f"{i} {t:.6f} {tr:.6f}")
            print(f"mean {result.mean:.6f} std {result.std:.6f}")
    return 0


# -- argument parsing --------------------------------------------------------

def _add_common_data_flags(p):
    p.add_argument("--data", required=True, help="feature CSV with header row")
    p.add_argument("--label-col", default=None, help="label column name")


def _add_learner_flags(p):
    """The learner and what it fits on, shared by fit and cv."""
    p.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    _add_common_data_flags(p)
    p.add_argument("--chunk-col", default=None)
    p.add_argument("--pairs", default=None, help="labeled pair index CSV")
    p.add_argument("--quads", default=None, help="quadruplet index CSV")
    p.add_argument("--n-components", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--opt", action="append", default=[],
                   help="algorithm option key=value (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlearn", description="Mahalanobis metric learning toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train a metric and write a model JSON")
    _add_learner_flags(p)
    p.add_argument("--calibrate", choices=("accuracy", "f1"), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="project data through a saved model")
    p.add_argument("--model", required=True)
    _add_common_data_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("score-pairs", help="distances for a pair file")
    p.add_argument("--model", required=True)
    _add_common_data_flags(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score_pairs)

    p = sub.add_parser("predict", help="predict +/-1 for pairs/triplets/quads")
    p.add_argument("--model", required=True)
    _add_common_data_flags(p)
    p.add_argument("--pairs", default=None)
    p.add_argument("--triplets", default=None)
    p.add_argument("--quads", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("calibrate", help="recalibrate a saved model's threshold")
    p.add_argument("--model", required=True)
    _add_common_data_flags(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--metric", choices=("accuracy", "f1"), default="accuracy")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("cv", help="cross-validate, optionally over a grid")
    _add_learner_flags(p)
    p.add_argument("--knn-k", type=int, default=3)
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--metric", choices=("accuracy", "f1", "roc_auc"),
                   default="accuracy")
    p.add_argument("--grid", default=None, help="JSON file {name: [values]}")
    p.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {str(exc).splitlines()[0]}", file=sys.stderr)
        return 3
    except (MetricLearnError, ValueError, OSError, KeyError) as exc:
        print(f"error: {str(exc).splitlines()[0]}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
