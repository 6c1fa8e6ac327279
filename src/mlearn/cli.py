"""`mlearn` command line: fit, transform, score-pairs, predict, calibrate, cv.

Data comes in as headered CSV (comma separator, dot decimal point). Tuple
files reference 0-based rows of the feature file via index columns
(i,j[,label] for pairs, i,j,k for triplets, i,j,k,l for quadruplets). Each
loader reads the header with :mod:`csv`, parses the body with one
``np.loadtxt`` call and checks index range and labels on whole arrays. A file
that pass does not take (numpy refuses a cell, the body is empty or holds
more than printable ASCII, a check fails) is read again by the checked
reader, the only source of loader errors: it checks every row's width, then
parses cell by cell and raises on the first fault. A command imports only
what it runs: the one learner's module, ``modelsel`` for ``cv``, ``model``
for the serving commands. ``fit`` and ``cv`` load what a learner fits on
through the flag its supervision kind names in :data:`~mlearn.tuples.KINDS`:
class labels from --label-col (nca, lmnn, mlkr, lfda), chunklet ids from
--chunk-col (rca), labeled pairs from --pairs (mmc, itml) or quadruplets
from --quads (lsml). The flag of another kind, and ``fit --calibrate`` for
a learner that is not a pair learner, are refused before any data is read;
--label-col is taken by every learner, as it also names a column to drop.
The serving commands load the model, the features and their one tuple file
in one place and call only the model's public methods, which do the
remaining checks. Models persist as JSON. Exit codes: 0 success, 2
validation or format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import re
import sys
import warnings

import numpy as np

from .exceptions import MetricLearnError, NumericalError, ValidationError
from .tuples import KINDS

# learner name -> the module that defines its class, the name upper-cased;
# a command imports only the module of the learner it runs
ALGORITHMS = {"nca": "supervised", "lmnn": "supervised", "mlkr": "supervised",
              "lfda": "supervised", "rca": "supervised",
              "mmc": "weak", "itml": "weak", "lsml": "weak"}


def estimator_class(algo: str) -> type:
    """The learner class that ``--algo algo`` names."""
    module = importlib.import_module(f"{__package__}.{ALGORITHMS[algo]}")
    return getattr(module, algo.upper())


# -- file I/O ----------------------------------------------------------------

# The characters a body may hold for numpy to parse it: printable ASCII, tab
# and line ends. numpy's parser misreads some code points past U+FFFF (and
# can crash on them) and takes U+001C-U+001F for blanks, where float() and
# int() refuse them.
_PLAIN = re.compile(r"[\t\n\r\x20-\x7e]*")


def _one_pass(path, dtype):
    """(header, body) of a headered CSV, its body parsed by one
    ``np.loadtxt`` call into a ``dtype`` array; None wherever the checked
    reader must decide instead: no header, an empty body, a character
    outside ``_PLAIN``, a cell numpy refuses, or a body whose width is not
    the header's."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            first = next((r for r in csv.reader(fh) if r), None)
            body = fh.read()
        except (ValueError, csv.Error):
            return None
    if first is None or not body.strip() or not _PLAIN.fullmatch(body):
        return None
    header = [c.strip() for c in first]
    if all(_is_number(c) for c in header):
        return None
    try:
        cells = np.loadtxt(io.StringIO(body), delimiter=",", dtype=dtype,
                           ndmin=2, comments=None)
    except ValueError:
        return None
    return (header, cells) if cells.shape[1] == len(header) else None


def _read_csv(path, row_name="row"):
    """(header, rows) of a headered CSV whose every row is as wide as its
    header; a fault names its ``row_name`` (``row``, ``tuple row``) N."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if all(_is_number(c) for c in header):
        raise ValidationError(f"{path}: missing header row")
    for r, row in enumerate(rows[1:], 1):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: {row_name} {r} has {len(row)} cells, expected {len(header)}"
            )
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
    The body is parsed in one pass; a file that pass does not take is read
    again by the checked reader, which raises on its first fault.
    """
    table = _one_pass(path, float)
    if table is None or any(name is not None and name not in table[0]
                            for name in (label_col, chunk_col)):
        table = _checked_features(path, label_col, chunk_col)
    header, cells = table

    def column(name):
        if name is None:
            return None
        arr = cells[:, header.index(name)].copy()
        # past 2**53 a float need not be the integer written, and past int64
        # the cast would wrap distinct labels onto one
        if np.all(arr == np.round(arr)) and np.all(np.abs(arr) <= 2.0 ** 53):
            return arr.astype(int)
        return arr

    special = [header.index(n) for n in (label_col, chunk_col) if n is not None]
    features = [c for c in range(len(header)) if c not in special]
    return cells[:, features], column(label_col), column(chunk_col)


def _checked_features(path, label_col, chunk_col):
    """(header, cells) of a feature CSV, parsed cell by cell in header
    order, so a fault names the first bad cell of a row, whatever its
    column."""
    header, rows = _read_csv(path)
    for name in (label_col, chunk_col):
        if name is not None and name not in header:
            raise ValidationError(
                f"{path}: column {name!r} not found; available columns: "
                f"{', '.join(header)}"
            )
    cells = np.empty((len(rows), len(header)))
    for r, row in enumerate(rows):
        try:
            cells[r] = [float(cell) for cell in row]
        except ValueError:
            c = next(c for c, cell in enumerate(row) if not _is_number(cell))
            raise ValidationError(
                f"{path}: unparseable value {row[c]!r} at row {r + 1}, "
                f"column {header[c]}"
            ) from None
    return header, cells


def load_tuples(path, base: np.ndarray, arity: int):
    """Load an index-based tuple CSV over the feature rows of ``base``.

    Returns (tuples, labels); labels are only ever present for pairs. The
    body is parsed in one pass and its indices and labels checked as whole
    arrays; a file that fails there is read again by the checked reader,
    which raises on its first fault.
    """
    wanted = "ijkl"[:arity]
    table = _one_pass(path, int)
    if table is not None and all(name in table[0] for name in wanted):
        header, body = table
        idx = body[:, [header.index(name) for name in wanted]]
        labels = (body[:, header.index("label")]
                  if arity == 2 and "label" in header else None)
        if np.all((idx >= 0) & (idx < len(base))) and (
                labels is None or np.all((labels == 1) | (labels == -1))):
            return base[idx], (None if labels is None else labels.copy())
    return _checked_tuples(path, base, arity)


def _checked_tuples(path, base, arity):
    """load_tuples cell by cell: a fault names its tuple row, and within a
    row the first bad index in i, j, k, l order, then the label."""
    header, rows = _read_csv(path, "tuple row")
    wanted = "ijkl"[:arity]
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
    est = estimator_class(algo)()
    params = {}
    for name in ("n_components", "max_iter", "tol"):
        value = getattr(args, name, None)
        if value is not None:
            params[_resolve_param(algo, est, name)] = value
    # --seed always has a value, which cv also uses for its folds
    if "seed" in est._param_defaults():
        params["seed"] = args.seed
    for opt in getattr(args, "opt", None) or []:
        if "=" not in opt:
            raise ValidationError(f"options must look like key=value, got {opt!r}")
        name, _, raw = opt.partition("=")
        params[_resolve_param(algo, est, name)] = _coerce_option(raw)
    est.set_params(**params)
    return est


def _fit_inputs(est, args) -> tuple:
    """(x, y) for ``est.fit``, loaded through its kind's flag: the column of
    y for points, the tuple file for tuples. The flag of another kind is
    refused, but for --label-col, which also names a column to drop."""
    arity, flag = KINDS[est.supervision]
    given = {f: getattr(args, f[2:].replace("-", "_")) for _, f in KINDS.values()}
    for other, value in given.items():
        if value is not None and other not in (flag, "--label-col"):
            raise ValidationError(f"{other} does not apply to {args.algo}")
    source = given[flag]
    if source is None:
        raise ValidationError(f"{flag} is required for {args.algo}")
    chunk_col = source if flag == "--chunk-col" else None
    x, labels, chunks = load_features(args.data, label_col=args.label_col,
                                      chunk_col=chunk_col)
    if arity is not None:
        return load_tuples(source, x, arity)
    return x, labels if chunk_col is None else chunks


# -- commands ----------------------------------------------------------------

def cmd_fit(args) -> int:
    est = build_estimator(args)
    if args.calibrate is not None and KINDS[est.supervision][0] != 2:
        raise ValidationError("--calibrate only applies to pair learners")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x, y = _fit_inputs(est, args)
        est.fit(x, y)
        if args.calibrate is not None:
            est.calibrate_threshold(x, y, args.calibrate)
    if not est.model_.fit_report.converged:
        print("warning: solver stopped before reaching its tolerance",
              file=sys.stderr)
    est.model_.save(args.out)
    return 0


def _serving_inputs(args):
    """(model, x, tuples, labels) for a serving command: the saved model, the
    feature rows, and the tuples and pair labels of its one tuple file (None
    for transform, which reads none). The model's methods validate them."""
    from .model import MahalanobisModel

    model = MahalanobisModel.load(args.model)
    x, _, _ = load_features(args.data, label_col=args.label_col)
    if args.command == "transform":
        return model, x, None, None
    given = [(arity, path) for arity, path in enumerate(
        (args.pairs, args.triplets, args.quads), 2) if path is not None]
    if len(given) != 1:
        raise ValidationError(
            "exactly one of --pairs, --triplets, --quads is required"
        )
    arity, path = given[0]
    return (model, x, *load_tuples(path, x, arity))


def cmd_transform(args) -> int:
    model, x, _, _ = _serving_inputs(args)
    z = model.transform(x)
    lines = [",".join(f"c{i}" for i in range(z.shape[1]))]
    lines += [",".join(_fmt(v) for v in row) for row in z]
    _write_lines(args.out, lines)
    return 0


def cmd_score_pairs(args) -> int:
    model, _, pairs, _ = _serving_inputs(args)
    _write_lines(args.out, [_fmt(d) for d in model.score_pairs(pairs)])
    return 0


def cmd_predict(args) -> int:
    model, _, tuples, _ = _serving_inputs(args)
    predict = {2: model.predict_pairs, 3: model.predict_triplets,
               4: model.predict_quadruplets}[tuples.shape[1]]
    _write_lines(args.out, [str(int(v)) for v in predict(tuples)])
    return 0


def cmd_calibrate(args) -> int:
    from .calibration import calibrate_threshold

    model, _, pairs, y = _serving_inputs(args)
    result = calibrate_threshold(model, pairs, y, args.metric)
    model.threshold = result.threshold
    model.save(args.out or args.model)
    print(f"{result.metric_name} {_fmt(result.achieved_score)}")
    return 0


def _params_str(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def cmd_cv(args) -> int:
    from .modelsel import SupervisedTask, cross_validate, grid_search

    est = build_estimator(args)
    task = SupervisedTask(*_fit_inputs(est, args), est, knn_k=args.knn_k)
    # checked here, not by kfold_split, so the message names the flag
    n = len(task.x)
    what = "rows" if KINDS[est.supervision][0] is None else "tuples"
    if not 2 <= args.folds <= n:
        raise ValidationError(
            f"--folds must lie in [2, {n}] for {n} {what}, got {args.folds}")
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
    p.set_defaults(func=cmd_score_pairs, triplets=None, quads=None)

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
    p.set_defaults(func=cmd_calibrate, triplets=None, quads=None)

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
