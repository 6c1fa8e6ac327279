"""Layered benchmark for mlearn.

Usage (from the repository root)::

    python3 bench/run.py --workload weak-fit --seed 1 --seconds 28 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``supervised-cv``, ``weak-fit``, ``serve-tuples`` and ``cli-pipeline``.

The harness is single-process and closed-loop: one caller, each call waiting
for the previous one. It builds the workload's inputs from ``--seed`` several
times (``setup_s`` is the median time of one set-up), then repeats full passes
while another one fits in ``--seconds`` and reports medians over passes. A
pass's ``wall_s`` is the time spent inside the program's calls; the harness's
checks are untimed. Both ``setup_s`` and ``wall_s`` are scaled by a
calibration kernel timed next to them (see ``CALIB_REF_S``), so that drift in
the machine's speed does not read as a change in the program.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes: the untraced ones give
the per-stage numbers (``fit_s``, ``score_pairs_per_s``, ...), the traced ones
give per-layer calls, self time and work counts, and their difference is the
tracing overhead. Layers are named after the package modules.

Every pass checks the program's outputs (finite values, PSD metrics,
``score_pairs`` against ``get_metric`` and a batched formula, +/-1
predictions, brute-force k-NN, rank-sum ROC-AUC and a sweep-based calibration
reference, CLI exit codes and stdout shape) and that repeated passes give
byte-identical outputs. For the seeds recorded in ``reference.json`` the
quality numbers must match the recorded ones to ``QUALITY_TOL`` and output
digests are counted as changed or unchanged; digests are reported, not gated.

Seeds 1-10 are the development seeds. Seed 1000003 is held out for
confirming a claim and should not be used while tuning a change.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment. ``--quick`` shrinks every workload to a smoke-test size.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up is timed in at least 3 and at most 25 samples, stopping once 1 s is
# spent; a sample repeats a cheap set-up until it lasts about SETUP_SAMPLE_S
SETUP_SAMPLES = (3, 25)
SETUP_BUDGET_S = 1.0
SETUP_SAMPLE_S = 0.05
QUALITY_TOL = 0.02
# Time the calibration kernel takes on the machine that defined the unit: a
# 2-vCPU Xeon VM. End-to-end times are scaled by CALIB_REF_S over the kernel's
# time measured next to them, so they read as seconds on that machine however
# fast this one is running at the moment.
CALIB_REF_S = 0.04
CONFIRM_SEED = 1000003
CLI_IMPORT_REPEATS = 3
QUALITY_NAMES = ("knn_accuracy", "pair_roc_auc", "quad_accuracy")
# the workload on which each layer does most of its work; a traced run of it
# must see the layer busy, or a missed binding would read as "free"
MAIN_LOAD = {
    "linalg": "weak-fit", "optimize": "weak-fit", "weak": "weak-fit",
    "supervised": "supervised-cv", "modelsel": "supervised-cv",
    "model": "serve-tuples", "calibration": "serve-tuples",
    "scoring": "serve-tuples", "tuples": "serve-tuples",
    "cli": "cli-pipeline",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import mlearn from this checkout's source tree, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mlearn", "__init__.py")):
        fail(f"no mlearn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import mlearn
    if os.path.dirname(os.path.dirname(os.path.abspath(mlearn.__file__))) != SRC:
        fail(f"imported mlearn from {mlearn.__file__}, not from {SRC}")


def calibrate() -> float:
    """Seconds this machine takes right now for fixed work that runs no mlearn code.

    It mixes interpreter work, small numpy calls and large array traffic, as
    the workloads do, so its time follows the machine's speed as that drifts
    with other load on the host.
    """
    import numpy as np
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(30000):
        acc += (i * 7) % 13 * 0.5
        table[i & 255] = acc
    a = np.arange(400.0).reshape(20, 20)
    for _ in range(2000):
        a = (a @ a.T) * 1e-3 + np.eye(20)
    b = np.random.default_rng(0).standard_normal(300_000)
    for _ in range(10):
        np.sort(np.sqrt(np.abs(b * 1.5 - 0.3))[:50_000])
    return time.perf_counter() - start


def metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# -- environment ----------------------------------------------------------------

def _blas_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def environment(args) -> dict:
    import numpy as np
    cpu = platform.processor() or None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "git_commit": _git_commit(),
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "seconds": args.seconds, "trace": args.trace,
    }


# -- metrics --------------------------------------------------------------------

def median(values):
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den):
    return float(num) / den if den else 0.0


def stage_metrics(rec) -> dict:
    s, w = rec.stage_s, rec.work
    m = {
        "fit_s": s["fit"], "cv_s": s["cv"], "calibrate_s": s["calibrate"],
        "score_pairs_per_s": _ratio(w["score_pairs"], s["score_pairs"]),
        "predict_tuples_per_s": _ratio(w["predict_tuples"], s["predict_tuples"]),
        "sample_tuples_per_s": _ratio(w["sample"], s["sample"]),
        "knn_queries_per_s": _ratio(w["knn"], s["knn"]),
    }
    for cmd in ("fit", "score-pairs", "predict", "transform", "cv"):
        m[f"cli.{cmd}.s"] = s[f"cli.{cmd}"]
    m["cli_s"] = sum(v for k, v in m.items() if k.startswith("cli."))
    return m


def quality_components(rec) -> dict:
    """Mean of each quality score this workload produced; 0 where it has none."""
    return {name: statistics.mean(rec.quality[name]) if rec.quality.get(name) else 0.0
            for name in QUALITY_NAMES}


def layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer calls, self time and work counts from one traced pass."""
    spans, counts = tracer.summary(), tracer.counts

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def self_s(span):
        return spans.get(span, {}).get("self_s", 0.0)

    def total_s(span):
        return spans.get(span, {}).get("total_s", 0.0)

    m = {}
    for fn in ("sym_eig", "psd_project", "psd_sqrt", "gen_sym_eig"):
        m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        m[f"linalg.{fn}.self_s"] = self_s(f"linalg.{fn}")
    m["linalg.sym_eig.max_d"] = counts["linalg.sym_eig.max_d"]
    m["linalg.sym_eig.self_share"] = _ratio(self_s("linalg.sym_eig"), wall_s)

    solve = "optimize.backtracking_solve"
    m[f"{solve}.calls"] = calls(solve)
    m[f"{solve}.self_s"] = self_s(solve)
    m["optimize.iterations"] = counts[f"{solve}.iterations"]
    m["optimize.fun_evals"] = counts[f"{solve}.fun_evals"]
    m["optimize.converged_frac"] = _ratio(counts[f"{solve}.converged"], calls(solve))
    for learner in ("NCA", "LMNN", "MLKR", "MMC", "MMC_diag", "LSML"):
        m[f"optimize.{learner}.evals_per_iter"] = _ratio(
            counts[f"optimize.{learner}.fun_evals"], counts[f"optimize.{learner}.iterations"])

    for fn in ("nca_objective", "lmnn_objective", "mlkr_objective",
               "pairwise_sq_dists", "weighted_outer_sum"):
        m[f"supervised.{fn}.calls"] = calls(f"supervised.{fn}")
        m[f"supervised.{fn}.self_s"] = self_s(f"supervised.{fn}")
    m["supervised.lmnn_targets.self_s"] = self_s("supervised.lmnn_targets")
    for learner in ("NCA", "LMNN", "MLKR", "LFDA", "RCA"):
        m[f"supervised.{learner}.fit_s"] = total_s(f"supervised.{learner}.fit")

    for learner in ("MMC", "MMC_diag", "ITML", "LSML"):
        m[f"weak.{learner}.fit_s"] = total_s(f"weak.{learner}.fit")
    m["weak.ITML.cycles"] = counts["weak.ITML.fit.cycles"]
    for fn in ("lsml_objective", "mmc_diag_objective"):
        m[f"weak.{fn}.calls"] = calls(f"weak.{fn}")
        m[f"weak.{fn}.self_s"] = self_s(f"weak.{fn}")

    mm = "model.MahalanobisModel"
    m["model.score_pairs.calls"] = calls(f"{mm}.score_pairs")
    m["model.score_pairs.pairs"] = counts[f"{mm}.score_pairs.items"]
    m["model.score_pairs.self_s"] = self_s(f"{mm}.score_pairs")
    for fn in ("predict_triplets", "predict_quadruplets"):
        m[f"model.{fn}.tuples"] = counts[f"{mm}.{fn}.items"]
        m[f"model.{fn}.self_s"] = self_s(f"{mm}.{fn}")
    m["model.transform.rows"] = counts[f"{mm}.transform.items"]
    m["model.transform.self_s"] = self_s(f"{mm}.transform")
    for fn in ("save", "load"):
        m[f"model.{fn}.self_s"] = self_s(f"{mm}.{fn}")
        m[f"model.{fn}.bytes"] = counts[f"{mm}.{fn}.bytes"]

    m["calibration.calibrate_threshold.calls"] = calls("calibration.calibrate_threshold")
    m["calibration.calibrate_threshold.self_s"] = self_s("calibration.calibrate_threshold")
    m["calibration.calibrate_threshold.candidates"] = counts[
        "calibration.candidate_thresholds.items"]
    m["scoring.accuracy_score.calls"] = calls("scoring.accuracy_score")
    m["scoring.f1_score.calls"] = calls("scoring.f1_score")
    m["scoring.roc_auc_score.calls"] = calls("scoring.roc_auc_score")
    m["scoring.roc_auc_score.self_s"] = self_s("scoring.roc_auc_score")
    m["scoring.roc_auc_score.peak_mb"] = counts[
        "scoring.roc_auc_score.max_peak_bytes"] / 2 ** 20

    for fn in ("pairs_from_labels", "triplets_from_labels", "quadruplets_from_labels"):
        m[f"tuples.{fn}.tuples"] = counts[f"tuples.{fn}.items"]
        m[f"tuples.{fn}.self_s"] = self_s(f"tuples.{fn}")
    m["tuples.validate_tuples.calls"] = calls("tuples.validate_tuples")
    m["tuples.validate_tuples.self_s"] = self_s("tuples.validate_tuples")
    m["rng.draws"] = tracer.rng_draws

    m["modelsel.kfold_split.self_s"] = self_s("modelsel.kfold_split")
    m["modelsel.knn_predict.calls"] = calls("modelsel.knn_predict")
    m["modelsel.knn_predict.queries"] = counts["modelsel.knn_predict.items"]
    m["modelsel.knn_predict.self_s"] = self_s("modelsel.knn_predict")
    m["modelsel.cross_validate.self_s"] = self_s("modelsel.cross_validate")
    m["modelsel.grid_search.candidates"] = counts["modelsel.grid_search.items"]
    m["modelsel.grid_search.self_s"] = self_s("modelsel.grid_search")

    for fn in ("load_features", "load_tuples"):
        m[f"cli.{fn}.rows"] = counts[f"cli.{fn}.items"]
        m[f"cli.{fn}.self_s"] = self_s(f"cli.{fn}")

    from tracer import LAYERS
    for layer in LAYERS:
        rows = [row for name, row in spans.items() if name.startswith(layer + ".")]
        m[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        m[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
    return m


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# -- passes ---------------------------------------------------------------------

def run_pass(workload, traced: bool):
    from tracer import Tracer
    from workloads import PassRecord
    rec = PassRecord()
    if not traced:
        guarded(rec, workload.run)
        return rec, None
    with Tracer() as tracer:
        unbound = tracer.unbound()
        rec.verify(not unbound, f"tracer left call sites unwrapped: {unbound}")
        guarded(rec, workload.run)
        pass_wall_s = rec.wall_s
        guarded(rec, workload.run_in_process)
    rec.wall_s = pass_wall_s
    return rec, tracer


def guarded(rec, step) -> None:
    """Run a pass step; a crash in the harness's own checks is a failed operation."""
    from workloads import PassAborted
    try:
        step(rec)
    except PassAborted:
        pass
    except Exception as exc:
        rec.verify(False, f"{type(exc).__name__}: {exc}")


def compare_reference(args, first, post) -> dict:
    """Check quality against the recorded seed; count digests changed/unchanged."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh).get(args.workload, {}).get(str(args.seed))
    if args.quick or ref is None:
        return {"digests.changed": 0, "digests.unchanged": 0}
    for name, value in quality_components(first).items():
        post.verify(abs(value - ref["quality"][name]) <= QUALITY_TOL,
                   f"{name} {value:.6f} drifted from reference {ref['quality'][name]:.6f}")
    same = sum(ref["digests"].get(k) == v for k, v in first.digests.items())
    return {"digests.changed": len(first.digests) - same, "digests.unchanged": same}


@dataclass
class Measurement:
    setup_times: list       # seconds per set-up, one entry per sample
    setup_calib_s: float    # calibration time around the set-up phase
    plain: list             # (PassRecord, None) per untraced pass
    traced: list            # (PassRecord, Tracer) per traced pass
    calibs: list            # calibration times, one before each round and one after
    import_s: float


def measure(args) -> Measurement:
    from workloads import WORKLOADS, time_cli_import
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        calib_before = calibrate()
        setup_times, spent = [], 0.0
        while len(setup_times) < SETUP_SAMPLES[1] and (
                len(setup_times) < SETUP_SAMPLES[0] or spent < SETUP_BUDGET_S):
            repeats = max(1, int(SETUP_SAMPLE_S / min(setup_times))) if setup_times else 1
            start = time.perf_counter()
            for _ in range(repeats):
                workload = WORKLOADS[args.workload](args.seed, args.quick, workdir)
                workload.setup()
            elapsed = time.perf_counter() - start
            setup_times.append(elapsed / repeats)
            spent += elapsed
            if args.quick:
                break
        calibs = [calibrate()]
        setup_calib_s = 0.5 * (calib_before + calibs[0])
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            plain.append(run_pass(workload, traced=False))
            if args.trace:
                traced.append(run_pass(workload, traced=True))
            calibs.append(calibrate())
            # stop before a further round would overrun the measuring time
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
        import_s = 0.0
        if args.trace and args.workload == "cli-pipeline" and not args.quick:
            import_s = time_cli_import(CLI_IMPORT_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Measurement(setup_times, setup_calib_s, plain, traced, calibs, import_s)


def summarize(args, m: Measurement):
    from workloads import PassRecord
    plain, traced = m.plain, m.traced
    records = [rec for rec, _ in plain + traced]
    first = records[0]
    post = PassRecord()
    for rec in records[1:]:
        changed = sorted(k for k, v in rec.digests.items() if first.digests.get(k) != v)
        post.verify(not changed and rec.digests.keys() == first.digests.keys(),
                   f"outputs differ between passes: {changed}")
    digests = compare_reference(args, first, post)
    # each pass is scaled by the calibrations taken just before and after it
    scales = [2.0 * CALIB_REF_S / (a + b) for a, b in zip(m.calibs, m.calibs[1:])]
    e2e = {
        "setup_s": median(m.setup_times) * CALIB_REF_S / m.setup_calib_s,
        "wall_s": median([rec.wall_s * k for (rec, _), k in zip(plain, scales)]),
        "peak_rss_mb": peak_rss_mb(),
    }
    layer = {}
    if args.trace:
        per_pass = [layer_metrics(tr, rec.wall_s) for rec, tr in traced]
        layer = {k: median([p[k] for p in per_pass]) for k in per_pass[0]}
        stages = [stage_metrics(rec) for rec, _ in plain]
        layer.update({k: median([s[k] for s in stages]) for k in stages[0]})
        layer.update(quality_components(first))
        layer.update(digests)
        layer["cli.import_s"] = m.import_s
        layer["setup_raw_s"] = median(m.setup_times)
        layer["wall_raw_s"] = median([rec.wall_s for rec, _ in plain])
        layer["calib_s"] = median(m.calibs)
        layer["trace.overhead_s"] = (median([rec.wall_s for rec, _ in traced])
                                     - layer["wall_raw_s"])
        for name, load in MAIN_LOAD.items():
            if load == args.workload:
                busy = layer.get(f"{name}.calls", 0) > 0 and layer.get(f"{name}.self_s", 0) > 0
                post.verify(busy, f"layer {name} recorded no work on its main workload")
    records.append(post)
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    e2e["ok_frac"] = 1.0 - failed / attempted
    errors = [e for r in records for e in r.errors]
    return attempted, failed, errors, e2e, layer, traced


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("supervised-cv", "weak-fit", "serve-tuples", "cli-pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="smoke-test sizes")
    p.add_argument("--json-out", default=None,
                   help="also write the full result, spans included, to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    spec = metric_spec()
    env = environment(args)
    with warnings.catch_warnings():
        # iteration caps are deliberate; the solvers' warnings would only add noise
        warnings.simplefilter("ignore")
        measured = measure(args)
    attempted, failed, errors, e2e, layer, traced = summarize(args, measured)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else e2e
    missing = sorted(set(wanted) - set(source))
    if missing:
        fail(f"metrics not produced: {missing}")
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in wanted.items()}
    for line in errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.json_out:
        spans = traced[-1][1].summary() if traced else {}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            walls = {"plain": [r.wall_s for r, _ in measured.plain],
                     "traced": [r.wall_s for r, _ in measured.traced]}
            json.dump({"environment": env, "result": result, "errors": errors,
                       "setup_s": measured.setup_times, "calib_s": measured.calibs,
                       "pass_wall_s": walls,
                       "end_to_end": e2e, "per_layer": layer, "spans": spans}, fh,
                      indent=1, sort_keys=True)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
