"""Record the benchmark's reference outputs and its baseline.

Run from the repository root::

    python3 bench/record.py reference   # rewrites bench/reference.json
    python3 bench/record.py baseline    # rewrites bench/baseline.json

``reference`` runs one untraced pass of every workload for each seed in
``SEEDS`` and stores its quality scores and output digests; ``run.py`` checks
later passes against them. Record it only on a commit whose behaviour is the
intended reference.

``baseline`` runs ``run.py`` once per workload untraced and once traced on
development seed 1, each in a fresh process, and stores the metrics, the
environment, per-pass wall times, the slowest spans and the known hot spots.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEEDS = list(range(11)) + [run.CONFIRM_SEED]
BASELINE_SEED = 1
HOT_SPOTS = {
    "weak-fit": ["linalg.sym_eig.self_share", "linalg.sym_eig.calls", "linalg.sym_eig.self_s",
                 "optimize.MMC.evals_per_iter", "optimize.MMC_diag.evals_per_iter",
                 "optimize.LSML.evals_per_iter", "optimize.converged_frac",
                 "weak.ITML.cycles"],
    "supervised-cv": ["optimize.NCA.evals_per_iter", "optimize.LMNN.evals_per_iter",
                      "optimize.MLKR.evals_per_iter", "supervised.lmnn_objective.self_s",
                      "supervised.LMNN.fit_s"],
    "serve-tuples": ["model.score_pairs.pairs", "model.score_pairs.self_s",
                     "calibration.calibrate_threshold.calls",
                     "calibration.calibrate_threshold.self_s",
                     "calibration.calibrate_threshold.candidates",
                     "scoring.accuracy_score.calls", "scoring.f1_score.calls",
                     "scoring.roc_auc_score.peak_mb", "tuples.pairs_from_labels.self_s",
                     "tuples.triplets_from_labels.self_s",
                     "tuples.quadruplets_from_labels.self_s", "rng.draws"],
    "cli-pipeline": ["cli.import_s", "cli.fit.s", "cli.cv.s", "cli.load_tuples.self_s"],
}


def record_reference() -> None:
    run.load_package()
    from workloads import WORKLOADS, PassRecord
    reference = {}
    workdir = os.path.join(run.ROOT, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, cls in WORKLOADS.items():
            reference[name] = {}
            for seed in SEEDS:
                workload = cls(seed, False, workdir)
                workload.setup()
                rec = PassRecord()
                run.guarded(rec, workload.run)
                if rec.failed:
                    sys.exit(f"{name} seed {seed} failed: {rec.errors}")
                reference[name][str(seed)] = {"quality": run.quality_components(rec),
                                              "digests": rec.digests}
                print(name, seed, reference[name][str(seed)]["quality"], flush=True)
    shutil.rmtree(workdir)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_baseline() -> None:
    out_path = os.path.join(run.ROOT, ".bench_work", "baseline-run.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    baseline = {"seed": BASELINE_SEED, "seconds": seconds, "workloads": {}}
    for name in ("supervised-cv", "weak-fit", "serve-tuples", "cli-pipeline"):
        entry = {}
        for trace in (0, 1):
            subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                            "--seed", str(BASELINE_SEED), "--seconds", str(seconds),
                            "--trace", str(trace), "--json-out", out_path],
                           check=True, cwd=run.ROOT, stdout=subprocess.DEVNULL)
            with open(out_path, encoding="utf-8") as fh:
                got = json.load(fh)
            if not got["result"]["correct"]:
                sys.exit(f"{name} trace {trace} was not correct: {got['errors']}")
            baseline["environment"] = got["environment"]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in got["result"]["metrics"].items()}
            entry[f"pass_wall_s_trace{trace}"] = got["pass_wall_s"]
            entry["setup_s_all"] = got["setup_s"]
            if trace:
                top = sorted(got["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:10]
                entry["top_spans_by_self_s"] = dict(top)
        entry["hot_spots"] = {k: entry["per_layer"][k] for k in HOT_SPOTS[name]}
        baseline["workloads"][name] = entry
        print(name, entry["end_to_end"], flush=True)
    os.remove(out_path)
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        record_reference()
    elif sys.argv[1:] == ["baseline"]:
        record_baseline()
    else:
        sys.exit("usage: python3 bench/record.py reference|baseline")
