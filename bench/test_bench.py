"""Smoke test of the benchmark harness at quick size, so it cannot rot.

Runs every workload traced (which also runs its untraced passes, output
checks and the per-layer self-check) and one workload untraced, in this
process. Needs nothing beyond pytest.
"""

import importlib.util
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("bench_run", os.path.join(HERE, "run.py"))
bench_run = importlib.util.module_from_spec(_spec)
sys.modules["bench_run"] = bench_run
_spec.loader.exec_module(bench_run)


@pytest.mark.parametrize("workload, trace", [
    ("supervised-cv", 0),
    ("supervised-cv", 1),
    ("weak-fit", 1),
    ("serve-tuples", 1),
    ("cli-pipeline", 1),
])
def test_quick_workload(workload, trace, capsys):
    code = bench_run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                           "--trace", str(trace), "--quick"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == list(bench_run.metric_spec()[kind])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
