"""Span tracer that wraps mlearn's public functions from outside the package.

Nothing inside ``src/mlearn`` knows about tracing. :meth:`Tracer.install`
replaces every public function and public method defined in a layer module
with a wrapper that records a span (name, parent span, start, end), then
rebinds every module attribute in the package that still points at an
original. That second step matters because the package imports functions by
name (``from .linalg import sym_eig`` in ``weak`` and ``model``,
``from .calibration import calibrate_threshold`` in ``base``): patching only
the defining module would leave those call sites untraced, and their layer
would read as free.

Spans stay in memory; :meth:`Tracer.summary` turns them into per-span calls,
total time and self time (duration minus the time its child spans cover) once
the traced pass is over. :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# the package's modules, one benchmark layer each
LAYERS = ("linalg", "optimize", "supervised", "weak", "model", "calibration",
          "scoring", "tuples", "modelsel", "cli")


def _len_result(args, kwargs, result):
    return {"items": len(result)}


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


# work counts taken after a call returns, keyed by span name
_COUNTERS = {
    "linalg.sym_eig": lambda a, k, r: {"max_d": len(r.eigenvalues)},
    "model.MahalanobisModel.score_pairs": lambda a, k, r: {"items": len(r)},
    "model.MahalanobisModel.predict_triplets": _len_result,
    "model.MahalanobisModel.predict_quadruplets": _len_result,
    "model.MahalanobisModel.transform": _len_result,
    "model.MahalanobisModel.save": lambda a, k, r: _file_bytes(a[1]),
    "model.MahalanobisModel.load": lambda a, k, r: _file_bytes(a[1]),
    "calibration.candidate_thresholds": _len_result,
    "tuples.pairs_from_labels": lambda a, k, r: {"items": len(r[0])},
    "tuples.triplets_from_labels": _len_result,
    "tuples.quadruplets_from_labels": _len_result,
    "modelsel.knn_predict": _len_result,
    "modelsel.grid_search": lambda a, k, r: {"items": len(r[1])},
    "cli.load_features": lambda a, k, r: {"items": len(r[0])},
    "cli.load_tuples": lambda a, k, r: {"items": len(r[0])},
    "weak.ITML.fit": lambda a, k, r: {"cycles": r.fit_report_.n_iter},
}


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "mlearn" or name.startswith("mlearn.")]


def _span_name(name, args):
    # the two MMC variants share one fit method but do unrelated work
    if name == "weak.MMC.fit" and getattr(args[0], "diagonal", False):
        return "weak.MMC_diag.fit"
    return name


class Tracer:
    """Records spans around mlearn's public functions while installed."""

    def __init__(self):
        self.spans = []            # [name, parent index or -1, start, end]
        self.counts = defaultdict(float)
        self.rng_draws = 0
        self._stack = []
        self._patches = []         # (owner, attribute, original value)
        self._wrappers = {}        # original function -> wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"mlearn.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patch(module, attr, self._wrappers[value])
        from mlearn.rng import SplitMix64
        draw = SplitMix64.next_uint64

        def counted_draw(rng):
            self.rng_draws += 1
            return draw(rng)

        self._patch(SplitMix64, "next_uint64", counted_draw)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def unbound(self) -> list:
        """Package attributes that still point at an unwrapped original."""
        return [f"{module.__name__}.{attr}" for module in _package_modules()
                for attr, value in vars(module).items()
                if inspect.isfunction(value) and value in self._wrappers]

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member):
                self._patch(cls, name, self._wrap(member, f"{prefix}.{name}"))
            elif isinstance(member, classmethod):
                wrapped = self._wrap(member.__func__, f"{prefix}.{name}")
                self._patch(cls, name, classmethod(wrapped))

    def _wrap(self, fn, name: str):
        if name == "optimize.backtracking_solve":
            return self._wrap_solver(fn, name)
        if name == "scoring.roc_auc_score":
            return self._wrap_peak_memory(fn, name)
        counter = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _span_name(name, args)
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer._count(span, key, value)
            return result

        return wrapper

    def _wrap_solver(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(fun_grad, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return fun_grad(x)

            learner = tracer._enclosing_fit()
            idx = tracer._open(name)
            try:
                x, report = fn(counted, *args, **kwargs)
            finally:
                tracer._close(idx)
            for key in (name, f"optimize.{learner}"):
                tracer._count(key, "iterations", report.n_iter)
                tracer._count(key, "fun_evals", evals)
                tracer._count(key, "converged", float(report.converged))
            return x, report

        return wrapper

    def _wrap_peak_memory(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                peak = tracemalloc.get_traced_memory()[1] - base
                if started:
                    tracemalloc.stop()
                tracer._count(name, "max_peak_bytes", peak)

        return wrapper

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _count(self, span: str, key: str, value) -> None:
        full = f"{span}.{key}"
        if key.startswith("max_"):
            self.counts[full] = max(self.counts[full], value)
        else:
            self.counts[full] += value

    def _enclosing_fit(self) -> str:
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if name.endswith(".fit"):
                return name.split(".")[-2]
        return "unknown"

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Span name -> {"calls", "total_s", "self_s"} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, _parent, start, end) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return dict(out)
