"""Span tracer that times calls into corgi's public functions.

Each traced function is replaced by a wrapper at every module that holds a
reference to it, not only where it is defined: ``runtime`` imports
``block_forward`` by name and ``model`` imports ``matmul`` by name, so
patching the defining module alone would miss those calls. The package's
own code is not edited; the wrappers are installed for a traced pass and
removed afterwards, so untraced passes run the plain functions.

A span is (name, job, parent, start, end). Spans are kept in flat arrays in
memory and written out when the run ends. A span's self time is its duration
minus the time its direct children cover; calls are single-threaded and
strictly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

MODULES = ("numerics", "model", "runtime", "policy", "contribution", "saliency", "cost", "analysis", "cli")


def _matmul_counts(args, result) -> dict:
    a, b = args[0], args[1]
    out = a.shape[0] * b.shape[1]
    return {"macs": a.shape[0] * a.shape[1] * b.shape[1], "bytes": 8 * (a.size + b.size + out)}


def _matmul_nt_counts(args, result) -> dict:
    a, b = args[0], args[1]
    out = a.shape[0] * b.shape[0]
    return {"macs": out * a.shape[1], "bytes": 8 * (a.size + b.size + out)}


@dataclass(frozen=True)
class Spec:
    """One traced function: where it is defined and the span name it gets.

    ``attr`` may be ``Class.method``. ``counts`` derives per-call counters
    from the positional arguments and the result; they are computed from
    shapes, not measured.
    """

    module: str
    attr: str
    name: str
    counts: Callable | None = None


SPECS = (
    Spec("numerics", "matmul", "numerics.matmul", _matmul_counts),
    Spec("numerics", "matmul_nt", "numerics.matmul_nt", _matmul_nt_counts),
    Spec("numerics", "ensure_matrix", "numerics.ensure_matrix"),
    Spec("numerics", "softmax_rows", "numerics.softmax_rows"),
    Spec("model", "attention_rows", "model.attention_rows", lambda a, r: {"query_rows": r[0].shape[0]}),
    Spec("model", "ffn_forward", "model.ffn_forward"),
    Spec("model", "block_forward", "model.block_forward"),
    Spec("model", "run_reference", "model.run_reference"),
    # defined in model, but only the runtime engine calls it
    Spec("model", "state_checksum", "runtime.state_checksum"),
    Spec("runtime", "run_with_policy", "runtime.run_with_policy"),
    Spec("runtime", "execute_block_cached", "runtime.execute_block_cached"),
    Spec("runtime", "execute_block_corgi_plus", "runtime.execute_block_corgi_plus"),
    Spec("runtime", "partial_attention", "runtime.partial_attention", lambda a, r: {"rows": r.shape[0]}),
    Spec("runtime", "masked_merge", "runtime.masked_merge"),
    Spec("runtime", "Trace.to_json", "runtime.Trace.to_json", lambda a, r: {"bytes": len(r)}),
    Spec("runtime", "Trace.from_json", "runtime.Trace.from_json"),
    Spec("policy", "select_cached", "policy.select_cached"),
    Spec("policy", "baseline_directives", "policy.baseline_directives"),
    Spec("contribution", "contribution_scores", "contribution.contribution_scores"),
    Spec("saliency", "identify_salient", "saliency.identify_salient"),
    Spec("saliency", "kmeans_1d_two", "saliency.kmeans_1d_two"),
    Spec("analysis", "divergence", "analysis.divergence"),
    Spec("analysis", "block_ablation", "analysis.block_ablation"),
    Spec("analysis", "adjacent_step_cka", "analysis.adjacent_step_cka"),
)


class Tracer:
    """Installs wrappers, records spans per job and aggregates them per pass."""

    def __init__(self, specs=SPECS):
        self.specs = specs
        self.names = [s.name for s in specs]
        self.jobs: list[str] = []
        self._job = -1
        self._current = -1
        self._patches: list[tuple[object, str, object]] = []
        self._passes: list[dict] = []
        self._reset_spans()

    def _reset_spans(self) -> None:
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[tuple[int, int], dict[str, float]] = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name_id: int, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer._job
            if job < 0:
                return fn(*args, **kwargs)
            idx = len(tracer.span_name)
            parent = tracer._current
            tracer.span_name.append(name_id)
            tracer.span_job.append(job)
            tracer.span_parent.append(parent)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._current = idx
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._current = parent
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if counts is not None:
                acc = tracer.counts.setdefault((name_id, job), {})
                for key, value in counts(args, result).items():
                    acc[key] = acc.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every spec at every corgi module that references it.

        A spec whose function no longer exists is skipped; its span then never
        fires, which the caller's expected-span check reports.
        """
        modules = [importlib.import_module("corgi")]
        modules += [importlib.import_module(f"corgi.{m}") for m in MODULES]
        for name_id, spec in enumerate(self.specs):
            home = importlib.import_module(f"corgi.{spec.module}")
            cls_name, _, meth = spec.attr.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name_id, spec.counts))
                else:
                    patched = self._wrap(raw, name_id, spec.counts)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(home, spec.attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name_id, spec.counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def job(self, label: str):
        """Context in which wrapped calls are recorded under ``label``."""
        if label not in self.jobs:
            self.jobs.append(label)
        self._job = self.jobs.index(label)
        try:
            yield
        finally:
            self._job = -1

    def end_pass(self) -> dict:
        """Aggregate this pass's spans, keep them for write-out, start afresh.

        Returns ``{(span name, job label): {"calls", "self_s", "s", <counts>}}``.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        job = np.frombuffer(self.span_job, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_s = dur - covered

        out: dict[tuple[str, str], dict[str, float]] = {}
        for (n, j), extra in self.counts.items():
            out[(self.names[n], self.jobs[j])] = dict(extra)
        for n, j in set(zip(name.tolist(), job.tolist())):
            sel = (name == n) & (job == j)
            row = out.setdefault((self.names[n], self.jobs[j]), {})
            row["calls"] = int(sel.sum())
            row["self_s"] = float(self_s[sel].sum())
            row["s"] = float(dur[sel].sum())
        self._passes.append(
            {"name": name.copy(), "job": job.copy(), "parent": parent.copy(),
             "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
             "end": np.frombuffer(self.span_end, dtype=np.float64).copy()}
        )
        self._reset_spans()
        return out

    def write(self, path) -> None:
        """Write every traced pass's spans to one compressed ``.npz`` file."""
        arrays = {"names": np.array(self.names), "jobs": np.array(self.jobs)}
        for i, spans in enumerate(self._passes):
            for key, value in spans.items():
                arrays[f"pass{i}_{key}"] = value
        np.savez_compressed(path, **arrays)
