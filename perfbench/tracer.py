"""Span tracing for the benchmark's traced run.

The tracer wraps public crowdreg functions at the module attributes the
harness (or the benchmark's own bandit loop) calls them through, so no code
under ``src/`` changes.  Each wrapped call records one span: name, start,
end, the op it belongs to and its nesting depth below the op.  Spans live in
flat arrays in memory and are written out once, at the end of the run.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; uninstall puts every original object back.  A
target that no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

# (span name, module, attribute path).  The module is the one whose
# attribute the caller looks up at call time, which for most functions is
# ``crowdreg.harness`` because the harness imports them by name.
TARGETS = (
    ("model.fit_variational", "crowdreg.harness", "fit_variational"),
    ("model.with_label", "crowdreg.model", "CrowdDataset.with_label"),
    ("model.dataset_build", "crowdreg.harness", "CrowdDataset"),
    ("active.select_instance", "crowdreg.harness", "select_instance"),
    ("bandit.select_annotator", "crowdreg.bandit", "select_annotator"),
    ("bandit.record_outcome", "crowdreg.bandit", "record_outcome"),
    ("bandit.initialize_state", "crowdreg.bandit", "initialize_state"),
    ("features.normalize", "crowdreg.harness", "normalize"),
    ("features.fit_centers", "crowdreg.harness", "fit_centers"),
    ("features.transform", "crowdreg.harness", "transform"),
    ("crowd.make_annotators", "crowdreg.harness", "make_annotators"),
    ("crowd.label_value", "crowdreg.harness", "label_value"),
    ("mechanism.settle", "crowdreg.harness", "settle"),
    ("harness.load_csv", "crowdreg.harness", "load_csv"),
    ("harness.rmse", "crowdreg.harness", "rmse"),
    ("harness.emit_records", "crowdreg.harness", "emit_records"),
)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# Layers whose share of op time is reported; the harness layer is reported
# as its self time instead.
SHARE_LAYERS = ("model", "features", "active", "bandit", "crowd", "mechanism")


def _count_fit(counts, args, kwargs, result, before):
    report = result[2]
    counts["model.sweeps"] += report.iterations
    counts["model.unconverged"] += not report.converged


def _count_candidates(counts, args, kwargs, result, before):
    counts["active.candidates"] += len(args[0])


def _count_rows(counts, args, kwargs, result, before):
    rows = np.asarray(args[0])
    counts["features.rows_transformed"] += rows.shape[0] if rows.ndim == 2 else 1


def _count_discards(counts, args, kwargs, result, before):
    counts["bandit.outcomes"] += 1
    counts["bandit.discards"] += args[0].discarded - before


def _count_bytes(counts, args, kwargs, result, before):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["harness.emit_records.bytes"] += os.path.getsize(path)


# name -> (value taken before the call or None, counter run after it)
_COUNTERS = {
    "model.fit_variational": (None, _count_fit),
    "active.select_instance": (None, _count_candidates),
    "features.transform": (None, _count_rows),
    "bandit.record_outcome": (lambda args: args[0].discarded, _count_discards),
    "harness.emit_records": (None, _count_bytes),
}


class Tracer:
    """Records spans for the calls listed in :data:`TARGETS`."""

    def __init__(self):
        self.spans = {name: (array("d"), array("d"), array("l"), array("b"))
                      for name in SPAN_NAMES + ("op",)}
        self.counts = dict.fromkeys(
            ("model.sweeps", "model.unconverged", "active.candidates",
             "features.rows_transformed", "bandit.outcomes",
             "bandit.discards", "harness.emit_records.bytes"), 0)
        self.absent = []
        self._saved = []
        self._op = -1
        self._op_start = 0.0
        self._depth = 0

    def install(self) -> None:
        """Replace every present target with a span-recording wrapper."""
        self.absent = []
        for name, module, path in TARGETS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in parents:
                    owner = getattr(owner, part)
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Put back every original object replaced by :meth:`install`."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_op(self, index: int) -> None:
        self._op = index
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        starts, ends, ops, depths = self.spans["op"]
        starts.append(self._op_start)
        ends.append(end)
        ops.append(self._op)
        depths.append(0)
        self._op = -1

    def _wrap(self, name, fn):
        starts, ends, ops, depths = self.spans[name]
        pre, post = _COUNTERS.get(name, (None, None))
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            depth = tracer._depth + 1
            before = pre(args) if pre is not None else None
            tracer._depth = depth
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._depth = depth - 1
                starts.append(start)
                ends.append(end)
                ops.append(tracer._op)
                depths.append(depth)
            if post is not None:
                post(tracer.counts, args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        """Write every span to one ``.npz`` file (name index into ``names``)."""
        names = list(self.spans)
        columns = [[], [], [], [], []]
        for k, name in enumerate(names):
            starts, ends, ops, depths = self.spans[name]
            columns[0].append(np.full(len(starts), k, dtype=np.int16))
            for col, values in zip(columns[1:], (starts, ends, ops, depths)):
                col.append(np.frombuffer(values, dtype=values.typecode))
        np.savez(path, names=np.array(names),
                 **{key: np.concatenate(col) for key, col in
                    zip(("name", "start", "end", "op", "depth"), columns)})

    def metrics(self) -> dict:
        """Per-layer metrics over the traced ops, as ``name -> (value, unit)``."""
        op_starts, op_ends, _, _ = self.spans["op"]
        n_ops = max(len(op_starts), 1)
        op_total = float(np.sum(np.frombuffer(op_ends) - np.frombuffer(op_starts)))
        out = {}
        child_total = 0.0
        layer_busy = dict.fromkeys(SHARE_LAYERS, 0.0)
        for name in SPAN_NAMES:
            starts, ends, _, depths = self.spans[name]
            dur = np.frombuffer(ends) - np.frombuffer(starts)
            top = float(dur[np.frombuffer(depths, dtype=np.int8) == 1].sum())
            child_total += top
            layer = name.split(".", 1)[0]
            if layer in layer_busy:
                layer_busy[layer] += top
            out[f"{name}.calls"] = (len(dur) / n_ops, "count/op")
            out[f"{name}.busy_s"] = (float(dur.sum()) / n_ops, "s/op")
            out[f"{name}.call_us_p50"] = (
                float(np.median(dur)) * 1e6 if len(dur) else 0.0, "us")
        c = self.counts
        fits = len(self.spans["model.fit_variational"][0])
        fit_busy = out["model.fit_variational.busy_s"][0] * n_ops
        select_busy = out["active.select_instance.busy_s"][0] * n_ops
        out["model.sweeps"] = (c["model.sweeps"] / n_ops, "count/op")
        out["model.sweeps_per_fit"] = (c["model.sweeps"] / max(fits, 1), "count")
        out["model.sweep_us"] = (fit_busy / max(c["model.sweeps"], 1) * 1e6, "us")
        out["model.unconverged_ratio"] = (c["model.unconverged"] / max(fits, 1),
                                          "ratio")
        out["active.candidates"] = (c["active.candidates"] / n_ops, "count/op")
        out["active.candidate_ns"] = (
            select_busy / max(c["active.candidates"], 1) * 1e9, "ns")
        out["bandit.discard_ratio"] = (
            c["bandit.discards"] / max(c["bandit.outcomes"], 1), "ratio")
        out["features.rows_transformed"] = (
            c["features.rows_transformed"] / n_ops, "count/op")
        out["harness.emit_records.bytes"] = (
            c["harness.emit_records.bytes"] / n_ops, "B/op")
        self_s = op_total - child_total
        out["harness.self_s"] = (self_s / n_ops, "s/op")
        out["harness.self_ratio"] = (self_s / op_total if op_total else 0.0,
                                     "ratio")
        for layer, busy in layer_busy.items():
            out[f"{layer}.share"] = (busy / op_total if op_total else 0.0,
                                     "ratio")
        out["trace.absent_targets"] = (len(self.absent), "count")
        return out
