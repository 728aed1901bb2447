"""Span tracing around hopscope's public functions, installed from outside.

The tracer never edits the library. It replaces each traced function with
a timing wrapper under every name a hopscope module binds it to, so a call
is seen whichever module makes it: ``train_model`` reaches
``model_forward`` through ``hopscope.training.model_forward``, the CLI
reaches ``mat_power_support`` through ``hopscope.cli.mat_power_support``.
Spans (name, start, end, parent) stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass
from importlib import import_module

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top level
    count: float = 0.0  # work done inside the span, where the layer defines one
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# span name -> (defining module, function, count taken at the boundary).
# The edge-list readers are traced so that their time is not counted as CLI self time.
TARGETS = {
    "training.train_model": ("hopscope.training", "train_model", lambda a, k, r: r.epochs_run[0]),
    "models.build_aggregation": ("hopscope.models", "build_aggregation", None),
    "models.model_forward": ("hopscope.models", "model_forward", None),
    "models.model_backward": ("hopscope.models", "model_backward", None),
    "hops.mat_power_count": ("hopscope.hops", "mat_power_count", None),
    "hops.mat_power_support": (
        "hopscope.hops", "mat_power_support", lambda a, k, r: max(int(_arg(a, k, 1, "k")) - 1, 0)
    ),
    "hops.verify_loop_lemma": ("hopscope.hops", "verify_loop_lemma", None),
    "hops.support_periodicity": ("hopscope.hops", "support_periodicity", None),
    "graphs.from_edge_list": ("hopscope.graphs", "from_edge_list", lambda a, k, r: int(r.values.sum())),
    "graphs.parse_edge_list": ("hopscope.graphs", "parse_edge_list", None),
    "graphs.read_edge_list": ("hopscope.graphs", "read_edge_list", None),
    "graphs.transpose": ("hopscope.graphs", "transpose", None),
    "graphs.symmetrize": ("hopscope.graphs", "symmetrize", None),
    "graphs.add_self_loops": ("hopscope.graphs", "add_self_loops", None),
    "normalization.normalize": ("hopscope.normalization", "normalize", lambda a, k, r: r.zero_row_count),
    "datasets.save_dataset": ("hopscope.datasets", "save_dataset", None),
    "datasets.load_dataset": ("hopscope.datasets", "load_dataset", None),
    "cli.main": ("hopscope.cli", "main", None),
    "cli.analyze_loops": ("hopscope.cli", "cmd_analyze_loops", None),
    "cli.density_curve": ("hopscope.cli", "cmd_density_curve", None),
}

TRANSFORMS = ("graphs.transpose", "graphs.symmetrize", "graphs.add_self_loops")

UNITS = {
    "models.model_forward.calls": "count",
    "models.model_forward.s": "s",
    "models.model_backward.calls": "count",
    "models.model_backward.s": "s",
    "models.forwards_per_epoch": "count/epoch",
    "models.spmm_floor_s": "s",
    "models.floor_share": "ratio",
    "models.build_aggregation.calls": "count",
    "models.build_aggregation.s": "s",
    "models.aggregations_per_cell": "count/cell",
    "hops.mat_power_count.calls": "count",
    "hops.mat_power_count.s": "s",
    "hops.mat_power_support.calls": "count",
    "hops.mat_power_support.s": "s",
    "hops.support_products": "count",
    "hops.verify_loop_lemma.s": "s",
    "hops.support_periodicity.s": "s",
    "hops.overflow_errors": "count",
    "training.train_model.calls": "count",
    "training.train_model.s": "s",
    "training.self_s": "s",
    "training.epochs": "count",
    "graphs.from_edge_list.s": "s",
    "graphs.transform.s": "s",
    "graphs.edges_per_s": "1/s",
    "datasets.save_dataset.s": "s",
    "datasets.load_dataset.s": "s",
    "cli.analyze_loops.s": "s",
    "cli.density_curve.s": "s",
    "cli.self_s": "s",
    "normalization.normalize.calls": "count",
    "normalization.normalize.s": "s",
    "normalization.zero_rows": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Context manager: wraps every target on entry and restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.count = float(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def __enter__(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hopscope" or key.startswith("hopscope."))]
        for name, (mod_name, attr, counter) in TARGETS.items():
            original = getattr(import_module(mod_name), attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], cells: int) -> dict[str, float]:
    """The per-layer figures the benchmark reports, from one traced pass.

    ``cells`` is the number of (architecture, k) cells the pass trained,
    the base of ``models.aggregations_per_cell``.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, field="duration"):
        idx = by_name.get(name, ())
        if field == "self":
            return float(sum(selfs[i] for i in idx))
        if field == "count":
            return float(sum(spans[i].count for i in idx))
        return float(sum(spans[i].duration for i in idx))

    epochs = total("training.train_model", "count")
    edges = total("graphs.from_edge_list", "count")
    edge_s = total("graphs.from_edge_list")
    out = {
        "models.model_forward.calls": calls("models.model_forward"),
        "models.model_forward.s": total("models.model_forward"),
        "models.model_backward.calls": calls("models.model_backward"),
        "models.model_backward.s": total("models.model_backward"),
        # model_backward recomputes the forward; each run's final test forward is not per epoch
        "models.forwards_per_epoch": (
            (calls("models.model_forward") + calls("models.model_backward") - calls("training.train_model"))
            / epochs if epochs else 0.0
        ),
        "models.build_aggregation.calls": calls("models.build_aggregation"),
        "models.build_aggregation.s": total("models.build_aggregation"),
        "models.aggregations_per_cell": calls("models.build_aggregation") / cells if cells else 0.0,
        "hops.mat_power_count.calls": calls("hops.mat_power_count"),
        "hops.mat_power_count.s": total("hops.mat_power_count"),
        "hops.mat_power_support.calls": calls("hops.mat_power_support"),
        "hops.mat_power_support.s": total("hops.mat_power_support"),
        "hops.support_products": total("hops.mat_power_support", "count"),
        "hops.verify_loop_lemma.s": total("hops.verify_loop_lemma"),
        "hops.support_periodicity.s": total("hops.support_periodicity"),
        "hops.overflow_errors": sum(
            1 for i in by_name.get("hops.mat_power_count", ()) if spans[i].error == "CountOverflowError"
        ),
        "training.train_model.calls": calls("training.train_model"),
        "training.train_model.s": total("training.train_model"),
        "training.self_s": total("training.train_model", "self"),
        "training.epochs": epochs,
        "graphs.from_edge_list.s": edge_s,
        "graphs.transform.s": sum(total(n) for n in TRANSFORMS),
        "graphs.edges_per_s": edges / edge_s if edge_s else 0.0,
        "datasets.save_dataset.s": total("datasets.save_dataset"),
        "datasets.load_dataset.s": total("datasets.load_dataset"),
        "cli.analyze_loops.s": total("cli.analyze_loops"),
        "cli.density_curve.s": total("cli.density_curve"),
        "cli.self_s": sum(total(n, "self") for n in ("cli.main", "cli.analyze_loops", "cli.density_curve")),
        "normalization.normalize.calls": calls("normalization.normalize"),
        "normalization.normalize.s": total("normalization.normalize"),
        "normalization.zero_rows": total("normalization.normalize", "count"),
    }
    return {k: float(v) for k, v in out.items()}


def spmm_floor(plan, rng: np.random.Generator) -> float:
    """Seconds the raw CSR products of the planned epochs take.

    ``plan`` lists ``(csr, csr_transpose, widths, epochs)`` per training
    run: one ``Â @ H`` per aggregation layer (``widths`` are the layer
    input widths) and one ``Âᵀ @ G`` per aggregation layer above the first,
    which is the least sparse work a forward plus backward can do.
    """
    total = 0.0
    for a, at, widths, epochs in plan:
        hs = [rng.standard_normal((a.shape[1], w)) for w in widths]
        t0 = time.perf_counter()
        for _ in range(epochs):
            for h in hs:
                a @ h
            for h in hs[1:]:
                at @ h
        total += time.perf_counter() - t0
    return total
