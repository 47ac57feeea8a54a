"""Per-layer tracing for traced benchmark runs, installed from outside the package.

Modules of the package import functions by name (``noise`` calls its own
``overlap`` binding, ``teleport`` its own ``project_photon_number``), so a
wrapper on the home module alone misses those callers.  `Tracer.install`
rebinds each target under every name a loaded package module holds it by, and
methods on their class; `uninstall` puts the originals back.

Spans (name, start, end, parent) stay in memory until `layer_metrics` folds
them into the per-layer numbers of one pass.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

PACKAGE = "ecs_teleport"

# "time in" metrics: union of the spans of the named functions (a span nested
# inside another span of the same group is not counted twice)
TIME_GROUPS = {
    "algebra.project_s": ("algebra.project_photon_number", "algebra.project_photon_number_op"),
    "algebra.inner_product_s": ("algebra.inner_product",),
    "algebra.gram_s": ("algebra.CoherentOperator.gram",),
    "algebra.dedupe_s": ("algebra.dedupe", "algebra.CoherentOperator.dedupe"),
    "algebra.fidelity_s": ("algebra.pure_fidelity", "algebra.operator_fidelity"),
    "teleport.fold_s": ("teleport.fold_network",),
    "teleport.correct_s": ("teleport.bob_correction",),
    "noise.apply_loss_s": ("noise.apply_loss",),
    "noise.closed_form_s": (
        "noise.channel_fidelity",
        "noise.teleported_fidelity_exact",
        "noise.teleported_fidelity_closed_form",
    ),
    "channels.build_s": ("channels.build_input", "channels.build_channel"),
    "fock.encode_s": ("fock.encode",),
    "fock.bs_s": ("fock.bs_unitary",),
    "fock.measure_s": ("fock.measure_number",),
    "verify.run_all_s": ("verify.run_all",),
}
# number of spans of the named functions
SPAN_COUNTS = {
    "algebra.project_calls": TIME_GROUPS["algebra.project_s"],
    "noise.closed_form_calls": TIME_GROUPS["noise.closed_form_s"],
    "fock.bs_calls": TIME_GROUPS["fock.bs_s"],
}
# span duration minus the durations of its direct child spans
SELF_TIMES = {
    "teleport.enumerate_self_s": "teleport.enumerate_outcomes",
    "cli.self_s": "cli.main",
}
# calls made through count-only wrappers
CALL_COUNTS = {
    "algebra.overlap_calls": "algebra.overlap",
    "algebra.label_overlap_calls": "algebra.label_overlap",
}
MAXIMA = ("algebra.dict_k_max", "fock.tensor_mb_max")
RECORDS = ("teleport.records_tried", "teleport.records_kept")

# every per-layer metric of a pass except trace.overhead_pct, with its unit
LAYER_UNITS = {
    **{name: "s" for name in TIME_GROUPS},
    **{name: "count" for name in SPAN_COUNTS},
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALL_COUNTS},
    "algebra.dict_k_max": "count",
    "fock.tensor_mb_max": "MB",
    "teleport.records_tried": "count",
    "teleport.records_kept": "count",
    "teleport.kept_ratio": "ratio",
}


def _short(target: str) -> str:
    """'ecs_teleport.algebra:CoherentOperator.gram' -> 'algebra.CoherentOperator.gram'."""
    module, qualname = target.split(":")
    return module.split(".", 1)[1] + "." + qualname


def _dict_size(obj) -> int:
    if isinstance(obj, tuple) and obj:
        obj = obj[0]  # projections return (state, probability)
    for attr in ("terms", "labels"):
        items = getattr(obj, attr, None)
        if items is not None:
            return len(items)
    return 0


class Tracer:
    """Span and call-count recorder for one process."""

    def __init__(self, span_targets, count_targets):
        self.span_targets = list(span_targets)
        self.count_targets = list(count_targets)
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: Counter = Counter()
        self.maxima = {name: 0.0 for name in MAXIMA}
        self.records = {name: 0 for name in RECORDS}
        self.active = False
        self.aliases: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for target in self.span_targets:
            self._patch(target, self._span_wrapper)
        for target in self.count_targets:
            self._patch(target, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target: str, make_wrapper) -> None:
        module_name, qualname = target.split(":")
        name = _short(target)
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        if not inspect.isfunction(original):
            self.missing.append(target)
            return
        wrapper = make_wrapper(name, original)
        if path:  # a method: callers look it up on its class
            bindings = [(owner, attr)]
        else:
            bindings = [
                (module, binding)
                for module_key, module in sorted(sys.modules.items())
                if module is not None
                and (module_key == PACKAGE or module_key.startswith(PACKAGE + "."))
                for binding, value in list(vars(module).items())
                if value is original
            ]
        for obj, binding in bindings:
            self._patches.append((obj, binding, original))
            setattr(obj, binding, wrapper)
        self.aliases[name] = [f"{getattr(obj, '__name__', obj)}.{b}" for obj, b in bindings]

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observer(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observer(self, name: str):
        if name.startswith("algebra."):
            def observe(args, kwargs, result):
                k = max(_dict_size(result), _dict_size(args[0]) if args else 0)
                if k > self.maxima["algebra.dict_k_max"]:
                    self.maxima["algebra.dict_k_max"] = k
            return observe
        if name in ("fock.encode", "fock.bs_unitary"):
            def observe(args, kwargs, result):
                mb = result.data.nbytes / 2**20
                if mb > self.maxima["fock.tensor_mb_max"]:
                    self.maxima["fock.tensor_mb_max"] = mb
            return observe
        if name == "teleport.enumerate_outcomes":
            def observe(args, kwargs, result):
                n_max = kwargs["n_max"] if "n_max" in kwargs else args[2]
                self.records["teleport.records_tried"] += 2 * n_max + 1
                self.records["teleport.records_kept"] += len(result.outcomes)
            return observe
        return None

    # -- folding spans into metrics ----------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.maxima = {name: 0.0 for name in MAXIMA}
        self.records = {name: 0 for name in RECORDS}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of everything recorded since the last reset."""
        spans = self.spans
        durations = [end - start for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += durations[i]
        out: dict[str, float] = {}
        for metric, names in TIME_GROUPS.items():
            group = set(names)
            total = 0.0
            for i, (name, _, _, parent) in enumerate(spans):
                if name not in group:
                    continue
                while parent >= 0 and spans[parent][0] not in group:
                    parent = spans[parent][3]
                if parent < 0:  # outermost span of its group
                    total += durations[i]
            out[metric] = total
        for metric, names in SPAN_COUNTS.items():
            group = set(names)
            out[metric] = sum(1 for s in spans if s[0] in group)
        for metric, name in SELF_TIMES.items():
            out[metric] = sum(
                durations[i] - child_time[i] for i, s in enumerate(spans) if s[0] == name
            )
        for metric, name in CALL_COUNTS.items():
            out[metric] = self.calls[name]
        out.update(self.maxima)
        out.update(self.records)
        return out


def merge(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    """Combine the metrics of two disjoint pieces of work."""
    return {k: max(a[k], b[k]) if k in MAXIMA else a[k] + b[k] for k in a}


def summarize(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over traced passes of one case list, and the
    counts that did not repeat exactly across them."""
    for metrics in passes:
        tried = metrics["teleport.records_tried"]
        metrics["teleport.kept_ratio"] = metrics["teleport.records_kept"] / tried if tried else 0.0
    # counts are taken from the first pass; `unstable` flags any that moved
    medians = {
        k: passes[0][k] if unit == "count" else statistics.median(p[k] for p in passes)
        for k, unit in LAYER_UNITS.items()
    }
    unstable = [
        k for k, unit in LAYER_UNITS.items()
        if unit == "count" and len({p[k] for p in passes}) > 1
    ]
    return medians, unstable
