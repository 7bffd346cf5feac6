"""In-memory span tracer that wraps the public functions of each layer.

Every target function is wrapped at every module attribute of the package
that binds it: `from .core import norm` binds `norm` in `certify` and `lab`
as well, and calls through any of those names are recorded.  A class target
records its construction (`__init__` and its classmethod constructors).

A span is (name, start, end, parent).  Spans stay in memory while the
workload runs and are written out once at the end.  Self time of a span is
its duration minus the durations of its direct children, which nest inside
it because the workload runs on one thread.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

PACKAGE = "latticeineq"
LAYERS = ("cli", "fileio", "core", "certify", "lab", "search", "fuzzing", "kernels")

TARGETS = {
    "cli": ("main",),
    "fileio": ("load_input", "dumps", "report_to_dict", "report_csv_row",
               "summary_to_dict", "trace_to_dict"),
    "core": ("SparseFunction", "partial_difference", "axis_variation", "norm",
             "max_projection", "entropy", "pointwise_line_bound", "indicator"),
    "certify": ("check_gn", "check_sobolev", "check_isoperimetric", "check_log_sobolev",
                "check_bl", "check_log_bl", "check_loomis_whitney",
                "set_counts", "is_scaled_indicator", "classify_counts", "projection_chain"),
    "lab": ("enumerate_rigidity", "classify_from_stats", "iso_ratio_from_counts", "gn_ratio"),
    "search": ("anneal_sets",),
    "fuzzing": ("fuzz", "run_instance"),
    "kernels": ("subset_stats", "subset_boundary", "unpack"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer in LAYERS for fn in TARGETS[layer])


class Tracer:
    """Owns the spans, the counters and the patched bindings.

    `install()` patches, `uninstall()` restores every original.  Spans are
    recorded only while `enabled` is true, so the harness can call into the
    program (validators) without adding spans.
    """

    def __init__(self):
        self.enabled = False
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.counters = {"cells": 0, "bytes_in": 0, "bytes_out": 0,
                         "reports": 0, "certified": 0}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name_id: int, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _hooks(self):
        c = self.counters

        def cells(args, _):
            c["cells"] += args[0].bit_count()

        def bytes_in(args, _):
            c["bytes_in"] += os.path.getsize(args[0])

        def bytes_out(_, text):
            c["bytes_out"] += len(text.encode())

        def report(_, r):
            c["reports"] += 1
            c["certified"] += r.exact_certificate is not None

        hooks = {"kernels.subset_stats": cells, "kernels.subset_boundary": cells,
                 "fileio.load_input": bytes_in, "fileio.dumps": bytes_out,
                 "fileio.report_csv_row": bytes_out}
        for fn in TARGETS["certify"]:
            if fn.startswith("check_"):
                hooks[f"certify.{fn}"] = report
        return hooks

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = self._modules()
        for name_id, span in enumerate(SPAN_NAMES):
            layer, attr = span.split(".")
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            target = getattr(module, attr, None)
            if target is None:
                continue  # gone from the program: reports 0 calls
            if inspect.isclass(target):
                self._patch(target, "__init__", self._wrap(name_id, target.__init__))
                for key, value in list(vars(target).items()):
                    if isinstance(value, classmethod):
                        self._patch(target, key,
                                    classmethod(self._wrap(name_id, value.__func__)))
                continue
            wrapped = self._wrap(name_id, target, hooks.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        count = len(self.start)
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i in range(count):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(SPAN_NAMES)}

    def write_spans(self, path: str):
        """Tab-separated spans: id, parent id, name, start and end in seconds
        from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{SPAN_NAMES[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
