"""Spans around the public functions of each layer, for the traced run.

`Tracer.install` replaces every module attribute that refers to a layer
function (in the defining module and in each module that imported it by
name) with a wrapper that records one span per call: function, start, end,
parent span and operation id. Spans are kept in flat arrays in memory;
`Tracer.write` saves them when the run ends. The package's code is not
changed.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

LAYERS = {
    "cgamma": ("log_gamma", "recip_gamma_prefactor"),
    "besseval": ("series_sum", "detection_value", "eval_function"),
    "lambertw": ("lambert_w0",),
    "asymcoeff": ("coefficient_set", "correction_coefficients"),
    "zerofinder": ("asymptotic_zero", "refine_zero", "enumerate_zeros"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items()
                  for name in names)
_REFINE = FUNCTIONS.index("zerofinder.refine_zero")
_DETECTION = FUNCTIONS.index("besseval.detection_value")


class Tracer:
    """Records a span for every call of a layer function while installed."""

    def __init__(self):
        self.function = array("B")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, function_id: int, original):
        function, op, parent = self.function, self.op, self.parent
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(start)
            function.append(function_id)
            op.append(self.op_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every reference to a layer function in `modules`."""
        for function_id, qualified in enumerate(FUNCTIONS):
            module_name, name = qualified.split(".")
            original = getattr(modules[module_name], name)
            wrapper = self._wrap(function_id, original)
            for module in modules.values():
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._patches.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patches):
            setattr(module, attribute, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Save the spans: a JSON header line, then the raw arrays."""
        fields = (("function", self.function), ("op", self.op),
                  ("parent", self.parent), ("start", self.start),
                  ("end", self.end))
        header = {"functions": FUNCTIONS, "spans": len(self),
                  "arrays": [[name, values.typecode]
                             for name, values in fields]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, values in fields:
                values.tofile(handle)


def self_times(start, end, parent) -> array:
    """Each span's duration minus the durations of its child spans.

    The tracer runs on one thread and its spans nest strictly, so a
    parent's children never overlap.
    """
    selfs = array("q", (e - s for s, e in zip(start, end)))
    for index, up in enumerate(parent):
        if up >= 0:
            selfs[up] -= end[index] - start[index]
    return selfs


def layer_metrics(tracer: Tracer, ops: int, busy_ns: int) -> dict:
    """Per-function calls per op, self time per call and self-time share.

    `busy_ns` is the summed wall time of the `ops` traced operations. Also
    counts the detection evaluations made under each refine_zero call.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = [0] * len(FUNCTIONS)
    self_ns = [0] * len(FUNCTIONS)
    for function_id, own in zip(tracer.function, selfs):
        calls[function_id] += 1
        self_ns[function_id] += own
    detections = 0
    for function_id, up in zip(tracer.function, tracer.parent):
        if function_id != _DETECTION:
            continue
        while up >= 0 and tracer.function[up] != _REFINE:
            up = tracer.parent[up]
        detections += up >= 0
    metrics = {}
    for function_id, qualified in enumerate(FUNCTIONS):
        count = calls[function_id]
        metrics[f"{qualified}.calls_per_op"] = count / ops
        metrics[f"{qualified}.self_us_per_call"] = \
            self_ns[function_id] / count / 1e3 if count else 0.0
        metrics[f"{qualified}.self_share"] = self_ns[function_id] / busy_ns
    refines = calls[_REFINE]
    metrics["zerofinder.refine_zero.detection_calls_per_call"] = \
        detections / refines if refines else 0.0
    return metrics
