"""Spans around the calls `udet` makes into each module's public functions.

Tracing patches module globals from outside the program: every loaded
`udet.*` module whose global still refers to a layer function gets a wrapper
that records a span (name, start, end, parent, request id) in memory.  A layer
whose function no longer exists is simply not traced and reports zero, so the
benchmark keeps running across refactors that remove or move layers.

Per-layer times are self times: a span's duration minus the part covered by
its child spans.  Self times of one request therefore partition its time,
and `cli.render` is the self time of the `cli.main` span: argument parsing,
file reading, JSON rendering and anything not attributed to a named layer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute) in pipeline order.
LAYERS = (
    ("dsl.parse_instance", "udet.dsl", "parse_instance"),
    ("model.validate", "udet.model", "validate"),
    ("semantics.normalize", "udet.semantics", "normalize"),
    ("semantics.admissible_set", "udet.semantics", "admissible_set"),
    ("kernels.simplex_compositions", "udet._kernels", "simplex_compositions"),
    ("semantics.winner_statistics", "udet.semantics", "winner_statistics"),
    ("semantics.compatible_answers", "udet.semantics", "compatible_answers"),
    ("trilemma.enumerate_responses", "udet.trilemma", "enumerate_responses"),
    ("responses.evaluate", "udet.responses", "ResponseEvaluator"),
    ("trilemma.report_from_verdicts", "udet.trilemma", "report_from_verdicts"),
    ("policy.decide", "udet.policy", "decide"),
)
MAIN = "cli.main"  # the request's root span
RENDER = "cli.render"  # self time of the cli.main span
IMPORT = "import.udet"
STARTUP = "process.startup"  # wall time of a CLI process outside import and main
SPAN_NAMES = (IMPORT, STARTUP) + tuple(name for name, _, _ in LAYERS) + (RENDER,)
COUNTS = ("semantics.weight_vectors", "semantics.score_evals",
          "trilemma.responses", "cli.output_bytes")


class Tracer:
    """In-memory span recorder.  Spans are tuples
    ``(name, start, end, parent_index, request_id)``; parent -1 is a root."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.request))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def begin(self, request: int) -> None:
        self.request = request
        self.counts = defaultdict(int)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function in every loaded `udet` module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "udet" or n.startswith("udet."))]
        for name, module_name, attr in LAYERS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, original):
        tracer = self
        if isinstance(original, type):
            # The evaluator: time the constructor and every evaluate call.
            class Traced(original):
                def __init__(self, *args, **kwargs):
                    tracer.span(name, super().__init__, *args, **kwargs)

                def evaluate(self, response):
                    return tracer.span(name, super().evaluate, response)

            return Traced

        def traced(*args, **kwargs):
            result = tracer.span(name, original, *args, **kwargs)
            tracer._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "semantics.admissible_set":
            self.counts["semantics.weight_vectors"] += _size(result)
        elif name == "semantics.winner_statistics":
            adm = args[1] if len(args) > 1 else kwargs.get("adm")
            self.counts["semantics.score_evals"] += (
                _size(adm) * len(getattr(result, "candidates", ())))
        elif name == "trilemma.enumerate_responses":
            self.counts["trilemma.responses"] += len(getattr(result, "responses", ()))


def _size(adm) -> int:
    size = getattr(adm, "size", None)
    return int(size) if isinstance(size, int) else 0


def self_times(spans) -> dict[int, dict[str, float]]:
    """Per request: layer name -> summed self time in seconds.

    The root `cli.main` span's self time is reported as `cli.render`.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, request) in enumerate(spans):
        label = RENDER if name == MAIN else name
        out[request][label] += (end - start) - child_time[i]
    return out
