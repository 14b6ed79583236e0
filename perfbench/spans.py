"""In-memory span recording around the public functions of ``posehar``.

The benchmark times the program from outside: :class:`Tracer` swaps each
listed public function, in every loaded ``posehar`` module that binds it,
for a wrapper that records a span (name, layer, start, end, parent, run id)
and calls the original. Calls made inside the package go through module
globals, so ``run_experiment`` reaching ``build_bundle`` or ``train_som``
is seen too. Spans stay in memory until the caller writes them out.

A span's self time is its duration minus the part of that interval its
child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

# Layer (the posehar module name) -> public functions timed in it.
LAYER_FUNCTIONS = {
    "io": ("read_record",),
    "preprocess": ("preprocess_sample",),
    "augment": ("augment_set",),
    "pca": ("fit_pca", "project"),
    "som": ("build_bundle", "build_library", "train_som", "load_bundle"),
    "embed": ("embed_sequence",),
    "classifier": ("train", "loss_and_grad", "accuracy", "predict_proba",
                   "load_model"),
    "evaluate": ("run_experiment", "make_folds"),
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at top level
    run_id: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children, clipped to it."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            children[span.parent].append((max(span.start, parent.start),
                                          min(span.end, parent.end)))
    return [span.duration - _covered(kids) for span, kids in zip(spans, children)]


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out


class Tracer:
    """Records spans while installed; restores every patched name on exit.

    ``observers`` maps a function name to ``f(span, arguments, result)``,
    called after the span has ended to attach counts to ``span.info``;
    ``arguments`` maps every parameter name to its value, defaults included.
    """

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.spans: list[Span] = []
        self.run_id = 0
        self._observers = observers or {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, func: Callable, layer: str) -> Callable:
        observe = self._observers.get(func.__name__)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(func.__name__, layer, 0.0, 0.0, parent, self.run_id)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(span, bound.arguments, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        import posehar  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "posehar" or name.startswith("posehar.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"posehar.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, layer)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON object per span, in start order, with its self time."""
        with open(path, "w") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                record = asdict(span)
                record["self"] = own
                fh.write(json.dumps(record, sort_keys=True) + "\n")
