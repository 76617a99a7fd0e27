"""In-memory spans around dogsim's public functions, patched in from outside.

Nothing under ``src/`` knows about this module. ``instrument`` replaces a
function object in every dogsim module that holds it (``from x import f``
copies the reference, so patching one namespace is not enough), records one
span per call, and puts the originals back on exit.

A span's self time is its duration minus the union of its children's
intervals. Spans opened in a worker thread with no open span of their own
take the main thread's innermost open span as parent: the engine's thread
pool runs on behalf of ``run_experiment``, which blocks on it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Function whose entry starts a new cell: one per ``run`` and per sweep value.
CELL_BOUNDARY = "cli.build_run"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    cell: int
    invocation: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    result: object = None  # return value kept for the output checks

    def to_json(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "cell": self.cell,
            "invocation": self.invocation, "counts": self.counts,
        }


class Tracer:
    """Collects spans from every thread; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self.cell = 0
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    def begin_invocation(self, invocation: int):
        self.invocation = invocation
        self.cell = 0

    def _open(self, name: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if ident != self._main and main else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.cell, self.invocation))
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def wrap(self, name: str, fn, pre=None, post=None):
        """Return `fn` wrapped in a span; `pre` may rewrite args, `post` the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == CELL_BOUNDARY:
                tracer.cell += 1
            index = tracer._open(name)
            span = tracer.spans[index]
            try:
                if pre is not None:
                    args = pre(span, args)
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(span, args, result)
                return result
            finally:
                tracer._close(index)

        return traced

    def spans_since(self, first: int) -> list[tuple[int, Span]]:
        return [(i, self.spans[i]) for i in range(first, len(self.spans))]


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Self time per span index: duration minus the union of its children,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for index, span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for index, span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[index]
            if c.end > span.start and c.start < span.end
        )
        out[index] = (span.end - span.start) - covered
    return out


def layer_totals(spans: list[tuple[int, Span]]) -> dict[str, dict]:
    """Per span name: calls, busy_s (summed durations), self_s, summed counts."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for index, span in spans:
        t = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
        t["calls"] += 1
        t["busy_s"] += span.end - span.start
        t["self_s"] += selfs[index]
        for key, value in span.counts.items():
            t["counts"][key] = t["counts"].get(key, 0) + value
    return totals


# --- what to wrap -----------------------------------------------------------

def _count_grad_evals(span, args):
    grad_fn = args[0]
    span.counts["grad_evals"] = 0

    def counted(x):
        span.counts["grad_evals"] += 1
        return grad_fn(x)

    return (counted,) + tuple(args[1:])


def _count_bytes(span, args):
    span.counts["bytes"] = len(args[0])  # generated LIBSVM text is ASCII
    return args


def _count_node_rounds(span, args):
    cfg = args[0]
    span.counts["node_rounds"] = cfg.n * cfg.T
    span.counts["rounds"] = cfg.T
    return args


def _count_samples(span, args, result):
    span.counts["samples"] = len(result[1])
    return result


def _keep(span, args, result):
    span.result = result
    return result


def _drain(span, args, result):
    # loss_events is a generator; consume it inside the span so its work is
    # timed. The CLI lists it at once, so this changes no observable order.
    return iter(list(result))


HOOKS = {
    "metrics.gradient_descent": (_count_grad_evals, None),
    "metrics.offline_comparator": (None, _keep),
    "ingest.parse_libsvm": (_count_bytes, None),
    "engine.run_experiment": (_count_node_rounds, _keep),
    "cli.build_run": (None, _keep),
    "datagen.round_batch": (None, _count_samples),
    "engine.loss_events": (None, _drain),
}

LAYER_MODULES = ("cli", "topology", "mixing", "datagen", "ingest", "losses", "engine", "metrics")

#: The only spans of an untraced run: the per-cell boundaries.
BOUNDARIES = ("cli.load_config", "cli.build_run", "engine.run_experiment")


def _public_functions(package):
    for short in LAYER_MODULES:
        module = importlib.import_module(f"{package.__name__}.{short}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                yield f"{short}.{attr}", module, attr
    # Hot methods, named after their module as the layers are reported. A
    # refactor may remove them; their metrics then read 0.
    for name, short, cls, attr in (
        ("datagen.round_batch", "datagen", "SyntheticStream", "round_batch"),
        ("engine.loss_events", "engine", "RunResult", "loss_events"),
    ):
        owner = getattr(getattr(package, short), cls, None)
        if owner is not None and attr in vars(owner):
            yield name, owner, attr


class instrument:
    """Context manager that patches spans into dogsim and restores on exit.

    With ``full`` false only BOUNDARIES are wrapped, which is what the
    untraced run measures its end-to-end metrics with.
    """

    def __init__(self, package, tracer: Tracer, full: bool):
        self.package = package
        self.tracer = tracer
        self.full = full
        self._undo = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package.__name__
                                         or name.startswith(self.package.__name__ + "."))]
        for name, owner, attr in list(_public_functions(self.package)):
            if not self.full and name not in BOUNDARIES:
                continue
            original = vars(owner)[attr]
            pre, post = HOOKS.get(name, (None, None))
            wrapped = self.tracer.wrap(name, original, pre, post)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        return self.tracer

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False
