"""Spans around every call that crosses a hawkesgraph layer boundary.

The layers are the modules under ``src/hawkesgraph/``.  ``Tracer.install``
replaces each public function of a layer, as another module sees it (for
example ``hawkesgraph.experiments.simulate`` or ``hawkesgraph.cli.bin_events``),
with a wrapper that records a span; calls inside the defining module stay
inside its span.  The package itself is not edited, and ``uninstall`` puts
every original back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types
from dataclasses import dataclass

LAYERS = ("model", "simulation", "stats", "detect", "expectations", "experiments")
CALLERS = ("hawkesgraph", "hawkesgraph.cli") + tuple(f"hawkesgraph.{m}" for m in LAYERS)


def _grid_pair_windows(args, kwargs, result) -> float:
    from hawkesgraph.stats import window_count

    grid = args[0] if args else kwargs["grid"]
    return grid.n * (grid.n - 1) * window_count(grid.horizon, grid.epsilon)


# Work done by one call, for the per-layer rates.
WORK = {
    "simulation.simulate": lambda args, kwargs, result: len(result),
    "stats.accumulate_all": _grid_pair_windows,
    "expectations.mc_delta_drift": lambda args, kwargs, result: result.trials,
}


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    work: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the span wrappers and holds every span recorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._op = -1

    def install(self) -> None:
        for caller_name in CALLERS:
            caller = importlib.import_module(caller_name)
            for attr, fn in list(vars(caller).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                home = fn.__module__
                layer = home.rpartition(".")[2]
                if layer not in LAYERS or home == caller_name:
                    continue
                if attr not in importlib.import_module(home).__all__:
                    continue
                self._saved.append((caller, attr, fn))
                setattr(caller, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for caller, attr, fn in reversed(self._saved):
            setattr(caller, attr, fn)
        self._saved.clear()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, time.perf_counter(), 0.0)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span.work = float(work(args, kwargs, result))
            return result

        return wrapper

    def run_op(self, k: int, call):
        """Run ``call()`` as op k under a root span named "op"."""
        self._op = k
        span = self._open("op")
        try:
            return call()
        finally:
            self._close(span)
            self._op = -1


def self_times(spans: list[Span]) -> tuple[dict[int, float], list[str]]:
    """Self time of every span: its duration minus the part of it that its
    child spans cover.  Also returns a message for every span whose
    children overlap or stick out, where children plus self time would not
    add up to the span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    own, errors = {}, []
    for s in spans:
        covered, cursor = 0.0, s.start
        total = 0.0
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor, s.start), min(c.end, s.end)
            covered += max(0.0, hi - lo)
            cursor = max(cursor, hi)
            total += c.seconds
        own[s.sid] = s.seconds - covered
        if abs(total + own[s.sid] - s.seconds) > 1e-9:
            errors.append(
                f"span {s.name} of op {s.op}: children {total:.9f} s plus self "
                f"{own[s.sid]:.9f} s differ from its {s.seconds:.9f} s"
            )
    return own, errors


def layer_metrics(spans: list[Span], own: dict[int, float], ops: list[int]
                  ) -> dict[str, dict[str, float]]:
    """Per-op span statistics over the traced ops, keyed by span name:
    median seconds, median self seconds (``own`` from ``self_times``), median
    calls, and total work over total seconds."""
    per_op: dict[str, dict[int, list[float]]] = {}
    for s in spans:
        entry = per_op.setdefault(s.name, {})
        row = entry.setdefault(s.op, [0.0, 0.0, 0.0, 0.0])
        row[0] += s.seconds
        row[1] += own[s.sid]
        row[2] += 1
        row[3] += s.work
    out = {}
    for name, entry in per_op.items():
        rows = [entry.get(k, [0.0, 0.0, 0.0, 0.0]) for k in ops]
        seconds = sum(r[0] for r in rows)
        out[name] = {
            "s": statistics.median(r[0] for r in rows),
            "self_s": statistics.median(r[1] for r in rows),
            "calls": statistics.median(r[2] for r in rows),
            "rate": sum(r[3] for r in rows) / seconds if seconds > 0 else 0.0,
        }
    return out
