"""Outside-in span tracing for the benchmark.

The program is not edited: :class:`Tracer` replaces public callables at the
names their callers look them up (a module attribute such as
``repro.resolution.framework.check_validity``, or a class attribute such as
``ResultStore.get``) with wrappers that record one span per call, and puts
the originals back on :meth:`Tracer.restore`.

A span has a name ``<layer>.<what>``, a start, an end, a parent (the span
open on the same thread when it started) and a key (the entity or request
it serves, inherited from the parent when the call has none).  Spans stay in
memory and are written out when the run ends.

Self time is a span's duration minus the time its child spans cover.  Spans
that call into the SAT solver (``solver=True``) also read the solver's phase
timers (``repro.profiling``) at entry and exit; the solver time inside them
is split out of their self time and reported as the ``solvers`` layer.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["SOLVER_PHASES", "Span", "Tracer", "merge", "name_calls", "name_seconds", "summarize"]

#: The ``repro.profiling`` phases that belong to the SAT search.
SOLVER_PHASES = ("propagate", "decide", "analyze")


class Span:
    """One timed call."""

    __slots__ = (
        "name", "key", "parent", "start", "end", "child",
        "solver", "solver_start", "solver_end", "child_solver", "thread",
    )

    def __init__(self, name: str, key: Any, parent: Optional["Span"], solver: bool) -> None:
        self.name = name
        self.key = key
        self.parent = parent
        self.solver = solver
        self.start = 0.0
        self.end: Optional[float] = None
        self.child = 0.0
        self.solver_start = 0.0
        self.solver_end = 0.0
        self.child_solver = 0.0
        self.thread = threading.get_ident()

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def solver_seconds(self) -> float:
        return self.solver_end - self.solver_start

    @property
    def self_seconds(self) -> float:
        """Duration minus child spans minus solver time not inside a child."""
        return self.duration - self.child - (self.solver_seconds - self.child_solver)


def _solver_clock() -> float:
    from repro import profiling

    snapshot = profiling.snapshot()
    return sum(snapshot.get(phase, {}).get("seconds", 0.0) for phase in SOLVER_PHASES)


def _attribute(owner: Any, attribute: str) -> Any:
    """The attribute as stored: a class's own function, not a bound method."""
    return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)


class Tracer:
    """Records spans around wrapped callables; single use per process."""

    def __init__(self, solver_clock: Callable[[], float] = _solver_clock) -> None:
        self.spans: List[Span] = []
        self._solver_clock = solver_clock
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------------

    def local_spans(self) -> List[Span]:
        """The spans recorded by this process.

        A forked child (a cluster worker) inherits the parent's spans and
        wrappers; it drops the former on first use and records its own.
        """
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        return self.spans

    def _stack(self) -> List[Span]:
        self.local_spans()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, key: Any = None, solver: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if key is None and parent is not None:
            key = parent.key
        span = Span(name, key, parent, solver)
        self.spans.append(span)
        stack.append(span)
        if solver:
            span.solver_start = self._solver_clock()
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.solver:
            span.solver_end = self._solver_clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        parent = span.parent
        if parent is not None:
            parent.child += span.duration
            if parent.solver:
                parent.child_solver += span.solver_seconds

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around a block of benchmark code."""
        span = self.enter(name)
        try:
            yield span
        finally:
            self.exit(span)

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        *,
        key: Optional[Callable[..., Any]] = None,
        solver: bool = False,
        generator: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        *key* maps the call's ``(*args, **kwargs)`` to the span key.  With
        ``generator=True`` the callable returns an iterator and every
        ``next()`` on it is one span, so the span covers only time spent
        inside the generator, not in the caller's loop body.
        """
        original = _attribute(owner, attribute)
        tracer = self

        if generator:
            def wrapper(*args, **kwargs):
                span_key = key(*args, **kwargs) if key is not None else None
                return tracer._traced_iter(original(*args, **kwargs), name, span_key, solver)
        else:
            def wrapper(*args, **kwargs):
                span = tracer.enter(name, key(*args, **kwargs) if key is not None else None, solver)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit(span)

        wrapper.__name__ = getattr(original, "__name__", attribute)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        self.patch(owner, attribute, wrapper)

    def patch(self, owner: Any, attribute: str, replacement: Any) -> Any:
        """Set ``owner.attribute`` until :meth:`restore`; return the original."""
        original = _attribute(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)
        return original

    def _traced_iter(self, iterator: Iterable, name: str, key: Any, solver: bool):
        iterator = iter(iterator)
        try:
            while True:
                span = self.enter(name, key, solver)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.exit(span)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def restore(self) -> None:
        """Put every wrapped callable back (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str, since: float = 0.0) -> int:
        """Write finished spans (started at or after *since*) as JSON lines."""
        spans = [span for span in self.spans if span.end is not None and span.start >= since]
        ids = {id(span): index for index, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                    "key": span.key,
                    "self": span.self_seconds,
                    "thread": span.thread,
                }
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return len(spans)


def summarize(spans: Iterable[Span], since: float = 0.0) -> Dict[str, Any]:
    """Additive totals of the finished spans that started at or after *since*.

    Returns per-name ``[seconds, calls]``, per-layer self seconds (the layer
    is the name's first dotted part; solver time is the ``solvers`` layer),
    the summed duration of root spans, and the smallest self time seen (a
    negative one means spans did not nest).
    """
    names: Dict[str, List[float]] = {}
    layers: Dict[str, float] = {}
    roots = 0.0
    min_self = 0.0
    for span in spans:
        if span.end is None or span.start < since:
            continue
        entry = names.setdefault(span.name, [0.0, 0])
        entry[0] += span.duration
        entry[1] += 1
        self_seconds = span.self_seconds
        min_self = min(min_self, self_seconds)
        layer = span.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_seconds
        if span.solver:
            layers["solvers"] = layers.get("solvers", 0.0) + span.solver_seconds - span.child_solver
        if span.parent is None:
            roots += span.duration
    return {"names": names, "layers": layers, "roots": roots, "min_self": min_self}


def merge(summaries: Iterable[Dict[str, Any]], signs: Iterable[int] = ()) -> Dict[str, Any]:
    """Sum :func:`summarize` results, each times its sign (default +1).

    ``merge([after, before], [1, -1])`` is the part of a cumulative summary
    recorded between two snapshots; ``merge(per_worker)`` adds processes.
    """
    total: Dict[str, Any] = {"names": {}, "layers": {}, "roots": 0.0, "min_self": 0.0}
    signs = list(signs)
    for index, summary in enumerate(summaries):
        sign = signs[index] if index < len(signs) else 1
        for name, (seconds, calls) in summary["names"].items():
            entry = total["names"].setdefault(name, [0.0, 0])
            entry[0] += sign * seconds
            entry[1] += sign * calls
        for layer, seconds in summary["layers"].items():
            total["layers"][layer] = total["layers"].get(layer, 0.0) + sign * seconds
        total["roots"] += sign * summary["roots"]
        total["min_self"] = min(total["min_self"], summary["min_self"])
    return total


def name_seconds(summary: Dict[str, Any], *names: str) -> float:
    """Summed seconds of the given span names in a :func:`summarize` result."""
    return sum(summary["names"].get(name, [0.0, 0])[0] for name in names)


def name_calls(summary: Dict[str, Any], *names: str) -> int:
    """Summed call counts of the given span names."""
    return int(sum(summary["names"].get(name, [0.0, 0])[1] for name in names))
