"""In-memory span recorder and the ``traced()`` wrapper the benchmark traces with.

The program under ``src/`` has no span API yet, so the per-layer numbers come
from the benchmark's side: :func:`traced` replaces one public callable on a
class or module namespace with a wrapper that records a span around every
call.  Nothing under ``src/`` is edited; :meth:`SpanRecorder.restore` puts the
originals back.  Spans carry name, start, end, the span that was open when
they began (their cause) and the request id current at that moment; they stay
in memory until :meth:`SpanRecorder.write_chrome_trace`.

A layer's *self time* is its spans' duration minus the part their child spans
cover, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Hook run after a traced call: ``hook(recorder, args, kwargs, result)``.
#: Used to count work (positions, bytes, events) where it happens.
Hook = Callable[["SpanRecorder", tuple, dict, Any], None]


#: Marks a wrapped attribute the owner inherited rather than defined itself.
_INHERITED = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into SpanRecorder.spans, -1 for a root
    request: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerTotals:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class SpanRecorder:
    """Collects nested spans and counters; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.request: Optional[str] = None
        self._open: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------- #

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.request))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        """Record a span around a block; ``request`` also tags every span inside it."""
        previous = self.request
        if request is not None:
            self.request = request
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self.request = previous

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- wrapping ----------------------------------------------------------- #

    def traced(
        self, owner: Any, attr: str, name: str, hook: Optional[Hook] = None, extra_kwargs: Optional[dict] = None
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name`` per call.

        ``extra_kwargs`` are added to every call: for callables that report
        on their work only through an out-parameter their callers leave unset.
        """
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        rewrap: Callable[[Callable], Any] = lambda fn: fn  # noqa: E731
        target = raw
        if isinstance(raw, (classmethod, staticmethod)):
            rewrap = type(raw)
            target = raw.__func__
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if extra_kwargs:
                kwargs = {**extra_kwargs, **kwargs}
            index = recorder.begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                recorder.end(index)
            if hook is not None:
                hook(recorder, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(target, "__name__", attr)
        wrapper.__doc__ = getattr(target, "__doc__", None)
        for extra in ("cache_clear", "cache_info"):  # callers of an lru_cache'd function may use these
            if hasattr(target, extra):
                setattr(wrapper, extra, getattr(target, extra))
        self._undo.append((owner, attr, raw if own else _INHERITED))
        setattr(owner, attr, rewrap(wrapper))

    def restore(self) -> None:
        """Put every wrapped callable back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------- #

    def totals(self) -> Dict[str, LayerTotals]:
        """Per span name: call count, total duration and self time."""
        return layer_totals(self.spans)

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": span.parent, "request": span.request},
            }
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def layer_totals(spans: List[Span]) -> Dict[str, LayerTotals]:
    """Aggregate spans by name; self time = duration minus direct children's duration."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    totals: Dict[str, LayerTotals] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.total += span.duration
        entry.self_time += span.duration - covered[index]
    return totals


def format_layer_table(totals: Dict[str, LayerTotals], wall: float) -> str:
    """The per-layer table a traced run prints: calls, total, self time and its share of ``wall``."""
    lines = [f"{'span':<28} {'calls':>9} {'total s':>10} {'self s':>10} {'self %':>7}"]
    for name, entry in sorted(totals.items(), key=lambda item: -item[1].self_time):
        share = 100.0 * entry.self_time / wall if wall > 0 else 0.0
        lines.append(f"{name:<28} {entry.calls:>9d} {entry.total:>10.4f} {entry.self_time:>10.4f} {share:>6.1f}%")
    return "\n".join(lines)
