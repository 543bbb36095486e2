"""Outside-in tracing for the traced benchmark run.

The tracer measures the program from outside: it replaces public functions
where their callers look them up (for example ``pipeline.explain``, which is
the name ``identify_lines`` resolves) with wrappers that record one span per
whole call, or only count calls for functions too small to time, such as
``tokenize``. Spans stay in memory and are written out when the run ends.

Pool workers forked by the program inherit the wrappers and the tracer. A
worker writes each span it finishes to its own file in a spool directory,
and the parent merges those files after every op, so ``explain`` calls made
in workers are traced like serial ones. Both sides use ``time.perf_counter``,
which on Linux is the system-wide monotonic clock, so worker spans share the
parent's time base.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable
from time import perf_counter


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of ``intervals`` covers."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the time its direct children cover.

    Children that run in parallel (pool workers) may overlap; the union of
    their intervals is subtracted once.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children.get(s.id, [])) for s in spans}


class Tracer:
    """Span stack and call counters of one benchmark process and its forked workers."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.op = 0
        self._stack: list[str] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._in_worker = False
        self._op_counts: Counter = Counter()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # keep the inherited stack: its top is the span that started the pool
        self._pid = os.getpid()
        self._in_worker = True
        self.spans = []
        self._op_counts = Counter()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_counts = self.counts.setdefault(op, Counter())

    def count(self, name: str) -> None:
        self._op_counts[name] += 1

    def call(self, name: str, fn: Callable, *args, attrs_of: Callable | None = None, **kwargs):
        """Run ``fn`` inside a span; ``attrs_of(args, kwargs, result)`` annotates it."""
        self._next_id += 1
        span_id = f"{self._pid}-{self._next_id}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
        span = Span(span_id, name, start, end, parent, self.op)
        if attrs_of is not None:
            span.attrs = attrs_of(args, kwargs, result)
        if self._in_worker:
            self._spool(span)
        else:
            self.spans.append(span)
        return result

    def _spool(self, span: Span) -> None:
        record = {"span": asdict(span), "counts": dict(self._op_counts)}
        self._op_counts.clear()
        with open(self.spool_dir / f"{self._pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def merge_workers(self) -> int:
        """Fold spans and counts spooled by finished workers into this process; returns spans merged."""
        merged = 0
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    span = Span(**record["span"])
                    self.spans.append(span)
                    self.counts.setdefault(span.op, Counter()).update(record["counts"])
                    merged += 1
            path.unlink()
        return merged

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


@dataclass(frozen=True)
class Probe:
    """One wrapped lookup site: ``module.attribute`` (or ``Class.method``) recorded as ``name``.

    ``attrs_of`` annotates spans; a probe with ``count_only`` set only counts calls.
    """

    target: object
    attribute: str
    name: str
    attrs_of: Callable | None = None
    count_only: bool = False


class Instrumented:
    """Context manager that installs probes and restores the originals on exit.

    A probe whose attribute no longer exists is skipped and listed in
    ``missing``, so the traced run degrades to fewer spans instead of failing
    when the program's internals move.
    """

    def __init__(self, tracer: Tracer, probes: list[Probe]):
        self.tracer = tracer
        self.probes = probes
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumented":
        for probe in self.probes:
            original = getattr(probe.target, probe.attribute, None)
            if original is None:
                self.missing.append(f"{getattr(probe.target, '__name__', probe.target)}.{probe.attribute}")
                continue
            self._saved.append((probe.target, probe.attribute, original))
            setattr(probe.target, probe.attribute, self._wrap(probe, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, attribute, original in reversed(self._saved):
            setattr(target, attribute, original)
        self._saved.clear()

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self.tracer
        if probe.count_only:
            name = probe.name

            def counted(*args, **kwargs):
                tracer.count(name)
                return original(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            return tracer.call(probe.name, original, *args, attrs_of=probe.attrs_of, **kwargs)

        return traced
