"""Spans recorded from outside the program.

A traced run wraps the public calls into each layer — module
attributes such as ``repro.core.rmi_attack.greedy_poison`` and class
attributes such as ``ServingBackend.replay_ops``, at the place their
callers look them up — and records one span per call.  Nothing under
``src/`` is instrumented; the wrappers are installed for the traced
phases only and removed afterwards.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

__all__ = ["Recorder", "patched", "self_times", "split"]

#: Field positions of one span record.
NAME, START, END, PARENT, UNIT, PHASE = range(6)


class Recorder:
    """In-memory spans and counters of one traced run.

    A span is ``[name, start, end, parent, unit, phase]``: ``parent``
    indexes the enclosing span (-1 at a root), ``unit`` is the tick or
    cell the span belongs to, and ``phase`` says whether it ran during
    set-up or during a timed pass.  Every traced path is
    single-threaded (the router fans out with one job), so the open
    spans form one stack.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.unit = -1
        self.phase = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.unit, self.phase])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable,
             new_unit: bool = False) -> Callable:
        """``fn`` recording one span per call (also as a method);
        with ``new_unit`` each call starts the next cell."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            if new_unit:
                self.unit += 1
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced


@contextlib.contextmanager
def patched(owner: Any, attr: str,
            make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for the block.

    An attribute a class inherits is shadowed on ``owner`` and deleted
    again afterwards, so the class hierarchy ends up exactly as found.
    """
    own = attr in vars(owner)
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def split(spans: list[list[Any]]) -> dict[str, float]:
    """Self seconds per span name, largest first."""
    totals: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] += own
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
