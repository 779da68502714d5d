"""Span aggregation for the traced benchmark run.

A helix run opens about a million spans, so spans are folded into per-name
totals as they close instead of being kept one by one. Spans nest strictly
(one thread, one stack), which is what makes the arithmetic below exact:

* ``total_s`` is inclusive time, counted only for the outermost open span of
  a name, so a function that re-enters itself (a jacobian that inverts a map
  whose own jacobian is traced) is not counted twice;
* ``self_s`` is a span's duration minus the durations of its direct
  children; a grandchild lies inside its parent child's interval and is
  therefore never subtracted twice;
* ``edges[(parent, child)]`` counts spans by the name of the span that was
  open when they started (``None`` at top level).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Nested spans folded into per-name statistics, plus plain counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        self.edges: Dict[Tuple[Optional[str], str], int] = {}
        self.counters: Dict[str, int] = {}
        # open spans as [name, start, time covered by direct children]
        self._stack: List[list] = []
        self._open_by_name: Dict[str, int] = {}

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        key = (parent, name)
        self.edges[key] = self.edges.get(key, 0) + 1
        self._open_by_name[name] = self._open_by_name.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        name, start, children = self._stack.pop()
        duration = end - start
        still_open = self._open_by_name[name] - 1
        self._open_by_name[name] = still_open
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.self_s += duration - children
        if still_open == 0:
            st.total_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    @property
    def depth(self) -> int:
        return len(self._stack)

    def child_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)

    def counts(self) -> dict:
        """Everything that must repeat exactly between two traced runs."""
        return {
            "calls": {k: v.calls for k, v in sorted(self.stats.items())},
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items(), key=str)},
            "counters": dict(sorted(self.counters.items())),
        }
