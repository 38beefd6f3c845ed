"""The phase clock: one timer behind every phase second a run reports.

A phase's seconds reach up to three places — ``BipartitionResult.stats``,
a recorder's ``span`` events, and the audit total — and each number is
measured once, here::

    clock = PhaseClock(("gain_init", "move_loop"), recorder)
    with clock("move_loop"):
        ...
    clock.flush(pass_index)       # the held spans go to the recorder
    stats.update(clock.stats())   # {"gain_init_seconds": ..., ...}

One naming rule ties the two views together: span ``x`` is stat
``x_seconds`` (:func:`~repro.telemetry.events.phase_stat_key`).  A
stat is the sum of its spans in emission order, so a trace and the
stats it ends with cannot disagree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .events import phase_stat_key
from .recorder import Recorder, resolve_recorder


class PhaseClock:
    """Named phase totals, and the spans a recorder is owed.

    ``names`` starts those phases at zero, so a run reports every phase
    its engine can time, even one that never ran.  With an enabled
    ``recorder`` each timing is also held as a span until the clock's
    owner calls :meth:`flush` with the span index: the pass driver
    flushes a pass's phases after ``run_pass``, the n-level engine
    flushes each phase as it ends.  Without one nothing is held.
    """

    __slots__ = ("seconds", "_recorder", "_held")

    def __init__(
        self, names: Iterable[str] = (), recorder: Optional[Recorder] = None
    ) -> None:
        #: Accumulated seconds by phase name, in first-timed order.
        self.seconds: Dict[str, float] = dict.fromkeys(names, 0.0)
        self._recorder = resolve_recorder(recorder)
        self._held: List[Tuple[str, float]] = []

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        """Time one occurrence of phase ``name``; it counts even when
        its body raises."""
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            if self._recorder is not None:
                self._held.append((name, seconds))

    def flush(self, index: int) -> None:
        """Emit the held spans under span index ``index``, in the order
        their timings ended."""
        rec = self._recorder
        if rec is None:
            return
        for name, seconds in self._held:
            rec.span(index, name, seconds)
        self._held.clear()

    def stats(self) -> Dict[str, float]:
        """Every phase total under its ``<name>_seconds`` stats key."""
        return {phase_stat_key(n): s for n, s in self.seconds.items()}
