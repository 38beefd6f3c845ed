"""Memory governance: worker address-space caps + an RSS watchdog.

Two complementary mechanisms keep an overloaded service from meeting
the host OOM-killer:

* **Worker RLIMIT_AS caps** — :func:`apply_worker_rlimit` sets a soft
  ``RLIMIT_AS`` ceiling in a child process, read from the
  :data:`RLIMIT_ENV` environment variable (environment because that is
  the one channel that reaches every child for free — the same trick
  ``REPRO_FAULTS`` uses).  A worker that tries to materialize a
  pathological instance dies with ``MemoryError`` inside *its own*
  process; the engine's broken-pool handling turns that into a retried
  unit instead of a dead host.
* **An RSS watchdog** — :class:`RssWatchdog` polls the *service*
  process's resident set and flips :attr:`RssWatchdog.shedding` above a
  high-water mark.  The service consults the flag at admission time
  only: new submissions shed (HTTP 429), running jobs finish — overload
  degrades to explicit backpressure, never to killing accepted work.

Everything here is stdlib-only and never raises out of its public
functions: memory governance must not be able to take down the process
it protects.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Optional

#: Environment variable carrying the worker address-space cap in MiB.
#: Set by the service (``ServiceConfig.worker_rlimit_mb``) or by hand;
#: read by :func:`apply_worker_rlimit` inside pool and shm workers.
RLIMIT_ENV = "REPRO_WORKER_RLIMIT_MB"

_MB = 1024 * 1024


def worker_rlimit_bytes() -> Optional[int]:
    """The :data:`RLIMIT_ENV` cap in bytes, or ``None`` when unset/bad."""
    raw = os.environ.get(RLIMIT_ENV, "").strip()
    if not raw:
        return None
    try:
        mb = float(raw)
    except ValueError:
        return None
    if mb <= 0:
        return None
    return int(mb * _MB)


def apply_worker_rlimit() -> bool:
    """Apply the env-configured ``RLIMIT_AS`` soft cap in this process.

    Called from worker initializers (process-pool and shared-memory
    workers).  The soft limit is clamped to the existing hard limit and
    never *raised* above a stricter limit already in place.  Returns
    whether a cap was applied; never raises — platforms without
    ``resource`` (or with locked-down limits) simply run uncapped.
    """
    cap = worker_rlimit_bytes()
    if cap is None:
        return False
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        if soft != resource.RLIM_INFINITY and soft <= cap:
            return False  # an existing limit is already stricter
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        return True
    except (ImportError, ValueError, OSError):
        return False


def current_rss_bytes() -> Optional[int]:
    """This process's resident set size, or ``None`` when unreadable.

    Linux reads ``/proc/self/status`` (``VmRSS``, current); elsewhere
    falls back to ``getrusage`` ``ru_maxrss`` (peak, which only ever
    over-reports — the safe direction for a shedding decision).
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return peak if os.uname().sysname == "Darwin" else peak * 1024
    except Exception:  # pragma: no cover - no rusage either
        return None


class RssWatchdog:
    """Background RSS monitor with a high-water shed flag.

    Polls :func:`current_rss_bytes` every ``poll_seconds`` on a daemon
    thread.  :attr:`shedding` turns on when RSS crosses
    ``high_water_bytes`` and off once it falls back below
    ``resume_fraction`` of the mark (hysteresis, so admission does not
    flap at the boundary).  :meth:`check_now` performs one synchronous
    poll — tests and the readiness probe use it for deterministic
    answers instead of racing the thread.
    """

    def __init__(
        self,
        high_water_bytes: int,
        poll_seconds: float = 0.5,
        resume_fraction: float = 0.9,
        on_change: Optional[Callable[[bool, int], None]] = None,
    ) -> None:
        if high_water_bytes <= 0:
            raise ValueError(
                f"high_water_bytes must be > 0, got {high_water_bytes}"
            )
        if not 0.0 < resume_fraction <= 1.0:
            raise ValueError(
                f"resume_fraction must be in (0, 1], got {resume_fraction}"
            )
        self.high_water_bytes = high_water_bytes
        self.poll_seconds = max(0.05, float(poll_seconds))
        self.resume_fraction = resume_fraction
        self.shedding = False
        self.last_rss = 0
        self.peak_rss = 0
        self.polls = 0
        self._on_change = on_change
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def check_now(self) -> bool:
        """One synchronous poll; returns the (possibly updated) flag."""
        rss = current_rss_bytes()
        if rss is None:
            return self.shedding
        self.polls += 1
        self.last_rss = rss
        self.peak_rss = max(self.peak_rss, rss)
        if not self.shedding and rss >= self.high_water_bytes:
            self.shedding = True
            self._notify()
        elif self.shedding and rss < self.high_water_bytes * self.resume_fraction:
            self.shedding = False
            self._notify()
        return self.shedding

    def _notify(self) -> None:
        if self._on_change is not None:
            try:
                self._on_change(self.shedding, self.last_rss)
            except Exception:  # noqa: BLE001 - a failing callback must not kill us
                pass

    def start(self) -> None:
        """Start the polling thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="guard-rss-watchdog", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.poll_seconds):
            self.check_now()

    def stop(self) -> None:
        """Stop the polling thread (idempotent; joins briefly)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
