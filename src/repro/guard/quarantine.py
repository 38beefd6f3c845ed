"""Poison-job quarantine: a per-fingerprint circuit breaker.

A *poison* job is a spec that keeps killing whatever runs it — workers
crash, units hang past the deadline, or the whole job fails — and that,
because the service faithfully re-runs whatever clients submit, would
otherwise burn a worker slot forever.  The registry counts
*consecutive* strikes per seed-blanked spec fingerprint (so the same
netlist/config is recognized across seeds and resubmissions); at
``quarantine_after`` strikes it trips, writes a diagnostics bundle, and
every later submission of that fingerprint is rejected up front with
HTTP 409 instead of being re-run.

State lives under ``<cache>/service/quarantine/``:

* ``strikes.jsonl`` — sealed append-only strike/clear/trip/release
  events, written through the same
  :class:`~repro.engine.journal.SealedAppender` as every other journal
  in this codebase; replayed on service start so quarantine decisions
  survive crashes bit-identically.
* ``<fingerprint>.json`` — the human-readable diagnostics bundle
  written when the breaker trips: the offending spec payload, its
  repro seed, the strike history, config fingerprint, and the last
  telemetry counters the service observed for it.

A success for a fingerprint resets its strike count (transient
infrastructure trouble must not accumulate into quarantine);
``release`` (CLI or ``DELETE /v1/quarantine/<fp>``) forgives a tripped
fingerprint explicitly.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..engine.journal import SealedAppender, iter_journal_records

#: Subdirectory of ``<cache>/service/`` holding quarantine state.
QUARANTINE_SUBDIR = "quarantine"

#: Strike reasons recorded in the journal and bundles.
STRIKE_REASONS = ("failed", "deadline", "crash_recovery")


class QuarantinedError(Exception):
    """A submission matched a quarantined fingerprint."""

    def __init__(self, fingerprint: str, entry: Dict[str, Any]) -> None:
        super().__init__(
            f"spec fingerprint {fingerprint} is quarantined "
            f"after {entry.get('strikes', '?')} consecutive failures"
        )
        self.fingerprint = fingerprint
        self.entry = entry


def quarantine_dir(cache_dir: Path) -> Path:
    """Quarantine root for a service cache directory."""
    from ..service.recovery import SERVICE_SUBDIR

    return Path(cache_dir) / SERVICE_SUBDIR / QUARANTINE_SUBDIR


class QuarantineRegistry:
    """Consecutive-failure breaker keyed on spec fingerprints.

    Thread-safe: strikes arrive from worker threads while admission
    checks run on the event loop.  All mutations are journalled before
    the in-memory state changes, so a crash between the two leaves the
    journal ahead of memory — replay converges to the same state.
    """

    def __init__(self, root: Path, quarantine_after: int = 3) -> None:
        self.root = Path(root)
        self.quarantine_after = max(1, int(quarantine_after))
        self._lock = threading.Lock()
        self._strikes: Dict[str, List[Dict[str, Any]]] = {}
        self._tripped: Dict[str, Dict[str, Any]] = {}
        self._bundle_errors = 0
        self._log = SealedAppender(self.journal_path)
        self._load()

    # -- persistence ------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / "strikes.jsonl"

    @property
    def journal_errors(self) -> int:
        """Failed journal appends and diagnostics-bundle writes."""
        return self._log.errors + self._bundle_errors

    def close(self) -> None:
        """Release the journal's file handle (a later append reopens it)."""
        self._log.close()

    def bundle_path(self, fingerprint: str) -> Path:
        """Where ``fingerprint``'s diagnostics bundle lives on disk."""
        return self.root / f"{fingerprint}.json"

    def _load(self) -> None:
        for record in iter_journal_records(self.journal_path):
            self._replay(record)

    def _replay(self, record: Dict[str, Any]) -> None:
        kind = record.get("kind")
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            return
        if kind == "strike":
            self._strikes.setdefault(fingerprint, []).append(
                {
                    "reason": record.get("reason", "failed"),
                    "job_id": record.get("job_id", ""),
                    "detail": record.get("detail", ""),
                }
            )
        elif kind == "clear":
            self._strikes.pop(fingerprint, None)
        elif kind == "trip":
            entry = record.get("entry")
            self._tripped[fingerprint] = (
                dict(entry) if isinstance(entry, dict) else {"strikes": None}
            )
            self._strikes.pop(fingerprint, None)
        elif kind == "release":
            self._tripped.pop(fingerprint, None)
            self._strikes.pop(fingerprint, None)

    # -- breaker ----------------------------------------------------

    def is_quarantined(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The quarantine entry for ``fingerprint``, or ``None``."""
        with self._lock:
            entry = self._tripped.get(fingerprint)
            return dict(entry) if entry is not None else None

    def check(self, fingerprint: str) -> None:
        """Raise :class:`QuarantinedError` for a tripped fingerprint."""
        entry = self.is_quarantined(fingerprint)
        if entry is not None:
            raise QuarantinedError(fingerprint, entry)

    def strikes(self, fingerprint: str) -> int:
        """Current consecutive strike count for ``fingerprint``."""
        with self._lock:
            return len(self._strikes.get(fingerprint, []))

    def record_success(self, fingerprint: str) -> None:
        """A clean terminal outcome resets the consecutive count."""
        with self._lock:
            if fingerprint not in self._strikes:
                return
            self._log.append({"kind": "clear", "fingerprint": fingerprint})
            self._strikes.pop(fingerprint, None)

    def record_strike(
        self,
        fingerprint: str,
        reason: str,
        job_id: str = "",
        detail: str = "",
        diagnostics: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Record one strike; returns the quarantine entry on a trip.

        ``diagnostics`` carries the bundle payload (spec, seed,
        telemetry counters) captured by the caller at failure time; it
        is only written out if this strike trips the breaker.
        """
        with self._lock:
            if fingerprint in self._tripped:
                return None  # already quarantined; nothing to count
            self._log.append(
                {
                    "kind": "strike",
                    "fingerprint": fingerprint,
                    "reason": reason,
                    "job_id": job_id,
                    "detail": detail,
                }
            )
            history = self._strikes.setdefault(fingerprint, [])
            history.append(
                {"reason": reason, "job_id": job_id, "detail": detail}
            )
            if len(history) < self.quarantine_after:
                return None
            entry = self._trip_locked(fingerprint, history, diagnostics)
            return dict(entry)

    def _trip_locked(
        self,
        fingerprint: str,
        history: List[Dict[str, Any]],
        diagnostics: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "fingerprint": fingerprint,
            "strikes": len(history),
            "quarantine_after": self.quarantine_after,
            "last_reason": history[-1]["reason"],
            "last_job_id": history[-1]["job_id"],
            "bundle": str(self.bundle_path(fingerprint)),
        }
        bundle: Dict[str, Any] = {
            **entry,
            "strike_history": list(history),
            "diagnostics": diagnostics or {},
        }
        self._log.append(
            {"kind": "trip", "fingerprint": fingerprint, "entry": entry}
        )
        self._tripped[fingerprint] = entry
        self._strikes.pop(fingerprint, None)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.bundle_path(fingerprint).with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(bundle, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            tmp.replace(self.bundle_path(fingerprint))
        except (OSError, TypeError, ValueError):
            self._bundle_errors += 1
        return entry

    def release(self, fingerprint: str) -> bool:
        """Forgive a quarantined fingerprint; returns whether it was
        quarantined.  The bundle file is kept for the postmortem."""
        with self._lock:
            present = fingerprint in self._tripped
            if not present and fingerprint not in self._strikes:
                return False
            self._log.append({"kind": "release", "fingerprint": fingerprint})
            self._tripped.pop(fingerprint, None)
            self._strikes.pop(fingerprint, None)
            return present

    # -- introspection ---------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """All quarantined entries, sorted by fingerprint."""
        with self._lock:
            return [
                dict(self._tripped[fp]) for fp in sorted(self._tripped)
            ]

    def load_bundle(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The on-disk diagnostics bundle, or ``None`` when missing."""
        path = self.bundle_path(fingerprint)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def snapshot(self) -> Dict[str, Any]:
        """Quarantined/watching counts, for ``/v1/stats``."""
        with self._lock:
            return {
                "quarantined": len(self._tripped),
                "watching": len(self._strikes),
                "quarantine_after": self.quarantine_after,
            }
