"""Per-batch run journal: crash-safe progress log enabling resume.

One append-only JSONL file per run at

    <cache_dir>/runs/<run_id>.jsonl

First line is a header (run id, code version, unit count); every
subsequent line is one *completed* work unit — its cache key, seed/tag,
execution source and the full encoded result, sealed with the same
embedded sha256 as cache records (:mod:`repro.engine.records`).

Crash safety is append discipline (:class:`SealedAppender`, shared by
every sealed journal in the package): each unit is written as exactly
one ``write()`` of one newline-terminated line, flushed and fsynced
before the engine moves on.  A run killed at any instant therefore
leaves a journal whose lines are all valid except possibly the torn last
one, which :meth:`RunJournal.load` skips (as it does any line failing
its checksum); the next append closes that fragment out first, so it
cannot swallow the record after it.  Resume reads the journal, serves
every recorded unit without recomputing it, and appends only the newly
completed ones — so ``--resume`` after a SIGTERM, a crash or a power cut
recomputes zero finished units and yields bit-identical cuts to an
uninterrupted run.

The journal is deliberately independent of the result cache: it works
with caching disabled, and unlike the content-addressed cache it scopes
completion to *this run*, which is what "skip what this batch already
did" needs.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional

from .records import checksum_ok, seal

#: Subdirectory of the cache root holding run journals.
RUNS_SUBDIR = "runs"

#: Valid run identifiers: filesystem-safe, no path separators.
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}\Z")  # \Z: '$' allows '\n'


def validate_run_id(run_id: str) -> str:
    """Reject run ids that would escape the runs directory."""
    if not _RUN_ID_RE.match(run_id):
        raise ValueError(
            f"bad run id {run_id!r} (letters, digits, '.', '_', '-' only)"
        )
    return run_id


def journal_path(cache_root: Path, run_id: str) -> Path:
    """Journal location for ``run_id`` under ``cache_root``."""
    return Path(cache_root) / RUNS_SUBDIR / f"{validate_run_id(run_id)}.jsonl"


class SealedAppender:
    """The append discipline of every sealed JSONL journal.

    * **lazy open** — the file and its directory appear on the first
      append;
    * **torn-tail close-out** — when a crash left the file's last line
      without its newline, that fragment is ended first, so it fails its
      checksum on its own instead of fusing with the next record;
    * **one record, one line** — each record is sealed
      (:func:`~repro.engine.records.seal`) and written as one ``write``
      + flush + fsync;
    * **best effort** — I/O and encoding errors are counted in
      :attr:`errors`, never raised: journalling must not abort the work
      it protects;
    * **thread safe** — appends from several threads never interleave.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.appended = 0
        self.errors = 0
        self._fh: Optional[IO[str]] = None
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        """Seal ``record`` and append it as one line."""
        with self._lock:
            try:
                # seal() serializes the record to checksum it, so it
                # raises on non-serializable payloads too.
                line = json.dumps(seal(record))
                if self._fh is None:
                    self._fh = self._open()
                self._fh.write(line + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self.appended += 1
            except (OSError, TypeError, ValueError):
                self.errors += 1

    def _open(self) -> IO[str]:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        torn = False
        if self.path.exists() and self.path.stat().st_size > 0:
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                torn = probe.read(1) != b"\n"
        fh = open(self.path, "a", encoding="utf-8")
        if torn:
            fh.write("\n")
        return fh

    def close(self) -> None:
        """Release the file handle (a later append reopens it)."""
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    self.errors += 1
                self._fh = None


class RunJournal(SealedAppender):
    """Append-only completion log of one engine batch.

    A :class:`SealedAppender`: journalling, like caching, is best-effort
    and must never abort the batch it protects.
    """

    def __init__(self, path: Path, run_id: str, version: str = "") -> None:
        super().__init__(path)
        self.run_id = run_id
        self.version = version

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def ensure_header(self, total_units: int) -> None:
        """Write the header line when starting a fresh journal file."""
        try:
            exists = self.path.exists() and self.path.stat().st_size > 0
        except OSError:
            exists = False
        if exists:
            return
        self.append({
            "type": "header",
            "run_id": self.run_id,
            "version": self.version,
            "units": total_units,
        })

    def append_unit(self, key: str, unit, result_record: dict,
                    seconds: float, source: str) -> None:
        """Record one completed unit (call only after success)."""
        self.append({
            "type": "unit",
            "key": key,
            "seed": unit.seed,
            "tag": unit.tag,
            "seconds": seconds,
            "source": source,
            **result_record,
        })

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, dict]:
        """Completed-unit records by cache key.

        Tolerates a missing file (fresh run), torn trailing lines
        (killed mid-append) and checksum-failing lines (disk damage) —
        those units simply recompute.  Later lines win on duplicate
        keys, matching append order.
        """
        records: Dict[str, dict] = {}
        for record in iter_journal_records(self.path):
            if record.get("type") == "unit" and isinstance(
                record.get("key"), str
            ):
                records[record["key"]] = record
        return records


def iter_journal_records(path) -> Iterator[dict]:
    """Yield the checksum-valid records of a journal file, in order.

    The single journal-reading primitive, shared by resume
    (:meth:`RunJournal.load`) and by the trace summarizer
    (:mod:`repro.telemetry.summary`).  A missing file yields nothing;
    torn, garbled or checksum-failing lines are skipped silently —
    exactly the tolerance resume relies on after a crash.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError:
        return
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn or garbled line
        if isinstance(record, dict) and checksum_ok(record):
            yield record


def list_runs(cache_root: Path) -> List[str]:
    """Run ids with a journal under ``cache_root`` (newest last)."""
    runs_dir = Path(cache_root) / RUNS_SUBDIR
    if not runs_dir.is_dir():
        return []
    paths = sorted(
        runs_dir.glob("*.jsonl"), key=lambda p: (p.stat().st_mtime, p.name)
    )
    return [p.stem for p in paths]
