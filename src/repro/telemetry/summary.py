"""Summarize telemetry trace files and engine run journals.

Two JSONL dialects carry per-run observability data:

* **telemetry traces** written by
  :class:`~repro.telemetry.recorder.TraceRecorder` — every line has an
  ``event`` field (``run_start``/``span``/``move``/``counters``/
  ``pass_end``/``run_end``);
* **engine run journals** written by :class:`repro.engine.RunJournal` —
  every line has a ``type`` field (``header``/``unit``) and an embedded
  sha256 checksum.

:func:`summarize_path` sniffs the dialect from the first parseable line
and dispatches to :func:`summarize_trace` or
:func:`summarize_run_journal`; both return objects with a
``format_text()`` renderer, which is what the ``repro trace summarize``
CLI subcommand prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from ..engine.journal import iter_journal_records
from .events import collect_phase_seconds, phase_stat_key


def _fmt_seconds(seconds: float) -> str:
    """Compact human-readable seconds (µs–s range)."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _phase_lines(phase_seconds: Dict[str, float], indent: str) -> List[str]:
    """Render a phase-seconds dict as aligned ``name: time`` lines."""
    lines = []
    total = sum(phase_seconds.values())
    for name, seconds in sorted(
        phase_seconds.items(), key=lambda kv: -kv[1]
    ):
        share = f" ({seconds / total:.0%})" if total > 0 else ""
        lines.append(f"{indent}{name:<22s} {_fmt_seconds(seconds)}{share}")
    return lines


@dataclass
class AlgorithmTrace:
    """Aggregate of every traced run of one algorithm."""

    algorithm: str
    runs: int = 0
    passes: int = 0
    moves: int = 0
    runtime_seconds: float = 0.0
    cuts: List[float] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def best_cut(self) -> float:
        """Smallest final cut over the traced runs (``nan`` when none)."""
        return min(self.cuts) if self.cuts else float("nan")

    @property
    def mean_cut(self) -> float:
        """Mean final cut over the traced runs (``nan`` when none)."""
        return sum(self.cuts) / len(self.cuts) if self.cuts else float("nan")


@dataclass
class TraceSummary:
    """Per-algorithm rollup of one :class:`TraceRecorder` file."""

    path: str
    events: int = 0
    runs: int = 0
    algorithms: Dict[str, AlgorithmTrace] = field(default_factory=dict)

    def format_text(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"{self.path}: {self.events} event(s), {self.runs} run(s)"]
        for name in sorted(self.algorithms):
            agg = self.algorithms[name]
            lines.append(
                f"  {name}: {agg.runs} run(s), {agg.passes} pass(es), "
                f"{agg.moves} tentative move(s), best cut {agg.best_cut:g}, "
                f"mean {agg.mean_cut:.1f}, "
                f"{_fmt_seconds(agg.runtime_seconds)} runtime"
            )
            lines.extend(_phase_lines(agg.phase_seconds, "    "))
            for counter in sorted(agg.counters):
                lines.append(f"    {counter:<22s} {agg.counters[counter]}")
        return "\n".join(lines)


def summarize_trace(path: str) -> TraceSummary:
    """Aggregate a :class:`TraceRecorder` JSONL file per algorithm.

    Span ``x`` aggregates under the stats key ``x_seconds``, so the
    phase totals read like the runs' ``stats``.  Unparseable lines (a
    torn tail after a crash) are skipped, matching the tolerance of the
    engine's journal reader.
    """
    summary = TraceSummary(path=str(path))
    run_algorithm: Dict[int, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if not isinstance(event, dict) or "event" not in event:
                continue
            summary.events += 1
            kind = event["event"]
            run = event.get("run", 0)
            if kind == "run_start":
                summary.runs += 1
                name = str(event.get("algorithm", "?"))
                run_algorithm[run] = name
                agg = summary.algorithms.setdefault(
                    name, AlgorithmTrace(algorithm=name)
                )
                agg.runs += 1
                continue
            name = run_algorithm.get(run, "?")
            agg = summary.algorithms.setdefault(
                name, AlgorithmTrace(algorithm=name)
            )
            if kind == "span":
                key = phase_stat_key(str(event.get("name", "")))
                agg.phase_seconds[key] = (
                    agg.phase_seconds.get(key, 0.0)
                    + float(event.get("seconds", 0.0))
                )
            elif kind == "counters":
                for counter, value in dict(event.get("counts", {})).items():
                    agg.counters[counter] = (
                        agg.counters.get(counter, 0) + int(value)
                    )
            elif kind == "pass_end":
                agg.passes += 1
                agg.moves += int(event.get("moves", 0))
            elif kind == "run_end":
                agg.cuts.append(float(event.get("cut", 0.0)))
                agg.runtime_seconds += float(
                    event.get("runtime_seconds", 0.0)
                )
    return summary


@dataclass
class JournalGroup:
    """Aggregate of one algorithm's units inside a run journal."""

    algorithm: str
    units: int = 0
    seconds: float = 0.0
    cuts: List[float] = field(default_factory=list)
    sources: Dict[str, int] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def best_cut(self) -> float:
        """Smallest recorded cut in the group (``nan`` when empty)."""
        return min(self.cuts) if self.cuts else float("nan")


@dataclass
class JournalSummary:
    """Per-algorithm rollup of one engine run journal."""

    path: str
    run_id: str = ""
    version: str = ""
    units_expected: int = 0
    units_recorded: int = 0
    groups: Dict[str, JournalGroup] = field(default_factory=dict)

    def format_text(self) -> str:
        """Human-readable multi-line report."""
        head = f"{self.path}: run {self.run_id or '?'}"
        if self.version:
            head += f" (v{self.version})"
        head += f", {self.units_recorded}/{self.units_expected} unit(s)"
        lines = [head]
        for name in sorted(self.groups):
            group = self.groups[name]
            sources = ", ".join(
                f"{n} {src}" for src, n in sorted(group.sources.items())
            )
            lines.append(
                f"  {name}: {group.units} unit(s), best cut "
                f"{group.best_cut:g}, {_fmt_seconds(group.seconds)} compute"
                + (f" [{sources}]" if sources else "")
            )
            lines.extend(_phase_lines(group.phase_seconds, "    "))
        return "\n".join(lines)


def summarize_run_journal(path: str) -> JournalSummary:
    """Aggregate an engine run journal per algorithm.

    Uses the same checksum-verifying reader as engine resume
    (:func:`repro.engine.journal.iter_journal_records`), so corrupt or
    torn lines are excluded rather than miscounted.  Phase timings come
    from each unit's persisted ``stats`` — the path by which telemetry
    reaches pooled workers that cannot carry a live recorder.
    """
    summary = JournalSummary(path=str(path))
    for record in iter_journal_records(path):
        if record.get("type") == "header":
            summary.run_id = str(record.get("run_id", ""))
            summary.version = str(record.get("version", ""))
            summary.units_expected = int(record.get("units", 0))
            continue
        if record.get("type") != "unit":
            continue
        summary.units_recorded += 1
        name = str(record.get("algorithm", "?"))
        group = summary.groups.setdefault(name, JournalGroup(algorithm=name))
        group.units += 1
        group.seconds += float(record.get("seconds", 0.0))
        cut = record.get("cut")
        if isinstance(cut, (int, float)):
            group.cuts.append(float(cut))
        source = str(record.get("source", "?"))
        group.sources[source] = group.sources.get(source, 0) + 1
        stats = record.get("stats")
        if isinstance(stats, dict):
            for key, seconds in collect_phase_seconds(stats).items():
                group.phase_seconds[key] = (
                    group.phase_seconds.get(key, 0.0) + seconds
                )
    return summary


def summarize_path(path: str):
    """Summarize ``path``, sniffing its dialect from the first line.

    Returns a :class:`TraceSummary` for telemetry traces or a
    :class:`JournalSummary` for engine run journals; raises
    ``ValueError`` when the file matches neither.
    """
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                first = json.loads(line)
            except ValueError:
                continue
            if isinstance(first, dict):
                if "event" in first:
                    return summarize_trace(path)
                if "type" in first:
                    return summarize_run_journal(path)
            break
    raise ValueError(
        f"{path}: neither a telemetry trace nor a run journal "
        "(no 'event'/'type' field on the first JSON line)"
    )
