"""Work units: the engine's unit of schedulable, cacheable computation.

A :class:`WorkUnit` is one partitioning run — (hypergraph, partitioner,
seed, balance).  The paper's whole evaluation protocol (Sec. 4: best cut
over N runs from random initial partitions) decomposes into independent
work units, which is what makes it embarrassingly parallel: each unit is
fully described by its inputs, carries its own seed, and can execute on
any worker in any order without changing the outcome.

This module also defines the *fingerprints* used as cache keys.  A unit's
key is a content hash over

    repro.__version__ | hypergraph | partitioner config | balance | seed

so a cached record is valid exactly as long as all four inputs (and the
code version) are unchanged.  Fingerprints are pure functions of value,
never of object identity — two structurally identical hypergraphs share
cache entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, List, Optional

from ..audit import AuditConfig
from ..hypergraph import Hypergraph
from ..multirun import Partitioner
from ..partition import BalanceConstraint


def seed_stream(base_seed: int, runs: int) -> List[int]:
    """The canonical seed sequence ``base_seed .. base_seed + runs - 1``.

    Every best-of-N batch (:func:`repro.multirun.run_cells`) derives its
    seeds from this one function, which is what makes pooled and
    in-process execution bit-identical: the i-th run sees the same seed
    either way, and results are folded back in unit order.
    """
    if runs < 0:
        raise ValueError(f"runs must be >= 0, got {runs}")
    return [base_seed + i for i in range(runs)]


@dataclass(frozen=True)
class WorkUnit:
    """One partitioning run, self-contained and independently executable.

    Attributes
    ----------
    graph:
        The netlist to bisect.
    partitioner:
        Any object satisfying the :class:`repro.multirun.Partitioner`
        protocol.  Must be picklable for process-pool execution (every
        partitioner in this package is).
    seed:
        Seed for the run's random initial partition.
    balance:
        Balance constraint, or ``None`` for the partitioner's default.
    tag:
        Free-form grouping key for the caller (e.g. ``"balu/FM100"``);
        the engine reports it back but never interprets it.
    audit:
        Optional invariant-audit configuration (see :mod:`repro.audit`).
        Auditing is observational — audited runs produce bit-identical
        results — so it deliberately does **not** participate in the
        cache key; whether a stored record was audited is recorded in
        ``result.stats["audited"]`` and checked at cache-serve time.
    """

    graph: Hypergraph
    partitioner: Partitioner
    seed: int
    balance: Optional[BalanceConstraint] = None
    tag: str = ""
    audit: Optional[AuditConfig] = None

    def cache_key(self, version: str) -> str:
        """Content-addressed identity of this unit under code ``version``."""
        return unit_key(self, version)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
def hypergraph_fingerprint(graph: Hypergraph) -> str:
    """Content hash of a netlist (nets, costs, weights — not names)."""
    h = hashlib.sha256()
    h.update(str(graph.num_nodes).encode())
    for pins in graph.nets:
        h.update(b"|")
        h.update(",".join(map(str, pins)).encode())
    h.update(b"#c")
    h.update(",".join(repr(c) for c in graph.net_costs).encode())
    h.update(b"#w")
    h.update(",".join(repr(w) for w in graph.node_weights).encode())
    return h.hexdigest()


def _canonical_value(value: Any) -> Any:
    """Reduce a config attribute to a stable, repr-able structure.

    Dataclass configs may declare a ``_RESULT_NEUTRAL_FIELDS`` frozenset
    of field names that cannot affect results (e.g.
    ``PropConfig.subround_workers``, which changes only wall-clock);
    those are excluded so switching them does not invalidate cached
    results — the same policy as the audit config, which never enters
    the key at all.

    A config may additionally define a ``fingerprint_extra()`` method
    returning key material that is *conditionally* result-relevant —
    e.g. ``PropConfig`` adds a family marker and the neutral-by-default
    batch fraction exactly when the result-changing subround kernel is
    selected.  The
    extra entries are merged under ``~``-prefixed keys (field names
    never start with ``~``, so they cannot collide or spoof a field).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        neutral = getattr(type(value), "_RESULT_NEUTRAL_FIELDS", frozenset())
        out = {
            f.name: _canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in neutral
        }
        extra = getattr(value, "fingerprint_extra", None)
        if callable(extra):
            for key, val in sorted(extra().items()):
                out[f"~{key}"] = _canonical_value(val)
        return out
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if callable(getattr(value, "partition", None)) and not isinstance(
        value, type
    ):
        # Nested partitioner (e.g. a multilevel engine's ``refiner``).
        # The generic repr fallback below would embed the object's memory
        # address, giving every process a fresh fingerprint for the same
        # configuration — cached results could never be served.  Expand
        # it structurally instead, the same way the top-level
        # partitioner_fingerprint does.
        return {
            "~class": (
                f"{type(value).__module__}.{type(value).__qualname__}"
            ),
            **{
                str(k): _canonical_value(v)
                for k, v in sorted(_public_state(value).items())
            },
        }
    return repr(value)


def _public_state(obj: Any) -> dict:
    """Public attributes of a partitioner, from __dict__ or __slots__."""
    state = {}
    if hasattr(obj, "__dict__"):
        state.update(obj.__dict__)
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                state.setdefault(slot, getattr(obj, slot))
    return {k: v for k, v in state.items() if not k.startswith("_")}


def partitioner_fingerprint(partitioner: Partitioner) -> str:
    """Content hash of a partitioner's class + configuration.

    Covers the class name and every public attribute (dataclass configs
    are expanded field by field), so ``PropPartitioner(PropConfig(pinit=.8))``
    and the default ``PropPartitioner()`` hash differently, while two
    freshly constructed default instances hash identically.
    """
    state = _canonical_value(_public_state(partitioner))
    payload = f"{type(partitioner).__module__}.{type(partitioner).__qualname__}|{state!r}"
    return hashlib.sha256(payload.encode()).hexdigest()


def balance_fingerprint(balance: Optional[BalanceConstraint]) -> str:
    """Content hash of a balance constraint (``'none'`` when absent)."""
    if balance is None:
        return "none"
    state = _canonical_value(_public_state(balance))
    payload = f"{type(balance).__qualname__}|{state!r}"
    return hashlib.sha256(payload.encode()).hexdigest()


def unit_key(unit: WorkUnit, version: str) -> str:
    """Cache key of one work unit: version + all four unit inputs."""
    payload = "|".join(
        (
            version,
            hypergraph_fingerprint(unit.graph),
            partitioner_fingerprint(unit.partitioner),
            balance_fingerprint(unit.balance),
            str(unit.seed),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()
