"""Shared-memory pool lifecycle under fault: crash, hang, SIGTERM, resume.

The sub-round pool forks workers that attach one shared segment; the
coordinator promises three things when they misbehave:

* the run still completes, bit-identical, via the inline fallback;
* the segment is always unlinked — ``/dev/shm`` never accumulates
  ``psm_*`` entries, whatever killed the worker;
* journalled runs (``--resume``) replay to the same cuts whether or not
  the original computation degraded to inline mid-run.

Worker-side faults arm through :func:`repro.faults.injected_faults`:
the pool forks its workers, so children inherit the installed injector,
and :meth:`on_subround_worker` only fires inside a child process.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import PropConfig, PropPartitioner
from repro.core.engine import run_prop
from repro.engine import Engine, EngineConfig, WorkUnit, seed_stream
from repro.engine.shm import (
    COMMAND_TIMEOUT_ENV,
    PoolError,
    SubroundPool,
    pool_supported,
)
from repro.faults import FaultPlan, FaultSpec, injected_faults
from repro.hypergraph import make_benchmark
from repro.kernels.csr import CsrView
from repro.partition import (
    BalanceConstraint,
    Partition,
    random_balanced_sides,
)

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

GRAPH = make_benchmark("t6", scale=0.05)
SEED = 42


def _shm_listing():
    if not os.path.isdir("/dev/shm"):
        return None
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


@pytest.fixture(autouse=True)
def _require_pool_support():
    if not pool_supported():
        pytest.skip("shared-memory pool unsupported in this context")


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    before = _shm_listing()
    yield
    if before is not None:
        leaked = _shm_listing() - before
        assert leaked == set(), f"leaked /dev/shm segments: {leaked}"


def _subround_run(workers):
    sides = random_balanced_sides(GRAPH, seed=SEED)
    balance = BalanceConstraint.fifty_fifty(GRAPH)
    return run_prop(
        GRAPH, sides, balance,
        PropConfig(kernel="subround", subround_workers=workers),
        seed=SEED,
    )


class TestWorkerCrash:
    def test_crash_engages_inline_fallback_bit_identically(self):
        reference = _subround_run(0)
        plan = FaultPlan(specs=(FaultSpec("crash", rate=1.0),), seed=3)
        with injected_faults(plan):
            faulted = _subround_run(2)
        assert faulted.stats["subround_shm_fallbacks"] >= 1.0
        assert faulted.cut == reference.cut
        assert faulted.sides == reference.sides
        assert faulted.pass_cuts == reference.pass_cuts

    def test_partial_crash_still_bit_identical(self):
        """rate<1 with a nonzero plan seed: whichever worker dies, the
        coordinator cannot trust the round and must fall back whole."""
        reference = _subround_run(0)
        plan = FaultPlan(specs=(FaultSpec("crash", rate=0.5),), seed=11)
        with injected_faults(plan):
            faulted = _subround_run(2)
        assert faulted.cut == reference.cut
        assert faulted.sides == reference.sides


class TestWorkerHang:
    def test_hang_times_out_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(COMMAND_TIMEOUT_ENV, "0.5")
        reference = _subround_run(0)
        plan = FaultPlan(
            specs=(FaultSpec("hang", rate=1.0),), seed=5, hang_seconds=3.0
        )
        t0 = time.monotonic()
        with injected_faults(plan):
            faulted = _subround_run(2)
        # The hung worker is terminated by close(); the run must not
        # have waited out the full hang per command.
        assert time.monotonic() - t0 < 30.0
        assert faulted.stats["subround_shm_fallbacks"] >= 1.0
        assert faulted.cut == reference.cut
        assert faulted.sides == reference.sides


class TestSigterm:
    def test_sigterm_worker_raises_pool_error_and_unlinks(self):
        """Killing a worker externally mid-run: the next barrier fails
        cleanly with PoolError and close() still unlinks the segment."""
        csr = CsrView(GRAPH)
        n, e = csr.num_nodes, csr.num_nets
        pool = SubroundPool(csr, workers=2, timeout=2.0)
        try:
            os.kill(pool._procs[0].pid, signal.SIGTERM)
            pool._procs[0].join(timeout=10.0)
            with pytest.raises(PoolError):
                pool.prop_gains(
                    np.full(n, 0.5), np.zeros(n, dtype=np.int8),
                    np.zeros(n, dtype=bool), np.empty(2 * e), np.empty(n),
                )
        finally:
            pool.close()

    def test_close_is_idempotent_after_sigterm(self):
        pool = SubroundPool(CsrView(GRAPH), workers=2, timeout=2.0)
        for proc in pool._procs:
            os.kill(proc.pid, signal.SIGTERM)
        pool.close()
        pool.close()  # second close must be a no-op, not an error

    def test_engine_run_survives_sigterm_mid_pass(self):
        """SIGTERM the attached pool's worker from outside while a real
        run is in flight; the run completes inline and stays identical."""
        reference = _subround_run(0)
        sides = random_balanced_sides(GRAPH, seed=SEED)
        balance = BalanceConstraint.fifty_fifty(GRAPH)
        from repro.kernels.subround import SubroundPropEngine

        config = PropConfig(kernel="subround", subround_workers=2)
        engine = SubroundPropEngine(
            Partition(GRAPH, list(sides)), config, SEED
        )
        try:
            pool = engine._ensure_pool()
            assert pool is not None, "pool failed to start"
            os.kill(pool._procs[1].pid, signal.SIGTERM)
            pool._procs[1].join(timeout=10.0)
            result = run_prop(GRAPH, sides, balance, config, seed=SEED)
        finally:
            engine.close()
        assert result.cut == reference.cut
        assert result.sides == reference.sides


class TestResume:
    def _units(self, n=3):
        partitioner = PropPartitioner(
            PropConfig(kernel="subround", subround_workers=2)
        )
        return [
            WorkUnit(GRAPH, partitioner, seed=s)
            for s in seed_stream(SEED, n)
        ]

    def test_resume_after_faulted_run_is_bit_identical(self, tmp_path):
        """A journalled run whose pools all crashed resumes to the same
        cuts as a clean compute — degraded provenance, identical data."""
        clean = Engine(EngineConfig(
            workers=0, use_cache=False, cache_dir=str(tmp_path / "c1"),
        ))
        expected = [r.result.cut for r in clean.run(self._units())]

        plan = FaultPlan(specs=(FaultSpec("crash", rate=1.0),), seed=7)
        faulted = Engine(EngineConfig(
            workers=0, use_cache=False, cache_dir=str(tmp_path / "c2"),
        ))
        with injected_faults(plan):
            first = faulted.run(self._units(), run_id="shm-chaos")
        assert [r.result.cut for r in first] == expected

        resumed = Engine(EngineConfig(
            workers=0, use_cache=False, cache_dir=str(tmp_path / "c2"),
        ))
        replay = resumed.run(
            self._units(), run_id="shm-chaos", resume=True
        )
        assert [r.result.cut for r in replay] == expected
        assert all(r.source == "journal" for r in replay)
