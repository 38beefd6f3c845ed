"""PartitionService lifecycle: submit, execute, cancel, recover.

Everything here drives the transport-free core directly — no sockets —
which is what keeps the full submit → execute → result → recover cycle
fast enough for the tier-1 suite.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.engine import Engine, EngineConfig
from repro.service import (
    JobNotFound,
    PartitionService,
    SchemaError,
    ServiceConfig,
    ServiceStopping,
)
from repro.service.schemas import build_units, parse_job_spec

pytestmark = pytest.mark.slow


def payload(index: int = 0, runs: int = 2, **overrides):
    spec = {
        "generate": {
            "kind": "many_small", "size_range": [8, 14],
            "seed": 5, "index": index,
        },
        "algorithm": "fm",
        "runs": runs,
        "seed": 1000 + index,
    }
    spec.update(overrides)
    return spec


def service_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        cache_dir=str(tmp_path / "cache"),
        job_workers=2,
        integrity_check=False,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def wait_terminal(service, job_id, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        job = service.get_job(job_id)
        if job.terminal:
            return job
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError(f"job {job_id} still {job.state}")
        await asyncio.sleep(0.01)


def test_submit_executes_to_done(tmp_path):
    async def main():
        service = PartitionService(service_config(tmp_path))
        await service.start()
        try:
            job = await service.submit(payload())
            assert job.job_id.startswith("j000000-")
            done = await wait_terminal(service, job.job_id)
            assert done.state == "done"
            assert len(done.results) == 2
            assert all(r["cut"] is not None for r in done.results)
            result = done.result_payload()
            assert result["best_cut"] == min(result["cuts"])
        finally:
            await service.stop()
    asyncio.run(main())


def test_cuts_match_serial_engine_reference(tmp_path):
    """The determinism contract: service execution == direct engine run."""
    async def main():
        service = PartitionService(service_config(tmp_path))
        await service.start()
        try:
            job = await service.submit(payload(runs=3))
            done = await wait_terminal(service, job.job_id)
            return [r["cut"] for r in done.results]
        finally:
            await service.stop()
    service_cuts = asyncio.run(main())

    spec = parse_job_spec(payload(runs=3))
    engine = Engine(EngineConfig(workers=0, use_cache=False))
    reference = engine.run(build_units(spec).units)
    assert service_cuts == [r.result.cut for r in reference]


def test_bad_payload_rejected_before_any_state(tmp_path):
    async def main():
        service = PartitionService(service_config(tmp_path))
        await service.start()
        try:
            with pytest.raises(SchemaError):
                await service.submit({"algorithm": "fm"})  # no graph
            with pytest.raises(SchemaError):
                await service.submit(payload(algorithm="bogus"))
            with pytest.raises(SchemaError):
                await service.submit({"hgr": "not hgr at all"})
            assert not service.jobs
        finally:
            await service.stop()
    asyncio.run(main())


def test_cancel_queued_job(tmp_path):
    async def main():
        # One worker, stalled by a long job: the victim stays queued
        # long enough for cancel to withdraw it before execution.
        config = service_config(tmp_path, job_workers=1)
        service = PartitionService(config)
        await service.start()
        try:
            blocker = await service.submit(payload(index=0, runs=50))
            victim = await service.submit(payload(index=1, runs=50))
            cancelled = await service.cancel(victim.job_id)
            assert cancelled.state in ("queued", "cancelled")
            done = await wait_terminal(service, victim.job_id)
            assert done.state == "cancelled"
            await service.cancel(blocker.job_id)
            await wait_terminal(service, blocker.job_id)
        finally:
            await service.stop()
    asyncio.run(main())


def test_cancel_running_job_preserves_partial_journal(tmp_path):
    async def main():
        service = PartitionService(service_config(tmp_path, job_workers=1))
        await service.start()
        try:
            job = await service.submit(payload(runs=200))
            # Wait for it to actually start, then cancel mid-flight.
            while service.get_job(job.job_id).state == "queued":
                await asyncio.sleep(0.005)
            await service.cancel(job.job_id)
            done = await wait_terminal(service, job.job_id)
            assert done.state == "cancelled"
            return job.job_id
        finally:
            await service.stop()
    asyncio.run(main())


def test_cancel_unknown_job_raises(tmp_path):
    async def main():
        service = PartitionService(service_config(tmp_path))
        await service.start()
        try:
            with pytest.raises(JobNotFound):
                await service.cancel("nope")
            with pytest.raises(JobNotFound):
                service.get_job("nope")
        finally:
            await service.stop()
    asyncio.run(main())


def test_sse_events_flow_through_bus(tmp_path):
    async def main():
        service = PartitionService(service_config(tmp_path))
        await service.start()
        try:
            job = await service.submit(payload(runs=2))
            events = []
            async for frame_type, body in _iter_bus(service, job.job_id):
                events.append((frame_type, body))
            return events
        finally:
            await service.stop()

    async def _iter_bus(service, job_id):
        queue = service.bus.subscribe(job_id)
        while True:
            item = await asyncio.wait_for(queue.get(), timeout=30)
            if item is None:
                return
            yield item

    events = asyncio.run(main())
    kinds = {e for e, _ in events}
    assert "state" in kinds
    assert "progress" in kinds
    assert "trace" in kinds  # CallbackRecorder -> bus bridge
    final_states = [b["state"] for e, b in events if e == "state"]
    assert final_states[-1] == "done"
    # Engine telemetry really crossed the thread boundary.
    trace_events = [b["event"] for e, b in events if e == "trace"]
    assert "run_start" in trace_events and "run_end" in trace_events


def test_restart_recovers_and_finishes_jobs(tmp_path):
    """The crash-recovery loop, in-process: stop a service mid-queue,
    start a fresh one on the same cache dir, everything completes."""
    cache = str(tmp_path / "cache")

    async def first():
        service = PartitionService(ServiceConfig(
            cache_dir=cache, job_workers=1, integrity_check=False,
        ))
        await service.start()
        ids = []
        for i in range(4):
            job = await service.submit(payload(index=i, runs=2))
            ids.append(job.job_id)
        await wait_terminal(service, ids[0])
        await service.stop()  # jobs 1-3 likely still queued/running
        return ids

    async def second(ids):
        service = PartitionService(ServiceConfig(
            cache_dir=cache, job_workers=2, integrity_check=False,
        ))
        await service.start()
        try:
            assert service.recovered_jobs == 4
            states = {}
            for job_id in ids:
                job = await wait_terminal(service, job_id)
                states[job_id] = job.state
            return states
        finally:
            await service.stop()

    ids = asyncio.run(first())
    states = asyncio.run(second(ids))
    assert all(state == "done" for state in states.values())


def test_recovered_done_job_serves_results_from_run_journal(tmp_path):
    cache = str(tmp_path / "cache")

    async def first():
        service = PartitionService(ServiceConfig(
            cache_dir=cache, job_workers=1, integrity_check=False,
        ))
        await service.start()
        job = await service.submit(payload(runs=3))
        done = await wait_terminal(service, job.job_id)
        cuts = [r["cut"] for r in done.results]
        await service.stop()
        return job.job_id, cuts

    async def second(job_id, cuts):
        service = PartitionService(ServiceConfig(
            cache_dir=cache, job_workers=1, integrity_check=False,
        ))
        await service.start()
        try:
            job = service.get_job(job_id)
            assert job.state == "done"
            assert job.results is None  # not yet rehydrated
            assert service.ensure_results(job)
            assert [r["cut"] for r in job.results] == cuts
            assert all(r["source"] == "journal" for r in job.results)
        finally:
            await service.stop()

    job_id, cuts = asyncio.run(first())
    asyncio.run(second(job_id, cuts))


def test_done_job_survives_a_stop_in_the_middle_of_its_settle(tmp_path):
    """The settle's first thread hop is held while the service stops:
    no caller may see the job as done before the jobs journal holds it,
    and stop() must let the settle finish rather than cancel it."""
    cache = str(tmp_path / "cache")
    entered = threading.Event()
    release = threading.Event()

    async def first():
        service = PartitionService(ServiceConfig(
            cache_dir=cache, job_workers=1, integrity_check=False,
        ))
        await service.start()
        record_success = service.quarantine.record_success

        def held(fingerprint):
            entered.set()
            release.wait()
            record_success(fingerprint)

        service.quarantine.record_success = held
        try:
            job = await service.submit(payload(runs=2))
            assert await asyncio.to_thread(entered.wait, 30.0)
            seen = service.get_job(job.job_id).state
            workers = list(service._workers)
            stopping = asyncio.create_task(service.stop())
            # Once every worker is done, stop() has cancelled them all.
            _, pending = await asyncio.wait(workers, timeout=30.0)
            assert not pending
        finally:
            release.set()
        await asyncio.wait_for(stopping, 30.0)
        return job.job_id, seen

    async def second(job_id):
        service = PartitionService(ServiceConfig(
            cache_dir=cache, job_workers=1, integrity_check=False,
        ))
        await service.start()
        try:
            return service.get_job(job_id).state
        finally:
            await service.stop()

    job_id, seen = asyncio.run(first())
    assert seen == "running"
    assert asyncio.run(second(job_id)) == "done"


def test_failed_execution_settles_job_as_failed(tmp_path, monkeypatch):
    """A permanent injected fault fails the unit; the job reports it."""
    monkeypatch.setenv("REPRO_FAULTS", "seed=1,permanent:1")
    async def main():
        service = PartitionService(service_config(tmp_path, use_cache=False))
        await service.start()
        try:
            job = await service.submit(payload(runs=1))
            done = await wait_terminal(service, job.job_id)
            assert done.state == "failed"
            assert "PermanentFaultError" in done.error
        finally:
            await service.stop()
    asyncio.run(main())


def test_failed_job_with_mixed_units_keeps_worker_alive(tmp_path, monkeypatch):
    """Regression: error rows carry ``cut=None``.  A failed multi-run
    job must aggregate only successful cuts in its payloads, and
    settling it must never raise out of the worker task — that used to
    TypeError in ``min()`` and permanently shrink the worker pool."""
    monkeypatch.setenv("REPRO_FAULTS", "seed=1,permanent:0.5")

    async def main():
        service = PartitionService(
            service_config(tmp_path, use_cache=False, job_workers=1)
        )
        await service.start()
        try:
            # seed 1000 + permanent:0.5 under plan seed 1: units fail
            # deterministically as [err, ok, ok, err] — a genuine mix.
            job = await service.submit(payload(runs=4))
            done = await wait_terminal(service, job.job_id)
            assert done.state == "failed"
            oks = [r for r in done.results if r.get("cut") is not None]
            errs = [r for r in done.results if r.get("error")]
            assert oks and errs
            status = done.status_payload()
            assert status["best_cut"] == min(r["cut"] for r in oks)
            result = done.result_payload()
            assert result["best_cut"] == min(r["cut"] for r in oks)
            assert result["cuts"] == [r["cut"] for r in oks]
            assert "PermanentFaultError" in result["error"]
            # The lone worker survived settling: a clean job still runs.
            monkeypatch.delenv("REPRO_FAULTS")
            clean = await service.submit(payload(index=1, runs=2))
            finished = await wait_terminal(service, clean.job_id)
            assert finished.state == "done"
        finally:
            await service.stop()
    asyncio.run(main())


def test_all_failed_job_payloads_omit_cuts(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "seed=1,permanent:1")

    async def main():
        service = PartitionService(service_config(tmp_path, use_cache=False))
        await service.start()
        try:
            job = await service.submit(payload(runs=2))
            done = await wait_terminal(service, job.job_id)
            assert done.state == "failed"
            assert done.status_payload()["best_cut"] is None
            result = done.result_payload()
            assert "best_cut" not in result and "cuts" not in result
            assert len(result["results"]) == 2
        finally:
            await service.stop()
    asyncio.run(main())


def test_submit_rejected_once_stopping(tmp_path):
    async def main():
        service = PartitionService(service_config(tmp_path))
        await service.start()
        job = await service.submit(payload())
        await wait_terminal(service, job.job_id)
        await service.stop()
        with pytest.raises(ServiceStopping):
            await service.submit(payload(index=1))
    asyncio.run(main())


def test_terminal_job_history_is_bounded(tmp_path):
    async def main():
        service = PartitionService(
            service_config(tmp_path, max_job_history=2)
        )
        await service.start()
        try:
            ids = []
            for i in range(4):
                job = await service.submit(payload(index=i, runs=1))
                await wait_terminal(service, job.job_id)
                ids.append(job.job_id)
            assert list(service.jobs) == ids[-2:]
            for old in ids[:2]:
                with pytest.raises(JobNotFound):
                    service.get_job(old)
                # Bus replay state is forgotten with the job.
                assert old not in service.bus._last
                assert old not in service.bus._terminal
        finally:
            await service.stop()
    asyncio.run(main())


def test_stats_shape(tmp_path):
    async def main():
        service = PartitionService(service_config(tmp_path))
        await service.start()
        try:
            job = await service.submit(payload())
            await wait_terminal(service, job.job_id)
            return await service.stats()
        finally:
            await service.stop()
    stats = asyncio.run(main())
    assert stats["jobs"]["done"] == 1
    assert stats["total_jobs"] == 1
    assert stats["queue"]["depth"] == 0
    assert stats["journal"]["appended"] >= 3  # job + queued/running/done
    assert stats["workers"]["job_workers"] == 2


def test_list_jobs_filters(tmp_path):
    async def main():
        service = PartitionService(service_config(tmp_path))
        await service.start()
        try:
            a = await service.submit(payload(index=0, tenant="acme"))
            b = await service.submit(payload(index=1, tenant="zeta"))
            await wait_terminal(service, a.job_id)
            await wait_terminal(service, b.job_id)
            by_tenant = service.list_jobs(tenant="acme")
            by_state = service.list_jobs(state="done")
            return [j.job_id for j in by_tenant], len(by_state)
        finally:
            await service.stop()
    tenant_ids, done_count = asyncio.run(main())
    assert len(tenant_ids) == 1
    assert done_count == 2
