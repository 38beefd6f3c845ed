"""Intra-instance parallelism over ``multiprocessing.shared_memory``.

The experiment engine (:mod:`repro.engine.engine`) parallelizes *across*
work units; this module parallelizes *within* one instance: the gain
kernels of :mod:`repro.kernels.numpy_backend` that the sub-round
engines call are pure functions over any net or node set, so N workers
each computing a fixed net-range (side products) and node-range (gains)
produce bit-identical results to one inline sweep — the coordinator only
chooses how the ranges are cut, never what they contain.

One :class:`SubroundPool` owns exactly one shared segment holding the
static CSR arrays (written once — workers attach instead of unpickling a
hypergraph per command) plus the mutable per-round inputs
(probabilities, sides, locks, pin counts) and the outputs (products,
gains).  Commands travel over per-worker pipes in two phases per PROP
round — ``prods`` (all net products) then, after every worker has
acknowledged, ``gains`` — because the gain of a node reads the products
of *other* workers' nets; FM needs a single ``fm`` phase.

Failure model: any worker death, pipe error or command timeout raises
:class:`PoolError`; the engine responds by closing the pool (terminate,
join, **unlink**) and continuing inline — results are unaffected because
inline and pooled sweeps are bit-identical.  :meth:`SubroundPool.close`
is idempotent and always unlinks the segment, also via ``atexit`` as a
last resort, so ``/dev/shm`` never leaks (chaos-tested in
``tests/faults/test_shm.py``).  Workers re-attaching a named segment
must unregister it from their ``resource_tracker`` — the creator owns
cleanup; without this, each worker's tracker would unlink the segment on
exit and spam leak warnings (Python < 3.13 has no ``track=False``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from multiprocessing import shared_memory
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "PoolError",
    "SubroundPool",
    "attach_arrays",
    "pool_supported",
    "segment_layout",
]

#: Seconds the coordinator waits for a worker acknowledgement before
#: declaring the pool dead (an injected ``hang`` lands here).
COMMAND_TIMEOUT_ENV = "REPRO_SUBROUND_TIMEOUT"
DEFAULT_COMMAND_TIMEOUT = 30.0

_ALIGN = 64

#: The static :class:`~repro.kernels.csr.CsrView` arrays the gain kernels
#: read, written into the segment once.
_CSR_FIELDS = (
    "pin_node", "pin_net", "net_offset",
    "nm_net", "nm_owner", "nm_cost", "nm_flip", "node_offset",
)


class PoolError(RuntimeError):
    """A worker died, hung past the timeout, or the pipe broke."""


def pool_supported() -> bool:
    """Whether a worker pool can exist in this process.

    Daemonic processes (e.g. experiment-engine pool workers) cannot fork
    children; platforms without the ``fork`` start method would re-import
    and re-execute on spawn, which the pipe protocol does not support.
    """
    if multiprocessing.current_process().daemon:
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def segment_layout(
    num_nodes: int, num_nets: int, num_pins: int
) -> Tuple[List[Tuple[str, str, int, int]], int]:
    """``([(name, dtype, length, byte_offset), ...], total_bytes)``.

    Field order is static CSR first (written once), then per-round
    inputs, then outputs; every field is 64-byte aligned so no two
    workers' output ranges share a cache line boundary mid-element.
    """
    n, e, m = num_nodes, num_nets, num_pins
    fields = [
        # -- static CSR (see repro.kernels.csr.CsrView) --
        ("pin_node", np.dtype(np.intp), m),
        ("pin_net", np.dtype(np.intp), m),
        ("net_offset", np.dtype(np.intp), e + 1),
        ("nm_net", np.dtype(np.intp), m),
        ("nm_owner", np.dtype(np.intp), m),
        ("nm_cost", np.dtype(np.float64), m),
        ("nm_flip", np.dtype(np.intp), m),
        ("node_offset", np.dtype(np.intp), n + 1),
        # -- per-round inputs (coordinator writes, workers read) --
        ("p", np.dtype(np.float64), n),
        ("sides", np.dtype(np.int8), n),
        ("locked", np.dtype(np.bool_), n),
        ("counts0", np.dtype(np.int64), e),
        ("counts1", np.dtype(np.int64), e),
        # -- outputs (each worker writes only its own range); the
        # products are a side-major stack (see prop_products) --
        ("prods", np.dtype(np.float64), 2 * e),
        ("gains", np.dtype(np.float64), n),
    ]
    layout = []
    offset = 0
    for name, dtype, length in fields:
        layout.append((name, dtype.str, length, offset))
        nbytes = dtype.itemsize * length
        offset += (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return layout, max(offset, 1)


def attach_arrays(buf, layout) -> Dict[str, np.ndarray]:
    """ndarray views over one shared buffer, per :func:`segment_layout`."""
    return {
        name: np.ndarray(
            (length,), dtype=np.dtype(dtype), buffer=buf, offset=offset
        )
        for name, dtype, length, offset in layout
    }


def _worker_main(conn, shm_name, layout, worker_id, net_range, node_range):
    """Worker loop: attach the segment, serve commands until ``exit``.

    Runs in a forked child.  The fault-injection site fires before each
    command is executed (crash/hang chaos — see
    :meth:`repro.faults.FaultInjector.on_subround_worker`).
    """
    t0 = time.perf_counter()
    try:
        from .workers import pool_worker_init

        pool_worker_init()
    except Exception:
        pass  # resource governance is best-effort; serve commands anyway
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    except Exception as exc:  # segment vanished before we attached
        try:
            conn.send(("fail", repr(exc)))
        except Exception:
            pass
        return
    # Fork children share the parent's resource-tracker process, and its
    # name cache is a set — our attach's re-register of the same name is
    # a no-op, and the creator's unlink() performs the one unregister.
    # (Do NOT unregister here: that would remove the parent's entry from
    # the shared tracker and break its cleanup accounting.)
    arr = attach_arrays(shm.buf, layout)
    csr = SimpleNamespace(
        num_nodes=arr["p"].size,
        num_nets=arr["net_offset"].size - 1,
        **{name: arr[name] for name in _CSR_FIELDS},
    )
    # Each chunk is one slice of the CSR arrays: no gather.
    nets = slice(*net_range)
    nodes = slice(*node_range)
    from ..faults import current_injector
    from ..kernels.numpy_backend import (
        KernelScratch,
        fm_gains,
        prop_gains,
        prop_products,
    )

    scratch = KernelScratch()

    try:
        conn.send(("ready", time.perf_counter() - t0))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "exit":
                break
            round_id = msg[1]
            injector = current_injector()
            if injector is not None:
                injector.on_subround_worker(worker_id, round_id)
            if cmd == "prods":
                prop_products(
                    csr, arr["p"], arr["sides"], arr["prods"], nets, scratch
                )
                conn.send(("ok", 0))
            elif cmd == "gains":
                arr["gains"][nodes], underflows = prop_gains(
                    csr, arr["p"], arr["sides"], arr["locked"],
                    arr["prods"], nodes, scratch=scratch,
                )
                conn.send(("ok", underflows))
            elif cmd == "fm":
                arr["gains"][nodes] = fm_gains(
                    csr, arr["sides"], arr["counts0"], arr["counts1"], nodes
                )
                conn.send(("ok", 0))
            else:
                conn.send(("fail", f"unknown command {cmd!r}"))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        del arr  # release buffer views before closing the segment
        shm.close()
        conn.close()


class SubroundPool:
    """N forked workers attached read-write to one shared segment.

    The coordinator (the sub-round engine) writes the per-round inputs,
    broadcasts phase commands, and reads the outputs back; each worker
    writes only its own disjoint net/node output ranges, so no
    synchronization beyond the per-phase barrier is needed.
    """

    def __init__(self, csr, workers: int, timeout: Optional[float] = None):
        if workers < 1:
            raise ValueError(f"need at least 1 worker, got {workers}")
        if timeout is None:
            env = os.environ.get(COMMAND_TIMEOUT_ENV, "").strip()
            timeout = float(env) if env else DEFAULT_COMMAND_TIMEOUT
        self.workers = workers
        self.timeout = timeout
        self.attach_seconds = 0.0
        self._round = 0
        self._closed = False
        self._procs: List[multiprocessing.Process] = []
        self._conns = []

        from ..kernels.subround import split_ranges

        layout, size = segment_layout(
            csr.num_nodes, csr.num_nets, csr.num_pins
        )
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        atexit.register(self._atexit_close)
        self.arr = attach_arrays(self._shm.buf, layout)
        for name in _CSR_FIELDS:
            np.copyto(self.arr[name], getattr(csr, name))

        ctx = multiprocessing.get_context("fork")
        net_ranges = split_ranges(csr.num_nets, workers)
        node_ranges = split_ranges(csr.num_nodes, workers)
        try:
            for wid in range(workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        child, self._shm.name, layout, wid,
                        net_ranges[wid], node_ranges[wid],
                    ),
                    name=f"subround-{wid}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            for wid, conn in enumerate(self._conns):
                kind, value = self._recv(wid, conn)
                if kind != "ready":
                    raise PoolError(f"worker {wid} failed to attach: {value}")
                self.attach_seconds += value
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Command protocol
    # ------------------------------------------------------------------
    def _recv(self, wid: int, conn):
        if not conn.poll(self.timeout):
            raise PoolError(f"worker {wid} timed out after {self.timeout}s")
        try:
            msg = conn.recv()
        except (EOFError, OSError) as exc:
            raise PoolError(f"worker {wid} pipe broke: {exc!r}") from exc
        if msg[0] == "fail":
            raise PoolError(f"worker {wid} reported: {msg[1]}")
        return msg

    def _broadcast(self, cmd: str) -> int:
        """Send ``cmd`` to every worker, await all acks; sum their returns."""
        if self._closed:
            raise PoolError("pool is closed")
        self._round += 1
        payload = (cmd, self._round)
        for wid, conn in enumerate(self._conns):
            try:
                conn.send(payload)
            except (BrokenPipeError, OSError) as exc:
                raise PoolError(f"worker {wid} pipe broke: {exc!r}") from exc
        total = 0
        for wid, conn in enumerate(self._conns):
            total += self._recv(wid, conn)[1]
        return total

    def prop_gains(self, p, sides, locked, prods, gains) -> int:
        """One PROP round: products then gains; returns underflow count.

        Copies the inputs in, runs both barrier phases, copies the
        outputs back out into the caller's arrays (``prods`` is the
        side-major stack of
        :func:`~repro.kernels.numpy_backend.prop_products`).
        """
        np.copyto(self.arr["p"], p)
        np.copyto(self.arr["sides"], sides)
        np.copyto(self.arr["locked"], locked)
        self._broadcast("prods")
        underflows = self._broadcast("gains")
        np.copyto(prods, self.arr["prods"])
        np.copyto(gains, self.arr["gains"])
        return underflows

    def fm_gains(self, sides, locked, counts0, counts1, gains) -> int:
        """One FM gain sweep across all workers."""
        np.copyto(self.arr["sides"], sides)
        np.copyto(self.arr["locked"], locked)
        np.copyto(self.arr["counts0"], counts0)
        np.copyto(self.arr["counts1"], counts1)
        self._broadcast("fm")
        np.copyto(gains, self.arr["gains"])
        return 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers and unlink the segment.  Idempotent; never raises."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # terminate ignored (e.g. injected hang)
                proc.kill()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._conns = []
        self._procs = []
        self.arr = {}  # release buffer views before close()
        try:
            self._shm.close()
        except Exception:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass
        atexit.unregister(self._atexit_close)

    def _atexit_close(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "SubroundPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        self._atexit_close()
