"""Per-shape scratch-buffer arena for the fused execution backend.

A fused kernel (:mod:`repro.exec.fused`) writes every intermediate of an
EFT chain into a preallocated buffer via ``out=`` instead of letting the
array library allocate a fresh temporary per micro-op.  The arena owns
those buffers: it keeps one pool per ``(dtype, shape)`` key and hands
buffers out in stack (frame) discipline — a kernel marks the arena on
entry, takes what it needs, and releases back to the mark on exit, so
the same few cache-resident buffers serve every operation of a given
shape for the lifetime of the backend.

The persistent per-launch-shape *bundles* (:meth:`ScratchArena.bundle`)
are cached least recently used first out, within :data:`BUNDLE_BYTES`
per thread: a sweep over many distinct launch shapes (the shrinking
trailing blocks of a QR factorization, say) would otherwise keep one
buffer set per shape alive for the life of the process.

Buffers come from ``xp.empty`` (contents are garbage until written);
kernels must fully define every element they read.  The arena is the
host-side analogue of a CUDA workspace allocation reused across kernel
launches — on a CuPy-backed module the same code holds device buffers.

Pools are thread-local, so two threads running fused kernels through one
backend instance never hand each other in-use scratch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["BUNDLE_BYTES", "ScratchArena"]

#: Byte budget of the cached scratch bundles of one thread.  Beyond it
#: the least recently used bundles are dropped (a dropped bundle is
#: simply allocated afresh on its next launch).
BUNDLE_BYTES = 32 * 2**20


def _owned_bytes(bufs) -> int:
    """Bytes of the buffers that own their memory (views are free)."""
    return sum(buf.nbytes for buf in bufs if getattr(buf, "base", None) is None)


class ScratchArena:
    """Reusable ``xp`` buffers pooled by dtype and shape.

    ``xp`` is the array module (NumPy by default; a CuPy module makes
    the buffers device allocations).  Not a general allocator: buffers
    must be released in LIFO frame order via :meth:`mark` /
    :meth:`release` (or the :meth:`frame` context manager).
    """

    def __init__(self, xp=np):
        self.xp = xp
        self._local = threading.local()

    # ------------------------------------------------------------------
    # thread-local state
    # ------------------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "pools": {},
                "log": [],
                "allocated": 0,
                "reused": 0,
                "bundles": OrderedDict(),
                "bundle_bytes": 0,
            }
            self._local.state = state
        return state

    # ------------------------------------------------------------------
    # frame discipline
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Checkpoint the in-use log (cheap: a length)."""
        return len(self._state()["log"])

    def release(self, mark: int) -> None:
        """Return every buffer taken since ``mark`` to its pool."""
        state = self._state()
        log = state["log"]
        pools = state["pools"]
        while len(log) > mark:
            key, buf = log.pop()
            pools[key].append(buf)

    def frame(self):
        """Context manager form of :meth:`mark`/:meth:`release`."""
        return _Frame(self)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def take(self, shape, dtype=np.float64):
        """A scratch buffer of the given shape, pooled per (dtype, shape).

        The contents are undefined — the caller must write before
        reading.  The buffer belongs to the current frame and is
        recycled on :meth:`release`.
        """
        shape = tuple(shape)
        key = (np.dtype(dtype).str, shape)
        state = self._state()
        pool = state["pools"].setdefault(key, [])
        if pool:
            buf = pool.pop()
            state["reused"] += 1
        else:
            buf = self.xp.empty(shape, dtype=dtype)
            state["allocated"] += 1
        state["log"].append((key, buf))
        return buf

    def take_stack(self, k: int, shape, dtype=np.float64):
        """A ``(k,) + shape`` workspace stack (limb/term-major)."""
        return self.take((k, *shape), dtype=dtype)

    def bundle(self, key, shapes=None, dtype=np.float64, build=None):
        """The persistent scratch set of one fused kernel launch shape.

        ``key`` identifies a (kernel, launch configuration) pair and
        ``shapes`` the buffers that kernel needs; the first call
        allocates them, every later call returns the same tuple — one
        dict probe instead of one :meth:`take` per buffer, which is
        what keeps small fused launches cheaper than allocator churn.
        The cache holds at most :data:`BUNDLE_BYTES` and drops the least
        recently used bundles beyond it; a bundle larger than the whole
        budget is handed out uncached.
        Alternatively ``build`` is a callable ``build(xp) -> tuple``
        producing the cached value — used by kernels that also want
        derived structures (pre-sliced row views) amortized into the
        same probe.  The caller owns the exclusivity contract: a kernel
        must not re-enter itself (directly or mutually) with the same
        key while its bundle is live.  Bundles are thread-local like
        the pools.
        """
        state = self._state()
        bundles = state["bundles"]
        entry = bundles.get(key)
        if entry is not None:
            bundles.move_to_end(key)
            state["reused"] += len(entry[0])
            return entry[0]
        if build is not None:
            bufs = build(self.xp)
        else:
            dt = np.dtype(dtype)
            bufs = tuple(self.xp.empty(s, dtype=dt) for s in shapes)
        state["allocated"] += len(bufs)
        size = _owned_bytes(bufs)
        if size <= BUNDLE_BYTES:
            bundles[key] = (bufs, size)
            state["bundle_bytes"] += size
            while state["bundle_bytes"] > BUNDLE_BYTES:
                _, (_, dropped) = bundles.popitem(last=False)
                state["bundle_bytes"] -= dropped
        return bufs

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Allocation counters for this thread: fresh vs pool hits, and
        the cached bundles with their byte total."""
        state = self._state()
        return {
            "allocated": state["allocated"],
            "reused": state["reused"],
            "pooled_buffers": sum(len(p) for p in state["pools"].values()),
            "in_use": len(state["log"]),
            "bundles": len(state["bundles"]),
            "bundle_bytes": state["bundle_bytes"],
        }


class _Frame:
    __slots__ = ("_arena", "_mark")

    def __init__(self, arena):
        self._arena = arena
        self._mark = None

    def __enter__(self):
        self._mark = self._arena.mark()
        return self._arena

    def __exit__(self, exc_type, exc, tb):
        self._arena.release(self._mark)
        return False
