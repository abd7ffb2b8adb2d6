"""One bounded scratch workspace per thread for the fused execution backend.

A fused kernel (:mod:`repro.exec.fused`) writes every intermediate of an
EFT chain into scratch via ``out=`` instead of letting the array library
allocate a fresh temporary per micro-op.  The arena owns that scratch:
one flat float64 workspace of :data:`WORKSPACE_BYTES` per thread.  A
kernel *carves* its buffers as views at a bump offset
(:meth:`ScratchArena.carve`); a kernel it calls carves at the offset
the caller's carve returned, so nested scratch stacks above its
caller's and never aliases it.  Nothing is released one buffer at a
time: every outermost backend call starts carving at offset 0 again.
Output arrays are never carved, because they outlive the call.

The workspace never grows.  The fused backend sizes every launch to fit
it (a launch whose scratch would not fit runs in element chunks), so a
thread's scratch stays within :data:`WORKSPACE_BYTES` however many
launch shapes a run sees, and the same few cache-resident bytes serve
every launch.  A carve past the end raises instead of aliasing.

The workspace comes from ``xp.empty`` (contents are garbage until
written); kernels must fully define every element they read.  It is the
host-side analogue of a CUDA workspace allocation reused across kernel
launches; on a CuPy-backed module the same code holds device memory.
Workspaces are thread-local, so two threads running fused kernels
through one backend instance never share scratch.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["WORKSPACE_BYTES", "ScratchArena"]

#: Bytes of one thread's scratch workspace.  Fused launches are chunked
#: so that their scratch fits it; it is never exceeded and never grows.
WORKSPACE_BYTES = 2 * 2**20


class _Workspace:
    """One thread's workspace: typed flat views of one buffer, and the
    highest offset any carve reached."""

    __slots__ = ("flat", "peak")

    def __init__(self, buffer):
        # offsets count float64 elements; a bool view packs 8 per element
        self.flat = {np.float64: (buffer, 1), np.bool_: (buffer.view(np.bool_), 8)}
        self.peak = 0


class ScratchArena:
    """A flat ``xp`` float64 workspace per thread, carved at a bump offset.

    ``xp`` is the array module (NumPy by default; a CuPy module makes
    the workspace a device allocation).  Not a general allocator: the
    caller of :meth:`carve` owns the offset discipline.
    """

    #: float64 elements of one thread's workspace
    capacity = WORKSPACE_BYTES // 8

    def __init__(self, xp=np):
        self.xp = xp
        self._local = threading.local()

    def _workspace(self) -> _Workspace:
        workspace = getattr(self._local, "workspace", None)
        if workspace is None:
            workspace = _Workspace(self.xp.empty(self.capacity))
            self._local.workspace = workspace
        return workspace

    def carve(self, top, *shapes, dtype=np.float64):
        """Views of ``shapes`` carved from this thread's workspace at
        offset ``top``, followed by the offset just past them.

        ``top`` counts float64 elements of the workspace.  The views are
        scratch: their contents are undefined until written, and they
        stay valid until something else carves the same range — which
        the caller prevents by handing the returned offset to every
        kernel it calls while the views are live.  ``dtype`` may be
        ``np.bool_`` for mask buffers.  Raises ``MemoryError`` rather
        than run past the end of the workspace.
        """
        workspace = self._workspace()
        flat, per = workspace.flat[dtype]
        start = top * per
        views = []
        for shape in shapes:
            end = start + math.prod(shape)
            if end > flat.size:
                raise MemoryError(
                    f"fused scratch overflows the {WORKSPACE_BYTES}-byte workspace"
                )
            views.append(flat[start:end].reshape(shape))
            start = end
        top = -(-start // per)
        if top > workspace.peak:
            workspace.peak = top
        views.append(top)
        return views

    def high_water(self, run) -> int:
        """Call ``run()`` and return the highest workspace offset (in
        float64 elements) its carves reached on this thread."""
        workspace = self._workspace()
        before, workspace.peak = workspace.peak, 0
        try:
            run()
            return workspace.peak
        finally:
            workspace.peak = max(before, workspace.peak)

    @property
    def stats(self) -> dict:
        """This thread's workspace: allocations made (0 or 1), its size
        and the highest byte offset any carve reached."""
        workspace = getattr(self._local, "workspace", None)
        if workspace is None:
            return {"allocated": 0, "workspace_bytes": 0, "peak_bytes": 0}
        return {
            "allocated": 1,
            "workspace_bytes": workspace.flat[np.float64][0].nbytes,
            "peak_bytes": workspace.peak * 8,
        }
