"""The execution-backend boundary under the limb kernels.

Every :class:`repro.vec.mdarray.MDArray` arithmetic operation funnels
through one :class:`ExecutionBackend`.  A backend works directly on the
limb-major storage — a ``(m,) + shape`` float64 ndarray whose slice
``data[k]`` is the ``k``-th most significant limb plane — and returns a
fresh ``(m,) + broadcast_shape`` stack.  Two implementations ship:

* ``fused`` (:class:`repro.exec.fused.FusedBackend`) — the default.
  The float operation sequence of ``generic`` (same EFT formulas, same
  renormalization chains, so every non-NaN bit is equal and NaNs sit
  at the same positions; only a NaN's sign or payload can differ,
  because NumPy picks between two NaN operands by launch width)
  executed as fused array kernels: ``out=`` into scratch carved from
  one bounded workspace per thread, whole ``(k,) + shape`` workspace
  stacks for the renormalization passes, and stacked limb-parallel EFTs
  where the data dependencies allow it.
* ``generic`` (:class:`repro.exec.generic.GenericBackend`) — the
  oracle.  It calls the limb-tuple arithmetic of
  :mod:`repro.md.generic` as ``MDArray`` always has, one NumPy
  micro-op and one fresh temporary per EFT step; the bit-identity
  tests compare ``fused`` against it.

At ``m = 1`` neither backend is a call-for-call replay of
:mod:`repro.md.generic` any more.  Both run a launch whose operands all
have one limb through the plain IEEE double kernels of
:mod:`repro.exec.onelimb` (``add``, ``sub``, ``mul``, ``div``, ``sqr``,
``sqrt``): when the error-free transformations are exact and finite,
the one-limb renormalization returns the rounded value itself, so one
IEEE operation plus ``+ 0.0`` gives the same bits.  A per-launch guard
sends every other launch down the expansion path.

``fused`` runs each ``add``, ``sub``, ``mul``, ``div``, ``sqr`` and
``sqrt`` launch down the first of three paths that takes it: the
one-limb kernels; the narrow replay of :mod:`repro.exec.narrow`, a host
path that runs :mod:`repro.md.generic` element by element on Python
floats for a launch whose output plane holds at most a few elements
(a private count per operation and precision, dd to od), where a fused
kernel's fixed per-call cost would dominate; then its fused kernels.
The replay declines what Python and NumPy treat differently (non-finite
operands, a zero divisor, a negative radicand) and discards a result
that holds a NaN.  ``generic`` never replays.

The boundary is shaped for the paper's hardware story: a backend holds
the array-module handle ``xp``, and every kernel allocates through it.
Dropping in a CuPy (or JAX NumPy) module turns the simulated kernel
launches of :mod:`repro.gpu` into real device launches without touching
the call sites — the instrumentation (``@profiled`` span names, launch
traces) is backend-independent by construction.

Selection: :func:`get_backend` / :func:`set_backend` /
:func:`use_backend`, with the ``REPRO_EXEC_BACKEND`` environment
variable choosing the process-wide default (read once, at first use;
``fused`` when unset).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .arena import ScratchArena

__all__ = [
    "ExecutionBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the default backend ("generic"/"fused").
ENV_VAR = "REPRO_EXEC_BACKEND"


class ExecutionBackend:
    """Base class: the operation surface the limb kernels target.

    All methods take limb-major stacks (``(k,) + shape`` float64
    ndarrays, most significant limb first) and return a fresh
    ``(m,) + broadcast_shape`` stack.  ``m`` defaults to the leading
    axis of ``x`` — the working precision of the calling ``MDArray``.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, xp=np):
        self.xp = xp
        self.arena = ScratchArena(xp)

    # -- arithmetic interface (subclasses implement) --------------------
    def add(self, x, y, m=None):
        raise NotImplementedError

    def sub(self, x, y, m=None):
        raise NotImplementedError

    def mul(self, x, y, m=None):
        raise NotImplementedError

    def div(self, x, y, m=None):
        raise NotImplementedError

    def sqr(self, x, m=None):
        raise NotImplementedError

    def fma(self, x, y, z, m=None):
        raise NotImplementedError

    def sqrt(self, x, m=None):
        raise NotImplementedError

    def renormalize(self, limbs, m):
        """Compress a sequence of term planes to ``m`` limbs."""
        raise NotImplementedError

    # -- launch-configuration hooks (reference implementations) ---------
    # Value-neutral data movement that prepares operands for a launch.
    # The base implementations reproduce the pre-backend behavior
    # exactly (copies, per-call index computation); the fused backend
    # overrides them with views and cached index grids — same values.
    def split_reduction_operands(self, work, axis, pad):
        """The two halves of one pairwise-reduction level.

        Splits ``work`` along ``axis`` into ``ceil(n/2)`` and
        ``floor(n/2)`` element halves, padding an odd second half with
        one identity block from ``pad(shape)``; returns read-only
        operands for the level's combine launch.
        """
        n = work.shape[axis]
        half = (n + 1) // 2
        first = np.take(work, np.arange(0, half), axis=axis)
        second = np.take(work, np.arange(half, n), axis=axis)
        if n % 2 == 1:
            pad_shape = list(first.shape)
            pad_shape[axis] = 1
            second = np.concatenate([second, pad(pad_shape)], axis=axis)
        return first, second

    def gather_antidiagonals(self, data, terms):
        """Anti-diagonal gather of a Cauchy product grid.

        ``data`` is a limb-major stack over a ``(terms, terms)``
        product grid (last two element axes); the result holds
        ``out[..., i, k] = data[..., i, k - i]`` with exact zeros where
        ``k < i`` — the coefficient-major layout the pairwise
        convolution sum reduces over.
        """
        rows = np.arange(terms)[:, None]
        cols = np.arange(terms)[None, :] - rows
        valid = cols >= 0
        gathered = data[..., rows, np.where(valid, cols, 0)]
        return np.where(valid, gathered, 0.0)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} xp={self.xp.__name__}>"


# ---------------------------------------------------------------------------
# registry / selection
# ---------------------------------------------------------------------------

def _make_generic():
    from .generic import GenericBackend

    return GenericBackend()


def _make_fused():
    from .fused import FusedBackend

    return FusedBackend()


_FACTORIES: dict[str, Callable[[], ExecutionBackend]] = {
    "generic": _make_generic,
    "fused": _make_fused,
}
_lock = threading.Lock()
_active: ExecutionBackend | None = None


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend factory (e.g. a CuPy-module FusedBackend)."""
    _FACTORIES[name] = factory


def available_backends() -> tuple:
    """The registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def _instantiate(name: str) -> ExecutionBackend:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return factory()


def get_backend() -> ExecutionBackend:
    """The active execution backend.

    On first use the process default is taken from ``REPRO_EXEC_BACKEND``
    (falling back to ``fused``; ``generic`` selects the oracle);
    afterwards :func:`set_backend` and :func:`use_backend` control it.
    """
    global _active
    backend = _active
    if backend is None:
        with _lock:
            if _active is None:
                _active = _instantiate(os.environ.get(ENV_VAR, "fused"))
            backend = _active
    return backend


def set_backend(backend: ExecutionBackend | str) -> ExecutionBackend:
    """Set the active backend by name or instance; returns it."""
    global _active
    if isinstance(backend, str):
        backend = _instantiate(backend)
    if not isinstance(backend, ExecutionBackend):
        raise TypeError(f"not an ExecutionBackend: {backend!r}")
    _active = backend
    return backend


@contextmanager
def use_backend(backend):
    """Temporarily swap the active backend (name or instance)."""
    global _active
    previous = get_backend()
    current = set_backend(backend)
    try:
        yield current
    finally:
        _active = previous
