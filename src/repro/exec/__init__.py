"""repro.exec — pluggable execution backends under the limb kernels.

The backend boundary between the multiple double *algorithms*
(:mod:`repro.md`, :mod:`repro.vec` and everything above them) and the
array *execution* strategy.  See :mod:`repro.exec.backend` for the
contract, :mod:`repro.exec.fused` for the fused NumPy kernels (the
default), :mod:`repro.exec.arena` for the bounded per-thread scratch
workspace they carve, :mod:`repro.exec.generic` for the oracle they are
tested against, :mod:`repro.exec.onelimb` for the plain IEEE double
kernels both run first on one-limb (d) launches and
:mod:`repro.exec.narrow` for the host replay of the oracle on Python
floats that ``fused`` tries next, on launches of a few elements, before
its kernels.

Quickstart::

    from repro.exec import set_backend, use_backend

    set_backend("generic")          # process-wide: the oracle
    with use_backend("fused"):      # scoped
        ...

    # or per process, before the first operation:
    #   REPRO_EXEC_BACKEND=generic python ...

Both backends produce the same results: every non-NaN bit is equal and
NaNs sit at the same positions.  ``fused`` is the fast one and the
default.  ``register_backend`` accepts new factories (e.g. a
``FusedBackend(xp=cupy)``) for array modules that turn the simulated
kernel launches into real device launches.
"""

from __future__ import annotations

from .arena import ScratchArena  # noqa: F401
from .backend import (  # noqa: F401
    ENV_VAR,
    ExecutionBackend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .fused import FusedBackend  # noqa: F401
from .generic import GenericBackend  # noqa: F401

__all__ = [
    "ENV_VAR",
    "ExecutionBackend",
    "FusedBackend",
    "GenericBackend",
    "ScratchArena",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]
