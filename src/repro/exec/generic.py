"""The reference execution backend: limb-tuple generic arithmetic.

This backend reproduces what ``MDArray._apply`` did before the backend
boundary existed: unpack the limb-major stack into a tuple of limb
views, run the expansion arithmetic of :mod:`repro.md.generic` (every
EFT step a separate NumPy micro-op with a fresh temporary), then
broadcast and restack the resulting limbs.  It is the semantics oracle:
the fused backend must match it bit for bit.

At ``m = 1`` it is no longer a call-for-call replay of
:mod:`repro.md.generic`: a launch whose operands all have one limb runs
the plain IEEE double kernels of :mod:`repro.exec.onelimb` first, which
return the same bits with the renormalization passes dropped, and only
the launches those kernels decline take the expansion path.
:mod:`repro.md.generic` itself is unchanged and stays the oracle.
"""

from __future__ import annotations

import numpy as np

from ..md import generic as mdgeneric
from . import onelimb
from .backend import ExecutionBackend

__all__ = ["GenericBackend"]


def _limb_tuple(data):
    return tuple(data[k] for k in range(data.shape[0]))


class GenericBackend(ExecutionBackend):
    """Current behavior: per-EFT micro-ops through ``repro.md.generic``."""

    name = "generic"

    def _pack(self, limbs):
        return np.stack(np.broadcast_arrays(*limbs), axis=0)

    def add(self, x, y, m=None):
        m = x.shape[0] if m is None else m
        out = onelimb.add(x, y, m)
        if out is None:
            out = self._pack(mdgeneric.add(_limb_tuple(x), _limb_tuple(y), m))
        return out

    def sub(self, x, y, m=None):
        m = x.shape[0] if m is None else m
        out = onelimb.sub(x, y, m)
        if out is None:
            out = self._pack(mdgeneric.sub(_limb_tuple(x), _limb_tuple(y), m))
        return out

    def mul(self, x, y, m=None):
        m = x.shape[0] if m is None else m
        out = onelimb.mul(x, y, m)
        if out is None:
            out = self._pack(mdgeneric.mul(_limb_tuple(x), _limb_tuple(y), m))
        return out

    def div(self, x, y, m=None):
        m = x.shape[0] if m is None else m
        out = onelimb.div(x, y, m)
        if out is None:
            out = self._pack(mdgeneric.div(_limb_tuple(x), _limb_tuple(y), m))
        return out

    def sqr(self, x, m=None):
        m = x.shape[0] if m is None else m
        out = onelimb.sqr(x, m)
        if out is None:
            out = self._pack(mdgeneric.sqr(_limb_tuple(x), m))
        return out

    def fma(self, x, y, z, m=None):
        m = x.shape[0] if m is None else m
        return self._pack(
            mdgeneric.fma(_limb_tuple(x), _limb_tuple(y), _limb_tuple(z), m)
        )

    def sqrt(self, x, m=None):
        m = x.shape[0] if m is None else m
        out = onelimb.sqrt(x, m)
        if out is None:
            out = self._pack(mdgeneric.sqrt(_limb_tuple(x), m))
        return out

    def renormalize(self, limbs, m):
        return self._pack(mdgeneric.renormalize(list(limbs), m))
