"""Vectorized multiple double arrays in limb-major ("staggered") layout.

The paper stores a matrix of quad doubles as **four matrices of
doubles**, ordered by significance, so that adjacent CUDA threads read
adjacent doubles (memory coalescing).  :class:`MDArray` adopts exactly
that layout: the underlying storage is one NumPy array of shape
``(m,) + shape`` whose slice ``data[k]`` holds the ``k``-th most
significant limb of every element.

All element-wise arithmetic funnels through the active
:class:`repro.exec.ExecutionBackend` (:func:`repro.exec.get_backend`),
which operates directly on the limb-major storage.  The ``generic``
backend delegates to the expansion arithmetic of
:mod:`repro.md.generic` with tuples of NumPy array limbs — one NumPy
micro-op per EFT step; the ``fused`` backend executes the exact same
float operation sequence as fused whole-array kernels over a scratch
arena, bit-identical by construction.  Either way NumPy broadcasting
vectorizes each operation over the whole array, which is this
library's stand-in for a CUDA kernel executing one multiple double
operation per thread — and the backend boundary is where a CuPy/JAX
array module plugs in to make those launches real.
"""

from __future__ import annotations

import numpy as np

from ..exec.backend import get_backend
from ..md.constants import get_precision
from ..md.number import MultiDouble

__all__ = ["MDArray", "pairwise_reduce"]


def pairwise_reduce(data, axis, combine, pad):
    """Pairwise (binary tree) reduction along one storage axis.

    The one reduction-tree shape of this library: the sequence along
    ``axis`` is split into halves of ``ceil(n/2)`` and ``floor(n/2)``
    elements, an odd second half is padded with one identity block
    (``pad(shape) -> ndarray`` — exact zeros for sums, exact ones for
    products), the halves are combined element by element
    (``combine(first, second) -> ndarray``), and the halving repeats
    until one element remains.  The padded identity operations are
    really executed.

    :meth:`MDArray.sum`, :meth:`MDArray.prod` and
    :func:`repro.vec.linalg.cauchy_product_reduce` all run through this
    single helper, and the scalar test oracles replay the same tree
    (``pairwise_sum`` in ``tests/oracles/series.py``,
    ``pairwise_product`` in ``tests/oracles/poly.py``) — which is what
    makes vectorized and reference results **bit-identical**.  Keeping
    one copy of the tree shape is part of that contract.
    """
    work = data
    backend = get_backend()
    while work.shape[axis] > 1:
        # how the halves are materialized for the combine launch is a
        # backend decision (generic: np.take copies; fused: views) —
        # the tree shape and the combined values are not
        first, second = backend.split_reduction_operands(work, axis, pad)
        work = combine(first, second)
    return np.squeeze(work, axis=axis)


class MDArray:
    """A dense array of multiple double numbers in limb-major layout."""

    __slots__ = ("data",)

    def __init__(self, data):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim < 1:
            raise ValueError("MDArray storage needs at least the limb axis")
        self.data = data

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape, precision=2) -> "MDArray":
        """An all-zero array of the given element shape and precision."""
        m = get_precision(precision).limbs
        if isinstance(shape, int):
            shape = (shape,)
        return cls(np.zeros((m, *shape), dtype=np.float64))

    @classmethod
    def from_double(cls, values, precision=2) -> "MDArray":
        """Promote an array of doubles (leading limbs) to multiple doubles."""
        m = get_precision(precision).limbs
        values = np.asarray(values, dtype=np.float64)
        data = np.zeros((m, *values.shape), dtype=np.float64)
        data[0] = values
        return cls(data)

    @classmethod
    def from_limbs(cls, limbs) -> "MDArray":
        """Build from an iterable of equal-shape double arrays (most
        significant first).  The limbs are taken as-is (no renormalization)."""
        arrays = [np.asarray(limb, dtype=np.float64) for limb in limbs]
        return cls(np.stack(arrays, axis=0))

    @classmethod
    def from_multidoubles(cls, values, precision=None) -> "MDArray":
        """Build a one-dimensional array from scalar :class:`MultiDouble` values."""
        values = list(values)
        if not values:
            raise ValueError("cannot build an MDArray from an empty sequence")
        if precision is None:
            precision = values[0].precision
        m = get_precision(precision).limbs
        data = np.zeros((m, len(values)), dtype=np.float64)
        for j, value in enumerate(values):
            limbs = MultiDouble(value, m).limbs if value.m != m else value.limbs
            data[:, j] = limbs
        return cls(data)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def limbs(self) -> int:
        """Number of doubles per element (``m``)."""
        return self.data.shape[0]

    @property
    def precision(self):
        return get_precision(self.limbs)

    @property
    def shape(self) -> tuple:
        """Element shape (without the limb axis)."""
        return self.data.shape[1:]

    @property
    def ndim(self) -> int:
        return self.data.ndim - 1

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        """Bytes of storage, matching the paper's byte accounting
        (8 bytes per double, ``m`` doubles per element)."""
        return self.data.nbytes

    def limb(self, k) -> np.ndarray:
        """The ``k``-th most significant limb as a plain double array."""
        return self.data[k]

    def limb_views(self) -> tuple:
        """Tuple of limb arrays (views) for use with :mod:`repro.md.generic`."""
        return tuple(self.data[k] for k in range(self.limbs))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_double(self) -> np.ndarray:
        """Round every element to double precision (the leading limb)."""
        return self.data[0].copy()

    def to_multidouble(self, index) -> MultiDouble:
        """Extract one element as a scalar :class:`MultiDouble`."""
        if not isinstance(index, tuple):
            index = (index,)
        limbs = [float(self.data[(k, *index)]) for k in range(self.limbs)]
        return MultiDouble.from_limbs(limbs, self.limbs)

    def astype(self, precision) -> "MDArray":
        """Convert to another precision (truncating or zero-extending limbs)."""
        m_new = get_precision(precision).limbs
        m_old = self.limbs
        if m_new == m_old:
            return self.copy()
        if m_new < m_old:
            # renormalize so the dropped limbs are correctly rounded away
            return MDArray(get_backend().renormalize(self.limb_views(), m_new))
        data = np.zeros((m_new, *self.shape), dtype=np.float64)
        data[:m_old] = self.data
        return MDArray(data)

    def copy(self) -> "MDArray":
        return MDArray(self.data.copy())

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "MDArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return MDArray(self.data.reshape((self.limbs, *shape)))

    @property
    def T(self) -> "MDArray":
        """Transpose of a two-dimensional array (element axes only)."""
        if self.ndim != 2:
            raise ValueError("T is only defined for two-dimensional MDArrays")
        return MDArray(np.swapaxes(self.data, 1, 2))

    def transpose(self) -> "MDArray":
        return self.T

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of a zero-dimensional MDArray")
        return self.shape[0]

    def __iter__(self):
        """Iterate over the first element axis.

        A one-dimensional array yields scalar :class:`MultiDouble`
        values (the bridge back into the scalar reference world, used
        e.g. by :meth:`repro.series.truncated.TruncatedSeries.coefficients`
        consumers); a higher-dimensional array yields its sub-arrays.
        """
        if self.ndim == 0:
            raise TypeError("iteration over a zero-dimensional MDArray")
        if self.ndim == 1:
            for j in range(self.shape[0]):
                yield self.to_multidouble(j)
        else:
            for j in range(self.shape[0]):
                yield self[j]

    def _expand_key(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        return (slice(None), *key)

    def __getitem__(self, key) -> "MDArray":
        return MDArray(self.data[self._expand_key(key)])

    def __setitem__(self, key, value) -> None:
        if isinstance(value, MultiDouble):
            value = MDArray.from_multidoubles([value], self.limbs).reshape(())
        if not isinstance(value, MDArray):
            value = MDArray.from_double(np.asarray(value, dtype=np.float64), self.limbs)
        elif value.limbs != self.limbs:
            value = value.astype(self.limbs)
        expanded = self._expand_key(key)
        target_ndim = self.data[expanded].ndim
        vdata = value.data
        if vdata.ndim < target_ndim:
            # right-align the element axes (prepend broadcast axes after
            # the limb axis) so scalars and lower-dimensional values fill
            # the whole selected region
            vdata = vdata.reshape(
                (vdata.shape[0],) + (1,) * (target_ndim - vdata.ndim) + vdata.shape[1:]
            )
        self.data[expanded] = vdata

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "MDArray":
        if isinstance(other, MDArray):
            if other.limbs != self.limbs:
                raise ValueError(
                    f"precision mismatch: {self.limbs} vs {other.limbs} limbs"
                )
            return other
        if isinstance(other, MultiDouble):
            limbs = MultiDouble(other, self.limbs).limbs
            data = np.stack([np.full(self.shape, limb) for limb in limbs])
            return MDArray(data)
        if isinstance(other, (int, float)) or (
            isinstance(other, np.ndarray) and other.dtype.kind in "fiu"
        ):
            return MDArray.from_double(np.broadcast_to(np.asarray(other, dtype=np.float64), self.shape).copy(), self.limbs)
        return NotImplemented

    def _apply(self, op_name, other) -> "MDArray":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        op = getattr(get_backend(), op_name)
        return MDArray(op(self.data, other.data, self.limbs))

    def __add__(self, other):
        return self._apply("add", other)

    def __radd__(self, other):
        return self._apply("add", other)

    def __sub__(self, other):
        return self._apply("sub", other)

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced - self

    def __mul__(self, other):
        return self._apply("mul", other)

    def __rmul__(self, other):
        return self._apply("mul", other)

    def __truediv__(self, other):
        return self._apply("div", other)

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced / self

    def __neg__(self):
        return MDArray(-self.data)

    def __pos__(self):
        return self

    def scale_pow2(self, factor) -> "MDArray":
        """Multiply by an exact power of two (error free)."""
        return MDArray(self.data * factor)

    def fma(self, other, addend) -> "MDArray":
        """Element-wise ``self * other + addend`` (one final rounding)."""
        other = self._coerce(other)
        addend = self._coerce(addend)
        return MDArray(get_backend().fma(self.data, other.data, addend.data, self.limbs))

    def sqrt(self) -> "MDArray":
        """Element-wise square root."""
        return MDArray(get_backend().sqrt(self.data, self.limbs))

    def abs(self) -> "MDArray":
        """Element-wise absolute value (sign taken from the leading limb)."""
        sign = np.where(self.data[0] < 0.0, -1.0, 1.0)
        return MDArray(self.data * sign)

    def __abs__(self):
        return self.abs()

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None) -> "MDArray":
        """Sum of elements via pairwise (binary tree) reduction.

        Pairwise reduction keeps the depth of the additions logarithmic,
        which both matches the parallel sum reductions the paper's
        kernels perform with multiple thread blocks and avoids the
        error growth of a sequential accumulation.
        """
        if axis is None:
            flat = self.reshape(self.size)
            return flat.sum(axis=0)
        ax = axis % self.ndim + 1  # element axis i is storage axis i+1
        # the backend picks each level's combine: one add launch, or on a
        # one-limb stack that one bound vouches for, plain IEEE additions
        combine = get_backend().sum_combine(self.data, ax, self.limbs)
        return MDArray(pairwise_reduce(self.data, ax, combine, np.zeros))

    def prod(self, axis=None) -> "MDArray":
        """Product of elements via pairwise (binary tree) reduction.

        The multiplicative twin of :meth:`sum`: the sequence is halved
        level by level (padding an odd half with an exact one), so the
        multiplication depth stays logarithmic — the reduction shape of
        a power product kernel evaluating one monomial per thread
        (:mod:`repro.poly`).  The padded multiplications by one are
        really executed, exactly as the padded zero additions of
        :meth:`sum` are.
        """
        if axis is None:
            flat = self.reshape(self.size)
            return flat.prod(axis=0)
        ax = axis % self.ndim + 1  # element axis i is storage axis i+1
        backend = get_backend()
        m = self.limbs

        def combine(first, second):
            return backend.mul(first, second, m)

        def one_pad(shape):
            pad = np.zeros(shape)
            pad[0] = 1.0  # exact one: leading limb 1, trailing limbs 0
            return pad

        return MDArray(pairwise_reduce(self.data, ax, combine, one_pad))

    def dot(self, other) -> "MDArray":
        """Inner product of two one-dimensional arrays."""
        other = self._coerce(other)
        if self.ndim != 1 or other.ndim != 1:
            raise ValueError("dot expects one-dimensional MDArrays")
        return (self * other).sum(axis=0)

    def norm2(self) -> "MDArray":
        """Euclidean norm of a one-dimensional array."""
        return self.dot(self).sqrt()

    def max_abs_double(self) -> float:
        """Magnitude of the largest element, rounded to double (used for
        cheap convergence/validation checks, not in the solvers)."""
        return float(np.max(np.abs(self.data[0]))) if self.size else 0.0

    # ------------------------------------------------------------------
    # comparisons (element-wise, on exact expansion differences)
    # ------------------------------------------------------------------
    def equals(self, other) -> bool:
        """Exact (bitwise) equality of every limb."""
        other = self._coerce(other)
        return bool(np.array_equal(self.data, other.data))

    def allclose(self, other, tol=None) -> bool:
        """Element-wise closeness at a given tolerance (defaults to a few
        ulps of the working precision), measured on the leading limbs of
        the difference relative to ``self``."""
        other = self._coerce(other)
        if tol is None:
            tol = 16 * self.precision.eps
        diff = (self - other).abs().to_double()
        scale = np.maximum(np.abs(self.to_double()), np.abs(other.to_double()))
        scale = np.where(scale == 0.0, 1.0, scale)
        return bool(np.all(diff <= tol * scale))

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"MDArray(shape={self.shape}, precision={self.precision.name}, "
            f"head={np.array2string(self.data[0], precision=6, threshold=16)})"
        )
