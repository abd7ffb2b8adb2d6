"""Outside-in per-layer timing for the end-to-end benchmark.

A :class:`Tracer` wraps the public functions and methods at each layer
boundary of ``repro`` in a timing wrapper.  A wrapped callable replaces
the original by identity: in every loaded ``repro.*`` module that binds
it, and on the class that defines it.  Each call appends one span
``(label, parent, start, end)`` to flat in-memory arrays, so nothing in
the program changes and the arithmetic stays bitwise identical.
:meth:`Tracer.layer_summary` turns the spans into self time (a span's
duration minus that of its child spans), inclusive time (outermost
span of a layer only, so recursion within one layer is not counted
twice) and call counts.  :meth:`Tracer.uninstall` puts every original
back.

Layers are named after the modules that hold them (``vec.mdarray``,
``batch.fleet``, ...).  The ``exec`` layer is the execution backend's
arithmetic and launch hooks; it is the only one split further, by the
limb count of each call (``exec.d``, ``exec.dd``, ``exec.qd``,
``exec.od``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

__all__ = ["BOUNDARIES", "LAYERS", "PRECISION_NAMES", "Tracer"]

#: Arithmetic special methods wrapped on the number, array and series types.
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__", "__pow__",
)

#: Execution-backend methods (the arithmetic surface and the two launch
#: hooks), each with its positional operands before the optional ``m``:
#: the limb count of a call is ``m`` when given, else the length of its
#: first operand (a limb-major stack, or the list of term planes).
EXEC_METHODS = {
    "add": 2, "sub": 2, "mul": 2, "div": 2, "sqr": 1, "fma": 3, "sqrt": 1,
    "renormalize": 1, "split_reduction_operands": 3, "gather_antidiagonals": 2,
}

PRECISION_NAMES = {1: "d", 2: "dd", 4: "qd", 8: "od"}

#: Every layer boundary: ``(layer, module, names)``.  A name is a
#: module-level function, ``"Class.method"``, or ``"Class.*"`` for the
#: public methods, ``__call__`` and arithmetic special methods a class
#: defines (properties excluded).
BOUNDARIES = (
    ("exec", "repro.exec.backend", tuple(f"ExecutionBackend.{m}" for m in EXEC_METHODS)),
    ("exec", "repro.exec.generic", tuple(f"GenericBackend.{m}" for m in EXEC_METHODS)),
    ("exec", "repro.exec.fused", tuple(f"FusedBackend.{m}" for m in EXEC_METHODS)),
    ("md.number", "repro.md.number", tuple(
        f"{cls}.{m}" for cls in ("MultiDouble", "ComplexMultiDouble")
        for m in (*ARITHMETIC, "sqrt")
    )),
    ("vec.mdarray", "repro.vec.mdarray", ("pairwise_reduce",) + tuple(
        f"MDArray.{m}" for m in (
            *ARITHMETIC, "fma", "sqrt", "abs", "scale_pow2", "sum", "prod",
            "dot", "norm2", "astype",
        )
    )),
    ("vec.complexmd", "repro.vec.complexmd", (
        "map_planes", "finite_mask", "combine_product_grid",
    ) + tuple(
        f"MDComplexArray.{m}" for m in (
            *ARITHMETIC, "abs2", "abs", "scale_pow2", "sum", "prod", "dot",
            "vdot", "norm2", "conj", "astype",
        )
    )),
    ("vec.batched", "repro.vec.batched", "__all__"),
    ("vec.linalg", "repro.vec.linalg", "__all__"),
    ("core.least_squares", "repro.core.least_squares", ("lstsq", "solve")),
    ("core.blocked_qr", "repro.core.blocked_qr", ("blocked_qr",)),
    ("core.back_substitution", "repro.core.back_substitution", (
        "tiled_back_substitution", "solve_upper_triangular",
    )),
    ("batch.qr", "repro.batch.qr", ("batched_blocked_qr",)),
    ("batch.back_substitution", "repro.batch.back_substitution", (
        "batched_invert_upper_triangular", "batched_back_substitution",
    )),
    ("batch.least_squares", "repro.batch.least_squares", (
        "batched_least_squares", "batched_solve",
    )),
    ("batch.pade", "repro.batch.pade", ("batched_pade",)),
    ("batch.fleet", "repro.batch.fleet", ("track_paths",)),
    ("series.truncated", "repro.series.truncated", ("TruncatedSeries.*",)),
    ("series.vector", "repro.series.vector", ("VectorSeries.*",)),
    ("series.complexvec", "repro.series.complexvec", (
        "ComplexTruncatedSeries.*", "ComplexVectorSeries.*",
    )),
    ("series.newton", "repro.series.newton", ("newton_series",)),
    ("series.pade", "repro.series.pade", ("pade", "PadeApproximant.*")),
    ("series.tracker", "repro.series.tracker", ("track_path",)),
    ("poly.system", "repro.poly.system", ("PolynomialSystem.*",)),
    ("poly.homotopy", "repro.poly.homotopy", ("Homotopy.*",)),
    ("perf.costmodel", "repro.perf.costmodel", "__all__"),
    ("perf.model", "repro.perf.model", ("PerformanceModel.attribute",)),
)

#: Layer names in boundary order, each once.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BOUNDARIES))

#: Methods of ``Class.*`` selections that only compare or print.
_SKIPPED_METHODS = {"allclose", "equals"}


def _class_methods(cls):
    """The ``Class.*`` selection: public methods, ``__call__`` and the
    arithmetic special methods defined on ``cls`` itself."""
    for name, value in vars(cls).items():
        if isinstance(value, property) or name in _SKIPPED_METHODS:
            continue
        if name.startswith("_") and name != "__call__" and name not in ARITHMETIC:
            continue
        if callable(value) or isinstance(value, (classmethod, staticmethod)):
            yield name


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """In-memory span recorder over the ``repro`` layer boundaries.

    ``clock`` is the time source (seconds); tests pass a fake one to get
    exact self and inclusive times.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._labels: list[str] = []
        self._label_layer: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._patched: list[tuple] = []
        self._unwrap: dict = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    # -- recording -----------------------------------------------------
    def clear(self) -> None:
        """Drop every recorded span (the arrays are reused in place,
        because the installed wrappers hold them)."""
        for column in (self.label, self.parent, self.start, self.end):
            del column[:]
        del self._stack[1:]

    def _label_id(self, label: str, layer: str | None = None) -> int:
        """The integer id of a span label (a layer, or a layer split)."""
        index = self._label_ids.get(label)
        if index is None:
            index = self._label_ids[label] = len(self._labels)
            self._labels.append(label)
            self._label_layer.append(layer or label)
        return index

    def wrap(self, fn, layer: str, split=None):
        """A wrapper recording one span of ``layer`` per call of ``fn``.

        ``split(args, kwargs)`` may name a sub-label for the call; its
        time still belongs to ``layer``.
        """
        starts, ends, stack = self.start, self.end, self._stack
        add_label, add_parent = self.label.append, self.parent.append
        add_start, add_end = starts.append, ends.append
        push, pop = stack.append, stack.pop
        clock = self._clock
        fixed = self._label_id(layer)
        sub_ids: dict = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            if split is None:
                add_label(fixed)
            else:
                sub = split(args, kwargs)
                label = sub_ids.get(sub)
                if label is None:
                    label = sub_ids[sub] = self._label_id(f"{layer}.{sub}", layer)
                add_label(label)
            add_parent(stack[-1])
            add_end(0.0)
            push(index)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()

        return wrapper

    # -- patching ------------------------------------------------------
    def install(self) -> "Tracer":
        """Import every boundary module and wrap its selected callables."""
        if self._patched:
            raise RuntimeError("the tracer is already installed")
        replacements = {}
        for layer, module_name, names in BOUNDARIES:
            module = importlib.import_module(module_name)
            if names == "__all__":
                names = tuple(
                    name for name in module.__all__
                    if callable(getattr(module, name))
                    and not isinstance(getattr(module, name), type)
                )
            for name in names:
                owner_name, _, member = name.partition(".")
                if not member:
                    fn = getattr(module, name)
                    replacements[id(fn)] = (fn, self.wrap(fn, layer))
                    continue
                cls = getattr(module, owner_name)
                members = _class_methods(cls) if member == "*" else (member,)
                for method in members:
                    if method in vars(cls):
                        self._patch_method(cls, method, layer)
        # module-level functions: every loaded repro module binding them
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._unwrap = {id(wrapper): (wrapper, fn) for fn, wrapper in replacements.values()}
        return self

    def _patch_method(self, cls, name, layer):
        original = vars(cls)[name]
        split = None
        if layer == "exec":
            operands = EXEC_METHODS[name]

            def split(args, kwargs):
                limbs = kwargs.get("m") if kwargs else None
                if limbs is None:
                    limbs = args[operands + 1] if len(args) > operands + 1 else len(args[1])
                return PRECISION_NAMES.get(limbs) or f"{limbs}l"
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self.wrap(original.__func__, layer, split))
        else:
            wrapped = self.wrap(original, layer, split)
        self._patched.append((cls, name, original))
        setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object, also
        where a module imported during the traced run bound a wrapper."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                hit = self._unwrap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        self._unwrap = {}

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------
    def layer_summary(self) -> dict:
        """Per-label and per-layer ``self_s``, ``incl_s`` and ``calls``,
        plus ``root_s``: the summed duration of top-level spans."""
        n = len(self.start)
        labels = np.frombuffer(self.label, dtype=np.int32)[:n].astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n].astype(np.int64)
        duration = np.frombuffer(self.end)[:n] - np.frombuffer(self.start)[:n]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        own = duration - child

        layer_names = list(dict.fromkeys(self._label_layer))
        layer_index = np.array(
            [layer_names.index(layer) for layer in self._label_layer], dtype=np.int64
        )
        layer = layer_index[labels] if n else labels
        # a span is outermost in its layer when no ancestor shares the
        # layer; walk every span's ancestor chain one level per pass
        outer = np.ones(n, dtype=bool)
        ancestor = parent.copy()
        live = np.nonzero(ancestor >= 0)[0]
        while live.size:
            same = layer[ancestor[live]] == layer[live]
            outer[live[same]] = False
            live = live[~same]
            ancestor[live] = parent[ancestor[live]]
            live = live[ancestor[live] >= 0]

        def rollup(keys, names):
            size = len(names)
            self_s = np.bincount(keys, weights=own, minlength=size)
            incl_s = np.bincount(keys[outer], weights=duration[outer], minlength=size)
            calls = np.bincount(keys, minlength=size)
            return {
                name: {
                    "self_s": float(self_s[i]),
                    "incl_s": float(incl_s[i]),
                    "calls": int(calls[i]),
                }
                for i, name in enumerate(names)
            }

        return {
            "labels": rollup(labels, self._labels),
            "layers": rollup(layer, layer_names),
            "root_s": float(duration[~nested].sum()),
        }
