"""``determinism`` — numeric result paths are replayable bit for bit.

Every cross-check in this codebase — scalar vs vectorized, generic vs
fused, fleet vs one-path-at-a-time tracking — asserts **bitwise** equality
between two executions.  That only means anything while a numeric
result depends on nothing but its inputs: no wall clock, no global
random state, no hash-order iteration.

Flagged inside the numeric packages (everything under ``repro`` except
``repro.obs``, which owns wall-clock measurement by design):

* ``import time`` / ``import datetime`` — wall-clock reads belong to
  :mod:`repro.obs` and the benchmark harness only;
* ``import random`` and legacy ``np.random.*`` calls — global mutable
  RNG state makes results depend on call history.  The sanctioned form
  is ``np.random.default_rng(seed)`` with an **explicit** seed operand
  (``default_rng()`` with no argument reads the OS entropy pool and is
  flagged);
* iterating a ``set``/``frozenset`` (``for`` loops, comprehensions,
  ``list(set(...))``/``tuple(set(...))`` conversions) — set order
  varies with hash seeding and insertion history; wrap the set in
  ``sorted(...)`` to pin the order.
"""

from __future__ import annotations

import ast

from .core import Checker, register

__all__ = ["WALL_CLOCK_MODULES", "DeterminismChecker"]

#: Modules whose import means wall-clock dependence.
WALL_CLOCK_MODULES = ("time", "datetime")

#: ``np.random`` attributes that are deterministic-by-construction seams.
_RNG_SEAMS = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64"})


def _is_set_expression(node):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_np_random(node):
    """True for an ``<name>.random`` attribute chain (np.random / numpy.random)."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy", "xp")
    )


@register
class DeterminismChecker(Checker):
    rule = "determinism"
    contract = (
        "numeric result paths read no wall clock, no global RNG state and "
        "no set iteration order; time is confined to repro.obs/benchmarks"
    )
    explanation = __doc__ or ""

    def check(self, module):
        if not module.package_is("repro") or module.package_is("repro.obs"):
            return []
        findings = []
        for node in ast.walk(module.tree):
            findings.extend(self._check_imports(module, node))
            findings.extend(self._check_rng(module, node))
            findings.extend(self._check_set_iteration(module, node))
        return findings

    def _check_imports(self, module, node):
        flagged = []
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        for name in names:
            top = name.split(".")[0]
            if top in WALL_CLOCK_MODULES:
                flagged.append(
                    self.finding(
                        module,
                        node,
                        f"`import {name}` in a numeric result path — "
                        "wall-clock reads are confined to repro.obs and "
                        "the benchmark harness",
                    )
                )
            elif top == "random":
                flagged.append(
                    self.finding(
                        module,
                        node,
                        "`import random` uses global RNG state; use "
                        "np.random.default_rng(seed) with an explicit seed",
                    )
                )
        return flagged

    def _check_rng(self, module, node):
        if not isinstance(node, ast.Call):
            return []
        func = node.func
        # np.random.<legacy>(...) — global-state RNG
        if isinstance(func, ast.Attribute) and _is_np_random(func.value):
            if func.attr not in _RNG_SEAMS:
                return [
                    self.finding(
                        module,
                        node,
                        f"legacy global-state `np.random.{func.attr}` call; "
                        "use np.random.default_rng(seed) with an explicit "
                        "seed",
                    )
                ]
            if func.attr == "default_rng":
                unseeded = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded and not node.keywords:
                    return [
                        self.finding(
                            module,
                            node,
                            "`default_rng()` without a seed reads the OS "
                            "entropy pool; thread an explicit seed operand "
                            "through",
                        )
                    ]
        return []

    def _check_set_iteration(self, module, node):
        iterables = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(generator.iter for generator in node.generators)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
        ):
            iterables.append(node.args[0])
        return [
            self.finding(
                module,
                iterable,
                "iteration over a set has no defined order; wrap it in "
                "sorted(...) to pin the sequence",
            )
            for iterable in iterables
            if _is_set_expression(iterable)
        ]
