"""``precision-loss`` — no silent ``float()`` casts on limb values.

A multiple double value holds ``53*m`` bits; ``float(x)`` keeps 53 and
silently discards the rest.  Every limb of precision the tracker
escalated to buy can be thrown away by one careless cast — the PR 5
``extract_complex`` endpoint bug was exactly this: a ``float()`` on a
qd endpoint flattened it to a double before the caller ever saw it.

The rule taints, inside the limb-carrying packages,

* ``self`` within methods of the limb-value classes
  (:data:`LIMB_TYPES`),
* parameters annotated with a limb type, and
* locals assigned directly from a limb-type constructor,

and flags ``float(...)`` / ``complex(...)`` applied to a tainted
expression — a tainted name, an attribute/subscript chain rooted at
one, or a call to a limb-returning method (:data:`LIMB_RETURNING`) —
except inside the annotated extraction boundaries
(:data:`BOUNDARY_FUNCTIONS`: the ``to_float``-family methods whose
whole contract *is* the rounding).  Deliberate double-precision reads
elsewhere (magnitude estimates, diagnostics) carry a
``# repro: allow[precision-loss]`` comment stating why double
suffices.
"""

from __future__ import annotations

import ast

from .core import Checker, register

__all__ = [
    "LIMB_TYPES",
    "LIMB_RETURNING",
    "BOUNDARY_FUNCTIONS",
    "PrecisionLossChecker",
]

#: Classes whose instances carry limb-encoded (multiple double) values.
LIMB_TYPES = frozenset(
    {
        "MultiDouble",
        "ComplexMultiDouble",
        "MDArray",
        "MDComplexArray",
        "TruncatedSeries",
        "VectorSeries",
        "ComplexTruncatedSeries",
        "ComplexVectorSeries",
        "PadeApproximant",
    }
)

#: Method names whose call result is a limb value regardless of receiver.
LIMB_RETURNING = frozenset({"evaluate", "evaluate_at", "derivative"})

#: Functions/methods that ARE the sanctioned rounding boundary.
BOUNDARY_FUNCTIONS = frozenset(
    {
        "to_float",
        "to_floats",
        "to_complex",
        "to_multidouble",  # limb-wise scalar extraction: every limb is kept
        "__float__",
        "__complex__",
        "float_limbs",
        "magnitude",
    }
)

#: Packages in which limb values circulate.
_SCOPED = ("repro.md", "repro.vec", "repro.series", "repro.batch", "repro.poly")

_CASTS = ("float", "complex")

#: Calls transparent to taint (``float(abs(x))`` casts ``x``).
_TRANSPARENT = ("abs",)


def _annotation_types(annotation):
    """Type names mentioned by a (possibly quoted) annotation node."""
    if annotation is None:
        return set()
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for limb_type in LIMB_TYPES:
                if limb_type in node.value:
                    names.add(limb_type)
    return names


def _root_name(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _resolve(node):
    """Unwrap transparent calls and unary ops around the cast argument."""
    while True:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _TRANSPARENT
            and len(node.args) == 1
        ):
            node = node.args[0]
            continue
        return node


class _FunctionAudit(ast.NodeVisitor):
    def __init__(self, checker, module, tainted, function):
        self.checker = checker
        self.module = module
        self.tainted = set(tainted)
        self.function = function
        self.findings = []

    def visit_FunctionDef(self, node):
        if node is not self.function:
            return  # nested defs audited separately with their own taint
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in LIMB_TYPES
        ):
            self.tainted.add(node.targets[0].id)
        self.generic_visit(node)

    def visit_Call(self, node):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _CASTS
            and len(node.args) == 1
        ):
            argument = _resolve(node.args[0])
            reason = self._tainted_reason(argument)
            if reason:
                self.findings.append(
                    self.checker.finding(
                        self.module,
                        node,
                        f"{node.func.id}() on {reason} discards limbs beyond "
                        "double precision; keep the value in limb form or "
                        "move the cast to a to_float-family boundary",
                    )
                )
        self.generic_visit(node)

    def _tainted_reason(self, node):
        if isinstance(node, ast.Name) and node.id in self.tainted:
            return f"limb value `{node.id}`"
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root = _root_name(node)
            if root in self.tainted:
                return f"limb-plane expression rooted at `{root}`"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in LIMB_RETURNING:
                return f"the limb-valued result of .{node.func.attr}()"
        return None


@register
class PrecisionLossChecker(Checker):
    rule = "precision-loss"
    contract = (
        "float()/complex() never applied to MultiDouble/limb-plane values "
        "outside the annotated to_float-family extraction boundaries"
    )
    explanation = __doc__ or ""

    def check(self, module):
        if not module.package_is(*_SCOPED):
            return []
        findings = []
        scope_types = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        for scope in ast.walk(module.tree):
            class_name = scope.name if isinstance(scope, ast.ClassDef) else None
            body = scope.body if isinstance(scope, scope_types) else []
            for node in body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name in BOUNDARY_FUNCTIONS:
                    continue
                tainted = set()
                arguments = node.args
                all_params = (
                    arguments.posonlyargs
                    + arguments.args
                    + arguments.kwonlyargs
                )
                for param in all_params:
                    if _annotation_types(param.annotation) & LIMB_TYPES:
                        tainted.add(param.arg)
                if class_name in LIMB_TYPES and all_params:
                    first = all_params[0].arg
                    if first in ("self", "cls") and first == "self":
                        tainted.add("self")
                audit = _FunctionAudit(self, module, tainted, node)
                audit.visit(node)
                findings.extend(audit.findings)
        return findings
