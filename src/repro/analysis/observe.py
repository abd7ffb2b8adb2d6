"""``observe-only`` — telemetry observes, it never participates.

The whole observability layer rests on one promise: a run with
recording enabled is **bitwise identical** to the same run with
recording disabled.  That holds only while :mod:`repro.obs` code never
writes into the objects it watches, and while the numeric code talks
to the recorder exclusively through the NullRecorder-guarded seams
(so a disabled recorder short-circuits to a no-op before any state is
touched).

Two directions are checked:

* **inside** ``repro.obs`` — a function may not mutate what it was
  handed: assignments, augmented assignments, deletions or known
  mutating method calls (:data:`MUTATORS`) whose target is rooted at a
  function parameter are flagged (``self``/``cls`` excluded — obs
  objects own their own state).  Exporters and reports receive the
  tracker's live records and spans; one stray ``record.fields[...] =``
  would silently rewrite history for every other consumer.
* **outside** ``repro.obs`` — instrumented numeric code may import
  only the sanctioned seams (:data:`OBS_SEAMS`): ``get_recorder`` and
  friends return the shared ``NullRecorder`` when telemetry is off, so
  every call site stays a constant-time no-op.  Importing recorder
  internals directly would bypass that guard.
"""

from __future__ import annotations

import ast

from .core import Checker, register

__all__ = ["MUTATORS", "OBS_SEAMS", "ObserveOnlyChecker"]

#: Method names that mutate their receiver.
MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "setdefault",
    }
)

#: The NullRecorder-guarded instrumentation seams numeric code may use.
OBS_SEAMS = frozenset(
    {
        "get_recorder",
        "recording",
        "set_default_recorder",
        "NullRecorder",
        "NULL_RECORDER",
        "Recorder",
        "profiled",
        "attach_trace",
        "get_logger",
        "configure_logging",
    }
)


def _root_name(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _MutationAudit(ast.NodeVisitor):
    def __init__(self, checker, module, params, function):
        self.checker = checker
        self.module = module
        self.params = set(params)
        self.function = function
        self.findings = []

    def visit_FunctionDef(self, node):
        if node is not self.function:
            return
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _flag_target(self, target, action):
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = _root_name(target)
            if root in self.params:
                self.findings.append(
                    self.checker.finding(
                        self.module,
                        target,
                        f"obs code {action} state of parameter `{root}` — "
                        "observability must not mutate the objects it "
                        "observes",
                    )
                )

    def visit_Assign(self, node):
        for target in node.targets:
            elements = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for element in elements:
                self._flag_target(element, "assigns into")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._flag_target(node.target, "updates")
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._flag_target(node.target, "assigns into")
        self.generic_visit(node)

    def visit_Delete(self, node):
        for target in node.targets:
            self._flag_target(target, "deletes")
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            root = _root_name(func.value)
            if root in self.params:
                self.findings.append(
                    self.checker.finding(
                        self.module,
                        node,
                        f"obs code calls mutating `.{func.attr}()` on "
                        f"parameter `{root}` — observability must not "
                        "mutate the objects it observes",
                    )
                )
        self.generic_visit(node)


@register
class ObserveOnlyChecker(Checker):
    rule = "observe-only"
    contract = (
        "repro.obs never mutates observed objects; numeric code reaches "
        "the recorder only through the NullRecorder-guarded seams"
    )
    explanation = __doc__ or ""

    def check(self, module):
        if module.package_is("repro.obs"):
            return self._check_obs_internals(module)
        if module.package_is("repro") and not module.package_is("repro.analysis"):
            return self._check_seam_imports(module)
        return []

    def _check_obs_internals(self, module):
        findings = []
        scope_types = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        for scope in ast.walk(module.tree):
            body = scope.body if isinstance(scope, scope_types) else []
            for node in body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                arguments = node.args
                params = {
                    param.arg
                    for param in (
                        arguments.posonlyargs
                        + arguments.args
                        + arguments.kwonlyargs
                        + ([arguments.vararg] if arguments.vararg else [])
                        + ([arguments.kwarg] if arguments.kwarg else [])
                    )
                } - {"self", "cls"}
                audit = _MutationAudit(self, module, params, node)
                audit.visit(node)
                findings.extend(audit.findings)
        return findings

    def _check_seam_imports(self, module):
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.obs" or alias.name.startswith("repro.obs."):
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"`import {alias.name}` gives unchecked access "
                                "to recorder internals; import the guarded "
                                "seams by name instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                resolved = module.resolve_import(node)
                if resolved == "repro.obs" or resolved.startswith("repro.obs."):
                    for alias in node.names:
                        if alias.name not in OBS_SEAMS:
                            findings.append(
                                self.finding(
                                    module,
                                    node,
                                    f"`{alias.name}` (from {resolved}) is not a "
                                    "NullRecorder-guarded instrumentation seam "
                                    "(repro.analysis.observe.OBS_SEAMS)",
                                )
                            )
        return findings
