"""``backend-purity`` — NumPy stays behind the execution backend.

The CuPy/JAX drop-in (the ROADMAP's hardware story) swaps the array
module by replacing the :class:`~repro.exec.backend.ExecutionBackend`
``xp`` handle.  That only works if the numeric packages do not reach
for NumPy behind the backend's back: a stray ``np.`` call computes on
the host no matter which device module is active, silently forking the
float sequence the bit-identity suites pin.

The rule scopes the packages whose arithmetic must route through the
backend (``repro.md``, ``repro.vec``, ``repro.series``,
``repro.batch``) and flags

* any ``import numpy`` **inside a function body** — the inline escapes
  the backend boundary was built to eliminate (``md/renorm.py`` and
  ``md/generic.py`` carried three of these until this rule landed;
  they now route through :mod:`repro.md.dispatch`), and
* any **module-level** NumPy import outside :data:`XP_BOUNDARY_MODULES`
  — the audited, explicitly sanctioned boundary sites.  Each entry is
  one work item of the CuPy port: the list must only ever shrink.

``repro.md`` has no sanctioned modules at all: the limb-tuple
arithmetic is duck-typed over its element type (floats, CountingFloat,
array planes) and must stay array-module agnostic.
"""

from __future__ import annotations

import ast

from .core import Checker, register

__all__ = ["XP_BOUNDARY_MODULES", "PURE_PACKAGES", "BackendPurityChecker"]

#: Packages whose arithmetic must route through the backend ``xp`` handle.
PURE_PACKAGES = ("repro.md", "repro.vec", "repro.series", "repro.batch")

#: Modules holding a sanctioned module-level NumPy import.  These are the
#: audited host-side boundary sites — array containers, launch shaping,
#: batched drivers — and double as the CuPy-port work queue: porting a
#: module to the ``xp`` handle removes it from this list, and the rule
#: fails any *new* module that imports NumPy directly.
XP_BOUNDARY_MODULES = frozenset(
    {
        "repro.vec.mdarray",
        "repro.vec.complexmd",
        "repro.vec.linalg",
        "repro.vec.random",
        "repro.vec.batched",
        "repro.series.matrix_series",
        "repro.series.complexvec",
        "repro.series.vector",
        "repro.series.tracker",
        "repro.series.truncated",
        "repro.series.pade",
        "repro.series.newton",
        "repro.batch.qr",
        "repro.batch.least_squares",
        "repro.batch.back_substitution",
        "repro.batch.pade",
        "repro.batch.fleet",
    }
)


def _numpy_imports(node):
    """Names of the NumPy modules an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [
            alias.name
            for alias in node.names
            if alias.name == "numpy" or alias.name.startswith("numpy.")
        ]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module == "numpy" or node.module.startswith("numpy."):
            return [node.module]
    return []


@register
class BackendPurityChecker(Checker):
    rule = "backend-purity"
    contract = (
        "repro.md/vec/series/batch call NumPy only at sanctioned "
        "module-level boundary sites; arithmetic routes through the "
        "ExecutionBackend xp handle"
    )
    explanation = __doc__ or ""

    def check(self, module):
        if not module.package_is(*PURE_PACKAGES):
            return []
        findings = []
        for parent in ast.walk(module.tree):
            if not isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(parent):
                for name in _numpy_imports(node):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"inline `import {name}` inside {parent.name}() "
                            "bypasses the execution backend; route the "
                            "operation through the backend xp handle "
                            "(repro.md code: via repro.md.dispatch)",
                        )
                    )
        inline_lines = {finding.line for finding in findings}
        for node in ast.walk(module.tree):
            for name in _numpy_imports(node):
                if node.lineno in inline_lines:
                    continue
                if module.module in XP_BOUNDARY_MODULES:
                    continue
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"module-level `import {name}` in {module.module} is "
                        "not a sanctioned xp boundary site "
                        "(repro.analysis.purity.XP_BOUNDARY_MODULES)",
                    )
                )
        return findings
