"""Multiple double arithmetic substrate.

This package is the Python stand-in for the CAMPARY-generated CUDA code
and the QDlib definitions the paper builds on: error-free
transformations (:mod:`repro.md.eft`), expansion renormalization
(:mod:`repro.md.renorm`), generic ``m``-limb arithmetic
(:mod:`repro.md.generic`, which also holds the double double fast
paths), scalar number classes (:mod:`repro.md.number`) and the
operation-count instrumentation that reproduces Table 1
(:mod:`repro.md.opcounts`).
"""

from . import eft, functions, generic, opcounts, renorm
from .constants import (
    DOUBLE,
    DOUBLE_DOUBLE,
    OCTO_DOUBLE,
    PRECISIONS,
    QUAD_DOUBLE,
    Precision,
    get_precision,
)
from .counting import CountingFloat, OpCounter
from .number import ComplexMultiDouble, MultiDouble
from .opcounts import PAPER_TABLE1, OperationCosts, measured_costs, paper_costs

__all__ = [
    "eft",
    "renorm",
    "generic",
    "functions",
    "opcounts",
    "Precision",
    "PRECISIONS",
    "get_precision",
    "DOUBLE",
    "DOUBLE_DOUBLE",
    "QUAD_DOUBLE",
    "OCTO_DOUBLE",
    "MultiDouble",
    "ComplexMultiDouble",
    "CountingFloat",
    "OpCounter",
    "OperationCosts",
    "PAPER_TABLE1",
    "paper_costs",
    "measured_costs",
]
