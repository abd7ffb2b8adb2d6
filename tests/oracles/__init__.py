"""Unbatched reference implementations the test suites check the library
against.

An oracle here is a slow, obvious twin of a library function: it
shares the library's kernels and step-control helpers but not the
function under test, so a bitwise comparison against it can fail.  Test modules
import these relatively (``from ..oracles.solo_tracker import ...``),
which works with or without ``src`` on ``PYTHONPATH``.
"""
