"""Unbatched reference implementations the test suites check the library
against.

An oracle here is a slow, obvious twin of a library function: it
shares the library's kernels and step-control helpers but not the
function under test, so a bitwise comparison against it can fail.

* ``solo_tracker`` — the unbatched single-path step loop, the reference
  for every path fleet (``repro.batch.fleet.track_paths``);
* ``dense`` — the unbatched Householder QR, WY accumulation, tile
  inversion, tiled back substitution and least squares, the reference
  for the batched dense drivers of ``repro.batch`` (which the
  ``repro.core`` drivers run as a batch of one).

Test modules import these relatively (``from ..oracles.dense import
...``), which works with or without ``src`` on ``PYTHONPATH``.
"""
