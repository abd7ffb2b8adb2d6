"""Unbatched reference implementations the test suites check the library
against.

An oracle here is a slow, obvious twin of a library function: it
shares the library's kernels and step-control helpers but not the
function under test, so a bitwise comparison against it can fail.

* ``solo_tracker`` — the unbatched single-path step loop, the reference
  for every path fleet (``repro.batch.fleet.track_paths``);
* ``step_control`` — the scalar Padé evaluation (a ``MultiDouble``
  Horner sweep), error estimate, ``np.roots`` pole radius, pole cap and
  per-path noise estimate, the reference for the fleet's batched step
  control (``repro.series.pade.PadeBatch``, which ``PadeApproximant``
  runs as a batch of one); ``solo_tracker`` steps with it;
* ``dense`` — the unbatched Householder QR, WY accumulation, tile
  inversion, tiled back substitution and least squares, the reference
  for the batched dense drivers of ``repro.batch`` (which the
  ``repro.core`` drivers run as a batch of one); its inline launch
  records are the reference for the cost model ``repro.perf.costmodel``,
  whose traces the drivers record;
* ``series`` — ``ScalarSeries``, one ``MultiDouble`` per coefficient
  with loop-per-coefficient arithmetic, and the scalar Newton
  staircase, the reference for ``repro.series.TruncatedSeries`` and
  ``repro.series.newton_series``; the scalar Horner and condition
  walks of one series (``evaluate``, ``coefficient_condition``,
  ``complex_evaluate``); the unbatched Newton staircase
  ``unbatched_newton_series``, the reference for the path fleet's
  staircase (which ``repro.series.newton_series`` runs as a batch of
  one); and the unbatched Padé construction ``pade``, the reference
  for ``repro.batch.batched_pade`` (which ``repro.series.pade`` runs as
  a batch of one);
* ``poly`` — the loop-per-monomial evaluation of polynomial systems
  (values, Jacobians, scalar series, operation counts) and of the
  realified homotopy, the reference for ``repro.poly``; the unbatched
  vectorized series evaluation (values and Jacobians, real and
  complex) and homotopy residual of both backends, the reference for
  the batched series evaluator that ``evaluate_series``,
  ``jacobian_series``, ``residual_fleet`` and ``Homotopy.__call__``
  share; and the unbatched point pass with the per-path homotopy
  Jacobian combination (``unbatched_jacobian``), the reference for the
  same evaluator at order 0 that ``evaluate``, ``jacobian_matrix``,
  ``jacobian_fleet`` and both ``jacobian`` adapters run.

Test modules import these relatively (``from ..oracles.dense import
...``), which works with or without ``src`` on ``PYTHONPATH``.  The
benchmarks ``bench_series_vectorized.py`` and ``bench_poly_eval.py``
time the library against ``series`` and ``poly`` through
``tests.oracles``; ``benchmarks/conftest.py`` puts the repo root on
``sys.path`` for that.  The library itself never imports this package
(``tests/analysis/test_no_tests_imports.py``).
"""
