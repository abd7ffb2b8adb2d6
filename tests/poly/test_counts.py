"""Accounting: polynomial_counts, instrumented tallies, launch traces."""

from __future__ import annotations

import pytest

from repro.gpu.kernel import KernelTrace
from repro.md.opcounts import polynomial_counts
from repro.perf.costmodel import polynomial_evaluation_trace
from repro.poly import PolynomialSystem, cyclic, katsura

from ..oracles.poly import instrumented_counts


def example_system() -> PolynomialSystem:
    return PolynomialSystem(
        [
            [(1, (2, 0)), (1, (0, 1)), (-3, (0, 0))],
            [(1, (1, 1)), (-2, (0, 0))],
        ]
    )


class TestPolynomialCounts:
    @pytest.mark.parametrize(
        "system", [example_system(), katsura(3), cyclic(4)], ids=["small", "katsura3", "cyclic4"]
    )
    def test_matches_instrumented_kernel_tallies(self, system):
        """The analytic counts equal the operations the reference
        kernels actually execute (counting-element replay of one
        evaluation + Jacobian with shared power products)."""
        counts = system.counts()
        measured = instrumented_counts(system)
        assert counts.combined.mul == measured["mul"]
        assert counts.combined.add == measured["add"]

    def test_shared_products_paid_once(self):
        counts = katsura(4).counts()
        separate = counts.evaluation.md_operations + counts.jacobian.md_operations
        assert counts.combined.md_operations < separate
        assert counts.combined.md_operations == pytest.approx(
            separate - counts.shared.md_operations
        )

    def test_structure_metadata(self):
        system = cyclic(4)
        counts = system.counts()
        assert counts.monomials == system.monomials == 14
        assert counts.products == system.distinct_products
        assert counts.max_degree == system.max_degree == 1
        # cyclic systems are multilinear: no power table launches at all
        assert counts.equations == counts.variables == 4

    def test_flops_grow_with_precision(self):
        counts = katsura(3).counts()
        assert (
            counts.evaluation_flops(1)
            < counts.evaluation_flops(2)
            < counts.evaluation_flops(4)
            < counts.evaluation_flops(8)
        )
        assert counts.jacobian_flops(2) > 0
        assert counts.combined_flops(2) < counts.evaluation_flops(2) + counts.jacobian_flops(2)

    def test_series_order_scales_the_grid(self):
        base = example_system().counts(order=0)
        series = example_system().counts(order=3)
        # each multiplication becomes a (K+1)^2 product grid
        assert series.shared.mul == base.shared.mul * 16
        assert series.evaluation_terms.mul == base.evaluation_terms.mul * 4

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            polynomial_counts(
                0, 1, monomials=1, products=1, max_degree=1,
                term_slots=1, jacobian_slots=1,
            )


class TestLaunchTrace:
    @pytest.mark.parametrize("order", [0, 3])
    def test_numeric_trace_matches_analytic_trace(self, order):
        """The launches the numeric evaluator records are exactly the
        analytic model's (names, geometry, tallies, bytes)."""
        system = example_system()
        numeric = KernelTrace("V100")
        if order == 0:
            system.evaluate_with_jacobian([1.25, -0.5], 2, trace=numeric)
            jacobian_slots = system._jacobian_slots
        else:
            from repro.series.truncated import TruncatedSeries

            system.evaluate_series(
                [
                    TruncatedSeries([1.25, 0.5, 0.1, -0.2], 2),
                    TruncatedSeries([-0.5, 1.0, 0.0, 0.3], 2),
                ],
                trace=numeric,
            )
            jacobian_slots = None
        analytic = polynomial_evaluation_trace(
            system.equations,
            system.variables,
            system.distinct_products,
            system.max_degree,
            system._term_slots,
            2,
            order=order,
            jacobian_slots=jacobian_slots,
        )
        assert len(numeric.launches) == len(analytic.launches)
        for observed, expected in zip(numeric.launches, analytic.launches):
            assert observed.name == expected.name
            assert observed.stage == expected.stage
            assert observed.blocks == expected.blocks
            assert observed.threads_per_block == expected.threads_per_block
            assert observed.tally.multiplications == expected.tally.multiplications
            assert observed.tally.additions == expected.tally.additions
            assert observed.bytes_read == expected.bytes_read
            assert observed.bytes_written == expected.bytes_written

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "method, evaluate, jacobian",
        [
            ("evaluate", True, False),
            ("jacobian_matrix", False, True),
            ("evaluate_with_jacobian", True, True),
        ],
    )
    def test_point_evaluations_record_the_analytic_launches(
        self, method, evaluate, jacobian, complex_data
    ):
        """Each point evaluation, an order-0 batch of one through the
        series pass, records exactly the launches of one analytic pass."""
        system = katsura(3)
        point = [0.25 + 0.5j, -0.5, 0.75, 0.125] if complex_data else [0.25, -0.5, 0.75, 0.125]
        numeric = KernelTrace("V100")
        getattr(system, method)(point, 4, trace=numeric)
        analytic = polynomial_evaluation_trace(
            system.equations,
            system.variables,
            system.distinct_products,
            system.max_degree,
            system._term_slots,
            4,
            jacobian_slots=system._jacobian_slots if jacobian else None,
            evaluate=evaluate,
            complex_data=complex_data,
        )

        def launch(record):
            return (
                record.name,
                record.stage,
                record.blocks,
                record.threads_per_block,
                record.limbs,
                record.tally.as_dict(),
                record.bytes_read,
                record.bytes_written,
            )

        assert [launch(r) for r in numeric.launches] == [
            launch(r) for r in analytic.launches
        ]

    def test_trace_tallies_equal_analytic_counts(self):
        """The trace's summed tallies agree with polynomial_counts."""
        system = katsura(3)
        counts = system.counts()
        trace = polynomial_evaluation_trace(
            system.equations,
            system.variables,
            system.distinct_products,
            system.max_degree,
            system._term_slots,
            2,
            jacobian_slots=system._jacobian_slots,
        )
        assert sum(l.tally.multiplications for l in trace.launches) == counts.combined.mul
        assert sum(l.tally.additions for l in trace.launches) == counts.combined.add

    def test_jacobian_only_trace(self):
        system = example_system()
        numeric = KernelTrace("V100")
        system.jacobian_matrix([1.0, 2.0], 2, trace=numeric)
        analytic = polynomial_evaluation_trace(
            system.equations,
            system.variables,
            system.distinct_products,
            system.max_degree,
            system._term_slots,
            2,
            jacobian_slots=system._jacobian_slots,
            evaluate=False,
        )
        assert [l.name for l in numeric.launches] == [l.name for l in analytic.launches]
        assert "term_scale" not in {l.name for l in numeric.launches}
