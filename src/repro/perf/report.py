"""Plain-text rendering of experiment results.

The paper presents its evaluation as tables of milliseconds/gigaflops
and as bar/scatter figures; :func:`format_table` renders an
:class:`~repro.perf.experiments.ExperimentResult` as an aligned text
table and :func:`format_bars` as a log-scale ASCII bar chart (used for
the figure reproductions, since the library deliberately has no
plotting dependency).
"""

from __future__ import annotations

import math

__all__ = ["format_table", "format_bars", "format_experiment"]


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        if magnitude >= 100:
            return f"{value:.1f}"
        return f"{value:.2f}" if magnitude < 10 else f"{value:.1f}"
    return str(value)


def format_table(result, columns=None, max_width: int = 200) -> str:
    """Render the rows of an experiment as an aligned text table.

    ``columns`` restricts and orders the columns; by default all keys of
    the first row are used (stage columns included).
    """
    if not result.rows:
        return f"{result.description}\n(no rows)"
    if columns is None:
        columns = [key for key in result.rows[0].keys()]
    header = [str(c) for c in columns]
    body = [[_format_value(row.get(c)) for c in columns] for row in result.rows]
    widths = [
        min(max(len(header[i]), *(len(line[i]) for line in body)), max_width)
        for i in range(len(columns))
    ]
    lines = [result.description]
    lines.append("  ".join(header[i].rjust(widths[i]) for i in range(len(columns))))
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for line in body:
        lines.append("  ".join(line[i].rjust(widths[i]) for i in range(len(columns))))
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)


def format_bars(result, value_key: str, label_keys, *, log2: bool = True, width: int = 50) -> str:
    """Render one column of an experiment as an ASCII bar chart.

    Used for the figure reproductions: the paper's figures plot the
    2-logarithms of kernel times, so ``log2=True`` spaces bars the same
    way.
    """
    if isinstance(label_keys, str):
        label_keys = [label_keys]
    rows = [row for row in result.rows if row.get(value_key) not in (None, 0)]
    if not rows:
        return f"{result.description}\n(no data)"
    values = []
    for row in rows:
        value = float(row[value_key])
        values.append(math.log2(value) if log2 and value > 0 else value)
    low = min(values + [0.0])
    high = max(values)
    span = max(high - low, 1e-12)
    lines = [result.description]
    for row, value in zip(rows, values):
        label = " ".join(str(row.get(k)) for k in label_keys)
        filled = int(round((value - low) / span * width))
        raw = row[value_key]
        lines.append(f"{label:>24s} | {'#' * filled}{' ' * (width - filled)} {raw}")
    if log2:
        lines.append(f"(bar lengths proportional to log2 of {value_key})")
    return "\n".join(lines)


def format_experiment(result) -> str:
    """Best-effort rendering: tables as tables, figures as bar charts."""
    if result.experiment.startswith("figure"):
        value_key = next(
            (k for k in ("log2_kernel_ms", "log10_gflops") if result.rows and k in result.rows[0]),
            None,
        )
        if value_key is not None:
            label_keys = [k for k in result.rows[0] if k not in (value_key,) and not k.startswith("paper")][:2]
            return format_bars(result, value_key, label_keys, log2=False)
    # hide the wide per-stage columns in the default rendering
    columns = None
    if result.rows:
        columns = [k for k in result.rows[0] if not k.startswith("stage[")]
    return format_table(result, columns=columns)

