"""Table helpers for the benchmarks and examples.

The benchmarks under ``benchmarks/`` regenerate the paper's tables and
figures; each runs its own trials and prints its results through
:func:`format_table`, and the Table 4 MWEM comparison reports per-dataset
:func:`improvement_factors`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table (the benchmarks print these)."""
    rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    separator = "  ".join("-" * widths[i] for i in range(len(headers)))
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
    ]
    return "\n".join([line, separator, *body])


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0 or (1e-3 <= abs(cell) < 1e5):
            return f"{cell:.4g}"
        return f"{cell:.3e}"
    return str(cell)


def improvement_factors(baseline: Sequence[float], variant: Sequence[float]) -> np.ndarray:
    """Per-dataset improvement factors baseline/variant (>1 means the variant wins)."""
    baseline = np.asarray(baseline, dtype=np.float64)
    variant = np.asarray(variant, dtype=np.float64)
    return baseline / np.maximum(variant, 1e-15)
