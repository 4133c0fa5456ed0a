"""Plain-text result formatting for experiment drivers and examples.

The paper reports its evaluation as tables (Table III) and figures (Figs.
4-8).  In a headless, matplotlib-free environment the reproduction renders
each of those artefacts as aligned plain-text tables; these helpers keep the
formatting consistent across the experiment drivers, the examples, and the
benchmark harness output.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render a list of rows as an aligned plain-text table.

    Floats are formatted with ``float_format``; everything else is rendered
    with ``str``.  Columns are right-aligned except the first, which is
    left-aligned (it usually holds names).
    """
    if not headers:
        raise ValueError("headers must not be empty")

    def _render(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[_render(cell) for cell in row] for row in rows]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")

    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]

    def _format_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i == 0:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts)

    lines = [_format_row(headers), _format_row(["-" * w for w in widths])]
    lines.extend(_format_row(row) for row in rendered)
    return "\n".join(lines)


def to_jsonable(value: Any) -> Any:
    """Coerce experiment result objects into JSON-serialisable structures.

    The experiment drivers return nested frozen dataclasses holding NumPy
    arrays and scalars; this walks them into plain dicts/lists/numbers so a
    :class:`repro.study.StudyReport` can serialise any driver's records
    without per-experiment conversion code.  Dataclasses gain a ``"kind"``
    key naming their class, so the JSON stays self-describing.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        record: dict[str, Any] = {"kind": type(value).__name__}
        for field in dataclasses.fields(value):
            record[field.name] = to_jsonable(getattr(value, field.name))
        return record
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)
