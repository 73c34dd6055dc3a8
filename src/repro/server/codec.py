"""JSON encoding/decoding between the wire and the engine's row model.

Rows cross the wire as plain JSON objects.  The engine's "no
information" null (``NI``) maps to JSON ``null`` in both directions —
an x-tuple never *stores* NI (absent attributes simply aren't bound),
so encoding asks the tuple for every output column and nulls the
unbound ones, and decoding turns ``null`` parameter values back into
``NI`` before they reach the executor.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.nulls import NI, is_ni
from ..core.tuples import XTuple
from .http import ProtocolError

__all__ = ["row_to_json", "rows_to_json", "decode_params"]


def _value_to_json(value: Any) -> Any:
    if is_ni(value):
        return None
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)  # exotic domain values degrade to their repr


def row_to_json(row: XTuple, columns: Sequence[str]) -> Dict[str, Any]:
    """One row as a JSON object over *columns* (unbound → ``null``)."""
    return {column: _value_to_json(row[column]) for column in columns}


def rows_to_json(
    rows: Iterable[XTuple], columns: Sequence[str]
) -> List[Dict[str, Any]]:
    return [row_to_json(row, columns) for row in rows]


def decode_params(raw: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Wire parameters → engine parameters (``null`` → ``NI``).

    A parameter is a scalar: a string, a finite number, a boolean or
    ``null``.  Objects, arrays, ``NaN`` and ``Infinity`` are refused
    here, naming the parameter, before they reach the engine.
    """
    if not raw:
        return {}
    if not isinstance(raw, Mapping):
        raise ProtocolError(f"params must be a JSON object, got {type(raw).__name__}")
    params = {}
    for name, value in raw.items():
        if value is None:
            value = NI
        elif not isinstance(value, (str, int, float)) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            raise ProtocolError(
                f"parameter ${name} must be a string, a finite number, a "
                f"boolean or null"
            )
        params[str(name)] = value
    return params
