"""Deterministic serialization of results.

JSON floats are Python's shortest repr that reads back to the same double,
with keys sorted; CSV values take 17 significant digits (``FLOAT_FORMAT``),
which read back to the same double too. Files are written atomically
(temporary file in the same directory, then rename), so identical inputs
produce byte-identical outputs regardless of platform dict ordering or
scheduling.
"""
from __future__ import annotations

import json
import os
import tempfile
from enum import Enum

import numpy as np

FLOAT_FORMAT = "%.17g"


def canonical(value):
    """Recursively normalize a result tree for deterministic JSON encoding."""
    if isinstance(value, Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [canonical(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def json_text(obj) -> str:
    """Standard JSON: a NaN or an infinity raises ValueError instead of printing
    ``NaN`` or ``Infinity``, which JSON does not have. A report gives None
    (``null``) for a value that does not exist."""
    return json.dumps(canonical(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_text(columns, rows) -> str:
    """A header of column names, then one line of FLOAT_FORMAT values per row."""
    lines = [",".join(columns)]
    lines.extend(",".join(FLOAT_FORMAT % v for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_text_atomic(text: str, path: str) -> None:
    """Write text through a same-directory temporary file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
