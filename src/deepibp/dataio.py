"""CSV and JSON serialization: datasets, traces, snapshots, manifests.

All files are written atomically (temp file in the target directory,
then rename) with LF line endings and `.` decimals.  Floats are
formatted with shortest round-trip repr so identical values always
produce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "DataFormatError",
    "atomic_write_text",
    "format_float",
    "mask_to_rows",
    "read_dataset_csv",
    "read_json",
    "write_dataset_csv",
    "write_json",
    "write_trace_csv",
]


class DataFormatError(ValueError):
    """A file failed to parse; carries the path and 1-based line number."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


def format_float(x: float) -> str:
    """Shortest exact decimal representation of a float."""
    return repr(float(x))


def atomic_write_text(path, text: str) -> None:
    """Write a file so readers never observe a partial state."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_dataset_csv(path, X: np.ndarray) -> None:
    """Write a data matrix: rows are dimensions, columns are instances.

    The header names the instance columns t0..t{T-1}.  Like the
    reader, it refuses NaN and Inf.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(f"need a 2-D matrix with at least one instance, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("data matrix contains NaN or Inf")
    lines = [",".join(f"t{t}" for t in range(X.shape[1]))]
    for row in X:
        lines.append(",".join(format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset_csv(path) -> np.ndarray:
    """Parse a dataset CSV, reporting the offending line on failure."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(path, None, f"cannot read: {exc}") from exc
    lines = raw.splitlines()
    if not lines:
        raise DataFormatError(path, 1, "empty file")
    header = lines[0].split(",")
    for j, name in enumerate(header):
        if name != f"t{j}":
            raise DataFormatError(path, 1, f"bad header field {name!r} (expected t{j})")
    T = len(header)
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if line == "":
            raise DataFormatError(path, i, "blank line inside data")
        fields = line.split(",")
        if len(fields) != T:
            raise DataFormatError(path, i, f"expected {T} fields, found {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            bad = next(f for f in fields if not _is_float(f))
            raise DataFormatError(path, i, f"not a number: {bad!r}") from None
    if not rows:
        raise DataFormatError(path, 2, "no data rows")
    X = np.array(rows, dtype=float)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DataFormatError(path, int(np.argmin(finite)) + 2, "non-finite value in data")
    return X


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def write_trace_csv(path, trace) -> None:
    """Write a chain trace: iteration, K, log_joint, accepted add/delete."""
    lines = ["iteration,K,log_joint,accepted_adds,accepted_deletes"]
    for i in range(len(trace)):
        lines.append(
            f"{i + 1},{int(trace.k[i])},{format_float(trace.log_joint[i])},"
            f"{int(trace.accepted_adds[i])},{int(trace.accepted_deletes[i])}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def mask_to_rows(mask: np.ndarray) -> list[str]:
    """Serialize a binary mask as one 0/1 string per row."""
    return ["".join(str(int(v)) for v in row) for row in np.asarray(mask)]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, obj) -> None:
    """Atomically write a JSON document with sorted keys."""
    atomic_write_text(path, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(path, None, f"cannot read: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DataFormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
