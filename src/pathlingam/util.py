"""Small shared utilities: stable seeding, atomic JSON, full-precision CSV."""

import csv
import hashlib
import json
import os
import tempfile

import numpy as np


def stable_seed(*parts):
    """Derive a reproducible 63-bit seed from a tuple of primitives.

    Python's builtin ``hash`` is salted per process, so experiment seeds are
    derived instead from blake2b over a canonical text encoding of the parts.
    Floats go through ``repr`` (shortest round-trip form), so equal values
    always map to the same seed on any platform.
    """
    text = "\x1f".join(_canonical(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & (2**63 - 1)


def _canonical(part):
    if isinstance(part, bool):
        return f"b:{int(part)}"
    if isinstance(part, (int, np.integer)):
        return f"i:{int(part)}"
    if isinstance(part, (float, np.floating)):
        return f"f:{float(part)!r}"
    if isinstance(part, str):
        return f"s:{part}"
    raise TypeError(f"unsupported seed part {type(part).__name__}")


def json_ready(obj):
    """Convert numpy containers/scalars to plain Python for json.dump."""
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    return obj


def write_json_atomic(path, obj):
    """Write JSON via a temp file and rename, so readers never see a torn file.

    Python's json emits floats with repr, the shortest representation that
    parses back to the identical double.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(json_ready(obj), handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix_csv(path, values, names):
    """Write a numeric matrix as comma-separated text with a header row.

    Values are formatted with repr so a reader recovers the exact doubles.
    """
    values = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(names) + "\n")
        for row in values:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path):
    """Read a header-plus-numeric-rows CSV; returns (values, names).

    Rows are split on commas and converted by one numpy call. A file that
    does not convert that way (quoted fields, a wrong field count, a
    non-numeric value, no data rows) is parsed again cell by cell, which
    names the line at fault.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.readlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    names = next(csv.reader(lines[:1]))
    rows = [line.rstrip("\r\n").split(",") for line in lines[1:]]
    rows = [fields for fields in rows if fields != [""]]
    try:
        values = np.array(rows, dtype=float)
    except ValueError:
        values = None
    if values is None or values.shape != (len(rows), len(names)):
        values = _parse_rows(path, names, lines[1:])
    return values, [n.strip() for n in names]


def _parse_rows(path, names, lines):
    rows = []
    for lineno, row in enumerate(csv.reader(lines), start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise ValueError(
                f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}"
            )
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=float)
