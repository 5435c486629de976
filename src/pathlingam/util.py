"""Shared utilities: stable seeding, whole numbers read from input, atomic
writes, full-precision CSV, task maps."""

import csv
import hashlib
import json
import operator
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


def whole_number(value):
    """An integer read from outside the program: the text of an int, an int,
    or a float with no fractional part (3.0 gives 3). A boolean or a
    fractional number raises ValueError instead of being cut to an int."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value) if isinstance(value, (str, float)) else operator.index(value)


def json_ready(obj):
    """Convert numpy containers/scalars to plain Python for json.dump."""
    if isinstance(obj, np.ndarray):  # numeric: tolist gives plain values
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
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
    _write_atomic(path, json.dumps(json_ready(obj), indent=2) + "\n")


def _write_atomic(path, text):
    """Write ``text`` to a temp file beside ``path``, then rename it there."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def map_tasks(fn, tasks, jobs):
    """``[fn(task) for task in tasks]``, over up to ``jobs`` worker processes.

    One job or one task runs in this process, without starting a pool.
    Workers are spawned, not forked, so none inherits a lock held by a
    parent thread; ``fn`` must be picklable. Results keep the task order.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    tasks = list(tasks)
    if jobs == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(min(jobs, len(tasks)), get_context("spawn")) as pool:
        return list(pool.map(fn, tasks))


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
