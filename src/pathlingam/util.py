"""Shared utilities: stable seeding, whole numbers read from input, task
maps, and the file formats: every CLI input is parsed, and every output
written atomically, here."""

import contextlib
import csv
import hashlib
import itertools
import json
import operator
import os

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


def _plain(obj):
    """``json.dumps``' ``default``: numpy arrays and scalars as plain values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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


def read_json(path, kind, keys=()):
    """The JSON value in ``path``: a ``kind`` (dict, list, or object for
    any) that, as a dict, holds every one of ``keys``. A file that is not
    JSON, or of another shape, raises ValueError naming the path."""
    with _text_file(path) as handle:
        return _decode(path, handle.read(), kind, keys)


def read_jsonl(path, keys):
    """The JSON objects on the non-blank lines of ``path``, each of which
    must hold every one of ``keys``; an error names the path and line."""
    with _text_file(path) as handle:
        return [
            _decode(f"{path}:{lineno}", line, dict, keys)
            for lineno, line in enumerate(handle, start=1) if line.strip()
        ]


@contextlib.contextmanager
def _text_file(path, newline=None):
    """``path`` open as UTF-8 text; a byte that does not decode raises
    ValueError naming the path."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as error:
        raise ValueError(f"{path}: {error}") from None


def _decode(where, text, kind, keys):
    try:
        value = json.loads(text)
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "list"
        raise ValueError(f"{where}: needs a JSON {shape}")
    if not all(key in value for key in keys):
        raise ValueError(f"{where}: needs {' and '.join(keys)}")
    return value


def write_atomic(path, pieces):
    """Write the text ``pieces`` (any iterable, so a large output need not
    be held whole) to a new file beside ``path``, then rename it there, so
    readers never see a torn file. The file gets the mode ``open`` would
    give it: 0o666 less the umask."""
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json_atomic(path, obj):
    """Write ``obj`` as indented JSON through ``write_atomic``.

    Python's json emits floats with repr, the shortest representation that
    parses back to the identical double.
    """
    write_atomic(path, (json.dumps(obj, indent=2, default=_plain), "\n"))


def write_jsonl(path, records):
    """Write each record as one line of compact JSON through ``write_atomic``."""
    write_atomic(path, (json.dumps(r, default=_plain) + "\n" for r in records))


def write_csv(path, names, rows):
    """Write a header of ``names``, then one comma-separated line per row,
    through ``write_atomic``. A float is written by repr, so a reader
    recovers the exact double; a boolean as true or false, as JSON writes
    it; None as nan; anything else by str."""
    write_atomic(path, itertools.chain(
        [",".join(names) + "\n"],
        (",".join(map(_csv_field, row)) + "\n" for row in rows),
    ))


def _csv_field(value):
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64 too, whose repr names its type
        return repr(float(value))
    return str(value)


def read_matrix_csv(path):
    """Read a header-plus-numeric-rows CSV; returns (values, names).

    The data rows are converted by one ``np.loadtxt`` call. A file that
    does not convert that way (quoted fields, a wrong field count, a
    non-numeric value, no data rows) is parsed again cell by cell, which
    names the line at fault.
    """
    with _text_file(path, newline="") as handle:
        lines = handle.readlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    names = next(csv.reader(lines[:1]))
    values = None
    if any(line.strip() for line in lines[1:]):  # loadtxt warns on no rows
        try:
            values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape[1] != len(names):
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
