"""Table, config and manifest plumbing for the scenario runner.

Numeric tables are CSV with a '#'-prefixed metadata block and shortest
round-trip float formatting, written streaming so million-row sweeps stay
memory bounded.  Scenario configs are plain key=value text with [section]
headers; parse errors carry the offending line number.
"""

from __future__ import annotations

import time
from itertools import islice

import numpy as np

from .errors import ConfigError

__all__ = [
    "emit_table",
    "read_table",
    "parse_config",
    "write_manifest",
]


def _format_cell(value):
    if isinstance(value, float):
        return repr(float(value))  # np.float64 is a float subclass; repr differs
    return str(value)


# rows formatted and written per fh.write by emit_table
TABLE_CHUNK = 4096


def emit_table(path, columns, rows, metadata=None):
    """Stream ``rows`` (iterable of sequences, or a 2-d float64 array) to a
    CSV file.

    ``metadata`` key/value pairs go into a '#'-prefixed block above the
    header so every output records the tolerances and cutoffs it was
    produced with.  Floats are written with repr, which round-trips
    IEEE doubles exactly.  Rows are formatted and written TABLE_CHUNK at
    a time, so memory stays bounded for any number of rows.  A float64
    array is formatted from Python floats, a chunk at a time, with the
    bytes the per-cell rule gives.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        chunks = (rows[start:start + TABLE_CHUNK].tolist()
                  for start in range(0, len(rows), TABLE_CHUNK))
        cell = repr
    else:
        rows = iter(rows)
        chunks = iter(lambda: list(islice(rows, TABLE_CHUNK)), [])
        cell = _format_cell
    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key} = {_format_cell(value)}\n")
        fh.write(",".join(columns) + "\n")
        for chunk in chunks:
            fh.write("".join(",".join(map(cell, row)) + "\n" for row in chunk))


def read_table(path):
    """Parse a table written by :func:`emit_table`.

    Returns (metadata, columns, rows) with every cell read back as float
    when possible.
    """
    metadata = {}
    columns = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    metadata[key.strip()] = value.strip()
                continue
            if not line:
                continue
            cells = line.split(",")
            if columns is None:
                columns = cells
                continue
            parsed = []
            for cell in cells:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
            rows.append(parsed)
    return metadata, columns or [], rows


def parse_config(text):
    """Parse sectioned key=value text into {section: {key: value}}.

    Values stay strings; '#' starts a comment; keys outside a section land
    in the '' section.  Malformed lines raise a line-anchored
    :class:`~dissipon.errors.ConfigError`.
    """
    sections = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError("malformed section header", line=lineno)
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        sections[current][key] = value.strip()
    return sections


def write_manifest(path, params, wall_time_s, outputs=()):
    """Run manifest: parameters, package version, wall time and timestamp.

    The timestamp lives only here so the numeric outputs stay byte
    reproducible.
    """
    from . import __version__
    with open(path, "w") as fh:
        fh.write("[run]\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
        fh.write(f"wall_time_s = {wall_time_s:.3f}\n")
        for name in outputs:
            fh.write(f"output = {name}\n")
        fh.write("[parameters]\n")
        for key, value in sorted(params.items()):
            fh.write(f"{key} = {_format_cell(value)}\n")
