"""Line-oriented file formats: function files, JSON-lines report files, and
CSV scan tables.  All writes go through a temp file plus rename so partial
output never lands at the target path.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import os
import tempfile
from typing import Iterable

from .errors import FileFormatError
from .fourier import SparseFunction
from .groups import GroupContext

FUNCTION_FORMAT = "zpwiener-function"
REPORT_FORMAT = "zpwiener-report"
FORMAT_VERSION = 1


def _atomic_write(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces of text in order, each as it comes, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-zpw-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_function_file(path: str, f: SparseFunction) -> None:
    """Header, then one `x1 .. xd re im` line per entry in canonical order."""
    lines = [f"{FUNCTION_FORMAT} {FORMAT_VERSION}", f"p {f.ctx.p} d {f.ctx.d}"]
    for x, v in sorted(f.entries.items()):
        coords = " ".join(str(c) for c in x)
        lines.append(f"{coords} {v.real:.17g} {v.imag:.17g}")
    _atomic_write(path, ["\n".join(lines) + "\n"])


def read_function_file(path: str) -> SparseFunction:
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FUNCTION_FORMAT:
        raise FileFormatError(f"{path}:1: expected '{FUNCTION_FORMAT} <version>' header")
    try:
        version = int(head[1])
    except ValueError:
        version = None
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}:1: unsupported version {head[1]}")
    if len(lines) < 2:
        raise FileFormatError(f"{path}:2: missing 'p <p> d <d>' line")
    meta = lines[1].split()
    if len(meta) != 4 or meta[0] != "p" or meta[2] != "d":
        raise FileFormatError(f"{path}:2: expected 'p <p> d <d>', got {lines[1]!r}")
    try:
        ctx = GroupContext(int(meta[1]), int(meta[3]))
    except ValueError as exc:
        raise FileFormatError(f"{path}:2: {exc}") from exc
    entries = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != ctx.d + 2:
            raise FileFormatError(
                f"{path}:{lineno}: expected {ctx.d} coords + re + im, got {len(fields)} fields"
            )
        try:
            coords = tuple(int(c) for c in fields[: ctx.d])
            value = complex(float(fields[ctx.d]), float(fields[ctx.d + 1]))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        if not cmath.isfinite(value):
            raise FileFormatError(f"{path}:{lineno}: non-finite value {value}")
        if any(not 0 <= c < ctx.p for c in coords):
            raise FileFormatError(f"{path}:{lineno}: coordinate out of [0, p)")
        if coords in entries:
            raise FileFormatError(f"{path}:{lineno}: duplicate point {coords}")
        if value == 0:
            raise FileFormatError(f"{path}:{lineno}: zero values are not stored")
        entries[coords] = value
    return SparseFunction(ctx, entries)


def report_header(tool_version: str, config: dict) -> dict:
    return {
        "record": "header",
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "tool_version": tool_version,
        "config": config,
    }


# the canonical JSON of report records and of instance digests: sorted keys,
# no spaces; built once, where json.dumps would build an encoder every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(record: dict) -> str:
    return _CANONICAL.encode(record)


def dump_records(records: Iterable[dict]) -> str:
    return "\n".join(map(_dumps, records)) + "\n"


def write_report_file(path: str, records: Iterable[dict]) -> None:
    """One line a record, as dump_records joins them, each written as it
    comes: given a generator, the records are never all held at once."""
    _atomic_write(path, (_dumps(r) + "\n" for r in records))


def read_report_file(path: str) -> list[dict]:
    with open(path) as handle:
        lines = handle.read().splitlines()
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    return records


SCAN_HEADER = ["p", "size", "structure", "wiener_norm", "log_size", "ratio"]


def dump_scan_csv(rows) -> str:
    """CSV table of scan rows; undefined ratios render as empty cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.p,
                row.size,
                row.structure,
                f"{row.wiener_norm:.17g}",
                f"{row.log_size:.17g}",
                "" if row.ratio is None else f"{row.ratio:.17g}",
            ]
        )
    return buf.getvalue()


def write_scan_csv(path: str, rows) -> None:
    _atomic_write(path, [dump_scan_csv(rows)])
