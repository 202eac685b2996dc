"""CSV and sidecar output with reproducible byte-identical bodies.

Every file starts with `# key: value` metadata lines (tool version,
config echo, seeds) followed by a column-name row and `%.10g`-formatted
data rows.  Timestamps are written only when explicitly enabled, so a
rerun with the same inputs produces identical bytes.  Histograms get a
plain-JSON sidecar `<name>.meta.json` carrying the full detection
config echo and singles totals.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import OutputError, ValidationError, _integer
from .photostatistics import CoincidenceHistogram

# rows formatted and written at a time, so a file's text is never held whole
_ROWS_PER_BLOCK = 1 << 16


def _flatten(meta: dict, prefix: str = "") -> list[tuple[str, str]]:
    items: list[tuple[str, str]] = []
    for key in sorted(meta):
        value = meta[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            items.append((name, json.dumps(list(value))))
        else:
            items.append((name, str(value)))
    return items


def write_csv(
    path,
    columns: dict,
    metadata: dict | None = None,
    timestamps: bool = False,
) -> None:
    """Write named columns with a commented metadata header."""
    names = list(columns)
    if not names:
        raise ValidationError("need at least one column")
    arrays = [np.asarray(columns[n]) for n in names]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValidationError("columns must share a length")
    lines = [f"# tool: biphoton {__version__}"]
    if timestamps:
        lines.append(f"# written: {datetime.now(timezone.utc).isoformat()}")
    for key, value in _flatten(metadata or {}):
        lines.append(f"# {key}: {value}")
    lines.append(",".join(names))
    # one % per block of rows over its row-major cells: %d for integer
    # columns, which prints them as str(int) does, %.10g for the rest
    row = ",".join("%d" if a.dtype.kind in "iu" else "%.10g" for a in arrays)
    try:
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
            for start in range(0, length, _ROWS_PER_BLOCK):
                block = [a[start:start + _ROWS_PER_BLOCK].tolist() for a in arrays]
                cells = [None] * (len(block[0]) * len(arrays))
                for j, column in enumerate(block):
                    cells[j::len(arrays)] = column
                f.write("\n".join([row] * len(block[0])) % tuple(cells) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def read_csv(path) -> tuple[dict, dict]:
    """Read a toolkit CSV; returns (columns, metadata)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    meta: dict = {}
    names: list[str] | None = None
    rows: list[list[float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("# ")
            if ": " in body:
                key, value = body.split(": ", 1)
                meta[key] = value
            continue
        if names is None:
            names = line.split(",")
            continue
        row = line.split(",")
        if len(row) != len(names):
            raise OutputError(f"{path}: a row of {len(row)} cells under "
                              f"{len(names)} columns")
        try:
            rows.append([float(x) for x in row])
        except ValueError as exc:
            raise OutputError(f"{path}: {exc}") from exc
    if names is None:
        raise OutputError(f"{path} has no column header")
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        data = data.reshape(0, len(names))
    return {n: data[:, i] for i, n in enumerate(names)}, meta


def write_histogram(
    path,
    h: CoincidenceHistogram,
    metadata: dict,
    timestamps: bool = False,
) -> None:
    """Histogram CSV (tau_ns, counts) plus its JSON sidecar."""
    write_csv(
        path,
        {"tau_ns": h.bin_centers, "counts": h.counts},
        metadata={"bin_width_ns": h.bin_width},
        timestamps=timestamps,
    )
    sidecar = Path(str(path) + ".meta.json")
    try:
        sidecar.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {sidecar}: {exc}") from exc


def read_histogram(path) -> tuple[CoincidenceHistogram, dict]:
    """Load a histogram CSV and its sidecar back into objects; OutputError
    names the file when it has no bins, a count is not a whole number
    from 0 that int64 holds or a tau_ns is not its bin's centre as
    written, or the sidecar when a field is missing, is not a number (a
    boolean is not) or is refused by CoincidenceHistogram."""
    columns, _ = read_csv(path)
    if "tau_ns" not in columns or "counts" not in columns:
        raise OutputError(f"{path} lacks the tau_ns/counts schema")
    counts = columns["counts"]
    if len(counts) == 0:
        raise OutputError(f"{path} has no bins")
    # finite first, so that no comparison meets a nan
    whole = np.isfinite(counts)
    c = counts[whole]
    whole[whole] = (c >= 0) & (c < 2.0 ** 63) & (c % 1 == 0)
    if not whole.all():
        raise OutputError(f"{path}: count {counts[~whole][0]:g} is not a whole "
                          "number from 0 that int64 holds")
    sidecar = Path(str(path) + ".meta.json")
    try:
        meta = json.loads(sidecar.read_text())
    except OSError as exc:
        raise OutputError(f"cannot read sidecar {sidecar}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise OutputError(f"sidecar {sidecar} is not valid JSON: {exc}") from exc
    try:
        reals = [meta["bin_width_ns"], meta["measurement_time_s"]]
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in reals):
            raise TypeError(f"bin width and measurement time {reals} are not numbers")
        h = CoincidenceHistogram(float(reals[0]), counts.astype(np.int64),
                                 _integer("n_singles_s", meta["n_singles_s"]),
                                 _integer("n_singles_as", meta["n_singles_as"]),
                                 float(reals[1]))
    except (KeyError, TypeError, OverflowError, ValidationError) as exc:
        raise OutputError(f"sidecar {sidecar} lacks a valid field: "
                          f"{type(exc).__name__}: {exc}") from exc
    # bin j is centred at (j + 0.5)*bin_width, which write_csv wrote at %.10g
    centres = np.array(["%.10g" % c for c in h.bin_centers.tolist()], dtype=float)
    off = np.nonzero(columns["tau_ns"] != centres)[0]
    if len(off):
        raise OutputError(f"{path}: tau_ns of row {off[0]} is not {centres[off[0]]:g}")
    return h, meta
