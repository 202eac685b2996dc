"""biphoton's file formats: CSV bodies that rerun byte for byte, and sidecars.

A CSV opens with `# key: value` metadata lines (tool version, config
echo, seeds), then a column-name row and rows of `%d` integers and
`%.10g` floats; timestamps are written only when asked for.  Reading
takes the metadata from the lines above the column row, and numpy's
reader parses the rows, so a Python-only spelling such as `1_000` is
refused.  A histogram's plain-JSON sidecar `<name>.meta.json`, built by
histogram_metadata, carries the detection config echo and singles totals.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import OutputError, ValidationError, _integer
from .photostatistics import CoincidenceHistogram, DetectionConfig

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
    if len({len(a) for a in arrays}) > 1:
        raise ValidationError("columns must share a length")
    lines = [f"# tool: biphoton {__version__}"]
    if timestamps:
        lines.append(f"# written: {datetime.now(timezone.utc).isoformat()}")
    for key, value in _flatten(metadata or {}):
        lines.append(f"# {key}: {value}")
    lines.append(",".join(names))
    try:
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
            f.writelines(_rows(arrays))
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _rows(arrays: list[np.ndarray]):
    """A CSV body as text blocks of up to _ROWS_PER_BLOCK rows: one % per
    block over its row-major cells, %d for integer columns, which prints
    them as str(int) does, %.10g for the rest."""
    row = ",".join("%d" if a.dtype.kind in "iu" else "%.10g" for a in arrays)
    for start in range(0, len(arrays[0]), _ROWS_PER_BLOCK):
        block = [a[start:start + _ROWS_PER_BLOCK].tolist() for a in arrays]
        cells = [None] * (len(block[0]) * len(arrays))
        for j, column in enumerate(block):
            cells[j::len(arrays)] = column
        yield "\n".join([row] * len(block[0])) % tuple(cells) + "\n"


def read_csv(path) -> tuple[dict, dict]:
    """Read a toolkit CSV; returns (columns, metadata).  The metadata are
    the `# key: value` lines above the column row, and numpy's reader
    parses the rows below it; OutputError names the file when it has no
    column row, or a row that reader refuses or that is not as wide."""
    meta: dict = {}
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line.startswith("#"):
                    key, colon, value = line.lstrip("# ").partition(": ")
                    if colon:
                        meta[key] = value
                elif line:
                    break
            else:
                raise OutputError(f"{path} has no column header")
            names = line.split(",")
            # find the first row here: numpy's reader warns on a body without one
            for line in f:
                if line.strip() and not line.lstrip().startswith("#"):
                    break
            else:
                return {n: np.empty(0) for n in names}, meta
            data = np.loadtxt(chain([line], f), delimiter=",", ndmin=2)
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise OutputError(f"{path}: {exc}") from exc
    if data.shape[1] != len(names):
        raise OutputError(f"{path}: rows of {data.shape[1]} cells under "
                          f"{len(names)} columns")
    return {n: data[:, i] for i, n in enumerate(names)}, meta


def histogram_metadata(h: CoincidenceHistogram, cfg: DetectionConfig,
                       extra: dict | None = None) -> dict:
    """Sidecar record for a saved histogram (config echo, seed, singles)."""
    meta = {
        "bin_width_ns": h.bin_width,
        "n_bins": int(len(h.counts)),
        "n_singles_s": int(h.n_singles_s),
        "n_singles_as": int(h.n_singles_as),
        "measurement_time_s": h.measurement_time,
        "detection": asdict(cfg),
        "seed": cfg.rng_seed,
    }
    if extra:
        meta.update(extra)
    # round-trip check: the sidecar must stay plain JSON
    json.dumps(meta)
    return meta


def write_histogram(
    path,
    h: CoincidenceHistogram,
    metadata: dict,
    timestamps: bool = False,
) -> None:
    """Histogram CSV (tau_ns, counts) plus its JSON sidecar."""
    write_csv(path, {"tau_ns": h.bin_centers, "counts": h.counts},
              metadata={"bin_width_ns": h.bin_width}, timestamps=timestamps)
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
    # bin j is centred at (j + 0.5)*bin_width, read back as write_csv writes it
    centres = np.loadtxt(chain.from_iterable(map(str.splitlines, _rows([h.bin_centers]))),
                         ndmin=1)
    off = np.nonzero(columns["tau_ns"] != centres)[0]
    if len(off):
        raise OutputError(f"{path}: tau_ns of row {off[0]} is not {centres[off[0]]:g}")
    return h, meta
