"""On-disk formats: CSV bodies, sidecars, and byte-identical reruns."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import biphoton.io
from biphoton import (
    CoincidenceHistogram,
    DetectionConfig,
    OutputError,
    SystemParams,
    TimeGridConfig,
    ValidationError,
    __version__,
    g2_analytic,
    histogram_metadata,
    read_csv,
    read_histogram,
    simulate_coincidences,
    write_csv,
    write_histogram,
)


def _histogram():
    model = g2_analytic(SystemParams(delta_c=28.3, omega_c=14.8),
                        grid=TimeGridConfig(400.0, 2000))
    cfg = DetectionConfig(pair_rate=5e3, measurement_time=60.0, rng_seed=11)
    return cfg, simulate_coincidences(model, cfg, n_shards=2)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    taus = np.linspace(0.0, 10.0, 50)
    vals = np.sin(taus)
    write_csv(path, {"tau_ns": taus, "value": vals},
              metadata={"system": {"delta_c": 28.3}, "note": "x"})
    columns, meta = read_csv(path)
    np.testing.assert_allclose(columns["tau_ns"], taus, atol=1e-9)
    np.testing.assert_allclose(columns["value"], vals, atol=1e-9)
    assert meta["system.delta_c"] == "28.3"
    assert meta["note"] == "x"


def test_csv_header_names_preserve_order(tmp_path):
    path = tmp_path / "c.csv"
    write_csv(path, {"b": [1.0], "a": [2.0]})
    header = [l for l in path.read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "b,a"


def test_rerun_is_byte_identical(tmp_path):
    cols = {"tau_ns": np.linspace(0, 1, 9), "value": np.arange(9.0)}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, cols, metadata={"seed": 7})
    write_csv(p2, cols, metadata={"seed": 7})
    assert p1.read_bytes() == p2.read_bytes()


def test_timestamps_only_when_asked(tmp_path):
    cols = {"x": [1.0]}
    off = tmp_path / "off.csv"
    on = tmp_path / "on.csv"
    write_csv(off, cols)
    write_csv(on, cols, timestamps=True)
    assert "written:" not in off.read_text()
    assert "written:" in on.read_text()


def test_mismatched_column_lengths_rejected(tmp_path):
    with pytest.raises(ValidationError):
        write_csv(tmp_path / "bad.csv", {"a": [1.0, 2.0], "b": [1.0]})
    with pytest.raises(ValidationError):
        write_csv(tmp_path / "bad.csv", {})


def test_integer_cells_written_without_decimals(tmp_path):
    path = tmp_path / "h.csv"
    write_csv(path, {"counts": np.array([3, 14], dtype=np.int64)})
    body = [l for l in path.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert body == ["3", "14"]


def _cell_by_cell(v):
    """The per-cell formatting write_csv's row template replaced."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.10g}"


@pytest.mark.parametrize("rows", [0, 1, 7])
def test_body_matches_cell_by_cell_formatting(tmp_path, rows):
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300,
                         -1e-300, 1.0 / 3.0, 123456.7890123, 2.5, 1e16])
    ints = np.array([0, -1, 2 ** 63 - 1, -2 ** 63, 42, 7, 1, 3, 9, 11, 5, 6])
    columns = {
        "f": np.resize(specials, rows),
        "i": np.resize(ints, rows).astype(np.int64),
        "u": np.resize(np.array([0, 2 ** 64 - 1, 17], dtype=np.uint64), rows),
        "g": np.resize(np.array([0.1, -0.0, 1e-45, 3e38, np.nan], np.float32), rows),
        "b": np.resize(np.array([True, False]), rows),
    }
    path = tmp_path / "cells.csv"
    write_csv(path, columns)
    want = [",".join(columns)] + [
        ",".join(_cell_by_cell(v) for v in row) for row in zip(*columns.values())
    ]
    assert path.read_text() == f"# tool: biphoton {__version__}\n" + "\n".join(want) + "\n"


@pytest.mark.parametrize("rows", [0, 1, 3, 7])
def test_blocks_of_rows_write_the_same_bytes(tmp_path, monkeypatch, rows):
    # blocks of 3 rows: none, one partial, one full, and three, the last partial
    columns = {"x": np.arange(rows) / 3.0, "n": np.arange(rows, dtype=np.int64)}
    write_csv(tmp_path / "whole.csv", columns)
    monkeypatch.setattr(biphoton.io, "_ROWS_PER_BLOCK", 3)
    write_csv(tmp_path / "blocks.csv", columns)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_write_csv_memory_follows_a_block(tmp_path):
    # 2**17 rows of two float columns, formatted a block of 2**16 rows at
    # a time: the traced peak stays under 12 MiB, where formatting every
    # row at once traced about 16 MiB
    n = 1 << 17
    columns = {"tau_ns": np.arange(n) * 0.1, "value": np.random.default_rng(0).random(n)}
    tracemalloc.start()
    try:
        write_csv(tmp_path / "long.csv", columns, {"seed": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20
    assert len((tmp_path / "long.csv").read_text().splitlines()) == n + 3


# float64 bit patterns every draw carries: +0, -0, the least and the
# largest subnormal, the least normal, +inf, -inf, a quiet and a negative nan
SPECIAL_BITS = [0, 1 << 63, 1, (1 << 52) - 1, 1 << 52, 0x7FF0 << 48,
                0xFFF0 << 48, 0x7FF8 << 48, 0xFFF8 << 48]


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.integers(0, 2 ** 64 - 1),
                               st.integers(-2 ** 63, 2 ** 63 - 1)), max_size=40))
def test_read_csv_parses_cells_as_float_does(tmp_path, rows):
    bits, counts = zip(*(rows + list(zip(SPECIAL_BITS, range(len(SPECIAL_BITS))))))
    path = tmp_path / "cells.csv"
    write_csv(path, {"value": np.array(bits, dtype=np.uint64).view(np.float64),
                     "counts": np.array(counts, dtype=np.int64)})
    columns, _ = read_csv(path)
    cells = [line.split(",") for line in path.read_text().splitlines()[2:]]
    want = np.array([[float(c) for c in row] for row in cells])
    for i, name in enumerate(columns):
        np.testing.assert_array_equal(columns[name].view(np.uint64), want[:, i].view(np.uint64))


@pytest.mark.parametrize("body", ["", "\n\n", "# a note\n"])
def test_column_row_without_rows_reads_as_empty_columns(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("# tool: biphoton\ntau_ns,counts\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns, meta = read_csv(path)
    assert meta == {"tool": "biphoton"}
    assert list(columns) == ["tau_ns", "counts"]
    assert all(c.dtype == np.float64 and c.shape == (0,) for c in columns.values())


@pytest.mark.parametrize("rows", ["1_000,2\n", "1,2\n3\n", "1,2,3\n", "1\n", "1,true\n"])
def test_rows_numpy_refuses_name_the_file(tmp_path, rows):
    path = tmp_path / "rows.csv"
    path.write_text("a,b\n" + rows)
    with pytest.raises(OutputError, match="rows.csv"):
        read_csv(path)


def test_histogram_round_trip(tmp_path):
    cfg, h = _histogram()
    path = tmp_path / "histogram.csv"
    write_histogram(path, h, histogram_metadata(h, cfg))
    back, meta = read_histogram(path)
    np.testing.assert_array_equal(back.counts, h.counts)
    assert back.bin_width == h.bin_width
    assert back.n_singles_s == h.n_singles_s
    assert back.n_singles_as == h.n_singles_as
    assert back.measurement_time == h.measurement_time
    assert meta["detection"]["pair_rate"] == 5e3
    assert meta["seed"] == 11


def test_histogram_sidecar_lives_next_to_csv(tmp_path):
    cfg, h = _histogram()
    path = tmp_path / "histogram.csv"
    write_histogram(path, h, histogram_metadata(h, cfg))
    assert (tmp_path / "histogram.csv.meta.json").exists()


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(OutputError):
        read_csv(tmp_path / "absent.csv")
    with pytest.raises(OutputError):
        read_histogram(tmp_path / "absent.csv")


def test_read_histogram_needs_schema(tmp_path):
    path = tmp_path / "odd.csv"
    write_csv(path, {"x": [1.0], "y": [2.0]})
    (tmp_path / "odd.csv.meta.json").write_text("{}\n")
    with pytest.raises(OutputError):
        read_histogram(path)


def test_corrupt_sidecar_raises(tmp_path):
    cfg, h = _histogram()
    path = tmp_path / "histogram.csv"
    write_histogram(path, h, histogram_metadata(h, cfg))
    (tmp_path / "histogram.csv.meta.json").write_text("{not json")
    with pytest.raises(OutputError):
        read_histogram(path)


def test_metadata_lists_survive(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, {"x": [0.0]}, metadata={"delta_c_list": [0.0, 16.7]})
    _, meta = read_csv(path)
    assert meta["delta_c_list"] == "[0.0, 16.7]"
