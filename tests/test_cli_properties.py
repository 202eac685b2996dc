"""Property: any config mapping, under any subcommand, ends the run cleanly.

A run either exits 0 and writes and prints only finite numbers, or exits
2, 3 or 4 with exactly one error line on stderr, any other stderr line a
`warning:` line, and no traceback.  The configs are a small-grid base
with one or two keys, or a whole section, set to an odd value.
"""

import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biphoton.cli import COMMANDS, main
from biphoton.config import _TABLES

BASE = {
    "system": {"delta_c": 28.3, "omega_c": 14.8},
    "grid": {"tau_max_ns": 200.0, "n_points": 400, "freq_points": 2048},
    "detection": {"measurement_time": 1.0, "rng_seed": 1},
    "mask": {"pulse_width_ns": 40.0, "n_pulses": 2},
    "sweep": {"delta_c": [10.0, 30.0]},
}
ODD = [0, -1, -1e-9, 1e-300, 1e-12, 0.5, 3, 1e6, 2.5e6, 1e300, 1e308,
       math.nan, math.inf, -math.inf, "x", [], True]
# keys whose size values run correctly but slowly, as arrays of 1e6
# points or more: they get the other odd values
SIZES = {("grid", "n_points"), ("grid", "freq_points"), ("grid", "tau_max_ns"),
         ("mask", "n_pulses")}
TARGETS = [(section, key) for section, table in _TABLES.items() for key in table] \
    + [(section, None) for section in _TABLES]
NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def configs(draw):
    config = {section: dict(keys) for section, keys in BASE.items()}
    for section, key in draw(st.lists(st.sampled_from(TARGETS), min_size=1, max_size=2,
                                      unique=True)):
        values = [v for v in ODD if (section, key) not in SIZES
                  or not (isinstance(v, float) and 1e5 < v < 1e300)]
        value = draw(st.sampled_from(values))
        if key is None:
            config[section] = value
        elif isinstance(config.get(section, {}), dict):
            config[section] = {**config.get(section, {}), key: value}
    return config


@pytest.fixture(scope="module")
def histogram(tmp_path_factory):
    out = tmp_path_factory.mktemp("histogram")
    config = out / "run.yaml"
    config.write_text(yaml.safe_dump(BASE))
    assert main(["montecarlo", "--config", str(config), "--out", str(out)]) == 0
    return str(out / "histogram.csv")


def _finite_csv(path: Path) -> bool:
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    return all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sub=st.sampled_from(sorted(COMMANDS)), config=configs())
def test_every_config_ends_cleanly(sub, config, histogram, capsys):
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(yaml.safe_dump(config))
        data = ["--data", histogram] if sub == "fit" else []
        code = main([sub, "--config", str(path), "--out", str(Path(tmp) / "out"), *data])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
        if code == 0:
            assert not errors
            assert not NOT_FINITE.search(out)
            assert all(_finite_csv(csv) for csv in (Path(tmp) / "out").glob("*.csv"))
        else:
            assert code in (2, 3, 4)
            assert len(errors) == 1 and "error: " in errors[0]
