"""YAML run configuration: defaults, validation, and unit mapping."""

import math
import textwrap

import pytest

from biphoton import (
    DetectionConfig,
    ModulationMask,
    SystemParams,
    TimeGridConfig,
    ValidationError,
    dressed_modes,
    narrowband_etalon,
)
from biphoton.cli import main
from biphoton.config import config_from_dict, load_config
from biphoton.filtering import narrow_mode_center

FULL = textwrap.dedent("""\
    system:
      delta_c: 28.3
      omega_c: 14.8
      gamma12: 0.084
      gamma13_mhz: 3.0
    grid:
      tau_max_ns: 500.0
      n_points: 2500
      freq_points: 32768
    filter:
      - center_gamma13: narrow
        fwhm_mhz: 15.0
        fsr_ghz: 22.9
        peak_transmission: 0.12
    detection:
      pair_rate: 4.0e4
      measurement_time: 600.0
      bin_width_ns: 1.0
      rng_seed: 7
    fit:
      model: two_component
      window_ns: [0.0, 350.0]
    mask:
      pulse_width_ns: 40.0
      n_pulses: 2
      start_offset_ns: auto
    budget:
      detected_rate: 2.18
    sweep:
      delta_c: [0.0, 16.7, 28.3, 45.0]
    output:
      directory: results
      timestamps: false
""")


def test_empty_config_gives_defaults():
    cfg = config_from_dict({})
    assert cfg.system == SystemParams()
    assert cfg.grid.tau_max == 400.0
    assert cfg.grid.n_points == 2000
    assert cfg.grid == TimeGridConfig()
    assert cfg.filters == []
    assert cfg.detection == DetectionConfig()
    assert cfg.fit.model.which == "two_component"
    assert cfg.mask.start_auto is False
    assert cfg.mask.mask.start_offset == 0.0
    assert cfg.mask.mask == ModulationMask()
    p = SystemParams()
    assert config_from_dict({"filter": [{}]}).filters == [
        narrowband_etalon(narrow_mode_center(p), p)
    ]
    assert cfg.sweep_delta_c == [0.0, 16.7, 28.3, 45.0]
    assert cfg.output.directory == "out"
    assert cfg.output.timestamps is False


def test_full_config_parses(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(FULL)
    cfg = load_config(path)
    assert cfg.system.delta_c == 28.3
    assert cfg.system.si_gamma13 == pytest.approx(2 * math.pi * 3e6)
    assert cfg.grid.tau_max == 500.0
    assert cfg.freq_points == 32768
    assert len(cfg.filters) == 1
    assert cfg.detection.pair_rate == 4.0e4
    assert cfg.detection.bin_width == 1.0
    assert cfg.detection.rng_seed == 7
    assert cfg.fit.window_ns == (0.0, 350.0)
    assert cfg.mask.start_auto is True
    assert cfg.budget.detected_rate == 2.18
    assert cfg.sweep_delta_c == [0.0, 16.7, 28.3, 45.0]
    assert cfg.output.directory == "results"


def test_yaml_exponent_strings_coerced(tmp_path):
    # YAML 1.1 reads 4.0e4 (no sign) as a string; the loader must not
    path = tmp_path / "run.yaml"
    path.write_text("detection:\n  pair_rate: 4.0e4\n  measurement_time: 1.0e2\n")
    cfg = load_config(path)
    assert cfg.detection.pair_rate == 4.0e4
    assert cfg.detection.measurement_time == 100.0


def test_non_numeric_value_rejected():
    with pytest.raises(ValidationError):
        config_from_dict({"system": {"delta_c": "blue"}})


@pytest.mark.parametrize("raw", [
    {"systemm": {}},
    {"system": {"delta": 1.0}},
    {"grid": {"taumax": 1.0}},
    {"filter": [{"fwhm": 15.0}]},
    {"detection": {"rate": 1.0}},
    {"fit": {"windows": [0, 1]}},
    {"mask": {"width": 1.0}},
    {"budget": {"rate": 1.0}},
    {"sweep": {"omega_c": [1.0]}},
    {"output": {"folder": "x"}},
])
def test_unknown_keys_rejected(raw):
    with pytest.raises(ValidationError):
        config_from_dict(raw)


def test_filter_center_names_resolve():
    p = SystemParams(delta_c=28.3, omega_c=14.8)
    base = {"system": {"delta_c": 28.3, "omega_c": 14.8}}
    narrow = config_from_dict({**base, "filter": {"center_gamma13": "narrow"}})
    broad = config_from_dict({**base, "filter": {"center_gamma13": "broad"}})
    assert narrow.filters[0].center == pytest.approx(narrow_mode_center(p))
    assert broad.filters[0].center == pytest.approx(dressed_modes(p).broad_detuning)
    with pytest.raises(ValidationError):
        config_from_dict({**base, "filter": {"center_gamma13": "sharp"}})


def test_auto_fit_model_is_none():
    cfg = config_from_dict({"fit": {"model": "auto"}})
    assert cfg.fit.model is None


def test_fit_window_must_be_ordered():
    with pytest.raises(ValidationError):
        config_from_dict({"fit": {"window_ns": [10.0, 10.0]}})
    with pytest.raises(ValidationError):
        config_from_dict({"fit": {"window_ns": 10.0}})


def test_mask_start_auto_only_keyword():
    with pytest.raises(ValidationError):
        config_from_dict({"mask": {"start_offset_ns": "later"}})


def test_budget_factors_round_trip():
    cfg = config_from_dict(
        {"budget": {"factors": [["qe", 0.6], ["fiber", 0.026]]}}
    )
    labels = [label for label, _ in cfg.budget.budget.factors]
    assert labels == ["qe", "fiber"]
    with pytest.raises(ValidationError):
        config_from_dict({"budget": {"factors": [["qe"]]}})


def test_invalid_physics_rejected_at_parse():
    with pytest.raises(ValidationError):
        config_from_dict({"system": {"omega_c": -3.0}})
    with pytest.raises(ValidationError):
        config_from_dict({"detection": {"pair_rate": -1.0}})
    with pytest.raises(ValidationError):
        config_from_dict({"grid": {"n_points": 1}})


def test_root_must_be_mapping():
    with pytest.raises(ValidationError):
        config_from_dict([1, 2, 3])
    assert config_from_dict(None).system == SystemParams()


def test_malformed_yaml_raises(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("system: [unclosed\n")
    with pytest.raises(ValidationError):
        load_config(path)


@pytest.mark.parametrize("text", [
    "sweep: {delta_c: [x]}",
    "sweep: {delta_c: 5}",
    "sweep: {delta_c: []}",
    "system: 5",
    "filter: 5",
    "filter: [5]",
    "grid: [1, 2]",
    "mask: {samples: [a]}",
    "output: {timestamps: 'false'}",
    "[1, 2]",
    "grid: {n_points: 2000.9}",
    "detection: {rng_seed: 7.9}",
    "grid: {n_points: true}",
    "detection: {rng_seed: true}",
    "system: {omega_c: true}",
    "system: {omega_c: .nan}",
    "system: {gamma12: .inf}",
    "detection: {pair_rate: .nan}",
    "detection: {background_as: .inf}",
    "grid: {tau_max_ns: .inf}",
    "grid: {tau_min_ns: .nan}",
    "grid: {tau_min_ns: -.inf}",
    "detection: {rng_seed: -1}",
])
def test_malformed_input_exits_2(tmp_path, capsys, text):
    path = tmp_path / "run.yaml"
    path.write_text(text + "\n")
    argv = ["--config", str(path), "--out", str(tmp_path), "--delta-c", "3"]
    assert main(["sweep", *argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_integral_float_and_numeric_string_accepted_as_integers():
    cfg = config_from_dict({"grid": {"n_points": 2000.0},
                            "detection": {"rng_seed": "7.0e1"}})
    assert cfg.grid.n_points == 2000 and isinstance(cfg.grid.n_points, int)
    assert cfg.detection.rng_seed == 70
