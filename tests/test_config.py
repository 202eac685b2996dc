"""YAML run configuration: defaults, validation, and unit mapping."""

import dataclasses
import math
import re
import textwrap
from pathlib import Path

import pytest
import yaml

from biphoton import (
    DetectionConfig,
    ModulationMask,
    SystemParams,
    TimeGridConfig,
    ValidationError,
    dressed_modes,
    narrowband_etalon,
)
from biphoton import config
from biphoton.cli import COMMANDS, FLAGS, main
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
    path.write_text("detection:\n  pair_rate: 4.0e4\n  measurement_time: 1.0e2\n"
                    "mask:\n  start_offset_ns: 4.0e1\n"
                    "filter:\n  center_gamma13: 1.5e1\n")
    cfg = load_config(path)
    assert cfg.detection.pair_rate == 4.0e4
    assert cfg.detection.measurement_time == 100.0
    # the keys that also take a name read such a string as a number too
    assert cfg.mask.mask.start_offset == 40.0 and not cfg.mask.start_auto
    assert cfg.filters[0].center == 15.0


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
    {"grid": {"tau_min_ns": -10.0}},
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
    with pytest.raises(ValidationError, match="must be a number or auto"):
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
    "filter: {center_gamma13: .nan}",
    "filter: {fsr_ghz: .inf}",
    "mask: {rise_time_ns: .nan}",
    "mask: {rise_time_ns: -5.0}",
    "budget: {detected_rate: .nan}",
    "budget: {detected_rate: .inf}",
    "fit: {fixed_t0_ns: 0.0}",
    "mask: {pulse_width_ns: .inf}",
    "mask: {pulse_separation_ns: .nan}",
    "mask: {start_offset_ns: .nan}",
    "mask: {samples: [.nan]}",
    "output: {directory: null}",
])
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, text):
    # no --out, which would override output.directory; a run that is not
    # refused writes into tmp_path
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.yaml"
    path.write_text(text + "\n")
    argv = ["--config", str(path), "--gamma14", "3"]
    assert main(["sweep", *argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_integral_float_and_numeric_string_accepted_as_integers():
    cfg = config_from_dict({"grid": {"n_points": 2000.0},
                            "detection": {"rng_seed": "7.0e1"}})
    assert cfg.grid.n_points == 2000 and isinstance(cfg.grid.n_points, int)
    assert cfg.detection.rng_seed == 70


def _doc_keys() -> list[tuple[str, str]]:
    """(section, key) for each key the config module docstring lists."""
    keys = []
    for section, text in re.findall(r"^    (\w+):(.*(?:\n {8,}\S.*)*)",
                                    config.__doc__, re.M):
        text = re.sub(r"\([^)]*\)", "", text)
        keys += [(section, key.strip()) for key in text.split(",")]
    return keys


# (section, key) -> (a valid non-default value, the one RunConfig leaf it
# sets, that leaf's value[, the section's other keys in both configs])
KEY_CASES = {
    ("system", "gamma12"): (0.05, "system.gamma12", 0.05),
    ("system", "gamma14"): (2.0, "system.gamma14", 2.0),
    ("system", "delta_p"): (-10.0, "system.delta_p", -10.0),
    ("system", "delta_c"): (28.3, "system.delta_c", 28.3),
    ("system", "omega_c"): (10.0, "system.omega_c", 10.0),
    ("system", "gamma13_mhz"): (6.0, "system.si_gamma13", 2 * math.pi * 6e6),
    ("grid", "tau_max_ns"): (500.0, "grid.tau_max", 500.0),
    ("grid", "n_points"): (1000, "grid.n_points", 1000),
    ("grid", "freq_points"): (4096, "freq_points", 4096),
    ("filter", "center_gamma13"): (
        "broad", "filters.0.center", dressed_modes(SystemParams()).broad_detuning
    ),
    ("filter", "fwhm_mhz"): (30.0, "filters.0.fwhm", 10.0),
    ("filter", "fsr_ghz"): (30.0, "filters.0.fsr", 10000.0),
    ("filter", "peak_transmission"): (0.5, "filters.0.peak_transmission", 0.5),
    ("detection", "pair_rate"): (2.0e4, "detection.pair_rate", 2.0e4),
    ("detection", "qe_stokes"): (0.5, "detection.qe_stokes", 0.5),
    ("detection", "qe_antistokes"): (0.4, "detection.qe_antistokes", 0.4),
    ("detection", "channel_t_stokes"): (0.3, "detection.channel_t_stokes", 0.3),
    ("detection", "channel_t_antistokes"): (
        0.7, "detection.channel_t_antistokes", 0.7
    ),
    ("detection", "duty_cycle"): (0.9, "detection.duty_cycle", 0.9),
    ("detection", "measurement_time"): (100.0, "detection.measurement_time", 100.0),
    ("detection", "bin_width_ns"): (2.0, "detection.bin_width", 2.0),
    ("detection", "background_s"): (50.0, "detection.background_s", 50.0),
    ("detection", "background_as"): (60.0, "detection.background_as", 60.0),
    ("detection", "rng_seed"): (7, "detection.rng_seed", 7),
    ("fit", "model"): ("resonant", "fit.model.which", "resonant"),
    ("fit", "window_ns"): ([0.0, 350.0], "fit.window_ns", (0.0, 350.0)),
    ("mask", "kind"): (
        "custom_samples", "mask.mask.kind", "custom_samples", {"samples": [0.5]}
    ),
    ("mask", "pulse_width_ns"): (40.0, "mask.mask.pulse_width", 40.0),
    ("mask", "pulse_separation_ns"): (30.0, "mask.mask.pulse_separation", 30.0),
    ("mask", "n_pulses"): (3, "mask.mask.n_pulses", 3),
    ("mask", "start_offset_ns"): (20.0, "mask.mask.start_offset", 20.0),
    ("mask", "delay_ns"): (5.0, "mask.delay_ns", 5.0),
    ("mask", "convention"): ("amplitude", "mask.convention", "amplitude"),
    ("mask", "rise_time_ns"): (2.0, "mask.rise_time_ns", 2.0),
    ("mask", "samples"): ([0.5, 1.0], "mask.mask.samples", [0.5, 1.0]),
    ("budget", "detected_rate"): (3.0, "budget.detected_rate", 3.0),
    ("budget", "factors"): ([["qe", 0.5]], "budget.budget.factors", (("qe", 0.5),)),
    ("sweep", "delta_c"): ([1.0, 2.0], "sweep_delta_c", [1.0, 2.0]),
    ("output", "directory"): ("results", "output.directory", "results"),
    ("output", "timestamps"): (True, "output.timestamps", True),
}


def _leaves(obj, path: str = "") -> dict:
    """Every value of a resolved config by dotted path, through its
    dataclasses and lists of them; echo, the raw mapping, is left out."""
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
                 if f.name != "echo"]
    elif isinstance(obj, list) and obj and all(map(dataclasses.is_dataclass, obj)):
        items = list(enumerate(obj))
    else:
        return {path: obj}
    out = {}
    for name, value in items:
        out.update(_leaves(value, f"{path}.{name}" if path else str(name)))
    return out


@pytest.mark.parametrize("section,key", _doc_keys(),
                         ids=[f"{s}.{k}" for s, k in _doc_keys()])
def test_every_key_reaches_its_field(section, key):
    value, leaf, expected, *rest = KEY_CASES[section, key]
    base = rest[0] if rest else {}

    def resolve(entries):
        return _leaves(config_from_dict(
            {section: [entries] if section == "filter" else entries}
        ))

    before, after = resolve(base), resolve({**base, key: value})
    changed = {p for p in before.keys() | after.keys()
               if before.get(p) != after.get(p)}
    assert changed == {leaf}
    assert after[leaf] == (pytest.approx(expected)
                           if isinstance(expected, float) else expected)


def _readme_section(title: str) -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text().split(f"## {title}\n")[1].split("\n## ")[0]


def _readme_config() -> dict:
    block = _readme_section("Configuration file")
    return yaml.safe_load(block.split("```yaml\n")[1].split("```")[0])


def test_docs_and_reader_tables_name_the_same_keys():
    raw = _readme_config()
    readme = {(section, key) for section, body in raw.items()
              for entry in (body if isinstance(body, list) else [body])
              for key in entry}
    tables = {(section, key) for section, table in config._TABLES.items()
              for key in table}
    assert readme == set(_doc_keys()) == tables == set(KEY_CASES)
    assert {target for target, _ in FLAGS.values() if target} <= tables
    config_from_dict(raw)  # the README example is itself a valid config


@pytest.mark.parametrize(
    "sub,flag", [*((s, f) for s in COMMANDS for f in FLAGS), ("budget", "--det")],
)
def test_each_subcommand_takes_only_the_flags_it_reads(sub, flag, tmp_path,
                                                       monkeypatch, capsys):
    seen = []  # what the handler is given

    def handler(cfg, args):
        seen.append((cfg, args))
        return 0

    monkeypatch.setitem(COMMANDS, sub, (handler, *COMMANDS[sub][1:]))
    target = FLAGS.get(flag, (None,))[0]
    if target:
        value, leaf, expected = KEY_CASES[target][:3]
        given = [] if value is True else [
            ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    else:
        empty = tmp_path / "run.yaml"
        empty.write_text("")
        given, expected = {"--config": ([str(empty)], str(empty)),
                           "--data": (["h.csv"], "h.csv")}.get(flag, (["3"], 3))
    required = ["--data", "h.csv"] if sub == "fit" and flag != "--data" else []
    argv = [sub, flag, *given, *required]
    if flag not in COMMANDS[sub][2]:
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2 and not seen
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        return
    assert main(argv) == 0
    cfg, args = seen[0]
    got = _leaves(cfg)[leaf] if target else getattr(args, flag[2:])
    assert got == (pytest.approx(expected) if isinstance(expected, float) else expected)


def test_readme_names_each_subcommands_flags_and_their_keys():
    text = _readme_section("Command line")
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", text, re.M)
    assert {sub: set(re.findall(r"`(--[\w-]+)`", flags)) for sub, flags in rows} == \
        {sub: set(flags) for sub, (_, _, flags) in COMMANDS.items()}
    keys = re.findall(r"^- `(--[\w-]+)`: `(\w+)\.(\w+)`$", text, re.M)
    assert {flag: (section, key) for flag, section, key in keys} == \
        {flag: target for flag, (target, _) in FLAGS.items() if target}
