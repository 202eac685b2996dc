"""Command-line front end: every subcommand, exit codes, reproducibility."""

import numpy as np
import pytest

from biphoton import (
    SystemParams,
    apply_filter,
    chi3_full,
    default_frequency_grid,
    exact_poles,
    narrow_mode_center,
    psi_numeric,
    read_csv,
    read_histogram,
)
from biphoton.cli import main
from biphoton.config import config_from_dict, load_config, read_config_file

CONFIG = """\
system:
  delta_c: 28.3
  omega_c: 14.8
detection:
  pair_rate: 1.0e4
  measurement_time: 300.0
  rng_seed: 9
filter:
  - center_gamma13: narrow
    fwhm_mhz: 15.0
"""


def _write_config(tmp_path, text=CONFIG):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return str(path)


def test_dressed_report(tmp_path, capsys):
    assert main(["dressed", "--delta-c", "28.3", "--omega-c", "14.8"]) == 0
    out = capsys.readouterr().out
    for key in ("omega_e_gamma13", "fwhm_narrow_hz", "beat_period_ns"):
        assert key in out
    assert "31.9363" in out  # sqrt(28.3^2 + 14.8^2)


def test_spectrum_files(tmp_path):
    cfgpath = _write_config(tmp_path)
    assert main(["spectrum", "--config", cfgpath, "--out", str(tmp_path)]) == 0
    for name in ("spectrum_full.csv", "spectrum_approx.csv",
                 "spectrum_filtered.csv"):
        columns, _ = read_csv(tmp_path / name)
        assert set(columns) == {"omega_over_gamma13", "value"}
        assert np.all(np.asarray(columns["value"]) >= 0)


def test_wavepacket_files_and_agreement(tmp_path, capsys):
    assert main(["wavepacket", "--delta-c", "28.3", "--omega-c", "14.8",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    dev = float(out.split("max deviation:")[1].split()[0])
    assert dev < 1e-3
    for name in ("wavepacket_analytic.csv", "wavepacket_numeric.csv",
                 "spectrum_power.csv"):
        assert (tmp_path / name).exists()


def test_filter_suppresses_beat(tmp_path, capsys):
    cfgpath = _write_config(tmp_path)
    assert main(["filter", "--config", cfgpath, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    before = float(out.split("beat_depth_before: ")[1].split()[0])
    after = float(out.split("beat_depth_after: ")[1].split()[0])
    assert before > 0.8
    assert after < 0.3 * before
    for name in ("spectrum_unfiltered.csv", "spectrum_filtered.csv",
                 "wavepacket_unfiltered.csv", "wavepacket_filtered.csv"):
        assert (tmp_path / name).exists()


def test_filter_recentres_on_overridden_detuning(tmp_path):
    # the config names the etalon centre "narrow"; a --delta-c flag must
    # move it to the narrow mode of the overridden system
    cfgpath = _write_config(tmp_path)
    assert main(["filter", "--config", cfgpath, "--delta-c", "40",
                 "--out", str(tmp_path)]) == 0
    columns, _ = read_csv(tmp_path / "spectrum_filtered.csv")
    peak = columns["omega_over_gamma13"][np.argmax(columns["value"])]
    want = narrow_mode_center(SystemParams(delta_c=40.0, omega_c=14.8))
    stale = narrow_mode_center(SystemParams(delta_c=28.3, omega_c=14.8))
    assert abs(peak - want) < 0.5
    assert abs(want - stale) > 5.0


def test_montecarlo_writes_histogram(tmp_path, capsys):
    assert main(["montecarlo", "--seed", "5", "--delta-c", "28.3",
                 "--omega-c", "14.8", "--shards", "4",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "total_coincidences:" in out
    h, meta = read_histogram(tmp_path / "histogram.csv")
    assert h.counts.sum() > 1000
    assert meta["seed"] == 5
    assert meta["n_shards"] == 4


def test_montecarlo_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["montecarlo", "--seed", "5", "--shards", "2",
                     "--out", str(out)]) == 0
    assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()
    assert (a / "histogram.csv.meta.json").read_bytes() == \
        (b / "histogram.csv.meta.json").read_bytes()


def test_fit_roundtrip_from_cli(tmp_path, capsys):
    assert main(["montecarlo", "--seed", "9", "--delta-c", "28.3",
                 "--omega-c", "14.8", "--shards", "2",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["fit", "--data", str(tmp_path / "histogram.csv"),
                 "--model", "two_component", "--delta-c", "28.3",
                 "--omega-c", "14.8", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "gamma_minus" in out
    assert (tmp_path / "fit_result.txt").exists()
    line = [l for l in out.splitlines() if l.strip().startswith("omega_e")][0]
    omega_e = float(line.split()[1])
    assert omega_e == pytest.approx(np.hypot(28.3, 14.8), rel=0.05)


def test_fit_auto_model_announces_choice(tmp_path, capsys):
    assert main(["montecarlo", "--seed", "2", "--delta-c", "28.3",
                 "--omega-c", "14.8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["fit", "--data", str(tmp_path / "histogram.csv"),
                 "--model", "auto", "--out", str(tmp_path)])
    assert code == 0
    assert "auto-selected model:" in capsys.readouterr().out


def test_modulate_files(tmp_path, capsys):
    cfg = _write_config(tmp_path, CONFIG + (
        "mask:\n"
        "  pulse_width_ns: 40.0\n"
        "  n_pulses: 2\n"
        "  start_offset_ns: auto\n"
    ))
    code = main(["modulate", "--config", cfg, "--out", str(tmp_path),
                 "--tau-max", "1500", "--n-points", "6000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mask_start_ns:" in out
    for name in ("wavepacket_unmasked.csv", "mask.csv",
                 "wavepacket_modulated.csv"):
        assert (tmp_path / name).exists()
    carved, _ = read_csv(tmp_path / "wavepacket_modulated.csv")
    plain, _ = read_csv(tmp_path / "wavepacket_unmasked.csv")
    assert np.all(carved["value"] <= plain["value"] + 1e-15)


def test_modulate_without_config_starts_at_zero(tmp_path, capsys):
    assert main(["modulate", "--out", str(tmp_path)]) == 0
    assert "mask_start_ns:" not in capsys.readouterr().out
    mask, _ = read_csv(tmp_path / "mask.csv")
    assert mask["value"][0] == 1.0


def test_budget_report(capsys):
    assert main(["budget", "--detected-rate", "2.18"]) == 0
    out = capsys.readouterr().out
    assert "detected rate: 2.18" in out
    assert "generated rate: 10351.4" in out


def test_sweep_beat_periods(tmp_path, capsys):
    code = main(["sweep", "--delta-c-list", "0,16.7,28.3,45",
                 "--omega-c", "14.8", "--out", str(tmp_path)])
    assert code == 0
    columns, _ = read_csv(tmp_path / "beat_periods.csv")
    np.testing.assert_allclose(columns["beat_period_ns"],
                               [22.52, 14.94, 10.44, 7.04], atol=0.05)
    # narrow linewidth shrinks as the coupling is detuned further
    assert columns["two_gamma_minus_gamma13"][-1] < columns["two_gamma_minus_gamma13"][0]


def test_sweep_output_independent_of_out_flag(tmp_path):
    cfgpath = _write_config(tmp_path, CONFIG + "sweep:\n  delta_c: [10.0, 30.0]\n")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["sweep", "--config", cfgpath, "--out", str(out)]) == 0
    assert (a / "beat_periods.csv").read_bytes() == \
        (b / "beat_periods.csv").read_bytes()


def test_invalid_sweep_argument_exits_2(tmp_path, capsys):
    assert main(["sweep", "--delta-c-list", "oops", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["montecarlo", "modulate"])
def test_filter_wider_grid_than_fsr_exits_2(sub, tmp_path, capsys):
    # the frequency grid spans more than one 0.1 GHz free spectral range
    cfg = _write_config(tmp_path, CONFIG + "    fsr_ghz: 0.1\n")
    assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "free spectral range" in capsys.readouterr().err


def _g2_within_1e3_of_numeric(path, cfg):
    # a CLI wavepacket CSV against psi_numeric of the sampled spectrum
    # through the same filters
    p = cfg.system
    spec = chi3_full(p, default_frequency_grid(p))
    for f in cfg.filters:
        spec = apply_filter(spec, f)
    numeric = psi_numeric(spec, cfg.grid, p).g2
    columns, _ = read_csv(path)
    g2 = np.asarray(columns["value"])
    return np.max(np.abs(g2 - numeric)) < 1e-3 * numeric.max()


def test_filtered_runs_at_double_root(tmp_path):
    # delta_c = 0, omega_c = gamma13 - gamma12: D(omega) has a double root
    assert len(set(exact_poles(SystemParams(delta_c=0.0, omega_c=0.916)))) == 1
    cfg = _write_config(tmp_path)
    flags = ["--config", cfg, "--delta-c", "0", "--omega-c", "0.916",
             "--out", str(tmp_path)]
    assert main(["montecarlo", *flags]) == 0
    assert main(["modulate", *flags]) == 0
    resolved = config_from_dict({**read_config_file(cfg),
                                 "system": {"delta_c": 0.0, "omega_c": 0.916}})
    assert _g2_within_1e3_of_numeric(tmp_path / "wavepacket_unmasked.csv", resolved)


def test_filter_with_two_identical_etalons(tmp_path):
    text = CONFIG.replace("    fwhm_mhz: 15.0\n",
                          "    fwhm_mhz: 15.0\n  - center_gamma13: narrow\n")
    cfg = _write_config(tmp_path, text)
    assert main(["filter", "--config", cfg, "--out", str(tmp_path)]) == 0
    resolved = load_config(cfg)
    assert len(resolved.filters) == 2
    assert _g2_within_1e3_of_numeric(tmp_path / "wavepacket_filtered.csv", resolved)


def test_invalid_physics_exits_2(capsys):
    assert main(["dressed", "--omega-c", "-1.0"]) == 2


def test_missing_data_file_exits_4(tmp_path, capsys):
    assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 4


def test_missing_config_exits_4(tmp_path, capsys):
    assert main(["dressed", "--config", str(tmp_path / "nope.yaml")]) == 4


def test_timestamps_flag_adds_header(tmp_path):
    assert main(["sweep", "--delta-c-list", "0", "--out", str(tmp_path),
                 "--timestamps"]) == 0
    assert "written:" in (tmp_path / "beat_periods.csv").read_text()
