"""Command-line front end: every subcommand, exit codes, reproducibility."""

import numpy as np
import pytest

from biphoton import SystemParams, narrow_mode_center, read_csv, read_histogram
from biphoton.cli import main

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
