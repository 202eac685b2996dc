"""Command-line front end: every subcommand, exit codes, reproducibility."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from biphoton import (
    SystemParams,
    apply_filter,
    chi3_full,
    default_frequency_grid,
    exact_poles,
    filtered_wavepacket,
    narrow_mode_center,
    psi_numeric,
    read_csv,
    read_histogram,
    simulate_coincidences,
)
from biphoton.cli import _write, main
from biphoton.config import config_from_dict, load_config, read_config_file
from biphoton.errors import NumericalError

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


def test_sharded_sidecar_keeps_the_measurement_time(tmp_path):
    # three 7.7/3-s slices sum to 7.700000000000001 s
    cfg = _write_config(tmp_path, "detection: {measurement_time: 7.7}\n")
    assert main(["montecarlo", "--config", cfg, "--shards", "3",
                 "--out", str(tmp_path)]) == 0
    _, meta = read_histogram(tmp_path / "histogram.csv")
    assert meta["measurement_time_s"] == meta["detection"]["measurement_time"] == 7.7


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
                 "--model", "two_component", "--out", str(tmp_path)])
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


def test_fit_passes_over_trial_shapes_that_underflow(tmp_path):
    # the auto fit of this histogram without its config tries shapes that
    # underflow to zero on the window; the solver rejects those points
    # under the CLI's raising error state and goes on
    cfg = _write_config(tmp_path, CYCLE_CONFIG)
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["fit", "--data", str(tmp_path / "histogram.csv"),
                 "--model", "auto", "--out", str(tmp_path)]) == 0


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


def test_unfiltered_curves_are_one_model(tmp_path):
    # without a filter section, modulate carves and montecarlo samples the
    # same exact residue sum that filter writes as its unfiltered curve
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["filter", "--out", str(a)]) == 0
    assert main(["modulate", "--out", str(b)]) == 0
    unfiltered, _ = read_csv(a / "wavepacket_unfiltered.csv")
    unmasked, _ = read_csv(b / "wavepacket_unmasked.csv")
    assert np.array_equal(unmasked["value"], unfiltered["value"])

    assert main(["montecarlo", "--seed", "5", "--shards", "2",
                 "--out", str(c)]) == 0
    h, _ = read_histogram(c / "histogram.csv")
    cfg = config_from_dict({"detection": {"rng_seed": 5}})
    want = simulate_coincidences(
        filtered_wavepacket(cfg.system, [], cfg.grid), cfg.detection, n_shards=2)
    assert np.array_equal(h.counts, want.counts)


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


@pytest.mark.parametrize("flags, message", [
    (["--workers", "0"], "workers must be >= 1"),
    (["--workers", "-1"], "workers must be >= 1"),
    # no pool and no shard's RNG stream is made
    (["--shards", "257"], "n_shards must be <= MAX_SHARDS = 256"),
    # 1e9 s of 1-ns bins is 1e21 ticks of 1/1024 bin, past 2**62
    (["--config", "detection: {measurement_time: 1.0e9, pair_rate: 1.0e-3}"],
     "reaches 2^62 ticks; widen bin_width or raise n_shards"),
], ids=["0", "-1", "shards-257", "tick-range"])
def test_montecarlo_without_workers_exits_2(flags, message, tmp_path, capsys):
    if "--config" in flags:
        flags = [*flags[:-1], _write_config(tmp_path, flags[-1] + "\n")]
    assert main(["montecarlo", *flags, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "histogram.csv").exists()


@pytest.mark.parametrize("sub", ["montecarlo", "filter"])
def test_infinite_tau_max_exits_2(sub, tmp_path, capsys):
    assert main([sub, "--tau-max", "inf", "--out", str(tmp_path)]) == 2
    assert "tau_max must be finite" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    assert main(["montecarlo", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "rng_seed must be non-negative" in capsys.readouterr().err


def test_oversized_bin_count_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "detection: {bin_width_ns: 1.0e-7}\n")
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "above MAX_GRID_POINTS" in capsys.readouterr().err
    assert not (tmp_path / "histogram.csv").exists()


@pytest.mark.parametrize("argv", [
    ["wavepacket", "--n-points", "100000000"],
    ["filter", "--n-points", "100000000"],
    ["spectrum", "--config", "grid: {freq_points: 100000000}"],
])
def test_oversized_grid_exits_2_before_allocating(argv, tmp_path, capsys):
    if "--config" in argv:
        argv = [*argv[:-1], _write_config(tmp_path, argv[-1] + "\n")]
    start = time.perf_counter()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "MAX_GRID_POINTS" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_zero_peak_wavepacket_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, "system: {gamma13_mhz: 1.0e-300}\n")
    assert main(["wavepacket", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "peak" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_invalid_physics_exits_2(capsys):
    assert main(["dressed", "--omega-c", "-1.0"]) == 2


def test_overflow_exits_3_without_traceback(tmp_path, capsys):
    assert main(["wavepacket", "--omega-c", "1e200", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_non_finite_curve_exits_3_before_writing(tmp_path):
    # in a subprocess, where the suite's filter on RuntimeWarning does not
    # apply: numpy's own error state ends the run at the first overflow
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "biphoton.cli", "spectrum", "--delta-c", "1e200",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 3
    assert run.stderr == "error: numerical failure: overflow encountered in multiply\n"
    assert not list(tmp_path.glob("*.csv"))


def test_write_refuses_non_finite_samples(tmp_path):
    columns = {"tau_ns": np.arange(3.0), "value": np.array([1.0, np.nan, 0.5])}
    with pytest.raises(NumericalError, match="1 of 3 value samples are not finite"):
        _write(config_from_dict({}), tmp_path, "curve.csv", "filter", columns)
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "system: {gamma13_mhz: 1.0e-300}", "--omega-c", "1e-6",
     "--delta-c-list", "0"],
    ["dressed", "--omega-c", "1e308", "--delta-c", "1e308"],
    ["budget", "--detected-rate", "1e308"],
])
def test_non_finite_result_exits_3_with_one_line(argv, tmp_path, capsys):
    # a Python float overflows to inf silently; neither a CSV nor a
    # printed line may carry it
    if "--config" in argv:
        i = argv.index("--config") + 1
        argv = [*argv[:i], _write_config(tmp_path, argv[i] + "\n"), *argv[i + 1:]]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not re.search(r"\b(inf|nan)\b", out)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("rows,sidecar", [
    ("0.5,abc\n", None),
    ("0.5,3\n1.5\n", None),
    ("0.5,3\n", {"bin_width_ns": 1}),
    ("0.5,3\n", [1, 2]),
    ("0.5,nan\n", None),
    ("0.5,inf\n", None),
    ("0.5,1e30\n", None),
    ("0.5,2.5\n", None),
    ("0.5,3\n", {"bin_width_ns": 1.0, "n_singles_s": 4743.9, "n_singles_as": 10,
                 "measurement_time_s": 1.0}),
], ids=["bad-cell", "short-row", "sidecar-without-singles", "sidecar-not-a-mapping",
        "nan-count", "inf-count", "count-beyond-int64", "fractional-count",
        "fractional-singles"])
def test_malformed_histogram_exits_4(rows, sidecar, tmp_path, capsys):
    data = tmp_path / "h.csv"
    data.write_text("tau_ns,counts\n" + rows)
    meta = {"bin_width_ns": 1.0, "n_singles_s": 10, "n_singles_as": 10,
            "measurement_time_s": 1.0}
    (tmp_path / "h.csv.meta.json").write_text(json.dumps(sidecar or meta))
    assert main(["fit", "--data", str(data), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data) in err


def test_missing_data_file_exits_4(tmp_path, capsys):
    assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 4


def test_missing_config_exits_4(tmp_path, capsys):
    assert main(["dressed", "--config", str(tmp_path / "nope.yaml")]) == 4


def test_timestamps_flag_adds_header(tmp_path):
    assert main(["sweep", "--delta-c-list", "0", "--out", str(tmp_path),
                 "--timestamps"]) == 0
    assert "written:" in (tmp_path / "beat_periods.csv").read_text()


# shaped like the benchmark's cold-CLI config, with a short measurement
CYCLE_CONFIG = """\
system:
  delta_c: 28.3
  omega_c: 14.8
grid:
  tau_max_ns: 400.0
  n_points: 2000
filter:
  - center_gamma13: narrow
detection:
  pair_rate: 40000.0
  qe_stokes: 0.6
  qe_antistokes: 0.6
  channel_t_stokes: 0.5
  channel_t_antistokes: 0.5
  duty_cycle: 0.2
  measurement_time: 5.0
  background_s: 500.0
  background_as: 500.0
  bin_width_ns: 1.0
  rng_seed: 1
fit:
  model: single_exponential
  window_ns: [100.0, 399.0]
mask:
  pulse_width_ns: 50.0
  pulse_separation_ns: 50.0
  n_pulses: 2
  start_offset_ns: auto
  rise_time_ns: 5.0
sweep:
  delta_c: [16.7, 28.3, 45.0]
"""

CYCLE_DIGESTS = {
    "beat_periods.csv":
        "49b74b756850270a85a99bf0cc530abe840fdb6b73123884350eff34c420417d",
    "fit_result.txt":
        "59ea464d3710a5cbef431c60b555be0e0d7eaa409d1a8da98a05cfe563c8febb",
    "histogram.csv":
        "45b93641fc36ed1e82986a9c7b13b341e9d7bd93e6c9cdeb56707b1a2d435803",
    "histogram.csv.meta.json":
        "f2103d16d96017d26789368a41193dfef05c397c26053ca5474d5a7fd305e590",
    "mask.csv":
        "9612197394cd28177113fd165c4e1abd5d7d7569ee14b1ebe8a73b87827ccf81",
    "spectrum_approx.csv":
        "30fc6fe155fa922075f3db52676e14e466c69ba8e4ff0165300817a8d8dfd9d8",
    "spectrum_filtered.csv":
        "155d7fa897b4d6b912dd63dc7f5deb45272fb6b33e93ea0f797a22c05b52365b",
    "spectrum_full.csv":
        "ee8a4cf5c3557bd8db24533a7f0bd4738618cea93cf87416643065eb481092c4",
    "spectrum_power.csv":
        "7025de03757afc15bdfb0d417040c501ce523fe73a3ec5c32d0ab6c91721a8af",
    "spectrum_unfiltered.csv":
        "1eb1d9bcbe92aa9b3a19e26ce110eb711a8df2ae473811bd62a0bdc9355c0e59",
    "wavepacket_analytic.csv":
        "59f1af546912fffb965020304488ba382491231f05f070d03939a8989ca87b58",
    "wavepacket_filtered.csv":
        "53ae0db63f2ac8787402089841fc5ba93d23f68275f1dc02dd0c22b85718c5ff",
    "wavepacket_modulated.csv":
        "7eda05c9242ad0a6e259dbfd207c1cb068d2225b99ea0e0488835b88a6ba88e5",
    "wavepacket_numeric.csv":
        "fb5542cce26a31b1f5a5ea43712ead1c76035f40b62dc6aabead7ebad8af87a9",
    "wavepacket_unfiltered.csv":
        "535c2fd6187604c9d934c76dc1ce9aef32da9f905ab3df97ecf1f61323f1aaa4",
    "wavepacket_unmasked.csv":
        "cb4993b8bd798d4e091a29c315aedef242d97ffec876c8d28d3657aa52e71b98",
}


def test_filtered_cycle_bytes_are_pinned(tmp_path):
    # recorded before the CLI's curve writers and spectrum normalisations
    # were merged, and the Monte Carlo's three files again when its random
    # stream changed: any drift in a byte of a written file changes a
    # digest.  Every header names the tool version, so a version bump
    # re-records them.
    cfg = _write_config(tmp_path, CYCLE_CONFIG)
    out = tmp_path / "out"
    for sub in ("dressed", "spectrum", "wavepacket", "filter", "montecarlo",
                "fit", "modulate", "sweep"):
        extra = {"montecarlo": ["--shards", "8", "--workers", "2"],
                 "fit": ["--data", str(out / "histogram.csv")]}.get(sub, [])
        assert main([sub, *extra, "--config", cfg, "--out", str(out)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir())}
    assert digests == CYCLE_DIGESTS


def test_library_warning_is_one_line(tmp_path, capsys):
    # a two-component fit of the pinned cycle's filtered histogram has a
    # near-singular curvature; Python would print a line of cli.py under it
    cfg = _write_config(tmp_path, CYCLE_CONFIG)
    assert main(["montecarlo", "--shards", "8", "--workers", "2", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["fit", "--model", "two_component", "--data",
                 str(tmp_path / "histogram.csv"), "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: near-singular curvature") and err.count("\n") == 1
    assert "cli.py" not in err


@pytest.mark.parametrize("argv", [["budget", "--det", "4"], ["sweep", "--delta-c", "1"]])
def test_refused_flag_shows_the_subcommands_usage(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: biphoton {argv[0]} ")
    assert f"biphoton {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err
