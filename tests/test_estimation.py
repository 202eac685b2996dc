"""Parameter recovery: fits, weighting, guesses, and error bars."""

import numpy as np
import pytest

from biphoton import (
    DegenerateDataError,
    DetectionConfig,
    FitModel,
    SystemParams,
    TimeGridConfig,
    ValidationError,
    apply_filter,
    chi3_full,
    default_frequency_grid,
    dressed_modes,
    fit_wavepacket,
    g2_analytic,
    initial_guess,
    narrow_mode_center,
    narrowband_etalon,
    psi_numeric,
    simulate_coincidences,
)
from biphoton.estimation import model_curve

P = SystemParams(delta_c=28.3, omega_c=14.8)
D = dressed_modes(P)
GRID = TimeGridConfig(tau_max=400.0, n_points=2000)


def _histogram(pair_rate=1e4, measurement_time=600.0, seed=3, n_shards=4,
               model=None, **kw):
    cfg = DetectionConfig(pair_rate=pair_rate,
                          measurement_time=measurement_time,
                          rng_seed=seed, **kw)
    return simulate_coincidences(model if model is not None else MODEL,
                                 cfg, n_shards=n_shards)


MODEL = g2_analytic(P, grid=GRID)


def test_noiseless_self_fit_recovers_exactly():
    result = fit_wavepacket(MODEL, FitModel("two_component"))
    assert result.converged
    assert result.estimates["gamma_plus"] == pytest.approx(D.gamma_plus, rel=1e-4)
    assert result.estimates["gamma_minus"] == pytest.approx(D.gamma_minus, rel=1e-4)
    assert result.estimates["omega_e"] == pytest.approx(D.omega_e, rel=1e-5)
    assert abs(result.estimates["background"]) < 1e-6 * MODEL.g2.max()


def test_round_trip_recovers_dressed_parameters():
    h = _histogram()
    result = fit_wavepacket(h, FitModel("two_component"))
    assert result.converged
    assert result.estimates["gamma_minus"] == pytest.approx(D.gamma_minus, rel=0.05)
    assert result.estimates["gamma_plus"] == pytest.approx(D.gamma_plus, rel=0.05)
    assert result.estimates["omega_e"] == pytest.approx(D.omega_e, rel=0.05)
    assert 0.8 < result.reduced_chi2 < 1.2
    # reported linewidth is the narrow FWHM in ordinary frequency
    want_hz = P.rate_to_hz(2.0 * D.gamma_minus)
    assert result.linewidth_hz == pytest.approx(want_hz, rel=0.05)


def test_stderr_shrinks_with_statistics():
    r_small = fit_wavepacket(_histogram(measurement_time=60.0),
                             FitModel("two_component"))
    r_large = fit_wavepacket(_histogram(measurement_time=600.0),
                             FitModel("two_component"))
    # 10x the data: error bars near sqrt(10) smaller
    ratio = r_small.stderr["gamma_minus"] / r_large.stderr["gamma_minus"]
    assert 2.0 < ratio < 5.0


def test_stderr_covers_truth():
    h = _histogram(seed=11)
    r = fit_wavepacket(h, FitModel("two_component"))
    for name, truth in (("gamma_minus", D.gamma_minus),
                        ("gamma_plus", D.gamma_plus),
                        ("omega_e", D.omega_e)):
        pull = abs(r.estimates[name] - truth) / r.stderr[name]
        assert pull < 5.0


def test_bias_suite_over_seeds():
    # signed errors scatter around zero when the estimator is unbiased
    errs = []
    for seed in range(12):
        h = _histogram(measurement_time=120.0, seed=seed, n_shards=2)
        r = fit_wavepacket(h, FitModel("two_component"))
        errs.append((r.estimates["gamma_minus"] - D.gamma_minus) / D.gamma_minus)
    errs = np.asarray(errs)
    assert abs(np.median(errs)) < 0.04
    assert np.sort(np.abs(errs))[-2] < 0.15  # 90th percentile scatter


def test_initial_guess_beat_frequency():
    h = _histogram(measurement_time=120.0)
    guess = initial_guess(h)
    assert guess["omega_e"] == pytest.approx(D.omega_e, rel=0.1)
    assert guess["suggested_model"] == "two_component"


def test_initial_guess_no_beat_suggests_single_exponential():
    spec = chi3_full(P, default_frequency_grid(P))
    filtered = apply_filter(spec, narrowband_etalon(narrow_mode_center(P), P))
    w = psi_numeric(filtered, GRID, P)
    guess = initial_guess(w)
    assert guess["suggested_model"] == "single_exponential"
    assert guess["omega_e"] is None


def test_flat_data_rejected():
    from biphoton import CoincidenceHistogram

    flat = CoincidenceHistogram(
        bin_width=1.0, counts=np.zeros(400, dtype=np.int64),
        n_singles_s=10, n_singles_as=10, measurement_time=1.0,
    )
    with pytest.raises(DegenerateDataError):
        initial_guess(flat)


def test_filtered_single_exponential_linewidth():
    # noiseless filtered wavepacket reports the narrow linewidth in kHz
    p = SystemParams(delta_c=28.3, omega_c=16.0)
    spec = chi3_full(p, default_frequency_grid(p))
    filtered = apply_filter(spec, narrowband_etalon(narrow_mode_center(p), p))
    w = psi_numeric(filtered, GRID, p)
    result = fit_wavepacket(w, FitModel("single_exponential"))
    d = dressed_modes(p)
    want_hz = p.rate_to_hz(2.0 * d.gamma_minus)
    assert result.converged
    assert result.linewidth_hz == pytest.approx(want_hz, rel=0.02)


def test_fit_window_restricts_data():
    h = _histogram(measurement_time=120.0)
    r_full = fit_wavepacket(h, FitModel("two_component"))
    r_win = fit_wavepacket(h, FitModel("two_component"),
                           fit_window=(0.0, 200.0))
    assert r_win.converged
    # same physics from half the window, looser error bars
    assert r_win.estimates["omega_e"] == pytest.approx(
        r_full.estimates["omega_e"], rel=0.02
    )
    assert r_win.stderr["gamma_minus"] >= 0.8 * r_full.stderr["gamma_minus"]


def test_too_few_points_rejected():
    w = g2_analytic(P, grid=TimeGridConfig(tau_max=20.0, n_points=30))
    with pytest.raises(ValidationError):
        fit_wavepacket(w, FitModel("two_component"))


def test_resonant_model_round_trip():
    p0 = SystemParams(delta_c=0.0, omega_c=14.8)
    model = g2_analytic(p0, grid=TimeGridConfig(tau_max=300.0, n_points=1500))
    h = _histogram(model=model, measurement_time=240.0)
    r = fit_wavepacket(h, FitModel("resonant"))
    assert r.converged
    # envelope rate (gamma13+gamma12)/2, beat at omega_c
    assert r.estimates["gamma_minus"] == pytest.approx(0.542, rel=0.05)
    assert r.estimates["omega_e"] == pytest.approx(14.8, rel=0.02)


def test_fixed_t0_is_respected():
    r = fit_wavepacket(MODEL, FitModel("two_component", fixed_t0=0.0))
    assert "t0" not in r.estimates
    assert r.estimates["gamma_minus"] == pytest.approx(D.gamma_minus, rel=1e-3)


def test_model_curve_background_floor():
    model = FitModel("two_component")
    taus = np.linspace(0.0, 2000.0, 400)
    params = dict(amplitude=100.0, gamma_plus=0.9, gamma_minus=0.14,
                  omega_e=30.0, background=7.0, t0=0.0)
    y = model_curve(model, params, taus, 53.05)
    assert y[-1] == pytest.approx(7.0, rel=0.05)
    assert y[0] == pytest.approx(7.0, abs=1e-9)  # shape vanishes at origin


def test_report_includes_everything():
    r = fit_wavepacket(MODEL, FitModel("two_component"))
    text = r.report()
    for token in ("gamma_plus", "gamma_minus", "omega_e", "linewidth_hz",
                  "reduced_chi2", "converged"):
        assert token in text
