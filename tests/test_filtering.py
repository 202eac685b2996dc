"""Etalon response, mode selection, and beat-depth analysis."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from biphoton import (
    EtalonFilter,
    GridError,
    SystemParams,
    TimeGridConfig,
    ValidationError,
    Wavepacket,
    apply_filter,
    beat_period,
    beat_suppression,
    broadband_etalon,
    chi3_approx,
    chi3_full,
    default_frequency_grid,
    dressed_modes,
    estimate_beat_period_ns,
    etalon_amplitude,
    filtered_wavepacket,
    g2_analytic,
    mhz_to_gamma13,
    modulation_depth_profile,
    narrow_mode_center,
    narrowband_etalon,
    psi_numeric,
    psi_poles,
    spectrum_energy,
    suggest_mask_start,
)
from biphoton import wavepacket

# (delta_c, omega_c) of filtered operating points, narrow line selected
FILTERED_POINTS = [(28.3, 14.8), (28.3, 16.0), (16.7, 14.8), (45.0, 20.0),
                   (-30.0, 20.0), (0.0, 14.8)]


def _narrow_filters(p, both=False):
    f = narrowband_etalon(narrow_mode_center(p), p)
    return [f, broadband_etalon(f.center, p)] if both else [f]


def test_mhz_conversion_roundtrip():
    p = SystemParams()
    # gamma13 is 3 MHz, so 3 MHz -> 1 gamma13 of angular rate
    assert mhz_to_gamma13(3.0, p) == pytest.approx(1.0)
    assert mhz_to_gamma13(15.0, p) == pytest.approx(5.0)


def test_etalon_validation():
    with pytest.raises(ValidationError):
        EtalonFilter(center=0.0, fwhm=2.0, fsr=1.0)
    with pytest.raises(ValidationError):
        EtalonFilter(center=0.0, fwhm=0.5, fsr=10.0, peak_transmission=1.5)
    with pytest.raises(ValidationError):
        EtalonFilter(center=0.0, fwhm=-1.0, fsr=10.0)


@pytest.mark.parametrize("field", ["center", "fwhm", "fsr", "peak_transmission"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_etalon_rejects_non_finite_fields(field, value):
    kwargs = dict(center=0.0, fwhm=0.5, fsr=10.0, peak_transmission=1.0)
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        EtalonFilter(**{**kwargs, field: value})


def test_narrowband_peak_and_halfwidth():
    f = narrowband_etalon(0.0)
    omegas = np.linspace(-20.0, 20.0, 8001)
    t = np.abs(etalon_amplitude(f, omegas).values) ** 2
    assert t.max() == pytest.approx(0.12, rel=1e-6)
    # half-power points one half-width out
    half = 0.5 * f.fwhm
    for w in (-half, half):
        idx = np.argmin(np.abs(omegas - w))
        assert t[idx] == pytest.approx(0.06, rel=1e-3)


def test_etalon_passive():
    f = broadband_etalon(3.0)
    omegas = np.linspace(-50.0, 50.0, 4001)
    t = np.abs(etalon_amplitude(f, omegas).values) ** 2
    assert np.all(t <= 1.0 + 1e-12)


def test_filtering_reduces_energy(detuned_params):
    spec = chi3_full(detuned_params, default_frequency_grid(detuned_params))
    f = narrowband_etalon(narrow_mode_center(detuned_params), detuned_params)
    filtered = apply_filter(spec, f)
    assert np.all(
        np.abs(filtered.values) <= np.abs(spec.values) + 1e-15
    )


def test_out_of_band_grid_rejected(detuned_params):
    f = narrowband_etalon(0.0, detuned_params)
    omegas = np.linspace(-2.0 * f.fsr, 2.0 * f.fsr, 512)
    with pytest.raises(GridError):
        etalon_amplitude(f, omegas)


@pytest.mark.parametrize("omegas", [[0.0, 1.0, 3.0], [0.0, 2.0, 1.0]])
def test_etalon_on_non_uniform_grid_rejected(omegas):
    # a sampled spectrum carries only a start and a step, so a grid it
    # cannot label exactly is refused rather than relabelled
    with pytest.raises(ValidationError):
        etalon_amplitude(narrowband_etalon(0.0), np.asarray(omegas))


def test_wide_etalon_approaches_identity(detuned_params, default_grid):
    # a causal single-pole response keeps a group delay 2/fwhm, so the
    # residual shrinks like 1/fwhm rather than vanishing outright
    p = detuned_params
    spec = chi3_approx(p, default_frequency_grid(p))
    before = psi_numeric(spec, default_grid, p)
    devs = []
    for fwhm in (1e4, 1e5):
        wide = EtalonFilter(center=p.delta_c / 2.0, fwhm=fwhm, fsr=1e7,
                            peak_transmission=1.0)
        after = psi_numeric(apply_filter(spec, wide), default_grid, p)
        devs.append(np.max(np.abs(before.g2 - after.g2)) / before.g2.max())
    assert devs[1] < 5e-4
    assert devs[1] < 0.15 * devs[0]


def test_narrow_mode_center_tracks_sign():
    # the narrow component sits blue of the pump for blue coupling
    # detuning and red for red
    p_blue = SystemParams(delta_c=28.3, omega_c=14.8)
    p_red = SystemParams(delta_c=-28.3, omega_c=14.8)
    assert narrow_mode_center(p_blue) > 0
    assert narrow_mode_center(p_red) < 0
    assert narrow_mode_center(p_blue) == pytest.approx(
        -narrow_mode_center(p_red)
    )


def test_filtered_wavepacket_single_exponential(default_grid):
    # keeping one line kills the beat: log-envelope is a clean line
    p = SystemParams(delta_c=28.3, omega_c=16.0)
    d = dressed_modes(p)
    spec = chi3_full(p, default_frequency_grid(p))
    f = narrowband_etalon(narrow_mode_center(p), p)
    w = psi_numeric(apply_filter(spec, f), default_grid, p)
    taus = w.taus
    # fit the decay well after the etalon transient
    peak_idx = int(np.argmax(w.g2))
    start = peak_idx + int(30.0 / w.tau_step)
    stop = start + int(150.0 / w.tau_step)
    slope = np.polyfit(taus[start:stop] / p.time_unit_ns,
                       np.log(w.g2[start:stop]), 1)[0]
    assert -slope == pytest.approx(2.0 * d.gamma_minus, rel=0.05)


def test_beat_period_estimator_accuracy():
    from biphoton import beat_period

    grid = TimeGridConfig(tau_max=400.0, n_points=2000)
    for dc, oc in ((0.0, 14.8), (16.7, 14.8), (28.3, 14.8), (-100.0, 30.0)):
        p = SystemParams(delta_c=dc, omega_c=oc)
        w = g2_analytic(p, grid=grid)
        est = estimate_beat_period_ns(w)
        assert est == pytest.approx(beat_period(p), rel=0.02)


def test_no_beat_raises():
    # a pure exponential has no interior spectral peak
    taus = np.linspace(0.0, 300.0, 1500)
    w_flat = np.exp(-taus / 40.0)
    from biphoton import Wavepacket

    with pytest.raises(ValidationError):
        estimate_beat_period_ns(Wavepacket(0.0, taus[1], w_flat))


def test_depth_profile_full_beat_is_unity(detuned_params):
    # (max-min)/(max+min) of a zero-floor oscillation is 1 per cycle
    w = g2_analytic(detuned_params, grid=TimeGridConfig(400.0, 4000))
    per = estimate_beat_period_ns(w)
    starts, depths = modulation_depth_profile(w, per)
    assert len(depths) > 10
    assert depths[0] > 0.95


def test_beat_suppression_identity(detuned_params, default_grid):
    w = g2_analytic(detuned_params, grid=default_grid)
    db, da = beat_suppression(w, w)
    assert db == pytest.approx(da)
    assert db > 0.9


def test_beat_suppression_needs_cycles(detuned_params):
    grid = TimeGridConfig(tau_max=12.0, n_points=64)
    w = g2_analytic(detuned_params, grid=grid)
    with pytest.raises((GridError, ValidationError)):
        beat_suppression(w, w)


def test_single_line_selection_suppresses_beat(default_grid):
    # the headline effect: narrowband selection of the narrow component
    p = SystemParams(delta_c=28.3, omega_c=16.0)
    spec = chi3_full(p, default_frequency_grid(p))
    f = narrowband_etalon(narrow_mode_center(p), p)
    before = psi_numeric(spec, default_grid, p)
    after = psi_numeric(apply_filter(spec, f), default_grid, p)
    db, da = beat_suppression(before, after)
    assert db > 0.9
    assert da < 0.2


def test_mismatched_grids_rejected(detuned_params):
    w1 = g2_analytic(detuned_params, grid=TimeGridConfig(400.0, 2000))
    w2 = g2_analytic(detuned_params, grid=TimeGridConfig(400.0, 1000))
    with pytest.raises(ValidationError):
        beat_suppression(w1, w2)


@pytest.mark.parametrize("dc, oc, n_filters", [
    *((dc, oc, 1) for dc, oc in FILTERED_POINTS),
    (0.0, 1.0 - 0.084, 1),  # omega_c = gamma13 - gamma12: D(omega) is a square
    (28.3, 14.8, 2),  # two identical etalons: a double etalon pole
    (28.3, 14.8, 3),
    (50.0, 10.0, 0),  # unfiltered: the widest tails relative to the grid
    (28.3, 14.8, 0),
])
def test_numeric_matches_exact_filtered_wavepacket(dc, oc, n_filters, default_grid):
    # psi_numeric of the sampled (filtered) spectrum against the residue
    # sum, to psi_numeric's stated accuracy: 5e-5 of the peak over the
    # grid, 5e-7 beyond 10 ns
    p = SystemParams(delta_c=dc, omega_c=oc)
    filters = _narrow_filters(p) * n_filters
    spec = chi3_full(p, default_frequency_grid(p))
    for f in filters:
        spec = apply_filter(spec, f)
    exact = filtered_wavepacket(p, filters, default_grid).psi
    numeric = psi_numeric(spec, default_grid, p).psi
    peak = np.max(np.abs(exact))
    assert np.max(np.abs(numeric - exact)) < 5e-5 * peak
    late = default_grid.taus >= 10.0
    assert np.max(np.abs(numeric[late] - exact[late])) < 5e-7 * peak


@pytest.mark.parametrize("both", [False, True])
@pytest.mark.parametrize("dc, oc", FILTERED_POINTS)
def test_filtered_wavepacket_parseval(dc, oc, both):
    # an oracle without psi_numeric: the residue sum's energy equals the
    # spectral energy of the sampled filtered spectrum
    p = SystemParams(delta_c=dc, omega_c=oc)
    filters = _narrow_filters(p, both)
    d = dressed_modes(p)
    slowest = min(d.gamma_plus, d.gamma_minus, 0.5 * filters[0].fwhm)
    grid = TimeGridConfig(tau_max=12.0 / slowest * p.time_unit_ns, n_points=6000)
    spec = chi3_full(p, default_frequency_grid(p))
    for f in filters:
        spec = apply_filter(spec, f)
    w = filtered_wavepacket(p, filters, grid)
    assert w.energy() / p.time_unit_ns == pytest.approx(spectrum_energy(spec), rel=1e-6)


@pytest.mark.parametrize("order", [2, 3])
def test_repeated_pole_is_the_limit_of_split_poles(order, default_grid):
    # a pole listed m times against m poles spread by eps around it,
    # whose residue sum converges as eps^m
    p = SystemParams()
    r, other = complex(2.0, -1.0), complex(-1.0, -0.5)
    exact = psi_poles(1.0, [r] * order + [other], default_grid, p).psi
    split = [r + 1e-3 * np.exp(2j * np.pi * k / order) for k in range(order)]
    near = psi_poles(1.0, split + [other], default_grid, p).psi
    assert np.max(np.abs(near - exact)) < 1e-5 * np.max(np.abs(exact))


@pytest.mark.parametrize("eps", [1e-12, 1e-9])
def test_near_equal_etalons_match_the_repeated_pole(eps, detuned_params, default_grid):
    # split simple-pole terms would cancel from O(1/eps); the merged
    # cluster is transformed as one repeated pole instead
    p = detuned_params
    f = narrowband_etalon(narrow_mode_center(p), p)
    g = dataclasses.replace(f, center=f.center + eps)
    exact = filtered_wavepacket(p, [f, f], default_grid).psi
    near = filtered_wavepacket(p, [f, g], default_grid).psi
    assert np.max(np.abs(near - exact)) < 1e-6 * np.max(np.abs(exact))


@pytest.mark.parametrize("point", FILTERED_POINTS)
def test_separated_poles_are_not_merged(point, default_grid, monkeypatch):
    # with no cluster to merge, psi is bit for bit the plain residue sum
    p = SystemParams(delta_c=point[0], omega_c=point[1])
    filters = _narrow_filters(p, both=True)
    merged = filtered_wavepacket(p, filters, default_grid).psi
    analytic = g2_analytic(p, grid=default_grid).psi
    monkeypatch.setattr(wavepacket, "POLE_MERGE_TOL", 0.0)
    assert np.array_equal(filtered_wavepacket(p, filters, default_grid).psi, merged)
    assert np.array_equal(g2_analytic(p, grid=default_grid).psi, analytic)


def _loop_depth_profile(w, period_ns, start_ns=None):
    """The window-by-window form modulation_depth_profile replaced."""
    taus = w.taus
    g2 = np.asarray(w.g2, dtype=float)
    if start_ns is None:
        start_ns = float(taus[np.argmax(g2)])
    starts = []
    depths = []
    t0 = start_ns
    while t0 + period_ns <= taus[-1]:
        m = (taus >= t0) & (taus < t0 + period_ns)
        if m.sum() < 4:
            break
        seg = g2[m]
        hi, lo = seg.max(), seg.min()
        if hi + lo == 0:
            break
        starts.append(t0)
        depths.append((hi - lo) / (hi + lo))
        t0 += period_ns
    return np.asarray(starts), np.asarray(depths)


def _assert_same_profile(w, period_ns, start_ns=None):
    want = _loop_depth_profile(w, period_ns, start_ns)
    got = modulation_depth_profile(w, period_ns, start_ns)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return got


def test_depth_profile_matches_window_loop(default_grid):
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = SystemParams(delta_c=float(rng.uniform(20.0, 50.0)),
                         omega_c=float(rng.uniform(10.0, 25.0)))
        spec = chi3_full(p, default_frequency_grid(p))
        filtered = apply_filter(spec, narrowband_etalon(narrow_mode_center(p), p))
        per = beat_period(p)
        for s in (spec, filtered):
            w = psi_numeric(s, default_grid, p)
            for period in (per, 0.37 * per, 3.1 * per):
                _assert_same_profile(w, period)
                _assert_same_profile(w, period, float(rng.uniform(0.0, 400.0)))


def test_depth_profile_edge_cases(detuned_params, default_grid):
    w = g2_analytic(detuned_params, grid=default_grid)
    per = beat_period(detuned_params)
    # no whole period left before the grid ends
    starts, depths = _assert_same_profile(w, per, w.tau_max - 0.5 * per)
    assert len(starts) == len(depths) == 0
    for start in (float("nan"), -float("inf"), float("inf")):
        assert len(_assert_same_profile(w, per, start)[0]) == 0
    # a period far below the step: no window holds 4 samples, and the
    # edge count stays capped by the grid
    tracemalloc.start()
    starts, _ = modulation_depth_profile(w, 1e-300)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(starts) == 0 and peak < 1e6
    assert len(_loop_depth_profile(w, 1e-300)[0]) == 0
    # an all-dark window ends the profile
    g2 = np.zeros(200)
    g2[:40] = 1.0 + np.arange(40) % 3
    dark = Wavepacket(0.0, 0.5, g2)
    starts, _ = _assert_same_profile(dark, 5.0)
    assert len(starts) == 4


@pytest.mark.parametrize("period", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_depth_profile_rejects_bad_periods(period, detuned_params, default_grid):
    w = g2_analytic(detuned_params, grid=default_grid)
    for call in (lambda: modulation_depth_profile(w, period),
                 lambda: beat_suppression(w, w, period),
                 lambda: suggest_mask_start(w, period)):
        with pytest.raises(ValidationError, match="positive and finite"):
            call()
