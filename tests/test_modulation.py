"""Heralded waveform carving: masks, delays, smoothing, pulse trains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    ModulationMask,
    SystemParams,
    TimeGridConfig,
    ValidationError,
    apply_mask,
    beat_period,
    g2_analytic,
    mask_values,
    modulation_depth_profile,
    suggest_mask_start,
)
from biphoton.modulation import _smooth_edges

P = SystemParams(delta_c=28.3, omega_c=14.8)
GRID = TimeGridConfig(tau_max=400.0, n_points=2000)
W = g2_analytic(P, grid=GRID)


def test_identity_mask_preserves_wavepacket():
    m = ModulationMask(kind="custom_samples", samples=np.ones(len(W.taus)))
    out = apply_mask(W, m)
    np.testing.assert_allclose(out.g2, W.g2)


def test_masked_output_never_exceeds_input():
    m = ModulationMask(pulse_width=40.0, pulse_separation=30.0, n_pulses=3,
                       start_offset=60.0)
    for convention in ("intensity", "amplitude"):
        out = apply_mask(W, m, convention=convention)
        assert np.all(out.g2 <= W.g2 + 1e-15)
        assert np.all(out.g2 >= 0)


def test_amplitude_convention_carves_deeper():
    # squaring a mask in [0, 1] can only reduce transmitted intensity
    ramp = np.linspace(0.0, 1.0, len(W.taus))
    m = ModulationMask(kind="custom_samples", samples=ramp)
    assert np.all(apply_mask(W, m, convention="amplitude").g2
                  <= apply_mask(W, m, convention="intensity").g2 + 1e-15)


def test_trigger_delay_equals_shifted_offset():
    # mask(tau - delay) with offset s must match mask at offset s + delay
    m0 = ModulationMask(pulse_width=30.0, n_pulses=1, start_offset=80.0)
    m1 = ModulationMask(pulse_width=30.0, n_pulses=1, start_offset=50.0)
    np.testing.assert_allclose(apply_mask(W, m0).g2,
                               apply_mask(W, m1, delay=30.0).g2)


def test_square_train_geometry():
    m = ModulationMask(pulse_width=20.0, pulse_separation=30.0, n_pulses=4,
                       start_offset=10.0)
    taus = np.linspace(0.0, 400.0, 8001)
    vals = mask_values(m, taus)
    assert set(np.unique(vals)) == {0.0, 1.0}
    rising = np.nonzero(np.diff(vals) > 0)[0]
    assert len(rising) == 4
    # duty cycle matches n_pulses * width / span
    assert vals.mean() == pytest.approx(4 * 20.0 / 400.0, rel=0.02)


def test_ideal_edges_confine_output_to_windows():
    m = ModulationMask(pulse_width=25.0, pulse_separation=40.0, n_pulses=2,
                       start_offset=100.0)
    out = apply_mask(W, m)
    vals = mask_values(m, W.taus)
    assert np.all(out.g2[vals == 0.0] == 0.0)
    assert out.g2[vals == 1.0].max() > 0


def test_edge_smoothing_leaks_but_stays_bounded():
    m = ModulationMask(pulse_width=50.0, n_pulses=1, start_offset=120.0)
    hard = apply_mask(W, m)
    soft = apply_mask(W, m, rise_time=5.0)
    assert np.all(soft.g2 <= W.g2 + 1e-15)
    # causal response: nothing opens before the pulse does
    before = W.taus < 120.0
    assert np.all(soft.g2[before] == 0.0)
    # trailing leakage appears after the hard edge closes
    after = (W.taus > 170.0) & (W.taus < 200.0)
    assert soft.g2[after].sum() > hard.g2[after].sum()
    # but the window still holds most of the carved energy
    inside = mask_values(m, W.taus) == 1.0
    ratio = soft.g2[~inside].sum() / soft.g2.sum()
    assert ratio < 0.5


def test_far_detuned_wavepacket_is_a_pulse_train():
    p = SystemParams(delta_c=-100.0, omega_c=30.0)
    w = g2_analytic(p, grid=TimeGridConfig(tau_max=40.0, n_points=4000))
    period = beat_period(p)
    assert period == pytest.approx(2.0 * np.pi / np.hypot(30.0, 100.0) * p.time_unit_ns)
    g2 = np.asarray(w.g2)
    # peaks recur at the beat period
    k0 = int(np.argmax(g2))
    step = int(round(period / w.tau_step))
    k1 = k0 + step
    window = g2[k1 - step // 4: k1 + step // 4]
    assert window.max() > 0.5 * g2[k0]
    # the minima between pulses are nearly dark up front
    dark = g2[k0 + step // 2 - 2: k0 + step // 2 + 3].min()
    assert dark < 0.05 * g2[k0]


def test_depth_profile_decays_toward_tail():
    period = beat_period(P)
    starts, depths = modulation_depth_profile(W, period)
    assert len(depths) >= 5
    assert np.all(np.diff(depths) < 0)
    assert depths[0] > 0.5


def test_suggest_mask_start_lands_on_smooth_tail():
    grid = TimeGridConfig(tau_max=1500.0, n_points=6000)
    w = g2_analytic(P, grid=grid)
    start = suggest_mask_start(w)
    assert start > 3.0 * beat_period(P)
    _, depths = modulation_depth_profile(w, beat_period(P), start_ns=start)
    assert depths[0] < 0.1


def test_suggest_mask_start_threshold_unreachable():
    # a short grid never reaches the smooth tail
    with pytest.raises(ValidationError):
        suggest_mask_start(g2_analytic(P, grid=TimeGridConfig(40.0, 400)),
                           beat_period_ns=beat_period(P), threshold=0.01)


def test_mask_outside_support_raises():
    m = ModulationMask(pulse_width=30.0, n_pulses=1, start_offset=3000.0)
    with pytest.raises(ValidationError):
        apply_mask(W, m)


@pytest.mark.parametrize("kwargs", [
    dict(kind="sinusoid"),
    dict(pulse_width=0.0),
    dict(pulse_separation=-1.0),
    dict(n_pulses=0),
    dict(kind="custom_samples"),
    dict(kind="custom_samples", samples=np.array([0.5, 1.5])),
])
def test_invalid_masks_rejected(kwargs):
    with pytest.raises(ValidationError):
        ModulationMask(**kwargs)


def test_custom_samples_must_match_grid():
    m = ModulationMask(kind="custom_samples", samples=np.ones(7))
    with pytest.raises(ValidationError):
        apply_mask(W, m)


def test_negative_delay_rejected():
    with pytest.raises(ValidationError):
        apply_mask(W, ModulationMask(), delay=-1.0)


@pytest.mark.parametrize("kwargs", [
    dict(rise_time=np.nan), dict(rise_time=np.inf), dict(rise_time=-5.0),
    dict(delay=np.nan), dict(delay=np.inf),
])
def test_non_finite_delay_or_rise_time_rejected(kwargs):
    with pytest.raises(ValidationError, match="must be finite and non-negative"):
        apply_mask(W, ModulationMask(), **kwargs)


@settings(max_examples=30, deadline=None)
@given(width=st.floats(5.0, 80.0), sep=st.floats(0.0, 60.0),
       n=st.integers(1, 4), offset=st.floats(0.0, 150.0))
def test_square_trains_are_passive(width, sep, n, offset):
    m = ModulationMask(pulse_width=width, pulse_separation=sep, n_pulses=n,
                       start_offset=offset)
    out = apply_mask(W, m)
    assert np.all(out.g2 >= 0)
    assert np.all(out.g2 <= W.g2 + 1e-15)


def test_smooth_edges_matches_lfilter_bitwise():
    from scipy.signal import lfilter

    rng = np.random.default_rng(5)
    for _ in range(20):
        mask = (rng.uniform(size=2000) > 0.5) * rng.uniform(size=2000)
        step, rise = GRID.tau_step, rng.uniform(0.1, 20.0)
        alpha = step / (rise + step)
        assert np.array_equal(
            _smooth_edges(mask, step, rise),
            lfilter([alpha], [1.0, -(1.0 - alpha)], mask),
        )
