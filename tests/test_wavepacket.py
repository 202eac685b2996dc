"""Time-domain synthesis: analytic two-mode shape vs numeric transform."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biphoton import (
    ComplexSpectrum,
    GridError,
    PoleModel,
    SystemParams,
    TimeGridConfig,
    ValidationError,
    Wavepacket,
    apply_filter,
    beat_period,
    chi3_approx,
    chi3_full,
    default_frequency_grid,
    dressed_modes,
    filtered_model,
    g2_analytic,
    g2_resonant,
    narrow_mode_center,
    narrowband_etalon,
    psi_numeric,
    spectrum_power,
    two_pole_model,
)
from biphoton.wavepacket import _chirp, _czt, _fast_len


def _draws(n, rng):
    # strong-coupling regime where the two-pole form is the model
    for _ in range(n):
        yield SystemParams(
            delta_c=float(rng.uniform(-50.0, 50.0)),
            omega_c=float(rng.uniform(10.0, 40.0)),
            gamma12=float(rng.uniform(0.0, 0.3)),
        )


def test_analytic_zero_at_origin(detuned_params):
    w = g2_analytic(detuned_params)
    assert w.g2[0] == pytest.approx(0.0, abs=1e-15)
    assert w.psi is not None
    assert np.allclose(np.abs(w.psi) ** 2, w.g2, rtol=1e-12, atol=1e-15)


def test_analytic_nonnegative_and_decaying(detuned_params):
    p = detuned_params
    d = dressed_modes(p)
    # size the window by the slow rate so the envelope has actually died
    reach = 8.0 / min(d.gamma_plus, d.gamma_minus) * p.time_unit_ns
    w = g2_analytic(p, grid=TimeGridConfig(tau_max=reach, n_points=4000))
    assert np.all(w.g2 >= 0)
    late = w.g2[-len(w.g2) // 10 :].mean()
    assert late < 1e-4 * w.g2.max()


def test_numeric_matches_analytic_over_draws(rng):
    # transform of the two-pole spectrum must reproduce the closed form
    failures = []
    for p in _draws(20, rng):
        d = dressed_modes(p)
        reach = 10.0 / (d.gamma_plus + d.gamma_minus) * p.time_unit_ns
        grid = TimeGridConfig(tau_max=reach, n_points=1500)
        wa = g2_analytic(p, grid=grid)
        spec = chi3_approx(p, default_frequency_grid(p))
        wn = psi_numeric(spec, grid, p)
        scale = wa.g2.max()
        dev = np.max(np.abs(wa.g2 - wn.g2)) / scale
        if dev > 1e-3:
            failures.append((p.delta_c, p.omega_c, dev))
    assert not failures


def test_numeric_tail_correction_matters(detuned_params, default_grid):
    # the bare trapezoid sum misses the 1/omega^2 tails beyond the grid;
    # psi_numeric carries them by a fitted rational function whose
    # transform is exact
    p = detuned_params
    spec = chi3_approx(p, default_frequency_grid(p))
    t = default_grid.taus / p.time_unit_ns
    x = spec.values * spec.omega_step
    x[[0, -1]] *= 0.5
    bare = _czt(x, len(t), np.exp(-1j * spec.omega_step * (t[1] - t[0])))
    bare *= np.exp(-1j * spec.omega_min * t) / (2.0 * np.pi)
    wa = g2_analytic(p, grid=default_grid)
    scale = wa.g2.max()
    err_with = np.max(np.abs(wa.g2 - psi_numeric(spec, default_grid, p).g2)) / scale
    err_bare = np.max(np.abs(wa.g2 - np.abs(bare) ** 2)) / scale
    assert err_with < 1e-3 < err_bare


@pytest.mark.parametrize("shift", [300.0, -300.0])
def test_numeric_tails_on_grids_off_zero(detuned_params, default_grid, shift):
    # a spectrum moved by shift transforms to psi * exp(-i*shift*tau); a
    # grid that does not straddle omega = 0 gets the same tail treatment
    p = detuned_params
    spec = chi3_approx(p, default_frequency_grid(p))
    moved = ComplexSpectrum(spec.omega_min + shift, spec.omega_step, spec.values)
    exact = g2_analytic(p, grid=default_grid).psi
    exact = exact * np.exp(-1j * shift * default_grid.taus / p.time_unit_ns)
    numeric = psi_numeric(moved, default_grid, p).psi
    assert np.max(np.abs(numeric - exact)) < 5e-5 * np.max(np.abs(exact))


def test_parseval(detuned_params):
    # time-domain energy equals the spectral energy (both per gamma13
    # unit): psi_numeric's, by the trapezoid rule, and the two-pole
    # model's closed-form mass, against (1/2pi) * integral of |chi|^2
    p = detuned_params
    d = dressed_modes(p)
    reach = 12.0 / min(d.gamma_plus, d.gamma_minus) * p.time_unit_ns
    grid = TimeGridConfig(tau_max=reach, n_points=6000)
    spec = chi3_approx(p, default_frequency_grid(p))
    w = psi_numeric(spec, grid, p)
    spectral = np.trapezoid(np.abs(spec.values) ** 2, dx=spec.omega_step) / (2.0 * np.pi)
    assert np.trapezoid(w.g2, dx=w.tau_step) / p.time_unit_ns == pytest.approx(
        spectral, rel=5e-3)
    assert two_pole_model(p).mass(0.0) / p.time_unit_ns == pytest.approx(spectral, rel=1e-4)


def _mass_cases():
    """(model, {start_ns: percent of the mass beyond it}): the two-pole
    model at the delay-table points, the exact unfiltered and filtered
    models at the paper's detuned points, and poles of order 2 and 3."""
    for dc, oc in ((28.3, 14.8), (0.0, 14.8), (16.7, 14.8), (45.0, 14.8), (28.3, 30.0)):
        model = two_pole_model(SystemParams(delta_c=dc, omega_c=oc))
        tails = {400.0: 0.0263} if dc == 0 else {}
        yield pytest.param(model, tails, id=f"two-pole-{dc}-{oc}")
    p = SystemParams(delta_c=28.3, omega_c=14.8)
    yield pytest.param(filtered_model(p, []), {400.0: 11.2346}, id="exact-28.3-14.8")
    p = SystemParams(delta_c=28.3, omega_c=16.0)
    model = filtered_model(p, [narrowband_etalon(narrow_mode_center(p), p)])
    yield pytest.param(model, {400.0: 13.6913, 1000.0: 0.5358}, id="filtered-28.3-16.0")
    for order in (2, 3):
        poles = [complex(2.0, -1.0)] * order + [complex(-1.0, -0.5)]
        yield pytest.param(PoleModel(1.0, poles, p.time_unit_ns), {}, id=f"order-{order}")


@pytest.mark.parametrize("model, tails", _mass_cases())
def test_mass_matches_simpson_and_the_tail_figures(model, tails):
    # the one fine-grid truth for the closed form: Simpson's rule on 1000
    # steps in each 1-ns bin of [0, 400) ns, 400,001 points of G2
    grid = TimeGridConfig(400.0, 400_001)
    g2 = model.wavepacket(grid).g2
    steps = g2[:-1].reshape(400, 1000)
    ends = steps[:, 0] + np.append(steps[1:, 0], g2[-1])
    simpson = grid.tau_step / 3.0 * (ends + 4.0 * steps[:, 1::2].sum(axis=1)
                                     + 2.0 * steps[:, 2::2].sum(axis=1))
    edges = np.arange(401.0)
    bins = model.mass(edges[:-1], edges[1:])
    assert np.max(np.abs(bins - simpson)) <= 1e-10 * bins.max()
    total = model.mass(0.0)
    assert bins.sum() + model.mass(400.0) == pytest.approx(total, rel=1e-12)
    assert model.mass(-5.0, 1.0) == bins[0] and model.mass(np.inf) == 0.0
    for start, percent in tails.items():
        assert 100.0 * model.mass(start) / total == pytest.approx(percent, abs=1e-4)


def test_resonant_limit_matches_general_form():
    # delta_c = 0 collapses the general expression onto the resonant one
    p = SystemParams(delta_c=0.0, omega_c=14.8)
    grid = TimeGridConfig(tau_max=300.0, n_points=1200)
    general = g2_analytic(p, grid=grid)
    resonant = g2_resonant(p, grid=grid)
    scale = general.g2.max()
    assert np.max(np.abs(general.g2 - resonant.g2)) < 1e-12 * scale


def test_resonant_nodes_at_beat_multiples():
    p = SystemParams(delta_c=0.0, omega_c=14.8)
    period = beat_period(p)
    taus = np.arange(1, 6) * period
    grid = TimeGridConfig(tau_max=400.0, n_points=2000)
    w = g2_analytic(p, grid=grid)
    # sample the analytic form exactly at the node times
    for t in taus:
        idx = int(round(t / w.tau_step))
        window = w.g2[max(idx - 2, 0) : idx + 3]
        assert window.min() < 1e-3 * w.g2.max()


BEAT_PERIODS_NS = {
    (0.0, 14.8): 22.523,
    (16.7, 14.8): 14.938,
    (28.3, 14.8): 10.437,
    (45.0, 14.8): 7.037,
    (-100.0, 30.0): 3.193,
}


@pytest.mark.parametrize("key", sorted(BEAT_PERIODS_NS, key=str))
def test_beat_periods_frozen(key):
    dc, oc = key
    assert beat_period(SystemParams(delta_c=dc, omega_c=oc)) == pytest.approx(
        BEAT_PERIODS_NS[key], abs=5e-4
    )


def test_longer_coherence_with_detuning():
    # pulling the coupling off resonance narrows the slow component, so
    # the late-time envelope survives longer
    grid = TimeGridConfig(tau_max=500.0, n_points=4000)
    fractions = []
    for dc in (0.0, 16.7, 28.3, 45.0):
        w = g2_analytic(SystemParams(delta_c=dc, omega_c=14.8), grid=grid)
        late = slice(int(0.6 * len(w.g2)), None)
        fractions.append(w.g2[late].sum() / w.g2.sum())
    assert all(a < b for a, b in zip(fractions, fractions[1:]))


@pytest.mark.parametrize("name", ["tau_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_time_grid_rejected(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        TimeGridConfig(**{name: value})


@pytest.mark.parametrize("value", [100.5, 2000.0, True, "2000"])
def test_non_integer_point_count_rejected(value):
    with pytest.raises(ValidationError, match="n_points must be an integer"):
        TimeGridConfig(n_points=value)


def test_grid_too_narrow_rejected(detuned_params, default_grid):
    # spectrum still carrying power at the edges must be refused
    omegas = np.linspace(28.0, 33.0, 512)
    spec = chi3_full(detuned_params, omegas)
    with pytest.raises(GridError):
        psi_numeric(spec, default_grid, detuned_params)


def test_alias_bound_rejected(detuned_params):
    # delays beyond pi/omega_step alias back into the window
    omegas = default_frequency_grid(detuned_params, 256)
    spec = chi3_approx(detuned_params, omegas)
    grid = TimeGridConfig(tau_max=5000.0, n_points=2000)
    with pytest.raises(GridError):
        psi_numeric(spec, grid, detuned_params)


def test_spectrum_power_is_unit_peak(detuned_params):
    spec = chi3_full(detuned_params, default_frequency_grid(detuned_params))
    power = spectrum_power(spec)
    assert power.max() == pytest.approx(1.0)
    assert np.all(power >= 0)


def test_wavepacket_validation():
    grid = TimeGridConfig(7.5, 16)
    g2 = np.linspace(0.0, 1.0, 16)
    w = Wavepacket(grid, g2)
    assert w.tau_max == 7.5 and w.tau_step == 0.5
    # NaN passes a test for negative samples, and +inf passes it too
    for bad in (-0.2, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="g2 must be finite and non-negative"):
            Wavepacket(grid, np.where(np.arange(16) == 3, bad, g2))
    # samples off the grid
    for bad in (g2[:-1], np.ones(17), g2[:, None], np.float64(1.0)):
        with pytest.raises(ValidationError, match="the grid's shape"):
            Wavepacket(grid, bad)
    with pytest.raises(ValidationError, match="the grid's shape"):
        w.with_g2(g2[:-1])
    with pytest.raises(ValidationError, match="psi and g2 must share the grid"):
        Wavepacket(grid, g2, np.ones(15, dtype=complex))


def test_wavepacket_takes_the_axis_of_its_grid():
    # linspace ends exactly at tau_max; tau_step * 1999 is one ulp above 500
    grid = TimeGridConfig(500.0, 2000)
    w = g2_analytic(SystemParams(), grid)
    assert w.grid is grid and w.tau_min == 0.0
    assert np.array_equal(w.taus, grid.taus) and w.tau_max == 500.0
    assert w.with_g2(2 * w.g2).grid is grid


def _direct_czt(x, m, theta):
    """sum_j x_j * z_k^-j with z_k = exp(i*theta*k), row block by block."""
    j = np.arange(len(x))
    out = np.empty(m, dtype=complex)
    for start in range(0, m, 100):
        k = np.arange(start, min(start + 100, m))[:, None]
        out[start:start + len(k)] = np.exp(-1j * j * theta * k) @ x
    return out


@pytest.mark.parametrize("n, m", [(2 ** 14, 2000), (4099, 1500), (300, 2500)])
def test_czt_matches_scipy_bitwise(n, m):
    from scipy.signal import czt

    rng = np.random.default_rng(n + m)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = np.exp(-1j * 6e-5)
    assert np.array_equal(_czt(x, m, w), czt(x, m=m, w=w, a=1))


@pytest.mark.parametrize("n, m", [(1021, 300), (127, 400), (1024, 200)])
def test_czt_matches_direct_sum(n, m):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    theta = 0.003
    ref = _direct_czt(x, m, theta)
    got = _czt(x, m, np.exp(-1j * theta))
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_czt_matches_direct_sum_at_transform_size():
    # psi_numeric's own sizes: the chirp phase theta*k^2/2 reaches ~1e4 rad
    # there, which bounds the agreement at ~1e-10 (scipy's czt alike)
    p = SystemParams(delta_c=28.3, omega_c=14.8)
    spec = chi3_full(p, default_frequency_grid(p))
    grid = TimeGridConfig()
    theta = spec.omega_step * grid.tau_step / p.time_unit_ns
    x = np.asarray(spec.values) * spec.omega_step
    ref = _direct_czt(x, grid.n_points, theta)
    got = _czt(x, grid.n_points, np.exp(-1j * theta))
    assert np.max(np.abs(got - ref)) < 1e-9 * np.max(np.abs(ref))


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    assert [_fast_len(n) for n in range(1, 5001)] == [
        next_fast_len(n) for n in range(1, 5001)
    ]


@settings(max_examples=80)
@given(
    size=st.one_of(st.integers(1, 14), st.integers(15, 40), st.integers(90, 130)),
    data=st.data(),
    w_abs=st.floats(0.9995, 1.0005),
    w_arg=st.floats(-np.pi, np.pi),
)
def test_chirp_matches_power_form(size, data, w_abs, w_arg):
    # exp(e*log w) against numpy's own w**e, including the leading
    # integer exponents that numpy multiplies out; the longer of the n
    # inputs and the m outputs spans the chirp
    n = data.draw(st.one_of(st.just(size), st.integers(1, size)), label="n")
    m = size if n < size else data.draw(st.integers(1, size), label="m")
    w = complex(w_abs * np.exp(1j * w_arg))
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    with np.errstate(all="ignore"):
        wk2 = w ** (k ** 2 / 2.0)
        _chirp.cache_clear()
        got_wk2, _ = _chirp(n, m, w)
    assert np.array_equal(got_wk2, wk2)


def test_chirp_matches_power_form_at_transform_size():
    # psi_numeric's sizes, where k^2/2 runs to 1.3e8
    k = np.arange(2 ** 14, dtype=np.int32)
    w = np.exp(-1j * 6e-5)
    _chirp.cache_clear()
    wk2, _ = _chirp(2 ** 14, 2000, w)
    assert np.array_equal(wk2, w ** (k ** 2 / 2.0))


def test_transform_bytes_are_pinned():
    # recorded before the chirp took its powers from one complex log:
    # any change in a rounding of psi_numeric changes a digest
    p = SystemParams(delta_c=28.3, omega_c=14.8)
    spec = chi3_full(p, default_frequency_grid(p))
    filtered = apply_filter(spec, narrowband_etalon(narrow_mode_center(p), p))
    digests = [
        hashlib.sha256(np.asarray(psi_numeric(s, TimeGridConfig(), p).psi,
                                  dtype="<c16").tobytes()).hexdigest()
        for s in (spec, filtered)
    ]
    assert digests == [
        "2860cb36cf7b6ee6d57a26c6000f54fd8a2a3ed229001a2907e33609ed07cb9e",
        "cb2112425f8f53b20f34e537c8ce2faac4a5e97f2deb1e60b74064cee7343038",
    ]
