"""Spectral model: exact denominator roots, two-pole form, mode weights."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biphoton import (
    PoleModel,
    SystemParams,
    ValidationError,
    approx_poles,
    chi3_approx,
    chi3_full,
    default_frequency_grid,
    dressed_modes,
    exact_poles,
    two_pole_model,
)


def _roots_oracle(p):
    # independent construction: D(w) as a quadratic for numpy's root finder
    a = 1j * p.gamma13
    b = -p.delta_c + 1j * p.gamma12
    coeffs = [-4.0, -4.0 * (a + b), p.omega_c**2 - 4.0 * a * b]
    r = np.roots(coeffs)
    return sorted(r, key=lambda z: -z.real)


# frozen from the quadratic-formula oracle above
ORACLE_POLES = {
    (16.7, 14.8): (19.5030404662 - 0.1991069556j, -2.8030404662 - 0.8848930444j),
    (28.3, 14.8): (30.1167617320 - 0.1361130638j, -1.8167617320 - 0.9478869362j),
    (45.0, 14.8): (46.1852175821 - 0.1069184997j, -1.1852175821 - 0.9770815003j),
    (0.0, 14.8): (7.3858131577 - 0.5420000000j, -7.3858131577 - 0.5420000000j),
    (-100.0, 30.0): (2.2013666608 - 0.9806858327j, -102.2013666608 - 0.1033141673j),
}


@pytest.mark.parametrize("key", sorted(ORACLE_POLES, key=str))
def test_exact_poles_frozen(key):
    dc, oc = key
    p = SystemParams(delta_c=dc, omega_c=oc)
    got = exact_poles(p)
    want = ORACLE_POLES[key]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)


@given(
    dc=st.floats(-60.0, 60.0),
    oc=st.floats(3.0, 40.0),  # away from the exceptional point at |g13-g12|
    g12=st.floats(0.0, 0.5),
)
@settings(max_examples=60)
def test_exact_poles_match_roots_oracle(dc, oc, g12):
    p = SystemParams(delta_c=dc, omega_c=oc, gamma12=g12)
    got = exact_poles(p)
    want = _roots_oracle(p)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-8 * max(1.0, abs(w))


def test_denominator_vanishes_at_exact_poles(detuned_params):
    from biphoton.susceptibility import denominator

    for pole in exact_poles(detuned_params):
        assert abs(denominator(detuned_params, np.array([pole]))[0]) < 1e-9


def test_approx_poles_pair_detuning_with_width():
    # narrow width rides on the far-detuned component, broad width on the
    # near-resonant one; pairing the other way is wrong by construction
    p = SystemParams(delta_c=45.0, omega_c=14.8)
    d = dressed_modes(p)
    p1, p2 = approx_poles(p)
    narrow = max((p1, p2), key=lambda z: abs(z.real))
    assert -narrow.imag == pytest.approx(d.gamma_minus)
    assert abs(-narrow.imag - d.gamma_plus) > 5 * abs(-narrow.imag - d.gamma_minus)


def _pole_set_distance(a, b):
    a, b = list(a), list(b)
    d1 = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
    d2 = max(abs(a[0] - b[1]), abs(a[1] - b[0]))
    return min(d1, d2)


def _swapped_set(p):
    # detunings paired with the wrong widths
    d = dressed_modes(p)
    return (d.delta_minus - 1j * d.gamma_plus, d.delta_plus - 1j * d.gamma_minus)


def test_correct_pairing_dominates_swapped(rng):
    # pairing each detuning with its own width beats the swapped pairing
    # for every detuned draw; this is what fixes the width assignment
    for _ in range(100):
        dc = rng.uniform(1.0, 60.0) * rng.choice([-1.0, 1.0])
        oc = rng.uniform(5.0, 40.0)
        p = SystemParams(delta_c=dc, omega_c=oc)
        ex = exact_poles(p)
        assert _pole_set_distance(ex, approx_poles(p)) < _pole_set_distance(
            ex, _swapped_set(p)
        )


def test_swapped_width_error_decreases_on_doubling(rng):
    # the swapped set's distance to the exact roots tracks the width
    # asymmetry (delta_c/omega_e)*(gamma13-gamma12), which shrinks as the
    # coupling grows
    for _ in range(100):
        dc = rng.uniform(2.0, 60.0) * rng.choice([-1.0, 1.0])
        oc = rng.uniform(5.0, 40.0)
        p1 = SystemParams(delta_c=dc, omega_c=oc)
        p2 = SystemParams(delta_c=dc, omega_c=2 * oc)
        e1 = _pole_set_distance(exact_poles(p1), _swapped_set(p1))
        e2 = _pole_set_distance(exact_poles(p2), _swapped_set(p2))
        assert e2 < e1


@pytest.mark.parametrize("dc,oc", [(16.7, 14.8), (28.3, 14.8), (45.0, 14.8)])
def test_approx_poles_close_at_operating_points(dc, oc):
    p = SystemParams(delta_c=dc, omega_c=oc)
    assert _pole_set_distance(approx_poles(p), exact_poles(p)) < 5e-3


@given(
    dc=st.floats(-40.0, 40.0),
    scale=st.floats(10.0, 40.0),
)
@settings(max_examples=40, deadline=2000)
def test_full_vs_two_pole_agreement(dc, scale):
    # the worst relative-to-peak deviation over all detunings follows
    # ~0.49*(gamma13-gamma12)/omega_c; pin the envelope with headroom
    g = 1.0 - 0.084
    p = SystemParams(delta_c=dc, omega_c=scale * g)
    omegas = default_frequency_grid(p)
    full = chi3_full(p, omegas)
    approx = chi3_approx(p, omegas)
    peak = np.abs(full.values).max()
    dev = np.abs(full.values - approx.values).max() / peak
    assert dev < 0.6 / scale


@pytest.mark.parametrize("dc", [16.7, 28.3, 45.0])
def test_full_vs_two_pole_at_operating_points(dc):
    # far-detuned operating points do much better than the envelope
    p = SystemParams(delta_c=dc, omega_c=14.8)
    omegas = default_frequency_grid(p)
    full = chi3_full(p, omegas)
    approx = chi3_approx(p, omegas)
    dev = np.abs(full.values - approx.values).max() / np.abs(full.values).max()
    assert dev < {16.7: 0.025, 28.3: 0.012, 45.0: 0.005}[dc]


def test_two_pole_warns_when_coupling_weak():
    p = SystemParams(delta_c=0.0, omega_c=2.0)
    with pytest.warns(UserWarning):
        chi3_approx(p, default_frequency_grid(p))


def _component_masses(p):
    """Integrated spectral power of each two-pole component alone, in
    approx_poles' order: 2*pi times the mass, in gamma13 units, of the
    residue over (omega - r), which is pi*|residue|^2/gamma."""
    model = two_pole_model(p)
    r1, r2 = model.poles
    return [2.0 * np.pi * PoleModel(model.scale / (r - q), [r], p.time_unit_ns).mass(0.0)
            / p.time_unit_ns for r, q in ((r1, r2), (r2, r1))]


def test_weights_match_quad_oracle():
    from scipy.integrate import quad

    for dc, oc in ((16.7, 14.8), (28.3, 14.8), (45.0, 14.8)):
        p = SystemParams(delta_c=dc, omega_c=oc)
        d = dressed_modes(p)
        amp2 = 1.0 / abs(4.0 * (p.delta_p + 1j * p.gamma14)) ** 2
        sep2 = abs(
            (d.delta_plus - 1j * d.gamma_plus) - (d.delta_minus - 1j * d.gamma_minus)
        ) ** 2

        def lor(w, d0, g0):
            return 1.0 / ((w - d0) ** 2 + g0 * g0)

        want_n = amp2 / sep2 * quad(lor, -np.inf, np.inf,
                                    args=(d.narrow_detuning, d.gamma_minus))[0]
        want_b = amp2 / sep2 * quad(lor, -np.inf, np.inf,
                                    args=(d.broad_detuning, d.gamma_plus))[0]
        got_n, got_b = _component_masses(p)
        assert got_n == pytest.approx(want_n, rel=1e-6)
        assert got_b == pytest.approx(want_b, rel=1e-6)


def test_weight_ratio_is_width_ratio():
    # equal integrated |amplitude|^2 numerators make the power ratio the
    # inverse width ratio
    for dc in (5.0, 16.7, 28.3, 45.0):
        p = SystemParams(delta_c=dc, omega_c=14.8)
        d = dressed_modes(p)
        wn, wb = _component_masses(p)
        assert wn / wb == pytest.approx(d.gamma_plus / d.gamma_minus, rel=1e-9)


def test_weights_equal_on_resonance():
    wn, wb = _component_masses(SystemParams(delta_c=0.0, omega_c=14.8))
    assert wn == pytest.approx(wb)


@pytest.mark.parametrize("dc", [-28.3, -5.0, 0.0, 5.0, 28.3])
def test_weights_order_matches_the_width_branch(dc):
    # the narrow line that DressedModes names, at narrow_detuning with
    # half-width fwhm_narrow/2, is one of the two poles, and its component
    # outweighs the broad one by the width ratio: the dominance that
    # spectral filtering exploits
    p = SystemParams(delta_c=dc, omega_c=14.8)
    d = dressed_modes(p)
    weights = dict(zip(approx_poles(p), _component_masses(p)))
    narrow = weights[complex(d.narrow_detuning, -0.5 * d.fwhm_narrow)]
    broad = weights[complex(d.broad_detuning, -0.5 * d.fwhm_broad)]
    assert narrow / broad == pytest.approx(d.fwhm_broad / d.fwhm_narrow, rel=1e-9)


def test_weak_coupling_single_peak():
    # as the coupling shuts off the spectrum collapses toward one line at
    # the ground-state coherence
    p = SystemParams(delta_c=20.0, omega_c=0.3)
    omegas = default_frequency_grid(p)
    with pytest.warns(UserWarning):
        vals = np.abs(chi3_approx(p, omegas).values) ** 2
    peak_omega = omegas[np.argmax(vals)]
    assert abs(peak_omega - 20.0) < 0.5


def test_grid_is_centered_and_wide(detuned_params):
    om = default_frequency_grid(detuned_params)
    d = dressed_modes(detuned_params)
    center = detuned_params.delta_c / 2.0
    assert om[0] < center < om[-1]
    # both poles well inside
    assert om[0] < d.delta_plus - 10 and d.delta_minus + 10 < om[-1]


def test_non_integer_frequency_point_count_rejected(detuned_params):
    with pytest.raises(ValidationError, match="n_points must be an integer"):
        default_frequency_grid(detuned_params, n_points=100.5)
