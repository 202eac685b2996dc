"""Dressed-mode algebra: sum rules, limits, and parameter validation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biphoton import DegenerateInputError, SystemParams, ValidationError, dressed_modes


def test_default_parameter_values():
    p = SystemParams()
    assert p.gamma13 == 1.0
    assert p.gamma12 == pytest.approx(0.084)
    assert p.omega_c == pytest.approx(14.8)
    assert p.si_gamma13 == pytest.approx(2.0 * math.pi * 3.0e6)


def test_time_unit_matches_si_rate():
    p = SystemParams()
    # one gamma13 unit of rate corresponds to 1/time_unit in 1/ns
    assert p.time_unit_ns == pytest.approx(1.0e9 / p.si_gamma13)
    assert p.time_unit_ns == pytest.approx(53.0516, abs=1e-3)


def test_rate_to_hz_linewidth_convention():
    p = SystemParams()
    # a width of 2*gamma13 in angular units is gamma13_si/pi in Hz
    assert p.rate_to_hz(2.0) == pytest.approx(6.0e6)


@pytest.mark.parametrize("field,value", [
    ("gamma13", 0.0),
    ("gamma13", -1.0),
    ("gamma12", 1.0),     # must stay below gamma13
    ("gamma12", -0.1),
    ("omega_c", -1.0),
])
def test_invalid_parameters_rejected(field, value):
    with pytest.raises(Exception):
        SystemParams(**{field: value})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameters_rejected(field, value):
    # NaN passes every ordering check, so it needs its own
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        SystemParams(**{field: value})


def test_degenerate_dressing_rejected():
    p = SystemParams(omega_c=0.0, delta_c=0.0)
    with pytest.raises(DegenerateInputError):
        dressed_modes(p)


@given(
    dc=st.floats(-80.0, 80.0),
    oc=st.floats(0.5, 60.0),
    g12=st.floats(0.0, 0.9),
)
def test_sum_rules(dc, oc, g12):
    p = SystemParams(delta_c=dc, omega_c=oc, gamma12=g12)
    d = dressed_modes(p)
    # widths always partition the total decoherence
    assert d.gamma_plus + d.gamma_minus == pytest.approx(p.gamma13 + p.gamma12)
    # detunings partition the coupling detuning
    assert d.delta_plus + d.delta_minus == pytest.approx(dc, abs=1e-9)
    # product fixed by the coupling strength
    assert d.delta_plus * d.delta_minus == pytest.approx(-oc * oc / 4.0, rel=1e-9, abs=1e-9)
    assert d.omega_e == pytest.approx(math.hypot(oc, dc))


@given(
    dc=st.floats(0.0, 80.0),
    oc=st.floats(0.5, 60.0),
    g12=st.floats(0.0, 0.9),
)
def test_width_bounds_blue_side(dc, oc, g12):
    # for dc >= 0: gamma12 <= gamma_minus <= gamma_plus <= gamma13
    p = SystemParams(delta_c=dc, omega_c=oc, gamma12=g12)
    d = dressed_modes(p)
    assert p.gamma12 - 1e-12 <= d.gamma_minus <= d.gamma_plus <= p.gamma13 + 1e-12


def test_narrow_width_decreases_with_detuning():
    oc = 14.8
    widths = []
    for dc in (0.0, 5.0, 16.7, 28.3, 45.0, 100.0):
        d = dressed_modes(SystemParams(delta_c=dc, omega_c=oc))
        widths.append(d.gamma_minus)
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_far_detuned_asymptote():
    # at large detuning the narrow width collapses onto the ground-state
    # dephasing rate
    p = SystemParams(delta_c=148.0, omega_c=14.8)
    d = dressed_modes(p)
    assert abs(2.0 * d.gamma_minus - 2.0 * p.gamma12) < 0.02


def test_on_resonance_widths_equal():
    d = dressed_modes(SystemParams(delta_c=0.0, omega_c=14.8))
    assert d.gamma_plus == pytest.approx(d.gamma_minus)
    assert d.gamma_minus == pytest.approx(0.542)


def test_red_detuning_mirrors_widths():
    dp = dressed_modes(SystemParams(delta_c=30.0, omega_c=14.8))
    dm = dressed_modes(SystemParams(delta_c=-30.0, omega_c=14.8))
    # flipping the detuning sign swaps which dressed state is narrow
    assert dp.gamma_minus == pytest.approx(dm.gamma_plus)
    assert dp.gamma_plus == pytest.approx(dm.gamma_minus)
    assert dp.omega_e == pytest.approx(dm.omega_e)


def test_narrow_mode_is_always_the_narrow_one():
    for dc in (-45.0, -5.0, 0.0, 5.0, 45.0):
        d = dressed_modes(SystemParams(delta_c=dc, omega_c=14.8))
        assert d.fwhm_narrow <= d.fwhm_broad
        assert d.fwhm_narrow == pytest.approx(2.0 * min(d.gamma_minus, d.gamma_plus))


def test_headline_linewidths():
    # frozen: 2*gamma_minus at the three standard operating points
    expected = {16.7: 0.398468, 28.3: 0.272298, 45.0: 0.213853}
    for dc, val in expected.items():
        d = dressed_modes(SystemParams(delta_c=dc, omega_c=14.8))
        assert 2.0 * d.gamma_minus == pytest.approx(val, abs=1e-5)


def test_params_frozen():
    p = SystemParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.delta_c = 3.0
