"""Fabry-Perot etalon model and spectral selection of a single dressed mode.

The etalon is reduced to one longitudinal mode: a causal single-pole
amplitude response

    t(omega) = sqrt(T_peak) * (i*Gamma/2) / ((omega - center) + i*Gamma/2)

whose intensity transmission is Lorentzian with FWHM Gamma and peak
T_peak.  The free spectral range only guards the single-mode regime:
grids wider than one FSR would see the neighboring transmission order,
which this model does not contain, so they are rejected.

A filtered chi3_full stays rational; filtered_wavepacket transforms it
by the shared residue sum, wavepacket.psi_poles.

Passing the anti-Stokes amplitude through a narrow etalon centered on
the narrow dressed mode removes the second interference path; the
transformed wavepacket loses its quantum beat and decays with the
narrow component's own time constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ValidationError
from .params import SystemParams, dressed_modes
from .susceptibility import (
    ComplexSpectrum,
    _spectrum_from_samples,
    default_frequency_grid,
    exact_poles,
)
from .wavepacket import TimeGridConfig, Wavepacket, psi_poles

# instrument presets, quoted by their SI data sheets and converted with
# the default si_gamma13 = 2*pi*3 MHz: 1 MHz of ordinary frequency is
# 1/3 gamma13 of angular rate
NARROWBAND_FWHM_MHZ = 15.0
NARROWBAND_FSR_GHZ = 22.9
NARROWBAND_PEAK = 0.12
BROADBAND_FWHM_MHZ = 500.0

# beat cycles after the peak that beat_suppression averages
_BEAT_CYCLES = 3


@dataclass(frozen=True)
class EtalonFilter:
    """Single transmission order of a Fabry-Perot etalon, gamma13 units."""

    center: float
    fwhm: float
    fsr: float
    peak_transmission: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.fwhm < self.fsr):
            raise ValidationError("need 0 < fwhm < fsr")
        if not (0 < self.peak_transmission <= 1):
            raise ValidationError("peak_transmission must be in (0, 1]")


def mhz_to_gamma13(f_mhz: float, p: SystemParams | None = None) -> float:
    """Ordinary frequency in MHz to angular rate in gamma13 units."""
    if p is None:
        p = SystemParams()
    return 2.0 * np.pi * f_mhz * 1e6 / p.si_gamma13


def narrowband_etalon(center: float, p: SystemParams | None = None) -> EtalonFilter:
    """The 15-MHz, 12%-transmission selection etalon at a given center."""
    return EtalonFilter(
        center=center,
        fwhm=mhz_to_gamma13(NARROWBAND_FWHM_MHZ, p),
        fsr=mhz_to_gamma13(NARROWBAND_FSR_GHZ * 1000.0, p),
        peak_transmission=NARROWBAND_PEAK,
    )


def broadband_etalon(center: float, p: SystemParams | None = None) -> EtalonFilter:
    """The 500-MHz pass-both-components etalon (nominal unit peak)."""
    return EtalonFilter(
        center=center,
        fwhm=mhz_to_gamma13(BROADBAND_FWHM_MHZ, p),
        fsr=mhz_to_gamma13(NARROWBAND_FSR_GHZ * 1000.0, p),
        peak_transmission=1.0,
    )


def narrow_mode_center(p: SystemParams) -> float:
    """Default filter placement: the detuning of the narrow dressed mode."""
    return dressed_modes(p).narrow_detuning


def etalon_pole(f: EtalonFilter) -> tuple[complex, complex]:
    """(pole, numerator) of the response: t(omega) = numerator / (omega - pole)."""
    half = 0.5 * f.fwhm
    return complex(f.center, -half), np.sqrt(f.peak_transmission) * (1j * half)


def _check_single_order(f: EtalonFilter, omega_lo: float, omega_hi: float) -> None:
    if omega_lo < f.center - 0.5 * f.fsr or omega_hi > f.center + 0.5 * f.fsr:
        raise GridError(
            "grid extends beyond one free spectral range; adjacent orders "
            "are not modeled"
        )


def etalon_amplitude(f: EtalonFilter, omegas: np.ndarray) -> ComplexSpectrum:
    """Causal single-pole amplitude response sampled on a frequency grid.

    The grid must be increasing and uniform, as for every sampled
    spectrum; anything else raises ValidationError.
    """
    omegas = np.asarray(omegas, dtype=float)
    _check_single_order(f, omegas.min(), omegas.max())
    pole, numerator = etalon_pole(f)
    return _spectrum_from_samples(omegas, numerator / (omegas - pole))


def apply_filter(spectrum: ComplexSpectrum, f: EtalonFilter) -> ComplexSpectrum:
    """Multiply a spectral amplitude by the etalon response, same grid."""
    response = etalon_amplitude(f, spectrum.omegas)
    return spectrum.with_values(spectrum.values * response.values)


def filtered_wavepacket(
    p: SystemParams, filters: list[EtalonFilter], grid: TimeGridConfig
) -> Wavepacket:
    """Exact wavepacket of chi3_full passed through the etalons in turn.

    psi_poles over the two roots of D(omega) plus each etalon's pole, so
    no spectrum is sampled; no filters gives the unfiltered wavepacket.
    Each etalon must hold default_frequency_grid within one free spectral
    range, as apply_filter requires of the sampled spectrum.
    """
    omega_lo, omega_hi = default_frequency_grid(p, 2)
    scale = -1.0 / (4.0 * (p.delta_p + 1j * p.gamma14))
    poles = list(exact_poles(p))
    for f in filters:
        _check_single_order(f, omega_lo, omega_hi)
        pole, numerator = etalon_pole(f)
        poles.append(pole)
        scale *= numerator
    return psi_poles(scale, poles, grid, p)


def estimate_beat_period_ns(w: Wavepacket) -> float:
    """Beat period from the dominant nonzero-frequency peak of G2's spectrum.

    Uses an rfft of g2 as given (the mean is not subtracted, so the DC
    bin stays in the spectrum) and takes the strongest interior local
    maximum, with parabolic interpolation around that bin.
    """
    g2 = np.asarray(w.g2, dtype=float)
    spec = np.abs(np.fft.rfft(g2))
    if len(spec) < 3:
        raise ValidationError("grid too short to estimate a beat period")
    # the decay envelope falls monotonically from DC, so the beat is the
    # strongest interior local maximum, not the global argmax
    interior = (spec[1:-1] > spec[:-2]) & (spec[1:-1] >= spec[2:])
    candidates = np.nonzero(interior)[0] + 1
    if len(candidates) == 0 or spec[candidates].max() == 0:
        raise ValidationError("no oscillation found in the wavepacket")
    k = int(candidates[np.argmax(spec[candidates])])
    if 1 <= k < len(spec) - 1:
        # parabolic refinement of the peak bin
        y0, y1, y2 = spec[k - 1], spec[k], spec[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0:
            k = k + 0.5 * (y0 - y2) / denom
    freq_per_ns = k / (len(g2) * w.tau_step)
    return 1.0 / freq_per_ns


def modulation_depth_profile(
    w: Wavepacket, period_ns: float, start_ns: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cycle modulation depth (max-min)/(max+min) of G2.

    Windows [t_i, t_i + period_ns) of one beat period are tiled from
    start_ns (default: the global peak of G2) while they end inside the
    grid, up to the first that holds fewer than 4 samples or has
    max + min = 0.  Returns (window_start_times, depths).

    One pass: the edges t_i are a cumulative sum, the same sequential
    additions as stepping t_i += period_ns, one searchsorted finds the
    window bounds and maximum/minimum.reduceat the extremes.  At most
    len(taus)//4 windows can hold 4 samples, which caps the edge count.
    """
    if not (0 < period_ns < math.inf):
        raise ValidationError("beat period must be positive and finite")
    taus = w.taus
    g2 = np.asarray(w.g2, dtype=float)
    if start_ns is None:
        start_ns = float(taus[np.argmax(g2)])
    span = taus[-1] - start_ns
    if not math.isfinite(span):
        return np.asarray([]), np.asarray([])
    n_edges = int(min(max(span // period_ns, -1.0) + 2, len(taus) // 4 + 1))
    edges = np.full(n_edges, period_ns)
    edges[0] = start_ns
    np.cumsum(edges, out=edges)
    bounds = np.searchsorted(taus, edges)
    # each stop rule keeps the windows before the first one it fails
    ok = (edges[1:] <= taus[-1]) & (np.diff(bounds) >= 4)
    n = int(np.argmin(np.append(ok, False)))
    hi = np.maximum.reduceat(g2[:bounds[n]], bounds[:n])
    lo = np.minimum.reduceat(g2[:bounds[n]], bounds[:n])
    total = hi + lo
    n = int(np.argmin(np.append(total != 0, False)))
    return edges[:n], (hi[:n] - lo[:n]) / total[:n]


def beat_suppression(
    before: Wavepacket,
    after: Wavepacket,
    beat_period_ns: float | None = None,
) -> tuple[float, float]:
    """Beat modulation depth of each wavepacket, averaged per cycle.

    The depth is the mean of (max-min)/(max+min) over the first three
    beat periods following the global peak.  The period is estimated
    from the unfiltered wavepacket when not given, and the same value is
    used for both curves (the filtered one may carry no beat to measure).
    """
    if len(before.g2) != len(after.g2) or before.tau_step != after.tau_step:
        raise ValidationError("wavepackets must share the time grid")
    if beat_period_ns is None:
        beat_period_ns = estimate_beat_period_ns(before)
    depths = []
    for w in (before, after):
        _, d = modulation_depth_profile(w, beat_period_ns)
        if len(d) < _BEAT_CYCLES:
            raise GridError(
                f"grid covers {len(d)} beat cycles after the peak; "
                f"{_BEAT_CYCLES} required"
            )
        depths.append(float(np.mean(d[:_BEAT_CYCLES])))
    return depths[0], depths[1]
