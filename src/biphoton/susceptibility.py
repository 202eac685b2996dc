"""Third-order susceptibility of the mixing process on the anti-Stokes axis.

Two shapes are provided: the exact form

    chi(omega) ~ 1 / [(delta_p + i*gamma14) * D(omega)],
    D(omega) = omega_c**2 - 4*(omega + i*gamma13)*(omega - delta_c + i*gamma12)

and its two-pole factorization with poles at delta_minus - i*gamma_minus
and delta_plus - i*gamma_plus, valid when omega_c dominates
|gamma13 - gamma12|.  Both are scale-free: every constant prefactor
(field amplitudes, dipole moments, densities, mode geometry) is left
out, and absolute brightness comes from the detected rate through the
loss budget (photostatistics.loss_budget_rate).
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import DressedModes, SystemParams, dressed_modes

DEFAULT_N_POINTS = 2 ** 14
# the most points of a time or frequency grid: the wavepacket command's
# peak RSS grows by about 260 B per time point (99 MB at 2.5e5 points,
# 291 MB at 1e6), so a grid at the bound stays within about the 0.9 GB
# that MAX_SHARD_TAGS allows a Monte Carlo shard
MAX_GRID_POINTS = 3_000_000


@dataclass(frozen=True)
class ComplexSpectrum:
    """Complex amplitude sampled on a uniform angular-frequency grid.

    omega_min and omega_step are in gamma13 units.
    """

    omega_min: float
    omega_step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (self.omega_step > 0):
            raise ValidationError("omega_step must be positive")
        if np.ndim(self.values) != 1 or len(self.values) < 2:
            raise ValidationError("spectrum needs at least 2 samples on a 1-d grid")

    @property
    def omegas(self) -> np.ndarray:
        return self.omega_min + self.omega_step * np.arange(len(self.values))

    @property
    def omega_max(self) -> float:
        return self.omega_min + self.omega_step * (len(self.values) - 1)

    def with_values(self, values: np.ndarray) -> "ComplexSpectrum":
        if len(values) != len(self.values):
            raise ValidationError("replacement values must keep the grid length")
        return ComplexSpectrum(self.omega_min, self.omega_step, np.asarray(values))


def default_frequency_grid(p: SystemParams, n_points: int | None = None) -> np.ndarray:
    """Uniform omega grid wide enough for accurate time-domain transforms.

    Centered midway between the two dressed modes; half-span is
    max(40*max(gamma_pm), 4*omega_e) so both poles sit well inside with
    margin >= 20*max(gamma_pm).  Point count defaults to 2**14.
    """
    d = dressed_modes(p)
    if n_points is None:
        n_points = DEFAULT_N_POINTS
    if not 2 <= n_points <= MAX_GRID_POINTS:
        raise ValidationError(
            f"frequency grid needs 2 to MAX_GRID_POINTS = {MAX_GRID_POINTS:,} points"
        )
    center = 0.5 * p.delta_c
    gmax = max(d.gamma_plus, d.gamma_minus)
    half_span = max(40.0 * gmax, 4.0 * d.omega_e)
    return np.linspace(center - half_span, center + half_span, n_points)


def _spectrum_from_samples(omegas: np.ndarray, values: np.ndarray) -> ComplexSpectrum:
    omegas = np.asarray(omegas, dtype=float)
    steps = np.diff(omegas)
    if len(omegas) < 2 or steps.min() <= 0:
        raise ValidationError("frequency grid must be increasing with >= 2 points")
    step = steps.mean()
    if not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise ValidationError("frequency grid must be uniform")
    return ComplexSpectrum(float(omegas[0]), float(step), values)


def denominator(p: SystemParams, omegas: np.ndarray) -> np.ndarray:
    """D(omega) of the exact susceptibility."""
    w = np.asarray(omegas, dtype=complex)
    return p.omega_c ** 2 - 4.0 * (w + 1j * p.gamma13) * (w - p.delta_c + 1j * p.gamma12)


def chi3_full(p: SystemParams, omegas: np.ndarray) -> ComplexSpectrum:
    """Exact scale-free susceptibility 1/[(delta_p + i*gamma14)*D(omega)].

    D has no real zeros for gamma13 > 0, so the values are finite on the
    whole real axis.
    """
    vals = 1.0 / ((p.delta_p + 1j * p.gamma14) * denominator(p, omegas))
    return _spectrum_from_samples(omegas, vals)


def approx_poles(p: SystemParams) -> tuple[complex, complex]:
    """Pole pair of the two-pole factorization, (narrow-side, other).

    Returns (delta_minus - i*gamma_minus, delta_plus - i*gamma_plus):
    each dressed detuning carries the half-width of the same subscript.
    """
    d = dressed_modes(p)
    return (
        complex(d.delta_minus, -d.gamma_minus),
        complex(d.delta_plus, -d.gamma_plus),
    )


def exact_poles(p: SystemParams) -> tuple[complex, complex]:
    """Exact complex roots of D(omega) = 0 by the quadratic formula.

    Ordered by real part descending, matching approx_poles for
    delta_c >= 0.
    """
    # D = -4*(w^2 + b*w + c) with the coefficients below
    b = -p.delta_c + 1j * (p.gamma13 + p.gamma12)
    c = -1j * p.gamma13 * p.delta_c - p.gamma13 * p.gamma12 - 0.25 * p.omega_c ** 2
    disc = cmath.sqrt(b * b - 4.0 * c)
    r1 = 0.5 * (-b + disc)
    r2 = 0.5 * (-b - disc)
    if r1.real >= r2.real:
        return (r1, r2)
    return (r2, r1)


def chi3_approx(p: SystemParams, omegas: np.ndarray) -> ComplexSpectrum:
    """Two-pole factorization of chi3_full on the same scale.

    Equals -1/[4*(delta_p + i*gamma14)*(omega - p1)*(omega - p2)] with
    p1, p2 from approx_poles, so it agrees with chi3_full exactly where
    the approximate poles coincide with the exact roots of D.  Validity
    needs omega_c >> |gamma13 - gamma12|; a warning is emitted below
    3x that scale.
    """
    gap = abs(p.gamma13 - p.gamma12)
    if p.omega_c < 3.0 * gap:
        warnings.warn(
            "two-pole factorization is unreliable for omega_c < 3*|gamma13 - gamma12|",
            stacklevel=2,
        )
    p1, p2 = approx_poles(p)
    w = np.asarray(omegas, dtype=complex)
    vals = -1.0 / (4.0 * (p.delta_p + 1j * p.gamma14) * (w - p1) * (w - p2))
    return _spectrum_from_samples(omegas, vals)


def component_weights(p: SystemParams) -> tuple[float, float]:
    """Integrated spectral power of the narrow and broad Lorentzian components.

    Partial fractions give both components the same residue magnitude,
    so each integrated power is pi*|residue|^2/gamma and the ratio
    weight_narrow/weight_broad equals gamma_broad/gamma_narrow, i.e.
    gamma_plus/gamma_minus for delta_c >= 0.  The narrow component always
    dominates; that dominance is what spectral filtering exploits.  Which
    component is narrow is DressedModes.fwhm_narrow's rule.
    """
    d = dressed_modes(p)
    p1, p2 = approx_poles(p)
    residue = 1.0 / (4.0 * abs(complex(p.delta_p, p.gamma14)) * abs(p1 - p2))
    # integral of |residue/(w - (d0 - i*g))|^2 over the real axis = pi*|residue|^2/g
    power = np.pi * residue ** 2
    return (float(power / (0.5 * d.fwhm_narrow)),
            float(power / (0.5 * d.fwhm_broad)))
