"""Physical parameter set and dressed-mode algebra.

Unit convention: every rate and detuning is stored in units of gamma13,
the dephasing rate of the upper Stokes level, so gamma13 == 1.0 in a
default parameter set.  A single conversion constant si_gamma13 (rad/s)
maps normalized values to SI for reporting.  Times are quoted in ns;
one time unit is 1/si_gamma13 seconds (53.05 ns at the default
si_gamma13 = 2*pi*3 MHz).

"Linewidth" always means the FWHM of a Lorentzian intensity component,
i.e. 2*gamma in angular units; the Hz figure is 2*gamma*si_gamma13/(2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DegenerateInputError, ValidationError

# Angular dephasing rate of the upper Stokes level, rad/s (87Rb D1: 3 MHz).
DEFAULT_SI_GAMMA13 = 2.0 * math.pi * 3.0e6


@dataclass(frozen=True)
class SystemParams:
    """All physical rates and detunings of the four-level mixing scheme.

    gamma13   dephasing rate of the upper Stokes level (defines the unit, 1.0)
    gamma12   ground-state dephasing rate; must stay below gamma13
    gamma14   dephasing rate of the upper pump level (enters only the
              overall amplitude prefactor together with delta_p)
    delta_p   pump detuning (red-detuned pump means delta_p < 0)
    delta_c   coupling detuning
    omega_c   coupling Rabi frequency, real non-negative
    si_gamma13  rad/s value of one gamma13 unit, for SI conversion
    """

    gamma13: float = 1.0
    gamma12: float = 0.084
    gamma14: float = 1.0
    delta_p: float = -14.0
    delta_c: float = 0.0
    omega_c: float = 14.8
    si_gamma13: float = DEFAULT_SI_GAMMA13

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"{f.name} must be finite")
        if not (self.gamma13 > 0):
            raise ValidationError("gamma13 must be positive")
        if self.gamma12 < 0 or self.gamma14 < 0:
            raise ValidationError("dephasing rates must be non-negative")
        if not (self.gamma12 < self.gamma13):
            raise ValidationError(
                "gamma12 must be below gamma13 (subnatural ground-state dephasing)"
            )
        if self.omega_c < 0:
            raise ValidationError("omega_c must be non-negative (phase is unobservable)")
        if self.delta_p == 0 and self.gamma14 == 0:
            raise ValidationError("pump prefactor delta_p + i*gamma14 must be nonzero")
        if not (self.si_gamma13 > 0):
            raise ValidationError("si_gamma13 must be positive")

    @property
    def time_unit_ns(self) -> float:
        """Duration of one normalized time unit (1/gamma13) in ns."""
        return 1.0e9 / self.si_gamma13

    def rate_to_hz(self, rate: float) -> float:
        """Convert an angular rate in gamma13 units to an ordinary frequency in Hz."""
        return rate * self.si_gamma13 / (2.0 * math.pi)


@dataclass(frozen=True)
class DressedModes:
    """Detunings and half-widths of the two coupling-dressed spectral modes.

    The anti-Stokes spectrum splits into a component at delta_minus
    (blue side for delta_c > 0) with half-width gamma_minus and one at
    delta_plus with half-width gamma_plus.  Exact sum rules:

        delta_plus + delta_minus = delta_c
        delta_minus - delta_plus = omega_e
        gamma_plus + gamma_minus = gamma13 + gamma12
    """

    omega_e: float
    delta_plus: float
    delta_minus: float
    gamma_plus: float
    gamma_minus: float

    @property
    def fwhm_narrow(self) -> float:
        """FWHM (2*gamma) of the narrower component, gamma13 units."""
        return 2.0 * min(self.gamma_plus, self.gamma_minus)

    @property
    def fwhm_broad(self) -> float:
        return 2.0 * max(self.gamma_plus, self.gamma_minus)

    @property
    def narrow_detuning(self) -> float:
        """Detuning of the narrower component (the one to keep when filtering)."""
        if self.gamma_minus <= self.gamma_plus:
            return self.delta_minus
        return self.delta_plus

    @property
    def broad_detuning(self) -> float:
        if self.gamma_minus <= self.gamma_plus:
            return self.delta_plus
        return self.delta_minus


def dressed_modes(p: SystemParams) -> DressedModes:
    """Split the system into its two dressed spectral modes.

    delta_pm = (delta_c -/+ omega_e)/2 and
    gamma_pm = (gamma13+gamma12)/2 +/- (delta_c/omega_e)(gamma13-gamma12)/2.
    The widths pair with the detunings of the same sign subscript: the
    delta_minus component carries gamma_minus, which is the narrow one
    for delta_c > 0.
    """
    omega_e = math.hypot(p.omega_c, p.delta_c)
    if omega_e == 0:
        raise DegenerateInputError(
            "omega_e = 0: dressed-mode widths are undefined at delta_c = omega_c = 0"
        )
    half_sum = 0.5 * (p.gamma13 + p.gamma12)
    skew = 0.5 * (p.delta_c / omega_e) * (p.gamma13 - p.gamma12)
    return DressedModes(
        omega_e=omega_e,
        delta_plus=0.5 * (p.delta_c - omega_e),
        delta_minus=0.5 * (p.delta_c + omega_e),
        gamma_plus=half_sum + skew,
        gamma_minus=half_sum - skew,
    )
