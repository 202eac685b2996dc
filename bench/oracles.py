"""Reference values computed apart from the biphoton package.

Nothing here imports biphoton.  Every value comes from the closed forms
of the paper or from plain numpy:

* dressed modes: Omega_e = hypot(Omega_c, Delta_c),
  delta_pm = (Delta_c -/+ Omega_e)/2,
  gamma_pm = (g13 + g12)/2 +/- (Delta_c/Omega_e)(g13 - g12)/2
* the exact poles: roots of D(w) = Omega_c^2 - 4(w + i g13)(w - Delta_c + i g12)
  found with numpy.roots
* psi(tau) of a rational spectrum K / prod_k (w - r_k) with every r_k in
  the lower half plane, as the residue sum
  psi(tau) = -i * sum_k K exp(-i r_k tau) / prod_{j != k} (r_k - r_j)
  for tau >= 0 (the contour closes below, clockwise)
* statistical expectations of the Monte Carlo totals.

Rates are in units of gamma13; times are converted with the SI value of
gamma13 (2*pi*3 MHz unless stated otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SI_GAMMA13 = 2.0 * math.pi * 3.0e6  # rad/s
GAMMA12 = 0.084
GAMMA14 = 1.0
DELTA_P = -14.0
ETALON_FWHM_MHZ = 15.0
ETALON_PEAK = 0.12


@dataclass(frozen=True)
class Point:
    """One operating point; everything else takes the package defaults."""

    delta_c: float
    omega_c: float
    gamma12: float = GAMMA12
    gamma13: float = 1.0
    gamma14: float = GAMMA14
    delta_p: float = DELTA_P
    si_gamma13: float = SI_GAMMA13

    @property
    def time_unit_ns(self) -> float:
        return 1.0e9 / self.si_gamma13

    def hz(self, rate: float) -> float:
        return rate * self.si_gamma13 / (2.0 * math.pi)


def dressed(pt: Point) -> dict:
    """Closed-form dressed modes, keyed as the CLI prints them."""
    omega_e = math.hypot(pt.omega_c, pt.delta_c)
    half_sum = 0.5 * (pt.gamma13 + pt.gamma12)
    skew = 0.5 * (pt.delta_c / omega_e) * (pt.gamma13 - pt.gamma12)
    gp, gm = half_sum + skew, half_sum - skew
    narrow, broad = min(gp, gm), max(gp, gm)
    return {
        "omega_e": omega_e,
        "delta_plus": 0.5 * (pt.delta_c - omega_e),
        "delta_minus": 0.5 * (pt.delta_c + omega_e),
        "gamma_plus": gp,
        "gamma_minus": gm,
        "fwhm_narrow": 2.0 * narrow,
        "fwhm_broad": 2.0 * broad,
        "narrow_detuning": 0.5 * (pt.delta_c + omega_e) if gm <= gp
        else 0.5 * (pt.delta_c - omega_e),
        "beat_period_ns": 2.0 * math.pi / omega_e * pt.time_unit_ns,
    }


def exact_roots(pt: Point) -> tuple[complex, complex]:
    """Roots of D(w), narrow (smaller |Im|) first."""
    # D(w) = -4 w^2 + 4(Delta_c - i(g12 + g13)) w
    #        + Omega_c^2 + 4 i g13 Delta_c + 4 g13 g12
    coeffs = [
        -4.0,
        4.0 * (pt.delta_c - 1j * (pt.gamma12 + pt.gamma13)),
        pt.omega_c ** 2 + 4j * pt.gamma13 * pt.delta_c + 4.0 * pt.gamma13 * pt.gamma12,
    ]
    r = sorted(np.roots(coeffs), key=lambda z: abs(z.imag))
    return complex(r[0]), complex(r[1])


def two_pole_roots(pt: Point) -> tuple[complex, complex]:
    """Poles of the two-pole factorization from the closed-form modes."""
    d = dressed(pt)
    return (complex(d["delta_minus"], -d["gamma_minus"]),
            complex(d["delta_plus"], -d["gamma_plus"]))


def etalon(pt: Point, center: float) -> tuple[complex, complex]:
    """(pole, amplitude factor) of the 15-MHz, 12% etalon at `center`.

    t(w) = sqrt(T) (i G/2) / (w - center + i G/2): one more pole at
    center - i G/2 and a numerator factor sqrt(T) i G/2.
    """
    half = 0.5 * 2.0 * math.pi * ETALON_FWHM_MHZ * 1e6 / pt.si_gamma13
    return complex(center, -half), math.sqrt(ETALON_PEAK) * 1j * half


def spectrum(pt: Point, omegas: np.ndarray, filtered: bool = False,
             two_pole: bool = False) -> np.ndarray:
    """chi(w) = 1/((delta_p + i g14) D(w)), times the etalon when filtered.

    two_pole replaces D by -4 (w - p1)(w - p2) with the closed-form poles.
    """
    w = np.asarray(omegas, dtype=complex)
    if two_pole:
        p1, p2 = two_pole_roots(pt)
        D = -4.0 * (w - p1) * (w - p2)
    else:
        D = pt.omega_c ** 2 - 4.0 * (w + 1j * pt.gamma13) * (w - pt.delta_c + 1j * pt.gamma12)
    chi = 1.0 / ((pt.delta_p + 1j * pt.gamma14) * D)
    if filtered:
        pole, amp = etalon(pt, dressed(pt)["narrow_detuning"])
        chi = chi * amp / (w - pole)
    return chi


def psi_residues(pt: Point, taus_ns: np.ndarray, filtered: bool = False,
                 two_pole: bool = False) -> np.ndarray:
    """psi(tau) of the (filtered) exact or two-pole spectrum by residues."""
    poles = list(two_pole_roots(pt) if two_pole else exact_roots(pt))
    # chi = 1/((delta_p + i g14) * (-4) (w - r1)(w - r2))
    k = -1.0 / (4.0 * complex(pt.delta_p, pt.gamma14))
    if filtered:
        pole, amp = etalon(pt, dressed(pt)["narrow_detuning"])
        poles.append(pole)
        k *= amp
    t = np.asarray(taus_ns, dtype=float) / pt.time_unit_ns
    psi = np.zeros(len(t), dtype=complex)
    for i, r in enumerate(poles):
        denom = np.prod([r - q for j, q in enumerate(poles) if j != i])
        psi += k * np.exp(-1j * r * t) / denom
    psi *= -1j
    psi[t < 0] = 0.0
    return psi


def rel_linf(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / max |want|."""
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


# Monte Carlo expectations.  A Poisson number of pairs thinned
# independently per arm leaves Poisson singles; the accidental pairs of
# two independent uniform streams over time T fall in a window W at rate
# N_s N_as W / T.  Both totals are therefore Poisson to a very good
# approximation, and a correct simulator stays within a few sqrt(mean).

def expected_singles(n_pairs_mean: float, eff: float, background_rate: float,
                     measurement_time: float) -> float:
    return n_pairs_mean * eff + background_rate * measurement_time


def expected_coincidences(n_pairs_mean: float, eff_s: float, eff_as: float,
                          singles_s: float, singles_as: float,
                          window_s: float, measurement_time: float) -> float:
    """True pairs inside the window plus accidentals across it.

    The delay model is confined to the window, so every pair detected in
    both arms lands in it; E[N_s N_as] exceeds mu_s mu_as by exactly the
    shared pairs, which the true-pair term already counts.
    """
    return (n_pairs_mean * eff_s * eff_as
            + singles_s * singles_as * window_s / measurement_time)


def within_sigma(observed: float, mean: float, n_sigma: float) -> bool:
    """Poisson bound |observed - mean| <= n_sigma * sqrt(mean)."""
    return abs(observed - mean) <= n_sigma * math.sqrt(max(mean, 1.0))
