"""Time-domain biphoton wavepacket synthesis and spectra.

The joint amplitude is psi(tau) = (1/2pi) * integral of chi(omega) *
exp(-i*omega*tau) d(omega); the measured quantity is the Glauber
correlation G2(tau) = |psi(tau)|^2, supported on tau >= 0 because chi
is analytic in the lower half plane, so every delay grid is [0, tau_max].

Two routes produce G2:

* psi_poles: closed form from the residues of a rational spectrum,
  behind g2_analytic and filtering.filtered_wavepacket; for two poles
      G2 ~ exp(-2*gamma_plus*tau) + exp(-2*gamma_minus*tau)
           - 2*cos(omega_e*tau)*exp(-(gamma_plus+gamma_minus)*tau)
  (zero at tau = 0: the two dressed paths interfere destructively).
* psi_numeric: direct quadrature of the Fourier integral for arbitrary
  sampled spectra.  A rational function fitted to both grid edges, whose
  transform is a closed-form residue, carries the truncated tails; the
  remainder is summed with trapezoid weights by a chirp-z transform,
  Bluestein's algorithm on numpy's FFT (Rabiner, Schafer & Rader 1969).
  Only numpy is needed.

The two agree to about 1e-5 of the peak |psi| on the default grids; the
acceptance suite pins the agreement at 1e-3.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ValidationError, _integer
from .params import SystemParams, dressed_modes
from .susceptibility import MAX_GRID_POINTS, ComplexSpectrum, approx_poles


@dataclass(frozen=True)
class TimeGridConfig:
    """Uniform grid of n_points detection delays on [0, tau_max] ns, where
    the causal wavepacket lives."""

    tau_max: float = 400.0
    n_points: int = 2000

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau_max):
            raise ValidationError("tau_max must be finite")
        object.__setattr__(self, "n_points", _integer("n_points", self.n_points))
        if not 16 <= self.n_points <= MAX_GRID_POINTS:
            raise ValidationError(
                f"time grid needs 16 to MAX_GRID_POINTS = {MAX_GRID_POINTS:,} points"
            )
        if not (self.tau_max > 0):
            raise ValidationError("tau_max must be positive")

    @property
    def taus(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max, self.n_points)

    @property
    def tau_step(self) -> float:
        return self.tau_max / (self.n_points - 1)


@dataclass(frozen=True)
class Wavepacket:
    """G2(tau) on its delay grid, optionally with the complex amplitude."""

    grid: TimeGridConfig
    g2: np.ndarray
    psi: np.ndarray | None = None

    # not a field: every delay grid starts at zero (bench/checks.py reads it)
    tau_min = 0.0

    def __post_init__(self) -> None:
        g2 = np.asarray(self.g2)
        if g2.shape != (self.grid.n_points,):
            raise ValidationError(f"g2 must have the grid's shape ({self.grid.n_points},)")
        # NaN passes a test for negative values, and +inf passes it too
        if not np.all((g2 >= 0) & np.isfinite(g2)):
            raise ValidationError("g2 must be finite and non-negative")
        object.__setattr__(self, "g2", g2)
        if self.psi is not None and np.shape(self.psi) != g2.shape:
            raise ValidationError("psi and g2 must share the grid")

    @property
    def taus(self) -> np.ndarray:
        return self.grid.taus

    @property
    def tau_step(self) -> float:
        return self.grid.tau_step

    @property
    def tau_max(self) -> float:
        return self.grid.tau_max

    def energy(self) -> float:
        """Trapezoid integral of G2 over the grid (units: ns * amplitude^2)."""
        return float(np.trapezoid(self.g2, dx=self.tau_step))

    def with_g2(self, g2: np.ndarray) -> "Wavepacket":
        return Wavepacket(self.grid, g2)


POLE_MERGE_TOL = 1e-5


def _merge_close_poles(poles: list[complex]) -> list[complex]:
    """Each pole replaced by the mean of its cluster; order is kept."""
    clusters: list[list[complex]] = []
    for r in poles:
        near = [c for c in clusters if any(abs(r - q) < POLE_MERGE_TOL for q in c)]
        for c in near[1:]:  # r bridges several clusters
            near[0].extend(c)
            clusters.remove(c)
        if near:
            near[0].append(r)
        else:
            clusters.append([r])
    mean = {}
    for c in clusters:
        if len(set(c)) > 1:
            mean.update(dict.fromkeys(c, sum(c) / len(c)))
    return [mean.get(r, r) for r in poles]


def psi_poles(
    scale: complex, poles: Sequence[complex], grid: TimeGridConfig, p: SystemParams
) -> Wavepacket:
    """Exact transform of the rational spectrum scale / prod_k (omega - r_k).

    psi(tau) = -i*scale * sum_k exp(-i*r_k*tau) / prod_{j!=k} (r_k - r_j)
    on the grid's delays tau >= 0, the residue sum over the poles r_k
    (gamma13 units), which must all lie in the lower half plane, or
    ValidationError is raised, as G2 would not decay.  A pole
    listed m times contributes its order-m residue, the (m-1)-th Taylor
    coefficient about it of exp(-i*omega*tau) / prod_j (omega - q_j) over
    the other poles q_j.  The SystemParams argument only supplies the
    ns <-> gamma13 time conversion.

    Poles closer together than POLE_MERGE_TOL (gamma13 units) are
    merged into one repeated pole at their mean.  Two terms of a split
    eps cancel down to O(1) from O(1/eps), leaving a rounding error of
    about 2e-15/eps of the peak, while the merge changes psi by only
    O(eps^2), as merging at the mean cancels the first order: up to
    0.5*eps^2 of the peak for a split double root of D(omega) and
    0.04*eps^2 for two narrow etalons over 400 ns (both against a
    40-digit residue sum).  The two errors cross near eps = 2e-5, so the
    tolerance 1e-5 keeps either below about 2e-10 of the peak.
    """
    poles = [complex(r) for r in poles]
    for r in poles:
        if r.imag >= 0:
            raise ValidationError(f"pole {r:.6g} is not below the real axis, "
                                  "so G2 would not decay")
    poles = _merge_close_poles(poles)
    t = grid.taus / p.time_unit_ns  # ns -> gamma13 time units
    psi = np.zeros(len(t), dtype=complex)
    for r, order in Counter(poles).items():
        d = np.array([q - r for q in poles if q != r], dtype=complex)
        # a_n: Taylor coefficients about r of exp(g), g(omega) =
        # -i*omega*t - sum_j log(omega - q_j); with c_k those of g',
        # n*a_n = sum_k c_k*a_{n-1-k}
        c = [np.sum(d ** -(k + 1)) for k in range(order - 1)]
        if order > 1:
            c[0] = c[0] - 1j * t
        a = [np.exp(-1j * r * t) / np.prod(-d)]
        for n in range(1, order):
            a.append(sum(c[k] * a[n - 1 - k] for k in range(n)) / n)
        psi += a[-1]
    psi *= -1j * scale
    return Wavepacket(grid, np.abs(psi) ** 2, psi)


def g2_analytic(p: SystemParams, grid: TimeGridConfig = TimeGridConfig()) -> Wavepacket:
    """Closed-form wavepacket of the two-pole spectrum.

    G2(tau) = |C|^2 * [exp(-2*g+*tau) + exp(-2*g-*tau)
              - 2*cos(omega_e*tau)*exp(-(g+ + g-)*tau)] for tau >= 0,
    with C = i / (4*(delta_p + i*gamma14)
    * (pole_n - pole_b)): psi_poles over approx_poles, so psi_numeric
    reproduces this curve in absolute units, not just in shape.
    """
    scale = -1.0 / (4.0 * (p.delta_p + 1j * p.gamma14))
    return psi_poles(scale, approx_poles(p), grid, p)


def g2_resonant(p: SystemParams, grid: TimeGridConfig = TimeGridConfig()) -> Wavepacket:
    """On-resonance (delta_c = 0) closed form.

    G2(tau) = 2*|C|^2 * exp(-(gamma13+gamma12)*tau) * (1 - cos(omega_c*tau))
    for tau >= 0, with the same residue amplitude C as g2_analytic
    evaluated at delta_c = 0 (there pole_n - pole_b = omega_c).  The
    cross term of the general formula decays at the width sum
    gamma_plus + gamma_minus = gamma13 + gamma12, so the on-resonance
    envelope carries that single exponent, not twice it; this form is
    the exact delta_c -> 0 limit of g2_analytic.
    """
    if p.omega_c == 0:
        raise ValidationError("resonant form needs omega_c > 0")
    t = grid.taus / p.time_unit_ns
    amp2 = abs(1.0 / (4.0 * (p.delta_p + 1j * p.gamma14) * p.omega_c)) ** 2
    env = np.exp(-(p.gamma13 + p.gamma12) * t)
    g2 = 2.0 * amp2 * env * (1.0 - np.cos(p.omega_c * t))
    return Wavepacket(grid, g2)


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c * 7^d * 11^e >= n, an efficient FFT length."""
    while True:
        rest = n
        for factor in (2, 3, 5, 7, 11):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=1)
def _chirp(n: int, m: int, w: complex):
    """The chirp w^(k^2/2) for k < max(n, m) and the FFT of its inverse.

    The powers are exp(e * log(w)) from one complex log of w, equal bit
    for bit to numpy's w ** e: numpy expands an integer exponent in
    (-100, 100) by repeated multiplication and hands every other
    exponent to libm cpow, which glibc computes as cexp(e * clog(w)).
    So ** is kept only for the leading entries with such an exponent,
    k <= 14.

    Depends only on the grids, so the filtered and the unfiltered
    spectrum of one run share it; only that last entry is kept, because
    another operating point has another frequency step.  The arrays are
    read-only because every caller gets the same objects.
    """
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    wk2 = (k ** 2 / 2.0) * np.log(w)
    np.exp(wk2, out=wk2)
    wk2[:15] = w ** (k[:15] ** 2 / 2.0)
    fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), _fast_len(n + m - 1))
    for arr in (wk2, fwk2):
        arr.flags.writeable = False
    return wk2, fwk2


def _czt(x: np.ndarray, m: int, w: complex) -> np.ndarray:
    """sum_j x_j * w^(j*k) for k < m, the chirp-z transform at z_k = w^-k
    from z_0 = 1, by Bluestein's algorithm.

    Same steps, operand order and FFT length as the library czt at a = 1
    that tests/test_wavepacket.py compares it with, bit for bit.  The
    library raises w to each power with **; _chirp takes the same powers
    as exp(e * log(w)), which glibc's cpow computes too, and keeps **
    where numpy multiplies out an integer power instead.
    """
    n = len(x)
    wk2, fwk2 = _chirp(n, m, w)
    y = np.fft.ifft(fwk2 * np.fft.fft(x * wk2[:n], len(fwk2)))
    return y[n - 1:n + m - 1] * wk2[:m]


def psi_numeric(
    spectrum: ComplexSpectrum,
    grid: TimeGridConfig = TimeGridConfig(),
    p: SystemParams = SystemParams(),
) -> Wavepacket:
    """Fourier-transform a sampled spectrum to the time domain.

    psi(tau) = (1/2pi) * integral of values * exp(-i*omega*tau).  The
    tails beyond the grid are carried by R(omega) = sum_{n=2..5} c_n
    (omega - z)^-n, z at the grid centre 0.05 half-spans below the real
    axis, fitted to both edge windows at once; R is transformed exactly
    by its residue at z, and values - R with trapezoid weights by a
    chirp-z transform on the uniform grid of delays from 0 to tau_max.

    Accuracy against psi_poles on default_frequency_grid and the default
    delay grid, over 47 operating points (delta_c -50..50, omega_c 5..30),
    unfiltered and behind the narrowband etalon: at most 1.6e-5 of the
    peak |psi| (at the shortest delays) and 6.1e-7 beyond 10 ns, both at
    delta_c = 0 with the etalon, on grids of half-span 22-40 gamma13.

    The SystemParams argument only supplies the ns <-> gamma13 time
    conversion (default parameters are used when omitted).

    Preconditions checked: the spectral power must have decayed at both
    grid edges (coverage), and tau_max must stay inside half the alias
    period pi/omega_step, beyond which the trapezoid sum undersamples
    the exp(-i*omega*tau) oscillation.
    """
    omegas = spectrum.omegas
    vals = np.asarray(spectrum.values, dtype=complex)
    power = np.abs(vals) ** 2
    peak = power.max()
    if peak == 0:
        raise ValidationError("spectrum is identically zero")
    edge = max(power[0], power[-1])
    if edge > 1e-3 * peak:
        raise GridError(
            "spectral power has not decayed at the grid edges; widen the span"
        )

    if grid.tau_max / p.time_unit_ns > np.pi / spectrum.omega_step:
        raise GridError(
            "delay range exceeds the frequency-grid resolution limit "
            "pi/omega_step; use more frequency points or shorter delays"
        )

    # R fitted on columns (h/(omega - z))^n of order one, h the half-span;
    # values - R has vanished at both edges
    n_edge = max(8, len(vals) // 100)
    half = 0.5 * (spectrum.omega_max - spectrum.omega_min)
    z = complex(spectrum.omega_min + half, -0.05 * half)
    edges = np.r_[:n_edge, len(vals) - n_edge:len(vals)]
    design = np.vander(half / (omegas[edges] - z), 6, increasing=True)[:, 2:]
    c = np.linalg.lstsq(design, vals[edges], rcond=None)[0] * half ** np.arange(2, 6)
    inv = 1.0 / (omegas - z)
    rest = vals - inv * inv * (c[0] + inv * (c[1] + inv * (c[2] + inv * c[3])))

    taus_u = grid.taus / p.time_unit_ns
    tau_step_u = grid.tau_step / p.time_unit_ns
    dw = spectrum.omega_step
    weights = np.full(len(vals), dw)
    weights[0] = weights[-1] = 0.5 * dw

    # sum_j x_j exp(-i*omega_j*tau_k) as a chirp-z transform: with
    # tau_k = k*tau_step, exp(-i*(omega_j - omega_min)*tau_k) = w^(j*k)
    x = rest * weights
    psi = _czt(x, len(taus_u), np.exp(-1j * dw * tau_step_u))
    psi *= np.exp(-1j * spectrum.omega_min * taus_u)
    psi /= 2.0 * np.pi

    # R's transform, the residue at z: -i*exp(-i*z*tau) *
    # sum_n c_n (-i*tau)^(n-1)/(n-1)!
    s = -1j * taus_u
    poly = s * (c[0] + s * (c[1] / 2 + s * (c[2] / 6 + s * c[3] / 24)))
    psi -= 1j * np.exp(z * s) * poly

    return Wavepacket(grid, np.abs(psi) ** 2, psi)


def spectrum_power(spectrum: ComplexSpectrum) -> np.ndarray:
    """Pointwise |value|^2 normalized to unit peak."""
    power = np.abs(np.asarray(spectrum.values)) ** 2
    peak = power.max()
    if peak == 0:
        raise ValidationError("spectrum is identically zero")
    return power / peak


def spectrum_energy(spectrum: ComplexSpectrum) -> float:
    """(1/2pi) * trapezoid integral of |values|^2, in gamma13 units.

    Parseval: equals the time-domain energy of the transform, i.e.
    Wavepacket.energy()/time_unit_ns for a wavepacket from psi_numeric
    whose grid captures the full decay.
    """
    power = np.abs(np.asarray(spectrum.values)) ** 2
    return float(np.trapezoid(power, dx=spectrum.omega_step) / (2.0 * np.pi))


def beat_period(p: SystemParams) -> float:
    """Quantum-beat period 2*pi/omega_e in ns."""
    d = dressed_modes(p)
    return 2.0 * np.pi / d.omega_e * p.time_unit_ns
