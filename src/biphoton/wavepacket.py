"""Time-domain biphoton wavepacket synthesis and spectra.

The joint amplitude is psi(tau) = (1/2pi) * integral of chi(omega) *
exp(-i*omega*tau) d(omega); the measured quantity is the Glauber
correlation G2(tau) = |psi(tau)|^2, supported on tau >= 0 because chi
is analytic in the lower half plane.

Two routes produce G2:

* psi_poles: closed form from the residues of a rational spectrum,
  behind g2_analytic and filtering.filtered_wavepacket; for two poles
      G2 ~ exp(-2*gamma_plus*tau) + exp(-2*gamma_minus*tau)
           - 2*cos(omega_e*tau)*exp(-(gamma_plus+gamma_minus)*tau)
  (zero at tau = 0: the two dressed paths interfere destructively).
* psi_numeric: direct quadrature of the Fourier integral for arbitrary
  sampled spectra, implemented as a chirp-z transform with trapezoid
  weights plus an analytic correction for the truncated 1/omega^2
  tails.  The chirp-z transform is Bluestein's algorithm on numpy's FFT
  (Rabiner, Schafer & Rader 1969), so no signal-processing library is
  loaded; scipy.special is imported on the first tail correction.

The two agree to better than 1e-3 on the default grids; the acceptance
suite pins that equivalence.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ValidationError
from .params import AmplitudeModel, SystemParams, dressed_modes
from .susceptibility import ComplexSpectrum, approx_poles


@dataclass(frozen=True)
class TimeGridConfig:
    """Uniform detection-delay grid in ns.

    tau_min may be negative to inspect causality leakage; the physical
    wavepacket lives on tau >= 0.
    """

    tau_max: float = 400.0
    n_points: int = 2000
    tau_min: float = 0.0

    def __post_init__(self) -> None:
        if self.n_points < 16:
            raise ValidationError("time grid needs at least 16 points")
        if not (self.tau_max > self.tau_min):
            raise ValidationError("tau_max must exceed tau_min")
        if not (self.tau_max > 0):
            raise ValidationError("tau_max must be positive")

    @property
    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.n_points)

    @property
    def tau_step(self) -> float:
        return (self.tau_max - self.tau_min) / (self.n_points - 1)


@dataclass(frozen=True)
class Wavepacket:
    """G2(tau) on a uniform ns grid, optionally with the complex amplitude."""

    tau_min: float
    tau_step: float
    g2: np.ndarray
    psi: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (self.tau_step > 0):
            raise ValidationError("tau_step must be positive")
        if np.ndim(self.g2) != 1 or len(self.g2) < 2:
            raise ValidationError("g2 must be a 1-d array with >= 2 samples")
        if np.any(np.asarray(self.g2) < 0):
            raise ValidationError("g2 must be non-negative")
        if self.psi is not None and len(self.psi) != len(self.g2):
            raise ValidationError("psi and g2 must share the grid")

    @property
    def taus(self) -> np.ndarray:
        return self.tau_min + self.tau_step * np.arange(len(self.g2))

    @property
    def tau_max(self) -> float:
        return self.tau_min + self.tau_step * (len(self.g2) - 1)

    def energy(self) -> float:
        """Trapezoid integral of G2 over the grid (units: ns * amplitude^2)."""
        return float(np.trapezoid(self.g2, dx=self.tau_step))

    def with_g2(self, g2: np.ndarray) -> "Wavepacket":
        return Wavepacket(self.tau_min, self.tau_step, np.asarray(g2), None)


def psi_poles(
    scale: complex, poles: Sequence[complex], grid: TimeGridConfig, p: SystemParams
) -> Wavepacket:
    """Exact transform of the rational spectrum scale / prod_k (omega - r_k).

    psi(tau) = -i*scale * sum_k exp(-i*r_k*tau) / prod_{j!=k} (r_k - r_j)
    for tau >= 0 and zero for tau < 0, the residue sum over the poles r_k
    (gamma13 units), which must all lie in the lower half plane.  A pole
    listed m times contributes its order-m residue, the (m-1)-th Taylor
    coefficient about it of exp(-i*omega*tau) / prod_j (omega - q_j) over
    the other poles q_j.  The SystemParams argument only supplies the
    ns <-> gamma13 time conversion.
    """
    poles = [complex(r) for r in poles]
    t = grid.taus / p.time_unit_ns  # ns -> gamma13 time units
    # only tau >= 0: before it every exp(-i*r*t) grows and can overflow
    late = t >= 0
    t_late = t[late]
    psi = np.zeros(len(t), dtype=complex)
    for r, order in Counter(poles).items():
        d = np.array([q - r for q in poles if q != r], dtype=complex)
        # a_n: Taylor coefficients about r of exp(g), g(omega) =
        # -i*omega*t - sum_j log(omega - q_j); with c_k those of g',
        # n*a_n = sum_k c_k*a_{n-1-k}
        c = [np.sum(d ** -(k + 1)) for k in range(order - 1)]
        if order > 1:
            c[0] = c[0] - 1j * t_late
        a = [np.exp(-1j * r * t_late) / np.prod(-d)]
        for n in range(1, order):
            a.append(sum(c[k] * a[n - 1 - k] for k in range(n)) / n)
        psi[late] += a[-1]
    psi *= -1j * scale
    return Wavepacket(grid.tau_min, grid.tau_step, np.abs(psi) ** 2, psi)


def g2_analytic(
    p: SystemParams, a: AmplitudeModel | None = None, grid: TimeGridConfig | None = None
) -> Wavepacket:
    """Closed-form wavepacket of the two-pole spectrum.

    G2(tau) = |C|^2 * [exp(-2*g+*tau) + exp(-2*g-*tau)
              - 2*cos(omega_e*tau)*exp(-(g+ + g-)*tau)] for tau >= 0,
    zero for tau < 0, with C = scale * i / (4*(delta_p + i*gamma14)
    * (pole_n - pole_b)): psi_poles over approx_poles, so psi_numeric
    reproduces this curve in absolute units, not just in shape.
    """
    if a is None:
        a = AmplitudeModel()
    if grid is None:
        grid = TimeGridConfig()
    scale = -a.scale / (4.0 * (p.delta_p + 1j * p.gamma14))
    return psi_poles(scale, approx_poles(p), grid, p)


def g2_resonant(
    p: SystemParams, a: AmplitudeModel | None = None, grid: TimeGridConfig | None = None
) -> Wavepacket:
    """On-resonance (delta_c = 0) closed form.

    G2(tau) = 2*|C|^2 * exp(-(gamma13+gamma12)*tau) * (1 - cos(omega_c*tau))
    for tau >= 0, with the same residue amplitude C as g2_analytic
    evaluated at delta_c = 0 (there pole_n - pole_b = omega_c).  The
    cross term of the general formula decays at the width sum
    gamma_plus + gamma_minus = gamma13 + gamma12, so the on-resonance
    envelope carries that single exponent, not twice it; this form is
    the exact delta_c -> 0 limit of g2_analytic.
    """
    if a is None:
        a = AmplitudeModel()
    if grid is None:
        grid = TimeGridConfig()
    if p.omega_c == 0:
        raise ValidationError("resonant form needs omega_c > 0")
    t = grid.taus / p.time_unit_ns
    amp2 = abs(
        a.scale / (4.0 * (p.delta_p + 1j * p.gamma14) * p.omega_c)
    ) ** 2
    env = np.exp(-(p.gamma13 + p.gamma12) * np.clip(t, 0.0, None))
    g2 = 2.0 * amp2 * env * (1.0 - np.cos(p.omega_c * t))
    g2[t < 0] = 0.0
    np.maximum(g2, 0.0, out=g2)
    return Wavepacket(grid.tau_min, grid.tau_step, g2, None)


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


@functools.lru_cache(maxsize=4)
def _chirp(n: int, m: int, w: complex, a: complex):
    """Input scaling a^-k * w^(k^2/2), the chirp's FFT and the output chirp.

    Depends only on the grids, so the filtered and the unfiltered
    spectrum of one run share it.  The arrays are read-only because every
    caller gets the same objects.
    """
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    wk2 = w ** (k ** 2 / 2.0)
    awk2 = a ** -k[:n] * wk2[:n]
    fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), _fast_len(n + m - 1))
    wk2 = wk2[:m].copy()
    for arr in (awk2, fwk2, wk2):
        arr.flags.writeable = False
    return awk2, fwk2, wk2


def _czt(x: np.ndarray, m: int, w: complex, a: complex) -> np.ndarray:
    """sum_j x_j * z_k^-j at z_k = a * w^-k, k < m, by Bluestein's algorithm.

    Same steps, operand order and FFT length as scipy's czt, so the result
    matches it bit for bit.
    """
    n = len(x)
    awk2, fwk2, wk2 = _chirp(n, m, w, a)
    # x times a named array: numpy would compute an inline temporary
    # product in place, which rounds differently
    y = np.fft.ifft(fwk2 * np.fft.fft(x * awk2, len(fwk2)))
    return y[n - 1:n + m - 1] * wk2


def _tail_t2(w_edge: float, t: np.ndarray) -> np.ndarray:
    """integral_W^inf exp(-i*w*t)/w^2 dw for W > 0, any real t."""
    from scipy.special import sici  # loaded on first use

    at = np.abs(t)
    si, ci = sici(w_edge * at)
    with np.errstate(invalid="ignore"):
        pos = np.exp(-1j * w_edge * at) / w_edge + 1j * at * ci - at * (0.5 * np.pi - si)
    out = np.where(t >= 0, pos, np.conj(pos))
    return np.where(at == 0, 1.0 / w_edge + 0j, out)


def _tail_t3(w_edge: float, t: np.ndarray) -> np.ndarray:
    """integral_W^inf exp(-i*w*t)/w^3 dw, by parts from _tail_t2."""
    return np.exp(-1j * w_edge * t) / (2.0 * w_edge ** 2) - 0.5j * t * _tail_t2(w_edge, t)


def _tail_coeffs(omegas: np.ndarray, values: np.ndarray) -> tuple[complex, complex]:
    """Fit values ~ c2/omega^2 + c3/omega^3 on an edge window."""
    design = np.stack([omegas ** -2.0, omegas ** -3.0], axis=1)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return complex(coef[0]), complex(coef[1])


def psi_numeric(
    spectrum: ComplexSpectrum,
    grid: TimeGridConfig | None = None,
    p: SystemParams | None = None,
) -> Wavepacket:
    """Fourier-transform a sampled spectrum to the time domain.

    psi(tau) = (1/2pi) * sum of values * exp(-i*omega*tau) with trapezoid
    weights, evaluated on the uniform tau grid by a chirp-z transform.
    The 1/omega^2 + 1/omega^3 continuation of both truncated tails is
    integrated in closed form and added back, which removes the dominant
    truncation error of decaying spectra.

    The SystemParams argument only supplies the ns <-> gamma13 time
    conversion (default parameters are used when omitted).

    Preconditions checked: the spectral power must have decayed at both
    grid edges (coverage), and the requested delays must stay inside
    half the alias period pi/omega_step, beyond which the trapezoid sum
    undersamples the exp(-i*omega*tau) oscillation.
    """
    if grid is None:
        grid = TimeGridConfig()
    if p is None:
        p = SystemParams()

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

    tau_reach_u = max(abs(grid.tau_max), abs(grid.tau_min)) / p.time_unit_ns
    if tau_reach_u > np.pi / spectrum.omega_step:
        raise GridError(
            "delay range exceeds the frequency-grid resolution limit "
            "pi/omega_step; use more frequency points or shorter delays"
        )

    taus_u = grid.taus / p.time_unit_ns
    tau_step_u = grid.tau_step / p.time_unit_ns
    dw = spectrum.omega_step
    weights = np.full(len(vals), dw)
    weights[0] = weights[-1] = 0.5 * dw

    # sum_j x_j exp(-i*omega_j*tau_k) as a chirp-z transform on the
    # uniform tau grid: z_k = a*w^-k with the phasors below
    x = vals * weights
    wphase = np.exp(-1j * dw * tau_step_u)
    aphase = np.exp(1j * dw * taus_u[0])
    psi = _czt(x, len(taus_u), wphase, aphase)
    psi *= np.exp(-1j * spectrum.omega_min * taus_u)
    psi /= 2.0 * np.pi

    n_edge = max(8, len(vals) // 100)
    c2r, c3r = _tail_coeffs(omegas[-n_edge:], vals[-n_edge:])
    c2l, c3l = _tail_coeffs(omegas[:n_edge], vals[:n_edge])
    w_r = spectrum.omega_max
    w_l = -spectrum.omega_min
    if w_r > 0 and w_l > 0:
        right = c2r * _tail_t2(w_r, taus_u) + c3r * _tail_t3(w_r, taus_u)
        # left tail by omega -> -omega: the 1/omega^3 term flips sign
        left = c2l * np.conj(_tail_t2(w_l, taus_u)) - c3l * np.conj(
            _tail_t3(w_l, taus_u)
        )
        psi = psi + (right + left) / (2.0 * np.pi)

    return Wavepacket(grid.tau_min, grid.tau_step, np.abs(psi) ** 2, psi)


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
