"""Least-squares recovery of dressed-mode parameters from histograms.

Three model shapes are fit to binned coincidence data (or to noiseless
wavepackets, for calibration):

* two_component: the full beating form with independent gamma_plus,
  gamma_minus and beat frequency omega_e
* resonant: the on-resonance limit, equal half-widths, envelope
  exp(-2*gamma_minus*tau) with gamma_minus = (gamma13+gamma12)/2
* single_exponential: a filtered single mode, exp(-2*gamma_minus*tau);
  here t0 is pinned (a free t0 would be exactly degenerate with the
  amplitude of a pure exponential)

Counts are weighted by 1/sqrt(max(counts, 1)), the Poisson error with a
unit floor so empty bins cannot blow up the objective.  The optimizer
is scipy's trust-region reflective least squares (imported on the first
fit), which is deterministic for fixed inputs; convergence tolerances
are pinned to ftol 1e-10 / xtol 1e-12.

The headline derived quantity is linewidth_hz = 2*gamma_minus converted
to an ordinary frequency, the FWHM of the narrow spectral component.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .params import DEFAULT_SI_GAMMA13
from .photostatistics import CoincidenceHistogram
from .wavepacket import Wavepacket

MODEL_NAMES = ("two_component", "resonant", "single_exponential")

_PARAMS = {
    "two_component": ("amplitude", "gamma_plus", "gamma_minus", "omega_e",
                      "background", "t0"),
    "resonant": ("amplitude", "gamma_minus", "omega_e", "background", "t0"),
    "single_exponential": ("amplitude", "gamma_minus", "background"),
}


@dataclass(frozen=True)
class FitModel:
    """Choice of model shape.

    fixed_t0 pins the time origin (ns); it is implied 0.0 for
    single_exponential unless set.
    """

    which: str = "two_component"
    fixed_t0: float | None = None

    def __post_init__(self) -> None:
        if self.which not in MODEL_NAMES:
            raise ValidationError(f"unknown model {self.which!r}")

    @property
    def parameter_names(self) -> tuple:
        names = _PARAMS[self.which]
        if self.fixed_t0 is not None:
            names = tuple(n for n in names if n != "t0")
        return names


@dataclass(frozen=True)
class FitResult:
    """Best-fit values and their diagnostics.

    n_iterations is the optimizer's count of residual evaluations
    (scipy's nfev), not of its iterations.
    """

    model: str
    estimates: dict
    stderr: dict
    reduced_chi2: float
    converged: bool
    n_iterations: int
    singular: bool
    linewidth_hz: float

    def report(self) -> str:
        lines = [f"model: {self.model}"]
        for name in self.estimates:
            lines.append(
                f"{name}: {self.estimates[name]:.6g} +- {self.stderr[name]:.3g}"
            )
        lines.append(f"linewidth_hz: {self.linewidth_hz:.6g}")
        lines.append(f"reduced_chi2: {self.reduced_chi2:.6g}")
        lines.append(f"converged: {self.converged}")
        return "\n".join(lines)


def model_curve(
    model: FitModel, params: dict, taus_ns: np.ndarray, time_unit_ns: float
) -> np.ndarray:
    """Evaluate the chosen shape at the given delays (ns)."""
    t0 = params.get("t0", model.fixed_t0 if model.fixed_t0 is not None else 0.0)
    u = (np.asarray(taus_ns, dtype=float) - t0) / time_unit_ns
    live = u >= 0
    uc = np.clip(u, 0.0, None)
    a = params["amplitude"]
    bg = params["background"]
    if model.which == "two_component":
        gp, gm = params["gamma_plus"], params["gamma_minus"]
        we = params["omega_e"]
        shape = 0.5 * (
            np.exp(-2.0 * gp * uc)
            + np.exp(-2.0 * gm * uc)
            - 2.0 * np.cos(we * uc) * np.exp(-(gp + gm) * uc)
        )
    elif model.which == "resonant":
        gm = params["gamma_minus"]
        we = params["omega_e"]
        shape = np.exp(-2.0 * gm * uc) * (1.0 - np.cos(we * uc))
    else:
        gm = params["gamma_minus"]
        shape = np.exp(-2.0 * gm * uc)
    return np.where(live, a * shape, 0.0) + bg


def _data_arrays(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(taus_ns, y, sigma) from a histogram (Poisson) or wavepacket (unit)."""
    if isinstance(data, CoincidenceHistogram):
        y = np.asarray(data.counts, dtype=float)
        return data.bin_centers, y, np.sqrt(np.maximum(y, 1.0))
    if isinstance(data, Wavepacket):
        y = np.asarray(data.g2, dtype=float)
        return data.taus, y, np.ones_like(y)
    raise ValidationError("data must be a CoincidenceHistogram or Wavepacket")


def _bounds(model: FitModel, tau_span: float) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = [], []
    tiny = 1e-9
    for name in model.parameter_names:
        if name in ("amplitude", "gamma_plus", "gamma_minus", "omega_e"):
            lo.append(tiny); hi.append(np.inf)
        elif name == "background":
            lo.append(0.0); hi.append(np.inf)
        else:  # t0
            lo.append(-tau_span); hi.append(tau_span)
    return np.asarray(lo), np.asarray(hi)


def fit_wavepacket(
    data,
    model: FitModel | None = None,
    init: dict | None = None,
    fit_window: tuple[float, float] | None = None,
    si_gamma13: float = DEFAULT_SI_GAMMA13,
) -> FitResult:
    """Fit a model shape to binned coincidences or a noiseless wavepacket.

    init supplies starting values by parameter name (missing ones come
    from initial_guess); fit_window restricts the fit to delays in
    [lo, hi] ns.  Returns best-so-far values with converged=False when
    the optimizer stalls instead of raising.
    """
    if model is None:
        model = FitModel()
    if model.which == "single_exponential" and model.fixed_t0 is None:
        model = FitModel(model.which, fixed_t0=0.0)
    taus, y, sigma = _data_arrays(data)
    if fit_window is None and model.which == "single_exponential":
        # a decay-only model cannot represent the rise to the arrival-time
        # peak or its flat top, so start once the curve has decayed off it
        k = int(np.argmax(y))
        below = np.nonzero(y[k:] < 0.7 * y[k])[0]
        start = k + int(below[0]) if len(below) else k
        if len(y) - start < 10 * len(model.parameter_names):
            start = k
        fit_window = (float(taus[start]), float(taus[-1]))
    if fit_window is not None:
        lo_ns, hi_ns = fit_window
        m = (taus >= lo_ns) & (taus <= hi_ns)
        taus, y, sigma = taus[m], y[m], sigma[m]
    names = model.parameter_names
    if len(y) < 10 * len(names):
        raise ValidationError(
            f"need at least {10 * len(names)} points to fit {len(names)} parameters"
        )

    # rescale to unit peak so the optimizer's stopping rules see an O(1)
    # objective regardless of the data's absolute magnitude; unit weights
    # apply to the rescaled curve, Poisson weights keep their pattern
    y_scale = float(np.max(np.abs(y)))
    if y_scale <= 0.0 or not np.isfinite(y_scale):
        raise ValidationError("data has no signal to fit")
    y = y / y_scale
    sigma = np.ones_like(y) if isinstance(data, Wavepacket) else sigma / y_scale

    time_unit_ns = 1.0e9 / si_gamma13
    guess = initial_guess_arrays(taus, y, time_unit_ns)
    if init:
        scaled = dict(init)
        for key in ("amplitude", "background"):
            if key in scaled:
                scaled[key] = scaled[key] / y_scale
        guess.update(scaled)
    if model.which == "single_exponential":
        guess.setdefault("t0", 0.0)
    x0 = np.asarray([guess[n] for n in names], dtype=float)
    lo, hi = _bounds(model, float(taus[-1] - taus[0]))
    x0 = np.clip(x0, lo + 1e-12, hi)

    # counts integrate the curve across each bin, so compare the model's
    # bin average (Simpson) rather than its bin-center value
    half = 0.5 * data.bin_width if isinstance(data, CoincidenceHistogram) else 0.0

    def predict(params: dict) -> np.ndarray:
        mid = model_curve(model, params, taus, time_unit_ns)
        if not half:
            return mid
        left = model_curve(model, params, taus - half, time_unit_ns)
        right = model_curve(model, params, taus + half, time_unit_ns)
        return (left + 4.0 * mid + right) / 6.0

    def residuals(x: np.ndarray) -> np.ndarray:
        return (predict(dict(zip(names, x))) - y) / sigma

    from scipy.optimize import least_squares  # loaded on the first fit

    res = least_squares(
        residuals, x0, bounds=(lo, hi), method="trf",
        ftol=1e-10, xtol=1e-12, gtol=1e-12, max_nfev=20000,
    )
    converged = res.status > 0
    params = dict(zip(names, res.x))

    dof = max(len(y) - len(names), 1)
    chi2 = float(np.sum(res.fun ** 2))
    jac = res.jac
    jtj = jac.T @ jac
    singular = False
    try:
        cond = np.linalg.cond(jtj)
        if not np.isfinite(cond) or cond > 1e12:
            singular = True
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        warnings.warn("near-singular curvature: some parameters are "
                      "unidentifiable; standard errors use a pseudo-inverse",
                      stacklevel=2)
    cov = np.linalg.pinv(jtj) * (chi2 / dof)
    stderr = dict(zip(names, np.sqrt(np.clip(np.diag(cov), 0.0, None))))

    estimates = {k: float(v) for k, v in params.items()}
    for key in ("amplitude", "background"):
        if key in estimates:
            estimates[key] *= y_scale
            if key in stderr:
                stderr[key] = stderr[key] * y_scale
    linewidth_hz = 2.0 * estimates["gamma_minus"] * si_gamma13 / (2.0 * np.pi)
    return FitResult(
        model=model.which,
        estimates=estimates,
        stderr={k: float(stderr.get(k, 0.0)) for k in estimates},
        reduced_chi2=chi2 / dof,
        converged=converged,
        n_iterations=int(res.nfev),
        singular=singular,
        linewidth_hz=float(linewidth_hz),
    )


def initial_guess(data, si_gamma13: float = DEFAULT_SI_GAMMA13) -> dict:
    """Data-driven starting point, plus a suggested model.

    amplitude from the peak, background from the far tail, omega_e from
    the dominant nonzero FFT bin (parabolically refined), decay from the
    log slope of the upper envelope.  When no FFT peak stands out above
    the smooth envelope the oscillation is declared absent: omega_e is
    None and suggested_model is single_exponential.
    """
    taus, y, _ = _data_arrays(data)
    return initial_guess_arrays(taus, y, 1.0e9 / si_gamma13, suggest=True)


def initial_guess_arrays(
    taus: np.ndarray, y: np.ndarray, time_unit_ns: float, suggest: bool = False
) -> dict:
    y = np.asarray(y, dtype=float)
    if len(y) == 0 or not np.any(y > 0):
        raise DegenerateDataError("histogram carries no counts")
    n_tail = max(5, len(y) // 10)
    background = float(np.mean(y[-n_tail:]))
    amplitude = float(y.max() - background)
    if amplitude <= 0:
        raise DegenerateDataError("no signal above the background level")

    omega_e, significant = _fft_beat(taus, y - background, time_unit_ns)
    gamma_minus = _envelope_decay(taus, y - background, time_unit_ns)
    out = {
        "amplitude": amplitude,
        "background": background,
        "gamma_minus": gamma_minus,
        "gamma_plus": max(1.0, 1.5 * gamma_minus),
        "omega_e": omega_e if significant else 1.0,
        "t0": 0.0,
    }
    if suggest:
        out["omega_e"] = omega_e if significant else None
        out["suggested_model"] = "two_component" if significant else "single_exponential"
    return out


def _fft_beat(
    taus: np.ndarray, sig: np.ndarray, time_unit_ns: float
) -> tuple[float, bool]:
    """Dominant oscillation frequency (gamma13 units) and its significance.

    A real beat shows as a narrow line well above the smooth envelope
    spectrum; we require local contrast over +-3 bins and global
    prominence over the median, both at k >= 4 so the envelope's own
    low-frequency content cannot masquerade as a beat.
    """
    n = len(sig)
    if n < 16:
        return 1.0, False
    power = np.abs(np.fft.rfft(sig - sig.mean())) ** 2
    if len(power) < 10:
        return 1.0, False
    k_min = 4
    k = k_min + int(np.argmax(power[k_min:]))
    if k + 3 >= len(power) or k - 3 < 1:
        return 1.0, False
    local = 0.5 * (power[k - 3] + power[k + 3])
    floor = np.median(power[k_min:])
    significant = bool(power[k] > 3.0 * local and power[k] > 10.0 * floor)
    # parabolic refinement
    y0, y1, y2 = power[k - 1], power[k], power[k + 1]
    denom = y0 - 2.0 * y1 + y2
    kf = k + (0.5 * (y0 - y2) / denom if denom != 0 else 0.0)
    dt = float(taus[1] - taus[0])
    freq_per_ns = kf / (n * dt)
    omega_e = 2.0 * np.pi * freq_per_ns * time_unit_ns
    return float(omega_e), significant


def _envelope_decay(
    taus: np.ndarray, sig: np.ndarray, time_unit_ns: float
) -> float:
    """gamma_minus estimate from the decaying upper envelope (gamma13 units)."""
    peak = int(np.argmax(sig))
    tail_t = taus[peak:]
    tail_y = sig[peak:]
    keep = tail_y > max(sig.max() * 0.02, 0.0)
    if keep.sum() < 4:
        return 0.5
    # block maxima stand in for the envelope between beat extrema
    nblk = max(8, keep.sum() // 50)
    idx = np.array_split(np.nonzero(keep)[0], nblk)
    bt, by = [], []
    for blk in idx:
        if len(blk) == 0:
            continue
        j = blk[int(np.argmax(tail_y[blk]))]
        bt.append(tail_t[j])
        by.append(tail_y[j])
    if len(bt) < 3:
        return 0.5
    slope = np.polyfit(np.asarray(bt) / time_unit_ns, np.log(np.asarray(by)), 1)[0]
    return float(max(-0.5 * slope, 1e-3))
