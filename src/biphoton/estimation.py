"""Least-squares recovery of dressed-mode parameters from histograms.

Three model shapes are fit to binned coincidence data (or to noiseless
wavepackets, for calibration):

* two_component: the full beating form with independent gamma_plus,
  gamma_minus and beat frequency omega_e
* resonant: the on-resonance limit, equal half-widths, envelope
  exp(-2*gamma_minus*tau) with gamma_minus = (gamma13+gamma12)/2
* single_exponential: a filtered single mode, exp(-2*gamma_minus*tau);
  it has no t0 parameter, so its origin stays at 0 ns (a free t0 would
  be exactly degenerate with the amplitude of a pure exponential)

Counts are weighted by 1/sqrt(max(counts, 1)), the Poisson error with a
unit floor so empty bins cannot blow up the objective.

The solver is numpy only.  Amplitude and background enter every shape
linearly, so at each step they are solved exactly by a weighted
two-column least squares, the background clamped at its bound 0
(variable projection; Golub & Pereyra 1973).  A Levenberg-Marquardt
iteration (Marquardt 1963) then moves the nonlinear parameters alone,
kept within their bounds, on the analytic Jacobian of the shape and of
its bin average.  The standard errors and the singular-curvature check
use the full Jacobian over every parameter at the solution.  The fit is
deterministic for fixed inputs.

The headline derived quantity is linewidth_hz = 2*gamma_minus converted
to an ordinary frequency, the FWHM of the narrow spectral component.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .filtering import _parabolic_peak
from .params import DEFAULT_SI_GAMMA13
from .photostatistics import CoincidenceHistogram
from .wavepacket import Wavepacket

MODEL_NAMES = ("two_component", "resonant", "single_exponential")
_LINEAR = ("amplitude", "background")  # enter every shape linearly
_TINY = 1e-9  # lower bound of the amplitude and the rates

_PARAMS = {
    "two_component": ("amplitude", "gamma_plus", "gamma_minus", "omega_e",
                      "background", "t0"),
    "resonant": ("amplitude", "gamma_minus", "omega_e", "background", "t0"),
    "single_exponential": ("amplitude", "gamma_minus", "background"),
}


@dataclass(frozen=True)
class FitModel:
    """Choice of model shape; its parameters are its row of _PARAMS."""

    which: str = "two_component"

    def __post_init__(self) -> None:
        if self.which not in MODEL_NAMES:
            raise ValidationError(f"unknown model {self.which!r}")

    @property
    def parameter_names(self) -> tuple:
        return _PARAMS[self.which]


@dataclass(frozen=True)
class FitResult:
    """Best-fit values and their diagnostics.

    n_iterations is the solver's count of residual evaluations, each
    with its Jacobian, not of its iterations.
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


def _shape(
    model: FitModel, params: dict, taus_ns: np.ndarray, time_unit_ns: float
) -> tuple[np.ndarray, dict]:
    """Unit-amplitude shape and its derivatives by the nonlinear parameters.

    The derivatives are keyed by parameter name; "t0" is always present.
    Shape and derivatives vanish before t0, which is 0 ns without a "t0"
    in params.  Every shape and its first derivative are zero at u = 0
    except single_exponential's, which has no t0 parameter, so the
    derivative by t0 is continuous wherever it is used.
    """
    t0 = params.get("t0", 0.0)
    u = (np.asarray(taus_ns, dtype=float) - t0) / time_unit_ns
    live = u >= 0
    u = np.where(live, u, 0.0)
    gm = params["gamma_minus"]
    e_m = np.exp(-2.0 * gm * u)
    if model.which == "two_component":
        gp, we = params["gamma_plus"], params["omega_e"]
        e_p = np.exp(-2.0 * gp * u)
        e_x = np.exp(-(gp + gm) * u)
        cos, sin = np.cos(we * u) * e_x, np.sin(we * u) * e_x
        shape = 0.5 * (e_p + e_m) - cos
        grads = {"gamma_plus": u * (cos - e_p), "gamma_minus": u * (cos - e_m),
                 "omega_e": u * sin,
                 "u": (gp + gm) * cos + we * sin - gp * e_p - gm * e_m}
    elif model.which == "resonant":
        we = params["omega_e"]
        shape = e_m * (1.0 - np.cos(we * u))
        sin = e_m * np.sin(we * u)
        grads = {"gamma_minus": -2.0 * u * shape, "omega_e": u * sin,
                 "u": we * sin - 2.0 * gm * shape}
    else:
        shape = e_m
        grads = {"gamma_minus": -2.0 * u * e_m, "u": -2.0 * gm * e_m}
    grads["t0"] = grads.pop("u") / -time_unit_ns
    return (np.where(live, shape, 0.0),
            {k: np.where(live, v, 0.0) for k, v in grads.items()})


def _data_arrays(data) -> tuple[np.ndarray, np.ndarray, float]:
    """(taus_ns, y, half): half a bin for a histogram, whose curve is then
    bin-averaged and whose counts get Poisson weights; 0 for a wavepacket."""
    if isinstance(data, CoincidenceHistogram):
        return data.bin_centers, np.asarray(data.counts, dtype=float), 0.5 * data.bin_width
    if isinstance(data, Wavepacket):
        return data.taus, np.asarray(data.g2, dtype=float), 0.0
    raise ValidationError("data must be a CoincidenceHistogram or Wavepacket")


def _bounds(names, tau_span: float) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = [], []
    for name in names:
        if name in ("amplitude", "gamma_plus", "gamma_minus", "omega_e"):
            lo.append(_TINY); hi.append(np.inf)
        elif name == "background":
            lo.append(0.0); hi.append(np.inf)
        else:  # t0
            lo.append(-tau_span); hi.append(tau_span)
    return np.asarray(lo), np.asarray(hi)


def fit_wavepacket(
    data,
    model: FitModel | None = None,
    fit_window: tuple[float, float] | None = None,
    si_gamma13: float = DEFAULT_SI_GAMMA13,
) -> FitResult:
    """Fit a model shape to binned coincidences or a noiseless wavepacket.

    The nonlinear parameters start from initial_guess on the windowed
    data; amplitude and background need no start, as they are solved
    exactly at every step.  fit_window restricts the fit to delays in
    [lo, hi] ns.  Returns best-so-far values with converged=False when
    the solver stalls instead of raising.
    """
    model, taus, y, sigma, half, y_scale = _prepare(data, model, fit_window)
    time_unit_ns = 1.0e9 / si_gamma13
    guess = initial_guess_arrays(taus, y, time_unit_ns)
    nonlin = [n for n in model.parameter_names if n not in _LINEAR]
    lo, hi = _bounds(nonlin, float(taus[-1] - taus[0]))
    theta0 = np.clip(np.asarray([guess[n] for n in nonlin], dtype=float), lo + 1e-12, hi)

    w = 1.0 / sigma
    yw = y * w

    def project(theta: np.ndarray) -> tuple:
        """Residual and nonlinear Jacobian with amplitude and background
        solved out, and the weighted shape columns they came from."""
        cols = _columns(model, dict(zip(nonlin, theta)), taus, half, time_unit_ns) * w
        a, b = _linear_fit(cols[0], w, yw)
        resid = a * cols[0] + b * w - yw
        # Kaufman's Jacobian: the model's, less its projection on the
        # linear columns that are off their bounds
        basis = [c for c, free in ((cols[0], a > _TINY), (w, b > 0.0)) if free]
        jac = a * cols[1:].T
        if basis:
            q = np.linalg.qr(np.stack(basis, axis=1))[0]
            jac = jac - q @ (q.T @ jac)
        return resid, jac, (a, b, cols)

    theta, (resid, _, (a, b, cols)), nfev, converged = _levenberg_marquardt(
        project, theta0, lo, hi)
    params = dict(zip(nonlin, theta), amplitude=a, background=b)
    columns = dict(zip(nonlin, a * cols[1:]), amplitude=cols[0], background=w)
    jac = np.stack([columns[n] for n in model.parameter_names], axis=1)
    return _summarise(model, params, jac, resid, y_scale, nfev, converged, si_gamma13)


def _columns(
    model: FitModel, theta: dict, taus: np.ndarray, half: float, time_unit_ns: float
) -> np.ndarray:
    """The shape and its derivatives by the parameters in theta, stacked.

    Counts integrate the curve across each bin, so with half > 0 each row
    is the bin average over [tau - half, tau + half] by Simpson's rule
    rather than the bin-center value; the derivative of that average is
    the average of the derivative.
    """
    points = np.concatenate([taus - half, taus, taus + half]) if half else taus
    shape, grads = _shape(model, theta, points, time_unit_ns)
    cols = np.stack([shape] + [grads[n] for n in theta])
    if half:
        cols = cols.reshape(len(cols), 3, -1)
        cols = (cols[:, 0] + 4.0 * cols[:, 1] + cols[:, 2]) / 6.0
    return cols


def _prepare(data, model: FitModel | None, fit_window) -> tuple:
    """(model, taus, y, sigma, half, y_scale): windowed data at unit peak."""
    if model is None:
        model = FitModel()
    taus, y, half = _data_arrays(data)
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
        taus, y = taus[m], y[m]
    names = model.parameter_names
    if len(y) < 10 * len(names):
        raise ValidationError(
            f"need at least {10 * len(names)} points to fit {len(names)} parameters"
        )

    # rescale to unit peak so the solver's stopping rules see an O(1)
    # objective regardless of the data's absolute magnitude; unit weights
    # apply to the rescaled curve, Poisson weights keep their pattern
    y_scale = float(np.max(np.abs(y)))
    if y_scale <= 0.0 or not np.isfinite(y_scale):
        raise ValidationError("data has no signal to fit")
    sigma = np.sqrt(np.maximum(y, 1.0)) / y_scale if half else np.ones_like(y)
    return model, taus, y / y_scale, sigma, half, y_scale


def _summarise(
    model: FitModel, params: dict, jac: np.ndarray, resid: np.ndarray,
    y_scale: float, nfev: int, converged: bool, si_gamma13: float,
) -> FitResult:
    """FitResult from the unit-peak solution, its weighted residual and
    its Jacobian over model.parameter_names."""
    names = model.parameter_names
    dof = max(len(resid) - len(names), 1)
    chi2 = float(resid @ resid)
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
                      stacklevel=3)
    cov = np.linalg.pinv(jtj) * (chi2 / dof)
    stderr = dict(zip(names, np.sqrt(np.clip(np.diag(cov), 0.0, None))))

    estimates = {k: float(params[k]) for k in names}
    for key in _LINEAR:
        estimates[key] *= y_scale
        stderr[key] = stderr[key] * y_scale
    linewidth_hz = 2.0 * estimates["gamma_minus"] * si_gamma13 / (2.0 * np.pi)
    return FitResult(
        model=model.which,
        estimates=estimates,
        stderr={k: float(stderr[k]) for k in estimates},
        reduced_chi2=chi2 / dof,
        converged=converged,
        n_iterations=nfev,
        singular=singular,
        linewidth_hz=float(linewidth_hz),
    )


def _linear_fit(s: np.ndarray, w: np.ndarray, yw: np.ndarray) -> tuple[float, float]:
    """Amplitude and background of the least squares a*s + b*w ~ yw.

    s is the weighted shape and w the weights, so b*w is a weighted
    constant.  A background below its bound 0 is clamped there and the
    amplitude refit alone; an amplitude below its bound is clamped too,
    with the background refit (and clamped) for it.
    """
    ww = w @ w
    ms, my = (s @ w) / ww, (yw @ w) / ww
    ds = s - ms * w
    # a shape that underflows to zero leaves the amplitude NaN, and the
    # NaN cost makes the solver reject that trial point
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (ds @ yw) / (ds @ ds)
    b = my - a * ms
    if b < 0.0:
        a, b = (s @ yw) / (s @ s), 0.0
    if a < _TINY:
        a = _TINY
        b = max(my - a * ms, 0.0)
    return float(a), float(b)


def _levenberg_marquardt(
    project, x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple:
    """Minimise |r(x)|^2 for lo <= x <= hi (Marquardt 1963).

    project(x) returns (r, J, extra).  The damping is scaled by the
    diagonal of J^T J; each trial point is clipped into the bounds, and a
    parameter that sits on a bound with the gradient pushing outward
    takes no step.  Stops, converged, once an accepted step lowers the
    cost by at most ftol of itself or a step is shorter than
    xtol * (xtol + |x|); stops unconverged after max_nfev evaluations.
    Returns (x, project(x), nfev, converged).
    """
    ftol, xtol, max_nfev = 1e-12, 1e-12, 20000
    state = project(x)
    cost = state[0] @ state[0]
    nfev, lam = 1, 1e-3
    while nfev < max_nfev:
        r, jac = state[0], state[1]
        grad = jac.T @ r
        hess = jac.T @ jac
        move = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        scale = np.diag(hess)[move]
        scale = np.where(scale > 0, scale, 1.0)
        step = np.zeros_like(x)
        step[move] = np.linalg.solve(hess[np.ix_(move, move)] + lam * np.diag(scale),
                                     -grad[move])
        trial = np.clip(x + step, lo, hi)
        if np.linalg.norm(trial - x) <= xtol * (xtol + np.linalg.norm(x)):
            return x, state, nfev, True
        new = project(trial)
        nfev += 1
        new_cost = new[0] @ new[0]
        if new_cost < cost:
            done = cost - new_cost <= ftol * cost
            x, state, cost = trial, new, new_cost
            lam = max(lam / 10.0, 1e-12)
            if done:
                return x, state, nfev, True
        else:
            lam *= 10.0
    return x, state, nfev, False


def initial_guess(data, si_gamma13: float = DEFAULT_SI_GAMMA13) -> dict:
    """Data-driven starting point, plus a suggested model.

    amplitude from the peak, background from the far tail, omega_e from
    the dominant nonzero FFT bin (parabolically refined), decay from the
    log slope of the upper envelope.  When no FFT peak stands out above
    the smooth envelope the oscillation is declared absent: omega_e is
    None and suggested_model is single_exponential.
    """
    taus, y, _ = _data_arrays(data)
    guess = initial_guess_arrays(taus, y, 1.0e9 / si_gamma13)
    if guess["suggested_model"] == "single_exponential":
        guess["omega_e"] = None
    return guess


def initial_guess_arrays(taus: np.ndarray, y: np.ndarray, time_unit_ns: float) -> dict:
    """initial_guess on bare arrays; omega_e is 1.0 when no beat stands out."""
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
    return {
        "amplitude": amplitude,
        "background": background,
        "gamma_minus": gamma_minus,
        "gamma_plus": max(1.0, 1.5 * gamma_minus),
        "omega_e": omega_e if significant else 1.0,
        "t0": 0.0,
        "suggested_model": "two_component" if significant else "single_exponential",
    }


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
    floor = _median(power[k_min:])
    significant = bool(power[k] > 3.0 * local and power[k] > 10.0 * floor)
    dt = float(taus[1] - taus[0])
    freq_per_ns = _parabolic_peak(power, k) / (n * dt)
    omega_e = 2.0 * np.pi * freq_per_ns * time_unit_ns
    return float(omega_e), significant


def _median(x: np.ndarray) -> float:
    """np.median of a 1-d array, bit for bit, from one partition; np.median
    itself imports numpy.ma on its first call."""
    mid = len(x) // 2
    part = np.partition(x, (mid - 1, mid))
    return part[mid] if len(x) % 2 else (part[mid - 1] + part[mid]) / 2


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
