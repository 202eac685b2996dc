"""Heralded single-photon waveform shaping.

After a Stokes detection heralds its partner, the partner's intensity
profile g2(tau) can be carved by an electro-optic modulator driven with
a programmable mask.  The mask acts on the detected intensity by
default (the measured quantity is the coincidence profile); an
amplitude convention squares the mask instead.  Edges are ideal unless
a rise time is given, in which case a causal single-pole response
smooths the mask, computed as the direct recursion
y[i] = alpha*mask[i] + (1 - alpha)*y[i-1].

The front of an off-resonance wavepacket oscillates at the beat
frequency omega_e while its tail decays smoothly at the narrow rate, so
square pulses placed behind the oscillatory region carve clean segments;
alternatively a far-detuned configuration turns the whole wavepacket
into a pulse train at the beat period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .filtering import estimate_beat_period_ns, modulation_depth_profile
from .wavepacket import Wavepacket

MASK_KINDS = ("square_train", "custom_samples")


@dataclass(frozen=True)
class ModulationMask:
    """Intensity mask in [0, 1] on the wavepacket's own time axis.

    square_train: n_pulses rectangles of pulse_width ns, consecutive
    pulses separated edge-to-edge by pulse_separation ns, the first
    rising at start_offset ns.  custom_samples: explicit per-grid-point
    values (must match the target wavepacket's grid length).
    """

    kind: str = "square_train"
    pulse_width: float = 50.0
    pulse_separation: float = 50.0
    n_pulses: int = 2
    start_offset: float = 0.0
    samples: np.ndarray | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("kind", "samples") and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite")
        if self.kind not in MASK_KINDS:
            raise ValidationError(f"unknown mask kind {self.kind!r}")
        if not (self.pulse_width > 0):
            raise ValidationError("pulse_width must be positive")
        if self.pulse_separation < 0:
            raise ValidationError("pulse_separation must be non-negative")
        if self.n_pulses < 1:
            raise ValidationError("n_pulses must be >= 1")
        if self.samples is not None:
            s = np.asarray(self.samples, dtype=float)
            # NaN fails both comparisons, so it is refused with the rest
            if s.ndim != 1 or not np.all((s >= 0) & (s <= 1)):
                raise ValidationError("samples must be a 1-d array within [0, 1]")
        if self.kind == "custom_samples" and self.samples is None:
            raise ValidationError("custom_samples mask needs a samples array")


def mask_values(m: ModulationMask, taus_ns: np.ndarray) -> np.ndarray:
    """Evaluate the mask on a time axis (ns)."""
    taus_ns = np.asarray(taus_ns, dtype=float)
    if m.kind == "custom_samples":
        s = np.asarray(m.samples, dtype=float)
        if len(s) != len(taus_ns):
            raise ValidationError(
                "custom samples must match the wavepacket grid length"
            )
        return s
    out = np.zeros_like(taus_ns)
    period = m.pulse_width + m.pulse_separation
    # floor division finds each sample's pulse up to one either way, as
    # long as rounding stays below a period; testing k - 1, k and k + 1
    # with pulse k's own edges, t0 = start_offset + k*period, keeps the
    # mask bit-identical to a loop over every pulse, at any n_pulses
    k = np.floor((taus_ns - m.start_offset) / period)
    for kc in (k - 1, k, k + 1):
        t0 = m.start_offset + kc * period
        out[(kc >= 0) & (kc < m.n_pulses)
            & (taus_ns >= t0) & (taus_ns < t0 + m.pulse_width)] = 1.0
    return out


def _smooth_edges(mask: np.ndarray, tau_step: float, rise_time: float) -> np.ndarray:
    """Causal single-pole response with the given 10-90 style rise scale."""
    alpha = tau_step / (rise_time + tau_step)
    out = []
    y = 0.0
    for v in np.asarray(mask, dtype=float).tolist():
        y = alpha * v + (1.0 - alpha) * y
        out.append(y)
    return np.array(out)


def apply_mask(
    w: Wavepacket,
    m: ModulationMask,
    delay: float = 0.0,
    convention: str = "intensity",
    rise_time: float = 0.0,
) -> Wavepacket:
    """Carve a wavepacket with a mask shifted by a trigger delay (ns).

    g2_out = g2 * mask(tau - delay) under the default intensity
    convention, or g2 * mask(tau - delay)^2 under "amplitude".  The
    shifted mask must overlap the wavepacket support.  delay and
    rise_time (ns) must be finite and non-negative; a rise_time of 0
    keeps the edges sharp.
    """
    if not 0 <= delay < np.inf:
        raise ValidationError("trigger delay must be finite and non-negative")
    if not 0 <= rise_time < np.inf:
        raise ValidationError("rise_time must be finite and non-negative")
    if convention not in ("intensity", "amplitude"):
        raise ValidationError("convention must be intensity or amplitude")
    vals = mask_values(m, w.taus - delay)
    if rise_time > 0:
        vals = _smooth_edges(vals, w.tau_step, rise_time)
    if convention == "amplitude":
        vals = vals ** 2
    support = w.g2 > 0
    if not np.any(vals[support] > 0):
        raise ValidationError("mask window lies entirely outside the wavepacket")
    return w.with_g2(w.g2 * vals)


def suggest_mask_start(
    w: Wavepacket,
    beat_period_ns: float | None = None,
    threshold: float = 0.1,
) -> float:
    """First delay (ns) where the per-cycle beat depth falls below threshold.

    Marks the end of the front oscillatory region, the natural place to
    open a shaping window on the smooth tail.
    """
    if not (0 < threshold < 1):
        raise ValidationError("threshold must be inside (0, 1)")
    if beat_period_ns is None:
        beat_period_ns = estimate_beat_period_ns(w)
    starts, depths = modulation_depth_profile(w, beat_period_ns)
    below = np.nonzero(depths < threshold)[0]
    if len(below) == 0:
        raise ValidationError(
            "beat depth never falls below the threshold on this grid; "
            "extend tau_max or raise the threshold"
        )
    return float(starts[below[0]])
