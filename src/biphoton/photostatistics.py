"""Synthetic coincidence counting and rate bookkeeping.

simulate_coincidences draws photon-pair events whose detection delays
follow a model G2(tau), thins them by detector/channel efficiencies,
adds uncorrelated background singles, and correlates the two resulting
time-tag streams exactly the way a time-to-digital analyzer does: every
(stokes, anti-stokes) tag pair with 0 <= t_as - t_s < tau_max falls in
a histogram bin of width t_c.  True pairs and accidentals therefore
emerge from one mechanism, and the flat accidental floor obeys
S_s * S_as * t_c per bin and second.

The run can be sharded into independent slices of the measurement time,
each with its own child RNG stream, so results are reproducible for a
fixed (seed, n_shards) and shard merging is associative.  Different
shard counts give statistically equivalent, not bit-identical, data.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError
from .wavepacket import Wavepacket


@dataclass(frozen=True)
class DetectionConfig:
    """Detection chain and run bookkeeping for the Monte Carlo.

    pair_rate is the generated pair rate in 1/s before any losses;
    the observed rate is scaled by duty_cycle and the per-channel
    efficiencies.  Backgrounds are uncorrelated singles rates in 1/s
    (dark counts fold in here).  bin_width is in ns.
    """

    pair_rate: float = 1.0e4
    qe_stokes: float = 0.6
    qe_antistokes: float = 0.6
    channel_t_stokes: float = 0.5
    channel_t_antistokes: float = 0.5
    duty_cycle: float = 0.2
    measurement_time: float = 600.0
    bin_width: float = 1.0
    background_s: float = 0.0
    background_as: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("qe_stokes", "qe_antistokes", "channel_t_stokes",
                     "channel_t_antistokes", "duty_cycle"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1]")
        if self.pair_rate < 0 or self.background_s < 0 or self.background_as < 0:
            raise ValidationError("rates must be non-negative")
        if not (self.bin_width > 0):
            raise ValidationError("bin_width must be positive")
        if not (self.measurement_time > 0):
            raise ValidationError("measurement_time must be positive")


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Binned coincidences over tau in [0, n_bins*bin_width), plus singles."""

    bin_width: float
    counts: np.ndarray
    n_singles_s: int
    n_singles_as: int
    measurement_time: float

    def __post_init__(self) -> None:
        if not (self.bin_width > 0):
            raise ValidationError("bin_width must be positive")
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or len(counts) == 0:
            raise ValidationError("counts must be a non-empty 1-d array")
        if np.any(counts < 0):
            raise ValidationError("counts must be non-negative")
        if self.n_singles_s < 0 or self.n_singles_as < 0:
            raise ValidationError("singles totals must be non-negative")
        if not (self.measurement_time > 0):
            raise ValidationError("measurement_time must be positive")

    @property
    def bin_centers(self) -> np.ndarray:
        return (np.arange(len(self.counts)) + 0.5) * self.bin_width

    @property
    def taus(self) -> np.ndarray:
        """Alias for bin_centers so fit routines accept histograms directly."""
        return self.bin_centers

    def merged_with(self, other: "CoincidenceHistogram") -> "CoincidenceHistogram":
        if other.bin_width != self.bin_width or len(other.counts) != len(self.counts):
            raise ValidationError("histograms must share binning to merge")
        return CoincidenceHistogram(
            bin_width=self.bin_width,
            counts=self.counts + other.counts,
            n_singles_s=self.n_singles_s + other.n_singles_s,
            n_singles_as=self.n_singles_as + other.n_singles_as,
            measurement_time=self.measurement_time + other.measurement_time,
        )


@dataclass(frozen=True)
class LossBudget:
    """Ordered multiplicative efficiency chain from generated to detected."""

    factors: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for label, value in self.factors:
            if not (0.0 < value <= 1.0):
                raise ValidationError(f"factor {label!r} must be in (0, 1]")

    def product(self) -> float:
        out = 1.0
        for _, value in self.factors:
            out *= value
        return out


def _sample_delays(model: Wavepacket, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n delays (ns) from the normalized G2 density by inverse CDF."""
    taus = model.taus
    g2 = np.asarray(model.g2, dtype=float)
    pos = taus >= 0
    taus = taus[pos]
    g2 = g2[pos]
    # bin masses by trapezoid between grid nodes
    masses = 0.5 * (g2[1:] + g2[:-1]) * np.diff(taus)
    total = masses.sum()
    if not (total > 0) or not np.isfinite(total):
        raise ValidationError("model wavepacket has no finite positive weight")
    cdf = np.concatenate([[0.0], np.cumsum(masses)]) / total
    u = rng.random(n)
    return np.interp(u, cdf, taus)


def _simulate_shard(
    model: Wavepacket,
    cfg: DetectionConfig,
    t_slice: float,
    n_bins: int,
    rng: np.random.Generator,
) -> CoincidenceHistogram:
    mean_pairs = cfg.pair_rate * cfg.duty_cycle * t_slice
    n_pairs = int(rng.poisson(mean_pairs))
    t_s = rng.random(n_pairs) * t_slice
    delta = _sample_delays(model, n_pairs, rng) * 1e-9
    t_as = t_s + delta

    keep_s = rng.random(n_pairs) < cfg.qe_stokes * cfg.channel_t_stokes
    keep_as = rng.random(n_pairs) < cfg.qe_antistokes * cfg.channel_t_antistokes

    n_bg_s = int(rng.poisson(cfg.background_s * t_slice))
    n_bg_as = int(rng.poisson(cfg.background_as * t_slice))
    stream_s = np.concatenate([t_s[keep_s], rng.random(n_bg_s) * t_slice])
    stream_as = np.concatenate([t_as[keep_as], rng.random(n_bg_as) * t_slice])
    stream_s.sort()
    stream_as.sort()

    # multi-stop correlation: histogram every s/as tag pair with
    # 0 <= t_as - t_s < window
    window = n_bins * cfg.bin_width * 1e-9
    counts = np.zeros(n_bins, dtype=np.int64)
    if len(stream_s) and len(stream_as):
        lo = np.searchsorted(stream_s, stream_as - window, side="right")
        hi = np.searchsorted(stream_s, stream_as, side="right")
        per_event = hi - lo
        keep = per_event > 0
        reps = per_event[keep]
        if reps.size:
            as_idx = np.repeat(np.nonzero(keep)[0], reps)
            group_starts = np.cumsum(reps) - reps
            offsets = np.arange(int(reps.sum())) - np.repeat(group_starts, reps)
            s_idx = np.repeat(lo[keep], reps) + offsets
            diffs_ns = (stream_as[as_idx] - stream_s[s_idx]) * 1e9
            idx = (diffs_ns / cfg.bin_width).astype(np.int64)
            np.clip(idx, 0, n_bins - 1, out=idx)
            counts += np.bincount(idx, minlength=n_bins)

    return CoincidenceHistogram(
        bin_width=cfg.bin_width,
        counts=counts,
        n_singles_s=len(stream_s),
        n_singles_as=len(stream_as),
        measurement_time=t_slice,
    )


def simulate_coincidences(
    model: Wavepacket,
    cfg: DetectionConfig,
    n_shards: int = 1,
    workers: int | None = None,
) -> CoincidenceHistogram:
    """Monte Carlo coincidence histogram for a model wavepacket.

    The tau window is [0, tau_max of the model grid), binned at
    cfg.bin_width.  Sharding splits measurement_time into n_shards equal
    slices with child RNG streams spawned from rng_seed; the result is
    deterministic for fixed (rng_seed, n_shards) regardless of workers.
    """
    if n_shards < 1:
        raise ValidationError("n_shards must be >= 1")
    n_bins = max(1, int(round(model.tau_max / cfg.bin_width)))
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(n_shards)
    t_slice = cfg.measurement_time / n_shards

    def run(seed_seq) -> CoincidenceHistogram:
        return _simulate_shard(
            model, cfg, t_slice, n_bins, np.random.default_rng(seed_seq)
        )

    if workers is not None and workers > 1 and n_shards > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(run, seeds))
    else:
        shards = [run(s) for s in seeds]

    merged = shards[0]
    for sh in shards[1:]:
        merged = merged.merged_with(sh)
    return merged


def expected_accidental_floor(h: CoincidenceHistogram) -> float:
    """Expected flat accidental count per bin from the measured singles."""
    s_rate = h.n_singles_s / h.measurement_time
    as_rate = h.n_singles_as / h.measurement_time
    return s_rate * as_rate * (h.bin_width * 1e-9) * h.measurement_time


def normalized_cross_correlation(h: CoincidenceHistogram) -> np.ndarray:
    """g_cross(tau_bin): counts relative to the uncorrelated expectation.

    g = counts * T / (N_s * N_as * t_c); uncorrelated streams give 1.
    """
    if h.n_singles_s == 0 or h.n_singles_as == 0:
        raise ValidationError("singles totals must be positive to normalize")
    t_c = h.bin_width * 1e-9
    return h.counts * h.measurement_time / (h.n_singles_s * h.n_singles_as * t_c)


def cauchy_schwarz(
    g_cross_max: float, g_auto_s: float = 2.0, g_auto_as: float = 2.0
) -> float:
    """Nonclassicality parameter C = g_cross^2/(g_auto_s*g_auto_as).

    C > 1 violates the classical bound.  The auto-correlations default
    to 2, the chaotic-field value appropriate for each unheralded arm.
    """
    if g_auto_s <= 0 or g_auto_as <= 0:
        raise ValidationError("auto-correlations must be positive")
    return g_cross_max ** 2 / (g_auto_s * g_auto_as)


def loss_budget_rate(detected_rate: float, budget: LossBudget) -> float:
    """Invert a detected pair rate through the efficiency chain."""
    if detected_rate < 0:
        raise ValidationError("detected_rate must be non-negative")
    return detected_rate / budget.product()


def budget_report(detected_rate: float, budget: LossBudget) -> str:
    """Human-readable inversion table, one factor per line."""
    lines = [f"detected rate: {detected_rate:.6g} /s"]
    running = detected_rate
    for label, value in budget.factors:
        running /= value
        lines.append(f"/ {value:<6g} {label}: {running:.6g} /s")
    lines.append(f"generated rate: {loss_budget_rate(detected_rate, budget):.6g} /s")
    return "\n".join(lines)


def histogram_metadata(h: CoincidenceHistogram, cfg: DetectionConfig | None = None,
                       extra: dict | None = None) -> dict:
    """Sidecar record for a saved histogram (config echo, seed, singles)."""
    meta = {
        "bin_width_ns": h.bin_width,
        "n_bins": int(len(h.counts)),
        "n_singles_s": int(h.n_singles_s),
        "n_singles_as": int(h.n_singles_as),
        "measurement_time_s": h.measurement_time,
    }
    if cfg is not None:
        meta["detection"] = asdict(cfg)
        meta["seed"] = cfg.rng_seed
    if extra:
        meta.update(extra)
    # round-trip check: the sidecar must stay plain JSON
    json.dumps(meta)
    return meta
