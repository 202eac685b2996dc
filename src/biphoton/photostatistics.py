"""Synthetic coincidence counting and rate bookkeeping.

simulate_coincidences draws photon-pair events whose detection delays
follow a model G2(tau), thins them by detector/channel efficiencies,
adds uncorrelated background singles, and correlates the two resulting
time-tag streams exactly the way a time-to-digital analyzer does: every
(stokes, anti-stokes) tag pair with 0 <= t_as - t_s < tau_max falls in
a histogram bin of width t_c.  True pairs and accidentals therefore
emerge from one mechanism, and the flat accidental floor obeys
S_s * S_as * t_c per bin and second.

Each shard draws its pairs in blocks of _BLOCK from copies of its
generator advanced to the start of each per-pair run, so the values
equal those of whole-length draws, and keeps only the detected tags.
Delays are drawn by inverse CDF through a guide table (Chen & Asau,
1974) built once per run: one lookup finds the CDF segment of almost
every uniform, and the delay is np.interp's own formula on that
segment, so the draws are bit-identical to np.interp(u, cdf, taus) on
the same uniforms.  The correlation takes the anti-Stokes tags a block
at a time, finds the last Stokes tag before each by one stable sort
with the Stokes tags the block spans, and walks back from there, pair
by pair, over only the tags that still have a partner in the window.
Memory therefore follows the detected tags, not the generated pairs.
A shard expected to hold more than MAX_SHARD_TAGS tags, or a histogram
of more than MAX_SHARD_TAGS bins, is refused before anything is drawn.

The run can be sharded into independent slices of the measurement time,
each with its own child RNG stream, so results are reproducible for a
fixed (seed, n_shards) and shard merging is associative.  Different
shard counts give statistically equivalent, not bit-identical, data.
"""

from __future__ import annotations

import copy
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ValidationError
from .wavepacket import Wavepacket

# expected tags (pairs plus background singles) one shard may hold, and
# the most histogram bins; a shard's traced peak is about 13 B per
# detected tag, and a pair gives at most two, so at most about 25 B per
# expected tag (1.6e6 lossless pairs: 40 MB), about 1.3 GB at the bound
MAX_SHARD_TAGS = 50_000_000
# guide-table cells per CDF node, and pairs (or anti-Stokes tags in the
# correlation) taken per block
_GUIDE_CELLS_PER_NODE = 32
_BLOCK = 1 << 14


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"{f.name} must be finite")
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
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be non-negative")


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


@dataclass(frozen=True)
class _DelayTable:
    """Inverse CDF of the normalized G2 density, with its guide table.

    cdf is the trapezoid mass accumulated over the tau >= 0 nodes taus,
    slope holds np.interp's slopes between them with 0 appended for the
    last node, and guide gives, for each of len(guide) equal cells of
    [0, 1), the one CDF segment that cell lies in, or -1 where a node
    falls inside the cell.
    """

    taus: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray
    guide: np.ndarray


def _delay_table(model: Wavepacket) -> _DelayTable:
    """Build the delay table of a model; the shards of one run share it.

    The guide table (Chen & Asau, 1974) splits [0, 1) into a power of
    two of equal cells, at least _GUIDE_CELLS_PER_NODE per CDF node, so
    u * cells is exact and a cell holding no node lies inside a single
    segment.
    """
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

    # a zero-mass segment gets slope inf but is never some u's segment
    with np.errstate(divide="ignore"):
        slope = np.append(np.diff(taus) / np.diff(cdf), 0.0)
    cells = 1 << int(np.ceil(np.log2(_GUIDE_CELLS_PER_NODE * len(cdf))))
    guide = np.searchsorted(cdf, np.arange(cells) / cells, side="right") - 1
    guide[(cdf[cdf < 1.0] * cells).astype(np.intp)] = -1
    return _DelayTable(taus, cdf, slope, guide)


def _delays(table: _DelayTable, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) to delays (ns), equal to np.interp(u, cdf, taus).

    The guide table gives each u's segment j, the last node with
    cdf[j] <= u, in one lookup; only the few uniforms that land in a
    cell holding a node are searched.  The delay is np.interp's own
    formula, slope[j]*(u - cdf[j]) + taus[j], with the same slopes; the
    last node, reached when the CDF rounds below 1, has slope 0 and
    returns taus[-1] as np.interp does.  The result equals np.interp
    bit for bit.
    """
    x = u * len(table.guide)
    # astype floors, as u >= 0; every index is in range, and "clip"
    # only skips take's buffered bounds check
    j = np.take(table.guide, x.astype(np.intp), mode="clip")
    mixed = np.flatnonzero(j < 0)
    j[mixed] = np.searchsorted(table.cdf, u[mixed], side="right") - 1
    np.subtract(u, np.take(table.cdf, j, mode="clip"), out=x)
    x *= np.take(table.slope, j, mode="clip")
    x += np.take(table.taus, j, mode="clip")
    return x


def _correlate(
    stream_s: np.ndarray,
    stream_as: np.ndarray,
    window: float,
    n_bins: int,
    bin_width: float,
) -> np.ndarray:
    """Multi-stop histogram of every tag pair with 0 <= t_as - t_s < window.

    Both streams are sorted, in s; window is in s and bin_width in ns.
    The anti-Stokes tags are taken _BLOCK at a time.  Stokes tags up to
    the block's first tag precede all of it and those after its last
    follow it, so one stable sort of the block with the Stokes tags in
    between places each block tag right after the last Stokes tag at or
    before it; this merge of two sorted runs is faster than a binary
    search per tag.  The walk then steps every still-active tag one
    Stokes tag further back, collecting each pair's bin, until the
    Stokes tag falls at or before t_as - window.  Each pass costs only
    the tags still active, most tags have 0-2 partners, and one bincount
    per block adds the pairs to the histogram.
    """
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, len(stream_as), _BLOCK):
        block = stream_as[start:start + _BLOCK]
        lo, hi = np.searchsorted(stream_s, block[[0, -1]], side="right")
        order = np.argsort(np.concatenate([stream_s[lo:hi], block]), kind="stable")
        # block tag k, at sorted position p, follows lo + p - k Stokes tags
        s_idx = np.flatnonzero(order >= hi - lo)
        s_idx += lo - 1 - np.arange(len(block))
        as_idx = np.flatnonzero(s_idx >= 0)
        s_idx = s_idx[as_idx]
        bins = [np.zeros(0, dtype=np.int64)]
        while as_idx.size:
            t_as = block[as_idx]
            t_s = stream_s[s_idx]
            near = np.flatnonzero(t_s > t_as - window)
            as_idx, s_idx = as_idx[near], s_idx[near]
            diffs_ns = (t_as[near] - t_s[near]) * 1e9
            bins.append((diffs_ns / bin_width).astype(np.int64))
            s_idx -= 1
            more = s_idx >= 0
            as_idx, s_idx = as_idx[more], s_idx[more]
        idx = np.concatenate(bins)
        np.clip(idx, 0, n_bins - 1, out=idx)
        found = np.bincount(idx)
        counts[:len(found)] += found
    return counts


def _simulate_shard(
    table: _DelayTable,
    cfg: DetectionConfig,
    t_slice: float,
    n_bins: int,
    rng: np.random.Generator,
) -> CoincidenceHistogram:
    """One slice of the measurement, drawn and correlated in blocks.

    The draws follow one fixed order on rng: the pair count, then
    n_pairs uniforms each for the Stokes times, the delays, the Stokes
    keep and the anti-Stokes keep, then the two background counts and
    their times.  rng is a PCG64 Generator, whose random() takes one
    64-bit output per double, so four copies advanced by 0, n, 2n and 3n
    outputs draw the four per-pair runs side by side, _BLOCK pairs at a
    time, into reused buffers, with the same values as four whole-length
    calls.  Each block keeps only its detected tags and maps delays only
    for the kept anti-Stokes pairs, so memory follows the detected tags
    rather than the generated pairs.
    """
    n_pairs = int(rng.poisson(cfg.pair_rate * cfg.duty_cycle * t_slice))
    forks = []
    for k in range(4):
        fork = copy.deepcopy(rng)
        fork.bit_generator.advance(k * n_pairs)
        forks.append(fork)
    rng.bit_generator.advance(4 * n_pairs)

    eff_s = cfg.qe_stokes * cfg.channel_t_stokes
    eff_as = cfg.qe_antistokes * cfg.channel_t_antistokes
    buffers = np.empty((4, min(n_pairs, _BLOCK)))
    tags_s, tags_as = [], []
    for start in range(0, n_pairs, _BLOCK):
        m = min(_BLOCK, n_pairs - start)
        t_s, u, keep_s, keep_as = (
            fork.random(out=buf[:m]) for fork, buf in zip(forks, buffers)
        )
        t_s *= t_slice
        # take on flatnonzero's indices: a boolean index into a random
        # mask runs several times slower
        tags_s.append(t_s.take(np.flatnonzero(keep_s < eff_s)))
        kept = np.flatnonzero(keep_as < eff_as)
        t_as = _delays(table, u.take(kept))
        t_as *= 1e-9
        t_as += t_s.take(kept)
        tags_as.append(t_as)

    n_bg_s = int(rng.poisson(cfg.background_s * t_slice))
    n_bg_as = int(rng.poisson(cfg.background_as * t_slice))
    tags_s.append(rng.random(n_bg_s) * t_slice)
    tags_as.append(rng.random(n_bg_as) * t_slice)
    stream_s = np.concatenate(tags_s)
    del tags_s  # each list is freed once its stream is whole
    stream_as = np.concatenate(tags_as)
    del tags_as
    stream_s.sort()
    stream_as.sort()

    window = n_bins * cfg.bin_width * 1e-9
    return CoincidenceHistogram(
        bin_width=cfg.bin_width,
        counts=_correlate(stream_s, stream_as, window, n_bins, cfg.bin_width),
        n_singles_s=len(stream_s),
        n_singles_as=len(stream_as),
        measurement_time=t_slice,
    )


def simulate_coincidences(
    model: Wavepacket,
    cfg: DetectionConfig,
    n_shards: int = 1,
    workers: int = 1,
) -> CoincidenceHistogram:
    """Monte Carlo coincidence histogram for a model wavepacket.

    The tau window is [0, tau_max of the model grid), binned at
    cfg.bin_width.  Sharding splits measurement_time into n_shards equal
    slices with child RNG streams spawned from rng_seed.  The delay table
    is built once and shared, and each shard draws and correlates its
    pairs in blocks of _BLOCK.  With workers > 1 the shards run on a pool
    of that many threads, with 1 in the calling thread, and they merge in
    shard order, so the result is deterministic for fixed (rng_seed,
    n_shards) regardless of workers.  ValidationError is raised before
    anything is drawn when a shard's expected tag count,
    (pair_rate*duty_cycle + background_s + background_as)*
    measurement_time/n_shards, or the bin count, tau_max/bin_width,
    exceeds MAX_SHARD_TAGS.
    """
    if n_shards < 1:
        raise ValidationError("n_shards must be >= 1")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    tags = (cfg.pair_rate * cfg.duty_cycle + cfg.background_s
            + cfg.background_as) * cfg.measurement_time / n_shards
    if tags > MAX_SHARD_TAGS:
        raise ValidationError(
            f"each shard would hold about {tags:.3g} tags, above "
            f"MAX_SHARD_TAGS = {MAX_SHARD_TAGS:.0e}; raise n_shards to at "
            f"least {np.ceil(tags * n_shards / MAX_SHARD_TAGS):.0f}"
        )
    bins = model.tau_max / cfg.bin_width
    if not (bins <= MAX_SHARD_TAGS):
        raise ValidationError(
            f"the histogram would have {bins:.3g} bins of {cfg.bin_width:g} ns, "
            f"above MAX_SHARD_TAGS = {MAX_SHARD_TAGS:.0e}; widen bin_width"
        )
    n_bins = max(1, int(round(bins)))
    table = _delay_table(model)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(n_shards)
    t_slice = cfg.measurement_time / n_shards

    def run(seed_seq) -> CoincidenceHistogram:
        return _simulate_shard(
            table, cfg, t_slice, n_bins, np.random.default_rng(seed_seq)
        )

    if workers == 1:
        # in the calling thread: a fresh worker thread per call allocates
        # from its own malloc arena, and the arenas it leaves behind raise
        # the process's peak memory from call to call
        shards = list(map(run, seeds))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(run, seeds))

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
    if not 0 <= detected_rate < math.inf:
        raise ValidationError("detected_rate must be finite and non-negative")
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


def histogram_metadata(h: CoincidenceHistogram, cfg: DetectionConfig,
                       extra: dict | None = None) -> dict:
    """Sidecar record for a saved histogram (config echo, seed, singles)."""
    meta = {
        "bin_width_ns": h.bin_width,
        "n_bins": int(len(h.counts)),
        "n_singles_s": int(h.n_singles_s),
        "n_singles_as": int(h.n_singles_as),
        "measurement_time_s": h.measurement_time,
        "detection": asdict(cfg),
        "seed": cfg.rng_seed,
    }
    if extra:
        meta.update(extra)
    # round-trip check: the sidecar must stay plain JSON
    json.dumps(meta)
    return meta
