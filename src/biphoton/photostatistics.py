"""Synthetic coincidence counting and rate bookkeeping.

simulate_coincidences draws the detected time tags of a pair source in
three Poisson classes (see DetectionConfig): coincident pairs, whose
anti-Stokes photon trails its Stokes photon by a delay drawn from a
model G2(tau), and each arm's uncorrelated singles.  It correlates the
two arms' tags as a time-to-digital analyzer does, in integer ticks of
1/1024 of a bin: every (stokes, anti-stokes) pair with 0 <= t_as - t_s <
tau_max falls in a bin of width t_c, so true pairs and accidentals
emerge from one mechanism, and the flat accidental floor is S_s * S_as *
t_c per bin and second.

Each shard draws and correlates its slice of the measurement in time
order, chunk by chunk (see _simulate_shard), so its memory follows the
chunk, not the measurement time, and returns its counts and singles;
the run sums them into its one histogram, stamped with the configured
measurement time.  Delays are drawn by inverse CDF (see _delay_table)
from G2 normalized over the histogram window.  Each shard has its own
child RNG stream, so results are reproducible for a fixed (seed,
n_shards); other shard counts give statistically equivalent, not
bit-identical, data.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import NumericalError, ValidationError, _integer
from .susceptibility import MAX_GRID_POINTS
from .wavepacket import Wavepacket

# expected tags one shard may generate, pairs plus background singles:
# it bounds a shard's work, not its memory, which follows the chunk
MAX_SHARD_TAGS = 50_000_000
# the most shards one run may spawn, each with its own RNG stream
MAX_SHARDS = 256
# guide-table cells per delay-table node, the most cells of a guide (16
# MiB as int32), and the expected tags (pairs plus background singles) of
# one chunk of a shard
_GUIDE_CELLS_PER_NODE = 16
_GUIDE_MAX_CELLS = 1 << 22
_CHUNK = 1 << 16
# a Monte Carlo tag is an int64 count of ticks of 2**-_TICK_BITS of a bin,
# as a time-to-digital converter gives them
_TICK_BITS = 10


@dataclass(frozen=True)
class DetectionConfig:
    """Detection chain and run bookkeeping for the Monte Carlo.

    Pairs arrive at lam = pair_rate*duty_cycle (1/s), and each arm keeps
    its photon with eta_s = qe_stokes*channel_t_stokes or eta_as =
    qe_antistokes*channel_t_antistokes, so the Monte Carlo draws three
    Poisson classes (the colouring theorem): coincident pairs at
    lam*eta_s*eta_as, Stokes singles at lam*eta_s*(1 - eta_as) +
    background_s and anti-Stokes singles at lam*(1 - eta_s)*eta_as +
    background_as.  Singles are uniform in time: a lone anti-Stokes
    photon is not held one delay behind a Stokes time, which thinning
    each pair would differ from only within one window of a slice's
    ends.  Backgrounds are singles rates in 1/s (dark counts fold in
    here), bin_width is in ns and rng_seed a non-negative integer.
    Delays come from the model, with no etalon pass fraction: a filtered
    model's anti-Stokes singles and coincidences are the unfiltered ones.
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
        # a numpy integer becomes a plain int, as the JSON sidecar needs
        object.__setattr__(self, "rng_seed", _integer("rng_seed", self.rng_seed))
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
        if not np.all((counts >= 0) & np.isfinite(counts)):
            raise ValidationError("counts must be finite and non-negative")
        object.__setattr__(self, "counts", counts)
        for name in ("n_singles_s", "n_singles_as"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n_singles_s < 0 or self.n_singles_as < 0:
            raise ValidationError("singles totals must be non-negative")
        if not (self.measurement_time > 0):
            raise ValidationError("measurement_time must be positive")

    @property
    def bin_centers(self) -> np.ndarray:
        return (np.arange(len(self.counts)) + 0.5) * self.bin_width


@dataclass(frozen=True)
class LossBudget:
    """Ordered multiplicative efficiency chain from generated to detected."""

    factors: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for label, value in self.factors:
            if not (0.0 < value <= 1.0):
                raise ValidationError(f"factor {label!r} must be in (0, 1]")

    def product(self) -> float:
        return math.prod((value for _, value in self.factors), start=1.0)


@dataclass(frozen=True)
class _DelayTable:
    """Inverse CDF of the normalized G2 density, with its guide table.

    taus holds the model's grid nodes, from 0 to tau_max, and three
    sub-nodes splitting each segment in quarters, cdf the normalized mass
    accumulated over them, slope np.interp's slopes between them with 0
    appended for the last node, and guide gives, for each of len(guide)
    equal cells of [0, 1), the one CDF segment that cell lies in, or -1
    where a node falls inside the cell, in the narrowest signed integer
    type that holds the node indices.
    """

    taus: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray
    guide: np.ndarray


def _delay_table(model: Wavepacket) -> _DelayTable:
    """Build the delay table of a model; the shards of one run share it.

    The segment of width h between nodes j and j + 1 holds the mass
    h/24*(-g[j-1] + 13 g[j] + 13 g[j+1] - g[j+2]) of the cubic through
    its four nearest nodes, clamped at 0, with a ghost node beyond each
    end on the quadratic through the last three (a grid has at least 16).
    The segment's quarters share its mass in proportion to the line from
    g[j] to g[j+1] at their midpoints.  The guide table (Chen & Asau,
    1974) splits [0, 1) into a power of two of equal cells, at least
    _GUIDE_CELLS_PER_NODE per node up to _GUIDE_MAX_CELLS, so u * cells
    is exact and a cell holding no node lies inside a single segment.
    Above the cap, more cells hold a node, and more uniforms are searched.
    """
    taus = model.taus
    g = np.asarray(model.g2, dtype=float)
    g_ext = np.concatenate([[3 * (g[0] - g[1]) + g[2]], g, [3 * (g[-1] - g[-2]) + g[-3]]])
    h = np.diff(taus)
    masses = np.maximum(h / 24 * (13 * (g[:-1] + g[1:]) - g_ext[:-3] - g_ext[3:]), 0.0)
    x = np.arange(0.5, 4) / 4
    line = np.outer(g[:-1], 1 - x) + np.outer(g[1:], x)
    norm = line.sum(axis=1, keepdims=True)
    # a segment whose two nodes are 0 has no mass
    sub = np.divide(masses[:, None] * line, norm, out=np.zeros_like(line), where=norm > 0)
    total = sub.sum()
    if not (total > 0) or not np.isfinite(total):
        raise ValidationError("model wavepacket has no finite positive weight")
    cdf = np.concatenate([[0.0], np.cumsum(sub)]) / total
    taus = np.append(taus[:-1, None] + np.outer(h, np.arange(4) / 4), taus[-1])

    # a zero-mass segment gets slope inf but is never some u's segment
    with np.errstate(divide="ignore"):
        slope = np.append(np.diff(taus) / np.diff(cdf), 0.0)
    cells = min(1 << int(np.ceil(np.log2(_GUIDE_CELLS_PER_NODE * len(cdf)))),
                _GUIDE_MAX_CELLS)
    # guide[c] = searchsorted(cdf, c / cells, "right") - 1: node i has
    # cdf[i] <= c / cells from cell ceil(cdf[i] * cells) on, so it fills
    # the cells from there to the next node's first
    first = np.minimum(np.ceil(cdf * cells), cells).astype(np.intp)
    nodes = np.arange(len(cdf), dtype=np.min_scalar_type(-len(cdf)))
    guide = np.repeat(nodes, np.diff(first, append=cells))
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
    on the table's nodes bit for bit.
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


class _Scratch:
    """Working arrays of one shard's chunk loop, never shared between
    threads: the chunk's int64 keys (see _correlate), and _correlate's arm
    bits, window lower limits and window test, each room for n keys.
    """

    def __init__(self, n: int = 0) -> None:
        self.keys = np.empty(n, dtype=np.int64)
        self.arm = np.empty(n, dtype=bool)
        self.lim = np.empty(n, dtype=np.int64)
        self.inside = np.empty(n, dtype=bool)

    def reserve(self, n: int) -> None:
        """Grow to room for n keys, with a sixteenth to spare, unless they fit."""
        if n > len(self.keys):
            self.__init__(n + (n >> 4))


def _correlate(keys: np.ndarray, n_bins: int, scratch: _Scratch) -> np.ndarray:
    """Multi-stop histogram of every tag pair with 0 <= t_as - t_s < n_bins bins.

    keys: both arms' sorted tags, each tick shifted left by one, low bit
    1 for anti-Stokes, so a Stokes tag comes first at equal ticks.  The
    arm bits go to scratch, and the keys are shifted right in place, so
    they hold the ticks when this returns.  Round k = 1, 2, ... bins, for
    each anti-Stokes tag whose k-th predecessor lies in its window, the
    pair with that predecessor if it is a Stokes tag.  A tag leaves at its
    first predecessor outside the window, as every earlier one lies
    outside too, and the rounds end when no tag is left.  The window test
    is exact on integers, with each tag's lower limit computed once, into
    scratch, and a pair's tick difference dt < n_bins << _TICK_BITS bins
    at dt >> _TICK_BITS, always one of the n_bins.
    """
    counts = np.zeros(n_bins, dtype=np.int64)
    n = len(keys)
    scratch.reserve(n)
    arm = np.bitwise_and(keys, 1, out=scratch.arm[:n], casting="unsafe")
    keys >>= 1
    lim = np.subtract(keys, n_bins << _TICK_BITS, out=scratch.lim[:n])
    # the anti-Stokes tags whose predecessor lies in their window
    inside = scratch.inside[:n]
    inside[:1] = False
    np.greater(keys[:-1], lim[1:], out=inside[1:])
    i = np.flatnonzero(inside)
    i = i[arm[i]]
    k = 1
    while i.size:
        s = i[~arm[i - k]]
        dt = keys[s] - keys[s - k]
        dt >>= _TICK_BITS
        counts += np.bincount(dt, minlength=n_bins)
        k += 1
        i = i[i >= k]
        i = i[keys[i - k] > lim[i]]
    return counts


def _chunk_keys(table: _DelayTable, tick_ns: float, rates: np.ndarray, start: int,
                end: int, carry: np.ndarray, rng: np.random.Generator,
                scratch: _Scratch) -> tuple:
    """The keys of one chunk [start, end) of ticks, and its new Stokes and
    anti-Stokes tag counts.

    _simulate_shard relies on this contract alone: the keys lie in
    scratch's key array, carry first and unchanged, then the new tags'
    keys (see _correlate), unsorted, and no new tag lies before start.
    rates are those of coincident pairs, Stokes singles and anti-Stokes
    singles per tick of tick_ns ns (see DetectionConfig).  rng draws the
    three counts in that order, then the pairs' Stokes ticks, uniform in
    the chunk, their delays' uniforms, into the keys, and the Stokes and
    then the anti-Stokes singles' ticks.  A delay of d ns is floor(d /
    tick_ns) ticks: one rounded division, so its bin is floor(d/bin_width).
    """
    n_pair, n_s, n_as = rng.poisson(rates * (end - start)).tolist()
    n_stokes = n_pair + n_s
    n = len(carry) + n_stokes + n_pair + n_as
    scratch.reserve(n)
    keys = scratch.keys[:n]
    keys[:len(carry)] = carry
    new = keys[len(carry):]
    new[:n_pair] = rng.integers(start, end, n_pair)
    pair_as = new[n_stokes:n_stokes + n_pair]
    u = rng.random(out=pair_as.view(np.float64))
    np.divide(_delays(table, u), tick_ns, out=pair_as, casting="unsafe")
    pair_as += new[:n_pair]
    new[n_pair:n_stokes] = rng.integers(start, end, n_s)
    new[n_stokes + n_pair:] = rng.integers(start, end, n_as)
    new <<= 1
    new[n_stokes:] |= 1
    return keys, n_stokes, n_pair + n_as


def _simulate_shard(table: _DelayTable, cfg: DetectionConfig, t_slice: float, n_bins: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One slice of the measurement, drawn and correlated in time order.

    The slice [0, t_slice), rounded to n_ticks ticks of 2**-_TICK_BITS
    bin, is cut at ticks n_ticks*j // n_chunks into chunks of about _CHUNK
    expected tags (pairs plus background singles), drawn in turn by
    _chunk_keys behind the keys carried from the chunk before.  Once
    sorted, the keys before the chunk's end are correlated, and the
    Stokes keys within one window of the end, with every key at or after
    it, are carried on: each anti-Stokes tag meets all its partners once,
    and the counts equal one correlation of all the slice's tags.  The
    carry left after the last chunk is correlated last.  One _Scratch
    holds the chunk's keys and _correlate's working arrays for the whole
    slice, and the carry is copied out of it before _correlate shifts
    the keys, so memory follows the chunk, not t_slice; only the draws
    allocate, a class's ticks or delays at a time.  Returns the slice's
    int64 counts per bin and its (Stokes, anti-Stokes) singles totals.
    """
    pairs, eff_s = cfg.pair_rate * cfg.duty_cycle, cfg.qe_stokes * cfg.channel_t_stokes
    eff_as = cfg.qe_antistokes * cfg.channel_t_antistokes
    tick_ns = cfg.bin_width / (1 << _TICK_BITS)
    rates = np.array([pairs * eff_s * eff_as, pairs * eff_s * (1 - eff_as) + cfg.background_s,
                      pairs * (1 - eff_s) * eff_as + cfg.background_as]) * (tick_ns * 1e-9)
    n_ticks = round(t_slice * 1e9 / tick_ns)
    n = (pairs + cfg.background_s + cfg.background_as) * t_slice
    n_chunks = max(1, math.ceil(n / _CHUNK))
    edges = [n_ticks * j // n_chunks for j in range(n_chunks + 1)]
    window = n_bins << _TICK_BITS
    counts = np.zeros(n_bins, dtype=np.int64)
    singles = np.zeros(2, dtype=np.int64)
    scratch = _Scratch()
    carry = np.empty(0, dtype=np.int64)
    for start, end in zip(edges, edges[1:]):
        keys, *tags = _chunk_keys(table, tick_ns, rates, start, end, carry, rng, scratch)
        singles += tags
        keys.sort()
        # Stokes keys at end and at one window before it (0 at the least)
        cut = keys.searchsorted(end << 1)
        done = keys[:cut]
        near = done[done.searchsorted(max(end - window, 0) << 1):]
        carry = np.concatenate([near[near & 1 == 0], keys[cut:]])
        counts += _correlate(done, n_bins, scratch)
    counts += _correlate(carry, n_bins, scratch)
    return counts, singles


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
    slice in chunks of time (see _simulate_shard).  The shards run on a
    pool of min(workers, n_shards) threads, or in the calling thread when
    that is 1; their counts and singles are summed in shard order into
    one histogram with cfg.measurement_time, so the result is
    deterministic for fixed (rng_seed, n_shards) regardless of workers.
    ValidationError is raised before anything is drawn when n_shards or
    workers is not an integer of at least 1, when n_shards exceeds
    MAX_SHARDS, when a shard's expected tag count,
    (pair_rate*duty_cycle + background_s + background_as)*
    measurement_time/n_shards, exceeds MAX_SHARD_TAGS, when the bin
    count, tau_max/bin_width, exceeds MAX_GRID_POINTS, or when a slice's
    ticks plus one window and one bin reach 2**62 (4.5e6 s at 1-ns bins).
    """
    for name, value in (("n_shards", n_shards), ("workers", workers)):
        if _integer(name, value) < 1:
            raise ValidationError(f"{name} must be >= 1")
    if n_shards > MAX_SHARDS:
        raise ValidationError(f"n_shards must be <= MAX_SHARDS = {MAX_SHARDS}, "
                              f"not {n_shards}")
    t_slice = cfg.measurement_time / n_shards
    tags = (cfg.pair_rate * cfg.duty_cycle + cfg.background_s
            + cfg.background_as) * t_slice
    if tags > MAX_SHARD_TAGS:
        raise ValidationError(
            f"each shard would draw about {tags:.3g} tags, above "
            f"MAX_SHARD_TAGS = {MAX_SHARD_TAGS:.0e}; raise n_shards to at "
            f"least {np.ceil(tags * n_shards / MAX_SHARD_TAGS):.0f}")
    bins = model.tau_max / cfg.bin_width
    if not (bins <= MAX_GRID_POINTS):
        raise ValidationError(
            f"the histogram would have {bins:.3g} bins of {cfg.bin_width:g} ns, "
            f"above MAX_GRID_POINTS = {MAX_GRID_POINTS:,}; widen bin_width")
    n_bins = max(1, int(round(bins)))
    # an int64 key is a tick shifted left by one, and a delay, at most
    # tau_max, may end up to one window and one bin past the slice
    ticks = t_slice * 1e9 / (cfg.bin_width / (1 << _TICK_BITS))
    if not (ticks < 2.0 ** 62 - ((n_bins + 1) << _TICK_BITS)):
        raise ValidationError(
            f"a {t_slice:.3g}-s shard slice is {ticks:.3g} ticks of 1/1024 of a "
            f"{cfg.bin_width:g}-ns bin: with the window it reaches 2^62 ticks; "
            f"widen bin_width or raise n_shards")
    table = _delay_table(model)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(n_shards)
    # numpy 2 keeps its error state per context, and a pool thread starts
    # from the default one: each shard runs under the caller's
    errstate = np.geterr()

    def run(seed_seq) -> tuple:
        with np.errstate(**errstate):
            return _simulate_shard(table, cfg, t_slice, n_bins,
                                   np.random.default_rng(seed_seq))

    workers = min(workers, n_shards)
    if workers == 1:
        # in the calling thread: a fresh worker thread per call allocates
        # from its own malloc arena, and the arenas it leaves behind raise
        # the process's peak memory from call to call
        shards = list(map(run, seeds))
    else:
        # imported here, so a run without a pool never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(run, seeds))
    counts, singles = (sum(parts) for parts in zip(*shards))
    return CoincidenceHistogram(cfg.bin_width, counts, *singles.tolist(),
                                cfg.measurement_time)


def expected_accidental_floor(h: CoincidenceHistogram) -> float:
    """Expected flat accidental count per bin from the measured singles."""
    s_rate = h.n_singles_s / h.measurement_time
    as_rate = h.n_singles_as / h.measurement_time
    return s_rate * as_rate * (h.bin_width * 1e-9) * h.measurement_time


def normalized_cross_correlation(h: CoincidenceHistogram) -> np.ndarray:
    """g_cross(tau_bin) = counts * T / (N_s * N_as * t_c): counts relative to
    the uncorrelated expectation, so uncorrelated streams give 1."""
    if h.n_singles_s == 0 or h.n_singles_as == 0:
        raise ValidationError("singles totals must be positive to normalize")
    return h.counts * h.measurement_time / (h.n_singles_s * h.n_singles_as
                                            * (h.bin_width * 1e-9))


def cauchy_schwarz(g_cross_max: float) -> float:
    """Nonclassicality C = g_cross^2/(g_auto_s*g_auto_as) = g_cross^2/4;
    C > 1 violates the classical bound.  Each unheralded arm's
    auto-correlation is 2, the chaotic-field value."""
    return g_cross_max ** 2 / 4.0


def loss_budget_rate(detected_rate: float, budget: LossBudget) -> float:
    """Invert a detected pair rate through the efficiency chain."""
    if not 0 <= detected_rate < math.inf:
        raise ValidationError("detected_rate must be finite and non-negative")
    return detected_rate / budget.product()


def budget_report(detected_rate: float, budget: LossBudget) -> str:
    """Human-readable inversion table, one factor per line; NumericalError
    if a rate in it overflows."""
    lines = [f"detected rate: {detected_rate:.6g} /s"]
    running = detected_rate
    for label, value in budget.factors:
        running /= value
        lines.append(f"/ {value:<6g} {label}: {running:.6g} /s")
    rate = loss_budget_rate(detected_rate, budget)
    # no factor exceeds 1, so the last running rate is the largest
    if not math.isfinite(max(running, rate)):
        raise NumericalError(f"a detected rate of {detected_rate:g} /s "
                             "overflows through the loss chain")
    lines.append(f"generated rate: {rate:.6g} /s")
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
