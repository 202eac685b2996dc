"""Monte Carlo coincidence generation, normalization, and loss budgets."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import window_masses

from biphoton import (
    DetectionConfig,
    LossBudget,
    SystemParams,
    TimeGridConfig,
    ValidationError,
    budget_report,
    cauchy_schwarz,
    expected_accidental_floor,
    g2_analytic,
    histogram_metadata,
    loss_budget_rate,
    normalized_cross_correlation,
    simulate_coincidences,
)
from biphoton import photostatistics
from biphoton.photostatistics import _Scratch, _correlate, _delay_table, _delays
from biphoton.wavepacket import Wavepacket

MODEL_P = SystemParams(delta_c=28.3, omega_c=14.8)
MODEL = g2_analytic(MODEL_P, grid=TimeGridConfig(tau_max=400.0, n_points=2000))
# ticks per bin: Monte Carlo tags are int64 counts of ticks
BIN = 1 << photostatistics._TICK_BITS


def _cfg(**kw):
    base = dict(measurement_time=120.0, rng_seed=5)
    base.update(kw)
    return DetectionConfig(**base)


def test_bit_determinism_same_seed():
    h1 = simulate_coincidences(MODEL, _cfg(), n_shards=4)
    h2 = simulate_coincidences(MODEL, _cfg(), n_shards=4)
    assert np.array_equal(h1.counts, h2.counts)
    assert h1.n_singles_s == h2.n_singles_s


def test_random_stream_is_pinned():
    # recorded when shards began to draw their time chunks by detection
    # class: any drift in a drawn delay or a counted pair changes the digest
    h = simulate_coincidences(MODEL, _cfg(), n_shards=4)
    digest = hashlib.sha256(np.asarray(h.counts, dtype="<i8").tobytes()).hexdigest()
    assert digest == "b5b7aefe942191331fc423fbc03f5475941a856777ff39d20d82dae80693cbfc"
    assert (h.n_singles_s, h.n_singles_as) == (71828, 71714)


def test_workers_do_not_change_the_result():
    serial = simulate_coincidences(MODEL, _cfg(), n_shards=4, workers=1)
    threaded = simulate_coincidences(MODEL, _cfg(), n_shards=4, workers=4)
    assert np.array_equal(serial.counts, threaded.counts)
    assert serial.n_singles_as == threaded.n_singles_as


def test_pool_shards_run_under_the_callers_error_state(monkeypatch):
    # numpy 2 keeps its error state per context, which a pool thread does
    # not inherit; the CLI relies on it reaching every shard
    seen = []
    shard = photostatistics._simulate_shard

    def spy(*args):
        seen.append(np.geterr()["over"])
        return shard(*args)

    monkeypatch.setattr(photostatistics, "_simulate_shard", spy)
    with np.errstate(over="raise"):
        simulate_coincidences(MODEL, _cfg(), n_shards=2, workers=2)
    assert seen == ["raise", "raise"]


def test_different_seeds_differ():
    h1 = simulate_coincidences(MODEL, _cfg(rng_seed=1))
    h2 = simulate_coincidences(MODEL, _cfg(rng_seed=2))
    assert not np.array_equal(h1.counts, h2.counts)


def test_detected_totals_match_expectation():
    cfg = _cfg()
    h = simulate_coincidences(MODEL, cfg)
    n_gen = cfg.pair_rate * cfg.duty_cycle * cfg.measurement_time
    eff_s = cfg.qe_stokes * cfg.channel_t_stokes
    eff_as = cfg.qe_antistokes * cfg.channel_t_antistokes
    want = n_gen * eff_s * eff_as
    assert h.counts.sum() == pytest.approx(want, rel=0.05)
    assert h.n_singles_s == pytest.approx(n_gen * eff_s, rel=0.05)
    assert h.n_singles_as == pytest.approx(n_gen * eff_as, rel=0.05)


def test_no_background_singles_bound_coincidences():
    # soft invariant: valid without backgrounds at moderate rates
    h = simulate_coincidences(MODEL, _cfg())
    assert h.counts.sum() <= min(h.n_singles_s, h.n_singles_as)


def test_histogram_shape_matches_model():
    # criterion 9's run, over two seeds, against the model integrated
    # apart from the sampler: expected pairs x efficiencies x bin mass,
    # plus the floor from the singles; Pearson chi2 per bin
    masses = window_masses(lambda grid: g2_analytic(MODEL_P, grid=grid))
    for seed in (17, 18):
        cfg = DetectionConfig(pair_rate=8.0e3, qe_stokes=0.9, qe_antistokes=0.9,
                              channel_t_stokes=0.9, channel_t_antistokes=0.9,
                              duty_cycle=1.0, measurement_time=200.0, rng_seed=seed)
        h = simulate_coincidences(MODEL, cfg, n_shards=8)
        pairs = (cfg.pair_rate * cfg.duty_cycle * cfg.measurement_time
                 * cfg.qe_stokes * cfg.channel_t_stokes
                 * cfg.qe_antistokes * cfg.channel_t_antistokes)
        want = pairs * masses + expected_accidental_floor(h)
        assert h.counts.sum() > 1_000_000
        chi2 = float(np.sum((h.counts - want) ** 2 / want))
        assert 0.8 < chi2 / len(want) < 1.2, seed


@pytest.mark.parametrize("delta_c, omega_c", [
    (28.3, 14.8), (0.0, 14.8), (16.7, 14.8), (45.0, 14.8), (28.3, 30.0)])
def test_delay_table_bias_is_below_6e8_pair_noise(delta_c, omega_c):
    # computed, not drawn: the sum of z^2 that the table's bin masses add
    # over 400 1-ns bins of 6e8 pairs, against the exact masses; trapezoid
    # masses on the same grid add 425-4,187 at these points
    p = SystemParams(delta_c=delta_c, omega_c=omega_c)
    table = _delay_table(g2_analytic(p, grid=TimeGridConfig(tau_max=400.0, n_points=2000)))
    got = np.diff(np.interp(np.arange(401.0), table.taus, table.cdf))
    want = window_masses(lambda grid: g2_analytic(p, grid=grid))
    assert 6e8 * float(np.sum((got - want) ** 2 / want)) <= 10.0


def test_background_only_flat_and_normalized():
    cfg = _cfg(pair_rate=0.0, background_s=2000.0, background_as=2000.0,
               measurement_time=300.0)
    h = simulate_coincidences(MODEL, cfg)
    floor = expected_accidental_floor(h)
    assert h.counts.mean() == pytest.approx(floor, rel=0.05)
    # uncorrelated streams normalize to g = 1
    g = normalized_cross_correlation(h)
    assert g.mean() == pytest.approx(1.0, abs=0.05)
    # flat: no bin wildly off the Poisson expectation
    sigma = np.sqrt(floor)
    assert np.all(np.abs(h.counts - floor) < 6.0 * sigma)


def test_accidental_floor_detected_in_mixed_run():
    # resonant model decays at the full width sum, so with a dim source
    # the 400-ns tail is purely accidental
    fast = g2_analytic(SystemParams(delta_c=0.0, omega_c=14.8),
                       grid=TimeGridConfig(tau_max=400.0, n_points=2000))
    cfg = _cfg(pair_rate=2000.0, background_s=3000.0, background_as=3000.0,
               measurement_time=300.0)
    h = simulate_coincidences(fast, cfg, n_shards=2)
    floor = expected_accidental_floor(h)
    tail = h.counts[-40:]
    assert fast.g2[-200:].mean() < 1e-3 * fast.g2.max()
    assert tail.mean() == pytest.approx(floor, rel=0.25)


def test_normalization_is_intensive():
    g_short = normalized_cross_correlation(
        simulate_coincidences(MODEL, _cfg(measurement_time=120.0))
    )
    g_long = normalized_cross_correlation(
        simulate_coincidences(MODEL, _cfg(measurement_time=480.0), n_shards=4)
    )
    peak_short = g_short.max()
    peak_long = g_long.max()
    # doubling integration time must not scale g
    assert peak_long == pytest.approx(peak_short, rel=0.2)
    assert peak_short > 10.0


def test_nonclassical_violation_with_low_background():
    cfg = _cfg(measurement_time=300.0, background_s=100.0, background_as=100.0)
    h = simulate_coincidences(MODEL, cfg, n_shards=2)
    g = normalized_cross_correlation(h)
    c = cauchy_schwarz(float(g.max()))
    assert c > 1.0


def test_cauchy_schwarz_values():
    assert cauchy_schwarz(55.7) == pytest.approx(55.7**2 / 4.0)
    assert cauchy_schwarz(2.0) == pytest.approx(1.0)


def test_budget_inversion():
    budget = LossBudget((("a", 0.5), ("b", 0.25)))
    assert budget.product() == pytest.approx(0.125)
    assert loss_budget_rate(1.0, budget) == pytest.approx(8.0)


def test_budget_default_chain_frozen():
    from biphoton.config import DEFAULT_BUDGET_FACTORS

    budget = LossBudget(DEFAULT_BUDGET_FACTORS)
    assert budget.product() == pytest.approx(2.106e-4, rel=1e-3)
    assert loss_budget_rate(2.18, budget) == pytest.approx(10351.4, rel=1e-3)


def test_budget_validation():
    with pytest.raises(ValidationError):
        LossBudget((("a", 0.0),))
    with pytest.raises(ValidationError):
        LossBudget((("a", 1.2),))


@pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
def test_bad_detected_rate_rejected(rate):
    with pytest.raises(ValidationError, match="detected_rate"):
        loss_budget_rate(rate, LossBudget((("a", 0.5),)))


def test_budget_report_mentions_every_factor():
    budget = LossBudget((("first_loss", 0.5), ("second_loss", 0.4)))
    report = budget_report(3.0, budget)
    assert "first_loss" in report and "second_loss" in report
    assert "15" in report  # 3.0 / 0.2


def test_metadata_is_json_serializable():
    cfg = _cfg()
    h = simulate_coincidences(MODEL, cfg)
    meta = histogram_metadata(h, cfg, extra={"note": "x"})
    text = json.dumps(meta)
    back = json.loads(text)
    assert back["bin_width_ns"] == pytest.approx(cfg.bin_width)
    assert back["n_singles_s"] == h.n_singles_s
    # and the singles themselves are plain ints, as json needs
    assert json.loads(json.dumps([h.n_singles_s, h.n_singles_as])) == [
        h.n_singles_s, h.n_singles_as]


def test_invalid_configs_rejected():
    with pytest.raises(ValidationError):
        DetectionConfig(pair_rate=-1.0)
    with pytest.raises(ValidationError):
        DetectionConfig(qe_stokes=1.5)
    with pytest.raises(ValidationError):
        DetectionConfig(duty_cycle=1.5)
    for name in ("pair_rate", "background_s", "background_as", "measurement_time",
                 "bin_width", "qe_stokes"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                DetectionConfig(**{name: value})
    with pytest.raises(ValidationError):
        simulate_coincidences(MODEL, _cfg(), n_shards=0)
    # integers only, and a bool is not one: checked before anything is drawn
    for value in (5.5, 5.0, True, "5", None):
        with pytest.raises(ValidationError, match="rng_seed must be an integer"):
            DetectionConfig(rng_seed=value)
    for name, value in (("n_shards", 2.0), ("n_shards", True), ("workers", 1.5),
                        ("workers", False), ("n_shards", np.float64(2.0))):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            simulate_coincidences(MODEL, _cfg(), **{name: value})
    cfg = _cfg(measurement_time=1.0, rng_seed=np.int64(5))
    assert type(cfg.rng_seed) is int
    h = simulate_coincidences(MODEL, cfg, n_shards=np.int64(2), workers=np.int32(1))
    assert json.loads(json.dumps(histogram_metadata(h, cfg)))["seed"] == 5
    # singles are integers, and the counts are kept as the array checked
    for singles, name in (((2.5, 10), "n_singles_s"), ((10, True), "n_singles_as"),
                          (("3", 10), "n_singles_s")):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            photostatistics.CoincidenceHistogram(1.0, [1, 2, 3], *singles, 1.0)
    # NaN passes a test for negative counts, and +inf passes it too
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="counts must be finite and non-negative"):
            photostatistics.CoincidenceHistogram(1.0, np.array([1.0, bad, 3.0] * 40),
                                                 10, 10, 1.0)
    listed = photostatistics.CoincidenceHistogram(1.0, [1, 2, 3], np.int64(10), 10, 1.0)
    assert type(listed.n_singles_s) is int
    assert normalized_cross_correlation(listed).tolist() == pytest.approx(
        [1e7, 2e7, 3e7])
    zero = MODEL.with_g2(np.zeros_like(MODEL.g2))
    with pytest.raises(ValidationError):
        simulate_coincidences(zero, _cfg())
    # two nodes at tau >= 0 leave the end segments no ghost node
    with pytest.raises(ValidationError, match="three nodes at tau >= 0"):
        simulate_coincidences(Wavepacket(-1.0, 1.0, np.ones(3), None), _cfg())


def test_sampled_delays_match_model_mean(rng):
    draws = _delays(_delay_table(MODEL), rng.random(200_000))
    taus = MODEL.taus
    masses = 0.5 * (MODEL.g2[1:] + MODEL.g2[:-1]) * np.diff(taus)
    centers = 0.5 * (taus[1:] + taus[:-1])
    want = float((centers * masses).sum() / masses.sum())
    assert draws.mean() == pytest.approx(want, rel=0.01)
    assert draws.min() >= 0.0 and draws.max() <= MODEL.tau_max


def _zero_run_model():
    g2 = MODEL.g2.copy()
    g2[300:700] = 0.0  # flat CDF segments inside the grid
    g2[1900:] = 0.0  # and a flat top
    return MODEL.with_g2(g2)


def _last_node_below_one():
    # a seeded search for a G2 whose table's CDF ends just below 1
    rng = np.random.default_rng(0)
    while True:
        model = MODEL.with_g2(rng.random(200))
        if _delay_table(model).cdf[-1] < 1.0:
            return model


@pytest.mark.parametrize("model", [
    MODEL,
    _zero_run_model(),
    Wavepacket(-37.3, MODEL.tau_step, MODEL.g2),
    g2_analytic(MODEL_P, grid=TimeGridConfig(tau_max=400.0, n_points=16)),
    _last_node_below_one(),
], ids=["default", "zero_run", "negative_tau_min", "16_points", "cdf_below_1"])
def test_sampled_delays_equal_np_interp(model):
    table = _delay_table(model)
    taus, cdf = table.taus, table.cdf
    assert np.all(np.diff(cdf) >= 0) and np.all(np.diff(taus) > 0)
    # uniforms on and next to every CDF node and every edge of a
    # power-of-two cell grid up to 4x the guide table's, the ends of
    # [0, 1), then plain draws
    top = 4 * photostatistics._GUIDE_CELLS_PER_NODE * len(cdf)
    edges = np.concatenate([np.arange(c) / c for c in 2 ** np.arange(4, 20)
                            if c <= top])
    marks = np.concatenate([cdf, edges, [1.0 - 2.0 ** -53]])
    u = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0),
                        np.random.default_rng(7).random(150_000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = _delays(table, u)
    assert np.array_equal(got, np.interp(u, cdf, taus))
    if cdf[-1] < 1.0:
        assert np.any(got[u >= cdf[-1]] == taus[-1])
    # and on a Generator's draws
    got = _delays(table, np.random.default_rng(3).random(100_003))
    want = np.interp(np.random.default_rng(3).random(100_003), cdf, taus)
    assert np.array_equal(got, want)


def test_guide_is_capped_on_a_large_grid():
    # 250,000 points: 16 cells per node would make 2^24 cells; the cap
    # keeps 2^22, and the uniforms in cells holding a node are searched
    table = _delay_table(g2_analytic(MODEL_P, grid=TimeGridConfig(tau_max=400.0,
                                                                  n_points=250_000)))
    assert len(table.guide) == photostatistics._GUIDE_MAX_CELLS
    assert table.guide.nbytes <= 16 * 2 ** 20
    u = np.random.default_rng(5).random(100_000)
    assert np.array_equal(_delays(table, u), np.interp(u, table.cdf, table.taus))


def _brute_force_histogram(stream_s, stream_as, n_bins):
    """Every pair of ticks with 0 <= t_as - t_s < n_bins bins, one at a time."""
    counts = np.zeros(n_bins, dtype=np.int64)
    for t_as in stream_as.tolist():
        for t_s in stream_s.tolist():
            d = t_as - t_s
            if 0 <= d < n_bins * BIN:
                counts[d // BIN] += 1
    return counts


def _keys(stream_s, stream_as):
    """Sorted keys of two streams of ticks, as a shard builds them."""
    keys = np.concatenate([np.asarray(stream_s, dtype=np.int64) << 1,
                           np.asarray(stream_as, dtype=np.int64) << 1 | 1])
    keys.sort()
    return keys


def test_correlation_matches_brute_force_with_exact_ties():
    # ticks on a lattice of a quarter bin: ties at t_as == t_s, at the
    # window and on every bin edge are met often
    unit = BIN // 4
    n_bins = 8
    rng = np.random.default_rng(11)
    stream_s = np.sort(rng.integers(0, 4000, 1000) * unit)
    stream_as = np.sort(rng.integers(0, 4000, 1000) * unit)
    diffs = stream_as[:, None] - stream_s[None, :]
    assert np.any(diffs == 0) and np.any(diffs == n_bins * BIN)
    assert np.any(diffs == 3 * BIN)
    want = _brute_force_histogram(stream_s, stream_as, n_bins)
    assert want.sum() > 1000
    got = _correlate(_keys(stream_s, stream_as), n_bins, _Scratch())
    assert np.array_equal(got, want)


@pytest.mark.parametrize("stream_s, stream_as", [
    ([], []),
    ([0, 2], []),
    ([], [0, 2]),
    ([0], [0]),
    ([0, 0], [0, 0.6, 0.6]),
    ([0, 4], [2, 8, 10]),
    # S, S, A, S, A, A in one window, the last S and A tied: the last A
    # pairs in rounds 2, 4 and 5, past A predecessors in rounds 1 and 3
    ([0, 2, 4], [3, 4, 6]),
], ids=["empty", "no_antistokes", "no_stokes", "both_at_zero",
        "ties_at_zero", "window_edges", "mixed_in_one_window"])
def test_correlation_of_edge_streams(stream_s, stream_as):
    # times in bins, of a window of 8
    stream_s, stream_as = ((np.array(arm, dtype=float) * BIN).astype(np.int64)
                           for arm in (stream_s, stream_as))
    want = _brute_force_histogram(stream_s, stream_as, 8)
    keys = _keys(stream_s, stream_as)
    got = _correlate(keys, 8, _Scratch())
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the keys were shifted in place to the tags' ticks
    assert np.array_equal(keys, np.sort(np.concatenate([stream_s, stream_as])))


def test_correlation_of_an_empty_stream_is_empty():
    tags = np.array([BIN, 2 * BIN])
    for stream_s, stream_as in ((tags, tags[:0]), (tags[:0], tags)):
        counts = _correlate(_keys(stream_s, stream_as), 4, _Scratch())
        assert counts.dtype == np.int64 and not counts.any()


def _must_not_run(*args):
    raise AssertionError("a shard ran")


def test_oversized_shard_is_rejected_before_it_runs(monkeypatch):
    monkeypatch.setattr(photostatistics, "_simulate_shard", _must_not_run)
    tags = photostatistics.MAX_SHARD_TAGS
    cfg = _cfg(pair_rate=4.0e4, duty_cycle=0.2, background_s=2000.0,
               background_as=2000.0, measurement_time=tags / 1e4 * 4.0)
    with pytest.raises(ValidationError, match="n_shards to at least 5"):
        simulate_coincidences(MODEL, cfg, n_shards=4)


def test_too_many_shards_are_rejected_before_they_run(monkeypatch):
    monkeypatch.setattr(photostatistics, "_simulate_shard", _must_not_run)
    with pytest.raises(ValidationError, match="n_shards must be <= MAX_SHARDS = 256"):
        simulate_coincidences(MODEL, _cfg(), n_shards=photostatistics.MAX_SHARDS + 1)


def test_pool_has_no_more_threads_than_shards(monkeypatch):
    sizes = []

    class Pool:
        # records its size and runs the shards in the calling thread
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    for n_shards in (3, 1):
        simulate_coincidences(MODEL, _cfg(measurement_time=3.0), n_shards=n_shards, workers=64)
    # one shard runs in the calling thread, with no pool
    assert sizes == [3]


@pytest.mark.parametrize("bin_width", [
    1.0e-7,
    MODEL.tau_max / (1.01 * photostatistics.MAX_GRID_POINTS),
])
def test_oversized_bin_count_is_rejected_before_it_runs(monkeypatch, bin_width):
    monkeypatch.setattr(photostatistics, "_simulate_shard", _must_not_run)
    with pytest.raises(ValidationError, match="bins .* above MAX_GRID_POINTS"):
        simulate_coincidences(MODEL, _cfg(bin_width=bin_width))


def _longest_slice(monkeypatch, cfg):
    """The longest measurement_time one shard may run at cfg's bins: the
    range check passes it and refuses the next float."""
    monkeypatch.setattr(photostatistics, "_simulate_shard", _must_not_run)

    def refused(t):
        try:
            simulate_coincidences(MODEL, dataclasses.replace(cfg, measurement_time=t))
        except ValidationError as err:
            assert "reaches 2^62 ticks" in str(err)
            return True
        except AssertionError:
            return False
        raise AssertionError("neither ran nor refused")

    # 2**62 ticks less one window and one bin, in s, and the floats next to it
    t = (2 ** 52 - 401) * cfg.bin_width * 1e-9
    while refused(t):
        t = np.nextafter(t, 0.0)
    while not refused(np.nextafter(t, np.inf)):
        t = np.nextafter(t, np.inf)
    monkeypatch.undo()
    return t


def test_slice_past_the_tick_range_is_rejected_before_it_runs(monkeypatch):
    # keys hold ticks of 1/1024 bin shifted left by one: a slice, with one
    # window and one bin for the longest delay, stays under 2**62 ticks,
    # 4.5e6 s at 1-ns bins; more shards or wider bins are the remedy
    monkeypatch.setattr(photostatistics, "_simulate_shard", _must_not_run)
    cfg = _cfg(measurement_time=5.0e6, pair_rate=1.0e-3)
    with pytest.raises(ValidationError, match="widen bin_width or raise n_shards"):
        simulate_coincidences(MODEL, cfg)
    for run in (dict(n_shards=2), dict(cfg=dataclasses.replace(cfg, bin_width=2.0))):
        with pytest.raises(AssertionError, match="a shard ran"):
            simulate_coincidences(MODEL, **{"cfg": cfg, **run})
    assert _longest_slice(monkeypatch, cfg) == pytest.approx(4.5036e6, rel=1e-4)


def test_longest_slice_bins_its_last_tags(monkeypatch):
    # a Stokes tag at the last tick of the longest slice, and anti-Stokes
    # tags up to one window and one bin past it: no key overflows int64
    cfg = _cfg(pair_rate=1.0e-3)
    cfg = dataclasses.replace(cfg, measurement_time=_longest_slice(monkeypatch, cfg))
    ends = []

    def tags(start, end, rates, rng):
        ends.append(end)
        return [end - 1], [end - 1 + d for d in (0, 399 * BIN, 400 * BIN - 1, 401 * BIN - 1)]

    monkeypatch.setattr(photostatistics, "_chunk_keys", _GivenTags(tags))
    h = simulate_coincidences(MODEL, cfg)
    assert ends[-1] + 401 * BIN - 2 < 2 ** 62 <= 2 * ends[-1]
    want = np.zeros(400, dtype=np.int64)
    want[[0, 399]] = [1, 2]
    assert np.array_equal(h.counts, want)


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="rng_seed must be non-negative"):
        DetectionConfig(rng_seed=-1)
    assert DetectionConfig(rng_seed=0).rng_seed == 0


# the correlation as it was before both arms shared one key array: one
# search over all anti-Stokes tags, on ticks; kept as the oracle of the
# chunk loop, which _GivenTags feeds tags the tests choose

def _full_array_correlate(stream_s, stream_as, n_bins):
    counts = np.zeros(n_bins, dtype=np.int64)
    s_idx = np.searchsorted(stream_s, stream_as, side="right") - 1
    as_idx = np.flatnonzero(s_idx >= 0)
    s_idx = s_idx[as_idx]
    while as_idx.size:
        t_as = stream_as[as_idx]
        t_s = stream_s[s_idx]
        near = np.flatnonzero(t_s > t_as - n_bins * BIN)
        as_idx, s_idx = as_idx[near], s_idx[near]
        # a bin past the last would not broadcast into counts
        counts += np.bincount((t_as[near] - t_s[near]) // BIN, minlength=n_bins)
        s_idx -= 1
        more = s_idx >= 0
        as_idx, s_idx = as_idx[more], s_idx[more]
    return counts


def test_key_correlation_equals_full_array_correlate():
    # float times in ns, dense enough that many tags have several
    # partners, some of them many predecessors back, in ticks of two bin
    # widths; one scratch serves every call, growing from the first and
    # reused by the last
    rng = np.random.default_rng(21)
    scratch = _Scratch()
    for n_s, n_as, span in ((3000, 2000, 2e5), (500, 4000, 1e6), (1, 1, 100.0)):
        ns_s = np.sort(rng.random(n_s) * span)
        ns_as = np.sort(rng.random(n_as) * span + rng.random(n_as) * 300.0)
        for n_bins, bin_width in ((400, 1.0), (7, 150.0)):
            stream_s, stream_as = ((t * BIN / bin_width).astype(np.int64)
                                   for t in (ns_s, ns_as))
            want = _full_array_correlate(stream_s, stream_as, n_bins)
            got = _correlate(_keys(stream_s, stream_as), n_bins, scratch)
            assert np.array_equal(got, want)
            assert want.sum() > (500 if n_s > 1 else -1)


def _chunk_edges(cfg, t_slice):
    tags = (cfg.pair_rate * cfg.duty_cycle + cfg.background_s + cfg.background_as) * t_slice
    edges = np.linspace(0.0, t_slice, max(1, math.ceil(tags / photostatistics._CHUNK)) + 1)
    return zip(edges[:-1], edges[1:])


def _ticks(cfg, seconds):
    """Times in s as ticks of 1/BIN of cfg's bins, a time-to-digital
    converter's reading; a whole measurement_time reads as its slice's end."""
    return np.round(np.asarray(seconds) * 1e9 / cfg.bin_width * BIN).astype(np.int64)


def _per_pair_chunks(cfg, t_slice, rng):
    """The same tags drawn by thinning every generated pair, as the shards
    drew them before they drew by class: each pair's Stokes time, a keep
    test per arm and a delay for every kept anti-Stokes photon, then the
    backgrounds, in s, read as ticks."""
    table = _delay_table(MODEL)
    chunks = []
    for start, end in _chunk_edges(cfg, t_slice):
        span = end - start
        t_s = rng.random(rng.poisson(cfg.pair_rate * cfg.duty_cycle * span)) * span + start
        keep_s = rng.random(len(t_s)) < cfg.qe_stokes * cfg.channel_t_stokes
        keep_as = rng.random(len(t_s)) < cfg.qe_antistokes * cfg.channel_t_antistokes
        t_as = np.interp(rng.random(keep_as.sum()), table.cdf, table.taus) * 1e-9 + t_s[keep_as]
        bg_s = rng.random(rng.poisson(cfg.background_s * span)) * span + start
        bg_as = rng.random(rng.poisson(cfg.background_as * span)) * span + start
        chunks.append((_ticks(cfg, np.concatenate([t_s[keep_s], bg_s])),
                       _ticks(cfg, np.concatenate([t_as, bg_as]))))
    return chunks


def _full_array_shard(cfg, n_bins, chunks):
    """The chunks' tags correlated all at once: counts and singles, as a
    shard returns them."""
    stream_s, stream_as = (np.sort(np.concatenate(arm)) for arm in zip(*chunks))
    counts = _full_array_correlate(stream_s, stream_as, n_bins)
    return counts, np.array([len(stream_s), len(stream_as)])


def _pairs_per_second(chunks, measurement_time=10.0, duty_cycle=0.2):
    return chunks * photostatistics._CHUNK / (duty_cycle * measurement_time)


# a "block" in the case names is a chunk of _CHUNK expected tags
ORACLE_CASES = {
    "no_pairs": dict(pair_rate=0.0, background_s=3000.0, background_as=2000.0),
    "nothing": dict(pair_rate=0.0),
    "under_one_block": dict(pair_rate=_pairs_per_second(0.3), background_s=500.0,
                            background_as=700.0),
    "blocks_and_a_part": dict(pair_rate=_pairs_per_second(2.5), background_s=2000.0,
                              background_as=2000.0, rng_seed=8),
    "no_backgrounds": dict(pair_rate=_pairs_per_second(2.5), qe_stokes=0.8, rng_seed=9),
    "lossless": dict(pair_rate=_pairs_per_second(1.3), qe_stokes=1.0,
                     qe_antistokes=1.0, channel_t_stokes=1.0,
                     channel_t_antistokes=1.0, background_s=500.0, rng_seed=10),
    "dark": dict(pair_rate=_pairs_per_second(1.3), qe_stokes=0.0, qe_antistokes=0.0,
                 background_s=1000.0, background_as=800.0, rng_seed=11),
    # chunks of 256 expected tags, 0.25 s each, under a 0.4-s window: the
    # carried Stokes tags span several chunks
    "many_chunks": dict(pair_rate=2000.0, background_s=300.0, background_as=300.0,
                        bin_width=1e6, rng_seed=12),
    # a 20-us slice: a few percent of the anti-Stokes tags fall after its end
    "tags_past_the_end": dict(pair_rate=1e9, measurement_time=2e-5, rng_seed=13),
}
CHUNKS = {"no_pairs": 1, "nothing": 1, "under_one_block": 1, "blocks_and_a_part": 4,
          "no_backgrounds": 3, "lossless": 2, "dark": 2, "many_chunks": 40,
          "tags_past_the_end": 1}


class _GivenTags:
    """A stand-in for _chunk_keys that keeps its contract on tags a test
    chooses: tags(start, end, rates, rng) gives a chunk's Stokes and
    anti-Stokes ticks, none before start, and the source writes the carry
    and then their keys (see _correlate) into the shard's scratch.  Each
    shard's chunks are recorded as (start, end, stokes, anti-Stokes) under
    the shard's rng."""

    def __init__(self, tags):
        self.tags = tags
        self.shards = {}

    def __call__(self, table, tick_ns, rates, start, end, carry, rng, scratch):
        stokes, anti = (np.asarray(arm, dtype=np.int64)
                        for arm in self.tags(start, end, rates, rng))
        assert np.all(stokes >= start) and np.all(anti >= start)
        self.shards.setdefault(rng, []).append((start, end, stokes, anti))
        n = len(carry) + len(stokes) + len(anti)
        scratch.reserve(n)
        keys = scratch.keys[:n]
        keys[:len(carry)] = carry
        keys[len(carry):] = _keys(stokes, anti)
        return keys, len(stokes), len(anti)


def _own_tags(n_bins):
    """The tests' own tags of a chunk, at the class rates per tick the
    shard passes: Poisson counts, ticks uniform in the chunk, and pair
    delays uniform over 1.25 windows of n_bins, so that some pairs fall
    outside the window."""
    def tags(start, end, rates, rng):
        n_pair, n_s, n_as = rng.poisson(rates * (end - start))
        stokes = rng.integers(start, end, n_pair + n_s)
        anti = np.concatenate([stokes[:n_pair] + rng.integers(0, n_bins * BIN * 5 // 4, n_pair),
                               rng.integers(start, end, n_as)])
        return stokes, anti
    return tags


def _given_shard(monkeypatch, cfg, n_bins, tags):
    """One shard over cfg's whole measurement on given tags: its counts and
    singles, and each chunk's (Stokes, anti-Stokes) times."""
    source = _GivenTags(tags)
    monkeypatch.setattr(photostatistics, "_chunk_keys", source)
    got = photostatistics._simulate_shard(None, cfg, cfg.measurement_time, n_bins,
                                          np.random.default_rng(cfg.rng_seed))
    (chunks,) = source.shards.values()
    starts, ends = zip(*(chunk[:2] for chunk in chunks))
    # the chunks tile the slice's ticks
    assert starts[0] == 0 and ends[-1] == _ticks(cfg, cfg.measurement_time)
    assert starts[1:] == ends[:-1]
    return got, [chunk[2:] for chunk in chunks]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_blocked_shard_equals_full_array_shard(monkeypatch, case):
    sizes = []
    if case == "many_chunks":
        monkeypatch.setattr(photostatistics, "_CHUNK", 256)
        init = _Scratch.__init__

        def spy(self, n=0):
            sizes.append(n)
            init(self, n)
        monkeypatch.setattr(_Scratch, "__init__", spy)
    cfg = _cfg(**{"measurement_time": 10.0, **ORACLE_CASES[case]})
    n_bins = 400
    got, chunks = _given_shard(monkeypatch, cfg, n_bins, _own_tags(n_bins))
    want = _full_array_shard(cfg, n_bins, chunks)
    assert len(chunks) == CHUNKS[case]
    assert got[0].dtype == got[1].dtype == np.int64
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if case == "many_chunks":
        # pairs across chunk ends count: each chunk correlated alone
        # misses them
        alone = sum(_full_array_shard(cfg, n_bins, [c])[0].sum() for c in chunks)
        assert alone < 0.9 * got[0].sum()
        # the carry outgrows the scratch sized by the first chunk
        assert len(sizes) > 2 and sizes[2] > sizes[1] > 0
    if case == "tags_past_the_end":
        assert np.count_nonzero(chunks[0][1] >= _ticks(cfg, cfg.measurement_time)) > 0


# ticks in 1 s of 0.125-s bins
SECOND = 8 * BIN


def _lattice(seed):
    """24 Stokes and 24 anti-Stokes ticks per chunk on a 1/16-s lattice,
    chunk ends included: ties at every edge the loop tests."""
    rng = np.random.default_rng(seed)
    return {k: tuple(k * SECOND + rng.integers(0, 17, 24) * (SECOND // 16) for _ in "sa")
            for k in range(4)}


# tags a Monte Carlo draw seldom or never reaches, in a shard of four 1-s
# chunks under a window of 4 bins of 0.125 s (0.5 s) or 20 (2.5 s): the
# bin count, and the Stokes and anti-Stokes ticks by chunk, where given
S = SECOND
EDGE_CASES = {
    # Stokes tags at, one tick below and one above end - window: only the
    # one above pairs with the anti-Stokes tag at the next chunk's start
    "stokes_at_end_minus_window": (4, {
        0: ([S // 2 - 1, S // 2, S // 2 + 1], [S * 9 // 10]),
        1: ([], [S, S * 9 // 8])}),
    # a Stokes tag at its chunk's end, which no draw gives, ties with the
    # next chunk's first anti-Stokes tag
    "stokes_at_end": (4, {0: ([S * 3 // 4, S], [S * 7 // 8]),
                          1: ([S * 5 // 4], [S, S * 5 // 4, S * 11 // 8])}),
    # an anti-Stokes tag at its chunk's end ties with the next chunk's first
    # Stokes tag
    "antistokes_at_end": (4, {0: ([S * 3 // 4], [S]), 1: ([S], [S, S * 5 // 4])}),
    # both arms at both ends of every chunk, the slice's end included
    "ties_across_chunk_ends": (4, {k: ([k * S, (k + 1) * S], [k * S, (k + 1) * S])
                                   for k in range(4)}),
    # the carry crosses two empty chunks; 3.375 - 0.875 s is the window
    "empty_chunks_between": (20, {0: ([S * 7 // 8, S * 15 // 16], [S * 15 // 16]),
                                  3: ([S * 7 // 2], [3 * S, S * 13 // 4, S * 27 // 8,
                                                     S * 29 // 8])}),
    "one_arm_per_chunk": (4, {0: ([S * 5 // 8, S * 7 // 8], []), 1: ([], [S, S * 5 // 4]),
                              2: ([S * 23 // 8], []), 3: ([], [3 * S, S * 7 // 2])}),
    "lattice": (4, _lattice(1)),
    "window_over_chunks": (20, _lattice(2)),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_chunk_ends_on_given_tags(monkeypatch, case):
    # 4 s at _CHUNK expected tags a second: chunk ends at exactly 1, 2 and 3 s
    n_bins, given = EDGE_CASES[case]
    cfg = _cfg(pair_rate=float(photostatistics._CHUNK), duty_cycle=1.0,
               measurement_time=4.0, bin_width=1.25e8)
    got, chunks = _given_shard(monkeypatch, cfg, n_bins,
                               lambda start, *_: given.get(start // SECOND, ([], [])))
    assert len(chunks) == 4
    want = _full_array_shard(cfg, n_bins, chunks)
    stream_s, stream_as = (np.concatenate(arm) for arm in zip(*chunks))
    brute = _brute_force_histogram(stream_s, stream_as, n_bins)
    assert np.array_equal(want[0], brute) and brute.sum() > 0
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("workers", [1, 2])
def test_sharded_run_equals_full_array_shards(monkeypatch, workers):
    # each shard draws its own tags from its rng; their full-array counts
    # and singles, summed, are the run's
    cfg = _cfg(measurement_time=30.0, pair_rate=_pairs_per_second(1.7, 10.0),
               background_s=1500.0, background_as=1000.0, rng_seed=12)
    source = _GivenTags(_own_tags(400))
    monkeypatch.setattr(photostatistics, "_chunk_keys", source)
    got = simulate_coincidences(MODEL, cfg, n_shards=3, workers=workers)
    assert len(source.shards) == 3
    shards = [_full_array_shard(cfg, 400, [chunk[2:] for chunk in chunks])
              for chunks in source.shards.values()]
    assert all(chunks[-1][1] == 10 ** 10 * BIN for chunks in source.shards.values())
    counts, singles = (sum(parts) for parts in zip(*shards))
    assert np.array_equal(got.counts, counts)
    assert [got.n_singles_s, got.n_singles_as] == singles.tolist()
    assert got.measurement_time == cfg.measurement_time


def test_chunk_keys_keep_their_contract():
    # the contract _GivenTags keeps, on the real draws of 0.25-s chunks at
    # 1-ns bins and offsets up to 2**61 ticks: the carry first and
    # unchanged, the arm totals returned, no new tag before start and no
    # Stokes tag at or after end
    from scipy.stats import kstest

    table, scratch, tick_ns = _delay_table(MODEL), _Scratch(), 1.0 / BIN
    rates = np.array([2.0e4, 1.0e4, 1.5e4]) * tick_ns * 1e-9
    carry = _keys([5, 290], [295])
    shares = ([], [])
    for seed in range(16):
        start = (seed + 1) << 57
        end = start + 250_000_000 * BIN
        keys, n_s, n_as = photostatistics._chunk_keys(
            table, tick_ns, rates, start, end, carry, np.random.default_rng(seed), scratch)
        assert keys.dtype == np.int64 and np.array_equal(keys[:len(carry)], carry)
        arm = (keys[len(carry):] & 1).astype(bool)
        t = keys[len(carry):] >> 1
        assert (n_s, n_as) == (np.count_nonzero(~arm), np.count_nonzero(arm))
        assert t.min() >= start and t[~arm].max() < end
        for share, ticks in zip(shares, (t[~arm], t[arm])):
            share.append((ticks - start) / (end - start))
    # each arm's ticks uniform over their chunk, by one KS test per arm
    # over the 16 seeds; a pair's anti-Stokes tag trails by under 400 ns,
    # 2e-6 of a chunk
    for share in shares:
        assert kstest(np.concatenate(share), "uniform").pvalue > 1e-3


@pytest.mark.parametrize("bin_width", [1.0, 0.37, 150.0])
def test_pair_keys_bin_at_the_floor_of_their_delay(monkeypatch, bin_width):
    # each coincident pair's anti-Stokes key trails its Stokes key by a
    # delay d that _delays gives from the chunk's own uniforms: the tick
    # difference, shifted to bins, is floor(d / bin_width), at offsets up
    # to 2**62 ticks, over 16 seeds
    delays = []

    def spy(table, u):
        # every third delay moved onto the float bin edge below it, and
        # every third just under that edge, where one rounding sets the bin
        d = _delays(table, u)
        edge = np.floor(d / bin_width) * bin_width
        d[1::3] = edge[1::3]
        d[2::3] = np.nextafter(edge[2::3], 0.0)
        delays.append(d.copy())
        return d

    monkeypatch.setattr(photostatistics, "_delays", spy)
    table, tick_ns = _delay_table(MODEL), bin_width / BIN
    rates = np.array([2.0e4, 1.0e3, 1.0e3]) * tick_ns * 1e-9
    span = round(0.5e9 / tick_ns)
    bins = []
    for seed in range(16):
        start = seed << 58
        keys, n_stokes, _ = photostatistics._chunk_keys(
            table, tick_ns, rates, start, start + span, np.empty(0, dtype=np.int64),
            np.random.default_rng(seed), _Scratch())
        (d,) = delays
        delays.clear()
        dt = (keys[n_stokes:n_stokes + len(d)] >> 1) - (keys[:len(d)] >> 1)
        assert np.array_equal(dt >> photostatistics._TICK_BITS, np.floor(d / bin_width))
        bins.append(dt >> photostatistics._TICK_BITS)
    bins = np.concatenate(bins)
    assert len(bins) > 50_000 and bins.max() == int(MODEL.tau_max / bin_width - 1e-9)


def test_long_single_shard_run_matches_expectation():
    # 2e4 s at 1-ns bins in one shard, 2.4 times the longest slice of
    # float64 tag times: the singles and coincidences, dominated by true
    # pairs, lie within 5 sigma of their Poisson expectation
    cfg = _cfg(measurement_time=2.0e4, pair_rate=1.0)
    h = simulate_coincidences(MODEL, cfg)
    pairs = cfg.pair_rate * cfg.duty_cycle * cfg.measurement_time
    eff_s = cfg.qe_stokes * cfg.channel_t_stokes
    eff_as = cfg.qe_antistokes * cfg.channel_t_antistokes
    for got, want in ((h.n_singles_s, pairs * eff_s), (h.n_singles_as, pairs * eff_as),
                      (h.counts.sum(), pairs * eff_s * eff_as)):
        assert abs(got - want) < 5.0 * math.sqrt(want), (got, want)


def test_sharded_run_keeps_the_measurement_time():
    # 7.7/3 summed three times is 7.700000000000001: the run's histogram
    # carries the configured time, not a sum of slices
    h = simulate_coincidences(MODEL, _cfg(measurement_time=7.7), n_shards=3)
    assert h.measurement_time == 7.7


def test_shard_memory_is_flat_in_measurement_time():
    # one shard at the benchmark's Monte Carlo detection settings: its
    # traced peak follows the chunk, so a 10x longer run holds no more
    peaks, tags = [], []
    for measurement_time in (200.0, 2000.0):
        cfg = _cfg(pair_rate=4.0e4, measurement_time=measurement_time,
                   background_s=2000.0, background_as=2000.0)
        tracemalloc.start()
        try:
            h = simulate_coincidences(MODEL, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        tags.append(h.n_singles_s + h.n_singles_as)
    assert tags[0] > 1_500_000 and tags[1] > 9 * tags[0]
    assert peaks[1] <= 1.1 * peaks[0]
    # one scratch per shard, and a guide of 2 B per cell at this grid
    assert peaks[0] <= 2.4 * 2 ** 20


def test_class_draws_match_per_pair_thinning():
    # the colouring theorem: drawing coincident pairs and each arm's
    # singles as independent Poisson streams gives the totals of thinning
    # every generated pair; over 24 seeds of a short run with backgrounds
    cfg = _cfg(pair_rate=1.0e5, measurement_time=1.0, background_s=2000.0,
               background_as=3000.0)
    got, want = [], []
    for seed in range(24):
        h = simulate_coincidences(MODEL, dataclasses.replace(cfg, rng_seed=seed))
        got.append((h.n_singles_s, h.n_singles_as, h.counts.sum()))
        counts, singles = _full_array_shard(cfg, 400, _per_pair_chunks(
            cfg, cfg.measurement_time, np.random.default_rng(1000 + seed)))
        want.append((*singles, counts.sum()))
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    diff = got.mean(axis=0) - want.mean(axis=0)
    sigma = np.sqrt((got.var(axis=0, ddof=1) + want.var(axis=0, ddof=1)) / len(got))
    assert np.all(np.abs(diff) < 4.0 * sigma), (diff, sigma)
    assert np.all(want.mean(axis=0) > [7000.0, 8000.0, 1500.0])
