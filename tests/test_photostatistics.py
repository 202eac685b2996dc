"""Monte Carlo coincidence generation, normalization, and loss budgets."""

import copy
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

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
from biphoton.photostatistics import _correlate, _delay_table, _delays

MODEL_P = SystemParams(delta_c=28.3, omega_c=14.8)
MODEL = g2_analytic(MODEL_P, grid=TimeGridConfig(tau_max=400.0, n_points=2000))


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
    # recorded before the guide-table sampler and the correlation walk
    # replaced np.interp and the two full searches: any drift in a drawn
    # delay or a counted pair changes the digest
    h = simulate_coincidences(MODEL, _cfg(), n_shards=4)
    digest = hashlib.sha256(np.asarray(h.counts, dtype="<i8").tobytes()).hexdigest()
    assert digest == "8df57d0c8b76859cde8887a182a55ac6ace8ce1334d91ff7d8b9b5d6b095b0ca"
    assert (h.n_singles_s, h.n_singles_as) == (71945, 71727)


def test_workers_do_not_change_the_result():
    serial = simulate_coincidences(MODEL, _cfg(), n_shards=4, workers=1)
    threaded = simulate_coincidences(MODEL, _cfg(), n_shards=4, workers=4)
    assert np.array_equal(serial.counts, threaded.counts)
    assert serial.n_singles_as == threaded.n_singles_as


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
    cfg = _cfg(measurement_time=600.0)
    h = simulate_coincidences(MODEL, cfg, n_shards=4)
    # theory mass per 1-ns bin from the model grid (5 nodes per bin)
    taus = MODEL.taus
    masses = 0.5 * (MODEL.g2[1:] + MODEL.g2[:-1]) * np.diff(taus)
    centers = 0.5 * (taus[1:] + taus[:-1])
    bins = np.floor(centers / h.bin_width).astype(int)
    theory = np.bincount(bins, weights=masses, minlength=len(h.counts))
    theory = theory / theory.sum() * h.counts.sum()
    m = theory >= 20.0
    chi2 = float(np.sum((h.counts[m] - theory[m]) ** 2 / theory[m]))
    dof = int(m.sum())
    assert chi2 / dof == pytest.approx(1.0, abs=0.2)


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
    with pytest.raises(ValidationError):
        cauchy_schwarz(10.0, 0.0, 2.0)


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


def test_merged_histograms_add():
    h1 = simulate_coincidences(MODEL, _cfg(rng_seed=1))
    h2 = simulate_coincidences(MODEL, _cfg(rng_seed=2))
    merged = h1.merged_with(h2)
    assert merged.counts.sum() == h1.counts.sum() + h2.counts.sum()
    assert merged.n_singles_s == h1.n_singles_s + h2.n_singles_s
    assert merged.measurement_time == pytest.approx(
        h1.measurement_time + h2.measurement_time
    )


def test_metadata_is_json_serializable():
    cfg = _cfg()
    h = simulate_coincidences(MODEL, cfg)
    meta = histogram_metadata(h, cfg, extra={"note": "x"})
    text = json.dumps(meta)
    back = json.loads(text)
    assert back["bin_width_ns"] == pytest.approx(cfg.bin_width)
    assert back["n_singles_s"] == h.n_singles_s


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
    zero = MODEL.with_g2(np.zeros_like(MODEL.g2))
    with pytest.raises(ValidationError):
        simulate_coincidences(zero, _cfg())


def test_sampled_delays_match_model_mean(rng):
    draws = _delays(_delay_table(MODEL), rng.random(200_000))
    taus = MODEL.taus
    masses = 0.5 * (MODEL.g2[1:] + MODEL.g2[:-1]) * np.diff(taus)
    centers = 0.5 * (taus[1:] + taus[:-1])
    want = float((centers * masses).sum() / masses.sum())
    assert draws.mean() == pytest.approx(want, rel=0.01)
    assert draws.min() >= 0.0 and draws.max() <= MODEL.tau_max


def _delay_cdf(model):
    taus = model.taus
    pos = taus >= 0
    taus, g2 = taus[pos], np.asarray(model.g2, dtype=float)[pos]
    masses = 0.5 * (g2[1:] + g2[:-1]) * np.diff(taus)
    return taus, np.concatenate([[0.0], np.cumsum(masses)]) / masses.sum()


def _zero_run_model():
    g2 = MODEL.g2.copy()
    g2[300:700] = 0.0  # flat CDF segments inside the grid
    g2[1900:] = 0.0  # and a flat top
    return MODEL.with_g2(g2)


def _last_node_below_one():
    # a seeded search for a G2 whose sequential CDF ends just below 1
    rng = np.random.default_rng(0)
    while True:
        model = MODEL.with_g2(rng.random(200))
        if _delay_cdf(model)[1][-1] < 1.0:
            return model


@pytest.mark.parametrize("model", [
    MODEL,
    _zero_run_model(),
    g2_analytic(MODEL_P, grid=TimeGridConfig(tau_max=400.0, n_points=2000,
                                             tau_min=-37.3)),
    g2_analytic(MODEL_P, grid=TimeGridConfig(tau_max=400.0, n_points=16)),
    _last_node_below_one(),
], ids=["default", "zero_run", "negative_tau_min", "16_points", "cdf_below_1"])
def test_sampled_delays_equal_np_interp(model):
    taus, cdf = _delay_cdf(model)
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
    table = _delay_table(model)
    got = _delays(table, u)
    assert np.array_equal(got, np.interp(u, cdf, taus))
    if cdf[-1] < 1.0:
        assert np.any(got[u >= cdf[-1]] == taus[-1])
    # and on a Generator's draws
    got = _delays(table, np.random.default_rng(3).random(100_003))
    want = np.interp(np.random.default_rng(3).random(100_003), cdf, taus)
    assert np.array_equal(got, want)


def _brute_force_histogram(stream_s, stream_as, window, n_bins, bin_width):
    counts = np.zeros(n_bins, dtype=np.int64)
    for t_as in stream_as.tolist():
        for t_s in stream_s.tolist():
            d = t_as - t_s
            if 0.0 <= d < window:
                counts[min(int(d * 1e9 / bin_width), n_bins - 1)] += 1
    return counts


def test_correlation_matches_brute_force_with_exact_ties(monkeypatch):
    # tags on a 2**-22 s lattice: differences, window and bin edges are
    # exact, so ties at t_as == t_s, at the window and on every bin edge
    # (bins are 4 lattice steps) are decided exactly by both sides
    unit = 2.0 ** -22
    bin_width = 1e9 * 4 * unit
    n_bins = 8
    window = n_bins * 4 * unit
    rng = np.random.default_rng(11)
    stream_s = np.sort(rng.integers(0, 4000, 1000) * unit)
    stream_as = np.sort(rng.integers(0, 4000, 1000) * unit)
    diffs = stream_as[:, None] - stream_s[None, :]
    assert np.any(diffs == 0.0) and np.any(diffs == window)
    assert np.any(diffs == 4 * unit * 3)
    want = _brute_force_histogram(stream_s, stream_as, window, n_bins, bin_width)
    assert want.sum() > 1000
    got = _correlate(stream_s, stream_as, window, n_bins, bin_width)
    assert np.array_equal(got, want)
    # and in blocks of anti-Stokes tags that start or end on a Stokes tag
    for block in (7, 64):
        monkeypatch.setattr(photostatistics, "_BLOCK", block)
        ends = np.concatenate([stream_as[::block], stream_as[block - 1::block]])
        assert np.isin(ends, stream_s).any()
        got = _correlate(stream_s, stream_as, window, n_bins, bin_width)
        assert np.array_equal(got, want)


def test_correlation_of_an_empty_stream_is_empty():
    tags = np.array([1e-6, 2e-6])
    for stream_s, stream_as in ((tags, tags[:0]), (tags[:0], tags)):
        counts = _correlate(stream_s, stream_as, 1e-6, 4, 1.0)
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


@pytest.mark.parametrize("bin_width", [
    1.0e-7,
    MODEL.tau_max / (1.01 * photostatistics.MAX_SHARD_TAGS),
])
def test_oversized_bin_count_is_rejected_before_it_runs(monkeypatch, bin_width):
    monkeypatch.setattr(photostatistics, "_simulate_shard", _must_not_run)
    with pytest.raises(ValidationError, match="bins .* above MAX_SHARD_TAGS"):
        simulate_coincidences(MODEL, _cfg(bin_width=bin_width))


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="rng_seed must be non-negative"):
        DetectionConfig(rng_seed=-1)
    assert DetectionConfig(rng_seed=0).rng_seed == 0


# the shard as it was before pairs were drawn in blocks: every per-pair
# array at full length, delays by np.interp on one rng.random(n) call
# (the map the guide table reproduces bit for bit), and one search over
# all anti-Stokes tags; kept verbatim as the oracle of the blocked shard

def _full_array_sample_delays(model, n, rng):
    taus, cdf = _delay_cdf(model)
    return np.interp(rng.random(n), cdf, taus)


def _full_array_correlate(stream_s, stream_as, window, n_bins, bin_width):
    counts = np.zeros(n_bins, dtype=np.int64)
    s_idx = np.searchsorted(stream_s, stream_as, side="right") - 1
    as_idx = np.flatnonzero(s_idx >= 0)
    s_idx = s_idx[as_idx]
    while as_idx.size:
        t_as = stream_as[as_idx]
        t_s = stream_s[s_idx]
        near = np.flatnonzero(t_s > t_as - window)
        as_idx, s_idx = as_idx[near], s_idx[near]
        diffs_ns = (t_as[near] - t_s[near]) * 1e9
        idx = (diffs_ns / bin_width).astype(np.int64)
        np.clip(idx, 0, n_bins - 1, out=idx)
        counts += np.bincount(idx, minlength=n_bins)
        s_idx -= 1
        more = s_idx >= 0
        as_idx, s_idx = as_idx[more], s_idx[more]
    return counts


def _full_array_shard(model, cfg, t_slice, n_bins, rng):
    mean_pairs = cfg.pair_rate * cfg.duty_cycle * t_slice
    n_pairs = int(rng.poisson(mean_pairs))
    t_s = rng.random(n_pairs)
    t_s *= t_slice
    t_as = _full_array_sample_delays(model, n_pairs, rng)
    t_as *= 1e-9
    t_as += t_s

    keep_s = rng.random(n_pairs) < cfg.qe_stokes * cfg.channel_t_stokes
    keep_as = rng.random(n_pairs) < cfg.qe_antistokes * cfg.channel_t_antistokes

    n_bg_s = int(rng.poisson(cfg.background_s * t_slice))
    n_bg_as = int(rng.poisson(cfg.background_as * t_slice))
    stream_s = np.concatenate([t_s[keep_s], rng.random(n_bg_s) * t_slice])
    stream_as = np.concatenate([t_as[keep_as], rng.random(n_bg_as) * t_slice])
    del t_s, t_as  # freed before the correlation allocates its own arrays
    stream_s.sort()
    stream_as.sort()

    window = n_bins * cfg.bin_width * 1e-9
    return photostatistics.CoincidenceHistogram(
        bin_width=cfg.bin_width,
        counts=_full_array_correlate(stream_s, stream_as, window, n_bins, cfg.bin_width),
        n_singles_s=len(stream_s),
        n_singles_as=len(stream_as),
        measurement_time=t_slice,
    )


def _pairs_per_second(blocks, measurement_time=10.0, duty_cycle=0.2):
    return blocks * photostatistics._BLOCK / (duty_cycle * measurement_time)


ORACLE_CASES = {
    "no_pairs": dict(pair_rate=0.0, background_s=3000.0, background_as=2000.0),
    "nothing": dict(pair_rate=0.0),
    "under_one_block": dict(pair_rate=_pairs_per_second(0.3), background_s=500.0,
                            background_as=700.0),
    "blocks_and_a_part": dict(pair_rate=_pairs_per_second(2.5), background_s=2000.0,
                              background_as=2000.0, rng_seed=8),
    "no_backgrounds": dict(pair_rate=_pairs_per_second(2.5), rng_seed=9),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_blocked_shard_equals_full_array_shard(case):
    cfg = _cfg(measurement_time=10.0, **ORACLE_CASES[case])
    n_pairs = np.random.default_rng(cfg.rng_seed).poisson(
        cfg.pair_rate * cfg.duty_cycle * cfg.measurement_time)
    if case == "under_one_block":
        assert 0 < n_pairs < photostatistics._BLOCK
    if case in ("blocks_and_a_part", "no_backgrounds"):
        assert n_pairs > 2 * photostatistics._BLOCK
        assert n_pairs % photostatistics._BLOCK
    n_bins = 400
    got = photostatistics._simulate_shard(
        _delay_table(MODEL), cfg, cfg.measurement_time, n_bins,
        np.random.default_rng(cfg.rng_seed))
    want = _full_array_shard(MODEL, cfg, cfg.measurement_time, n_bins,
                             np.random.default_rng(cfg.rng_seed))
    assert np.array_equal(got.counts, want.counts)
    assert (got.n_singles_s, got.n_singles_as) == (want.n_singles_s, want.n_singles_as)


@pytest.mark.parametrize("workers", [1, 2])
def test_sharded_run_equals_full_array_shards(workers):
    cfg = _cfg(measurement_time=30.0, pair_rate=_pairs_per_second(1.7, 10.0),
               background_s=1500.0, background_as=1000.0, rng_seed=12)
    got = simulate_coincidences(MODEL, cfg, n_shards=3, workers=workers)
    shards = [_full_array_shard(MODEL, cfg, 10.0, 400, np.random.default_rng(s))
              for s in np.random.SeedSequence(cfg.rng_seed).spawn(3)]
    want = shards[0].merged_with(shards[1]).merged_with(shards[2])
    assert np.array_equal(got.counts, want.counts)
    assert (got.n_singles_s, got.n_singles_as) == (want.n_singles_s, want.n_singles_as)
    assert got.measurement_time == want.measurement_time


def test_advanced_fork_continues_one_random_call():
    # the blocked shard draws its four per-pair runs from copies of its
    # generator advanced by 0, n, 2n and 3n: that holds while the shard's
    # generator is PCG64 and random() takes one 64-bit output per double
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[2])
    assert type(rng.bit_generator) is np.random.PCG64
    rng.poisson(1234.5)
    whole = copy.deepcopy(rng).random(3000)
    for k in (0, 1, 1000, 2999, 3000):
        fork = copy.deepcopy(rng)
        fork.bit_generator.advance(k)
        assert np.array_equal(fork.random(3000 - k), whole[k:])
    # and the generator advanced past all of them continues where the
    # whole call left off
    after = copy.deepcopy(rng)
    after.random(3000)
    rng.bit_generator.advance(3000)
    assert np.array_equal(rng.poisson(50.0, 20), after.poisson(50.0, 20))
    assert np.array_equal(rng.random(5), after.random(5))


def test_shard_memory_follows_detected_tags():
    # one shard of 1.6 M generated pairs with 2000 /s background per arm
    cfg = _cfg(pair_rate=4.0e4, measurement_time=200.0, background_s=2000.0,
               background_as=2000.0)
    tracemalloc.start()
    try:
        h = simulate_coincidences(MODEL, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tags = h.n_singles_s + h.n_singles_as
    assert tags > 1_500_000
    assert peak <= 16 * tags
