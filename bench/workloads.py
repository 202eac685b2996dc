"""The three workloads: their inputs, one operation, and its output checks.

Each workload has
    setup(tracer, seed, root) -> state      inputs, built once per process
    next_input(state, i) -> input           drawn from the seed, untimed
    op(state, input) -> output              the timed operation
    check(state, input, output) -> [str]    failures against the oracles
    final_check(state) -> [str]             once per run, after the timed loop
    teardown(state)
and `round`, the number of operations every run attempts whole.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types

import numpy as np

import biphoton
import checks as C
import oracles as O
from checks import GRID_NS, MASK, RISE_NS


def api(tracer):
    """The biphoton names the workloads call, traced when the tracer is on."""
    ns = types.SimpleNamespace(**{n: getattr(biphoton, n) for n in biphoton.__all__})
    tracer.instrument(ns)
    return ns


def out_root(root: str) -> str:
    path = os.path.join(root, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


class InProcess:
    """Operations that call the library in the benchmark's own process."""

    round = 1
    min_rounds = 1

    def final_check(self, state):
        return []

    def teardown(self, state):
        if "tmp" in state:
            shutil.rmtree(state["tmp"], ignore_errors=True)

    def peak_rss_mb(self, state):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def tail_s(self, times, inputs):
        return float(np.percentile(times, self.tail_pct))


class FilterTransform(InProcess):
    """Spectrum -> etalon -> transform -> beat depth -> mask -> fit."""

    name = "filter_transform"
    tail_pct = 97.0
    # every step succeeds here: suggest_mask_start needs the beat to die
    # down within 400 ns, which fails at delta_c = 10 with omega_c >= 15
    DELTA_C = (20.0, 50.0)
    OMEGA_C = (10.0, 25.0)

    def setup(self, tracer, seed, root):
        a = api(tracer)
        return {"api": a, "rng": np.random.default_rng(seed),
                "grid": a.TimeGridConfig(*GRID_NS)}

    def next_input(self, state, i):
        rng = state["rng"]
        return (float(rng.uniform(*self.DELTA_C)), float(rng.uniform(*self.OMEGA_C)))

    def op(self, state, inp):
        a, grid = state["api"], state["grid"]
        p = a.SystemParams(delta_c=inp[0], omega_c=inp[1])
        omegas = a.default_frequency_grid(p)
        full = a.chi3_full(p, omegas)
        filtered = a.apply_filter(full, a.narrowband_etalon(a.narrow_mode_center(p), p))
        before = a.psi_numeric(full, grid, p)
        after = a.psi_numeric(filtered, grid, p)
        depths = a.beat_suppression(before, after)
        start = a.suggest_mask_start(before)
        masked = a.apply_mask(before, a.ModulationMask(start_offset=start, **MASK),
                              rise_time=RISE_NS)
        fit = a.fit_wavepacket(after, a.FitModel("single_exponential"))
        return {"omegas": omegas, "full": full.values, "filtered": filtered.values,
                "before": before, "after": after, "depths": depths, "start": start,
                "masked": masked.g2, "fit": fit}

    def check(self, state, inp, out):
        pt = O.Point(*inp)
        fails = []
        for key, filt in (("full", False), ("filtered", True)):
            err = O.rel_linf(out[key], O.spectrum(pt, out["omegas"], filt))
            if not err <= C.SPECTRUM_TOL:
                fails.append(f"{key} spectrum rel L-inf {err:.3g}")
        for key, filt in (("before", False), ("after", True)):
            w = out[key]
            taus = C.taus_of(w)
            fails += C.psi(key, w.psi, w.g2, O.psi_residues(pt, taus, filt), taus)
        d_before, d_after = out["depths"]
        if not 0 <= d_after < d_before <= 1:
            fails.append(f"beat depth does not fall: {d_before:.4g} -> {d_after:.4g}")
        taus = C.taus_of(out["before"])
        if not 0 < out["start"] < taus[-1] - MASK["pulse_width"]:
            fails.append(f"mask start {out['start']:.4g} ns off the grid")
        else:
            fails += C.masked("mask", out["before"].g2, out["masked"], taus, out["start"])
        fit = out["fit"]
        want = pt.hz(2.0 * abs(O.exact_roots(pt)[0].imag))
        if not (fit.converged and abs(fit.linewidth_hz / want - 1) <= C.LINEWIDTH_TOL):
            fails.append(f"fitted linewidth {fit.linewidth_hz:.6g} Hz vs {want:.6g} Hz "
                         f"(converged={fit.converged})")
        return [f"{inp}: {f}" for f in fails]


class McRoundtrip(InProcess):
    """Monte Carlo histogram -> CSV + sidecar -> read back -> two-component fit."""

    name = "mc_roundtrip"
    tail_pct = 70.0
    POINT = O.Point(28.3, 14.8)
    DETECTION = {"pair_rate": 4.0e4, "qe_stokes": 0.6, "qe_antistokes": 0.6,
                 "channel_t_stokes": 0.5, "channel_t_antistokes": 0.5,
                 "duty_cycle": 0.2, "measurement_time": 200.0, "bin_width": 1.0,
                 "background_s": 2000.0, "background_as": 2000.0}
    MAX_REL_STDERR = 0.05  # a 1.6 M-pair fit gives 0.03% (omega_e) to 1.3% (gamma_minus)

    def setup(self, tracer, seed, root):
        a = api(tracer)
        p = a.SystemParams(delta_c=self.POINT.delta_c, omega_c=self.POINT.omega_c)
        model = a.g2_analytic(p, grid=a.TimeGridConfig(*GRID_NS))
        return {"api": a, "model": model, "seed": seed, "first": None,
                "tmp": tempfile.mkdtemp(dir=out_root(root))}

    def next_input(self, state, i):
        return state["seed"] * 1_000_000 + i

    def _simulate(self, state, rng_seed):
        a = state["api"]
        cfg = a.DetectionConfig(rng_seed=rng_seed, **self.DETECTION)
        return cfg, a.simulate_coincidences(state["model"], cfg, n_shards=1, workers=1)

    def op(self, state, inp):
        a = state["api"]
        cfg, h = self._simulate(state, inp)
        path = os.path.join(state["tmp"], "histogram.csv")
        a.write_histogram(path, h, a.histogram_metadata(h, cfg))
        back, _ = a.read_histogram(path)
        fit = a.fit_wavepacket(back, a.FitModel("two_component"))
        if state["first"] is None:
            state["first"] = (inp, h)
        return {"h": h, "back": back, "fit": fit}

    def check(self, state, inp, out):
        det = self.DETECTION
        h, back, fit = out["h"], out["back"], out["fit"]
        fails = []
        if not (np.array_equal(back.counts, h.counts)
                and (back.n_singles_s, back.n_singles_as, back.bin_width, back.measurement_time)
                == (h.n_singles_s, h.n_singles_as, h.bin_width, h.measurement_time)):
            fails.append("histogram does not read back identically")
        n_bins = int(round(GRID_NS[0] / det["bin_width"]))
        if len(h.counts) != n_bins:
            fails.append(f"{len(h.counts)} bins, expected {n_bins}")
        fails += C.totals(h.n_singles_s, h.n_singles_as, int(h.counts.sum()), det,
                          n_bins * det["bin_width"])
        fails += C.fit(fit, O.dressed(self.POINT), ("gamma_minus", "gamma_plus", "omega_e"),
                       self.MAX_REL_STDERR, n_bins - len(fit.estimates))
        floor = (h.n_singles_s * h.n_singles_as * det["bin_width"] * 1e-9
                 / det["measurement_time"])
        bg, bg_err = fit.estimates["background"], fit.stderr["background"]
        # the background is bounded below by 0, hence one count of slack
        if not abs(bg - floor) <= C.N_SIGMA * bg_err + 1.0:
            fails.append(f"fitted background {bg:.4g} +- {bg_err:.3g} vs floor {floor:.4g}")
        return [f"seed {inp}: {f}" for f in fails]

    def final_check(self, state):
        """A rerun with the same seed and shard count gives identical counts."""
        if state["first"] is None:
            return []
        inp, h = state["first"]
        _, again = self._simulate(state, inp)
        if not (np.array_equal(again.counts, h.counts)
                and (again.n_singles_s, again.n_singles_as) == (h.n_singles_s, h.n_singles_as)):
            return [f"rerun of seed {inp} gives different counts"]
        return []


class CliCold:
    """One fresh `python -m biphoton.cli <subcommand>` process per operation."""

    name = "cli_cold"
    POINT = O.Point(28.3, 14.8)
    SHARDS = 8
    DETECTION = {"pair_rate": 4.0e4, "qe_stokes": 0.6, "qe_antistokes": 0.6,
                 "channel_t_stokes": 0.5, "channel_t_antistokes": 0.5,
                 "duty_cycle": 0.2, "measurement_time": 100.0, "bin_width": 1.0,
                 "background_s": 500.0, "background_as": 500.0}
    FIT_WINDOW = (100.0, 399.0)
    SWEEP = (16.7, 28.3, 45.0)
    CYCLE = ("dressed", "spectrum", "wavepacket", "filter", "montecarlo", "fit",
             "modulate", "sweep")
    round = len(CYCLE)
    min_rounds = 2  # so that final_check compares two cycles

    def config_text(self, seed: int) -> str:
        det = dict(self.DETECTION, bin_width_ns=self.DETECTION["bin_width"], rng_seed=seed)
        del det["bin_width"]
        return "\n".join([
            "system:",
            f"  delta_c: {self.POINT.delta_c}",
            f"  omega_c: {self.POINT.omega_c}",
            "grid:",
            f"  tau_max_ns: {GRID_NS[0]}",
            f"  n_points: {GRID_NS[1]}",
            "filter:",
            "  - center_gamma13: narrow",
            "detection:",
            *(f"  {k}: {v}" for k, v in det.items()),
            "fit:",
            "  model: single_exponential",
            f"  window_ns: [{self.FIT_WINDOW[0]}, {self.FIT_WINDOW[1]}]",
            "mask:",
            f"  pulse_width_ns: {MASK['pulse_width']}",
            f"  pulse_separation_ns: {MASK['pulse_separation']}",
            f"  n_pulses: {MASK['n_pulses']}",
            "  start_offset_ns: auto",
            f"  rise_time_ns: {RISE_NS}",
            "sweep:",
            f"  delta_c: [{', '.join(str(v) for v in self.SWEEP)}]",
            "",
        ])

    def setup(self, tracer, seed, root):
        import biphoton.config
        tmp = tempfile.mkdtemp(dir=out_root(root))
        path = os.path.join(tmp, "run.yaml")
        with open(path, "w") as fh:
            fh.write(self.config_text(seed))
        tracer.wrap("config.load", biphoton.config.load_config)(path)
        return {"tmp": tmp, "config": path, "tracer": tracer, "rss": [], "dirs": {}}

    def next_input(self, state, i):
        return i // len(self.CYCLE), self.CYCLE[i % len(self.CYCLE)]

    def op(self, state, inp):
        cycle, sub = inp
        out = state["dirs"].setdefault(cycle, os.path.join(state["tmp"], f"cycle{cycle}"))
        args = [sub]
        if sub == "montecarlo":
            args += ["--shards", str(self.SHARDS), "--workers", "2"]
        if sub == "fit":
            args += ["--data", os.path.join(out, "histogram.csv")]
        args += ["--config", state["config"], "--out", out]
        tracer = state["tracer"]
        spans_path = os.path.join(state["tmp"], "spans.json")
        if tracer.enabled:
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
                   "cli", spans_path, *args]
        else:
            cmd = [sys.executable, "-m", "biphoton.cli", *args]
        with open(os.path.join(state["tmp"], "stdout"), "w+") as so, \
                open(os.path.join(state["tmp"], "stderr"), "w+") as se:
            proc = subprocess.Popen(cmd, stdout=so, stderr=se)
            # wait4 rather than wait: it also returns the child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            so.seek(0)
            se.seek(0)
            result = {"sub": sub, "stdout": so.read(), "stderr": se.read(), "outdir": out}
        state["rss"].append(usage.ru_maxrss / 1024.0)
        if tracer.enabled and os.path.exists(spans_path):
            with open(spans_path) as fh:
                tracer.adopt(json.load(fh))
            os.remove(spans_path)
        if proc.returncode != 0:
            raise RuntimeError(f"{sub} exited {proc.returncode}: {result['stderr'][-500:]}")
        return result

    def check(self, state, inp, out):
        return C.cli_output(self, out)

    def final_check(self, state):
        """Every cycle of the same config writes byte-identical files."""
        dirs = sorted(state["dirs"].items())
        fails = []
        for cycle, path in dirs[1:]:
            for name in sorted(os.listdir(path)):
                with open(os.path.join(dirs[0][1], name), "rb") as a, \
                        open(os.path.join(path, name), "rb") as b:
                    if a.read() != b.read():
                        fails.append(f"cycle {cycle} wrote {name} with other bytes")
        return fails

    def teardown(self, state):
        shutil.rmtree(state["tmp"], ignore_errors=True)

    def peak_rss_mb(self, state):
        return max(state["rss"])

    def tail_s(self, times, inputs):
        """Too few cold processes for a percentile: the slowest subcommand's median."""
        by_sub: dict[str, list[float]] = {}
        for t, (_, sub) in zip(times, inputs):
            by_sub.setdefault(sub, []).append(t)
        return max(statistics.median(v) for v in by_sub.values())


WORKLOADS = {w.name: w for w in (FilterTransform(), McRoundtrip(), CliCold())}
