"""Output checks shared by the workloads, and the per-subcommand CLI checks.

Every check returns a list of failure messages (empty when the output is
right).  Deterministic outputs are compared with oracles.py to stated
tolerances; random ones are bounded by N_SIGMA times their expected
spread, so a correct program fails one about once in 1e8 checks and a
change of the random stream alone does not fail them.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracles as O

N_SIGMA = 6.0
GRID_NS = (400.0, 2000)   # tau_max, points of every delay grid
PSI_TOL = 1e-3            # whole delay grid, relative L-inf; psi_numeric's stated accuracy
PSI_LATE_NS = 10.0
PSI_LATE_TOL = 5e-6       # tau >= 10 ns; worst seen 7.6e-7
LINEWIDTH_TOL = 0.04      # single-exponential fit vs 2|Im| of the narrow root; worst seen 1.6%
SPECTRUM_TOL = 1e-12      # in-memory spectra
CSV_TOL = 1e-6            # values written with 10 significant digits, axis included
PRINT_TOL = 1e-5          # values printed with 6 significant digits
MASK = {"pulse_width": 50.0, "pulse_separation": 50.0, "n_pulses": 2}
RISE_NS = 5.0


def taus_of(w) -> np.ndarray:
    return w.tau_min + w.tau_step * np.arange(len(w.g2))


def close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def psi(label: str, got: np.ndarray, g2: np.ndarray, want: np.ndarray,
        taus: np.ndarray) -> list[str]:
    """psi against the residue sum; g2 against its modulus squared."""
    fails = []
    err = O.rel_linf(got, want)
    if not err <= PSI_TOL:
        fails.append(f"{label}: psi rel L-inf {err:.3g} > {PSI_TOL}")
    late = taus >= PSI_LATE_NS
    err = float(np.max(np.abs(got[late] - want[late])) / np.max(np.abs(want)))
    if not err <= PSI_LATE_TOL:
        fails.append(f"{label}: psi beyond {PSI_LATE_NS} ns rel L-inf {err:.3g}")
    fails += g2_curve(label, g2, np.abs(want) ** 2, taus)
    return fails


def g2_curve(label: str, got: np.ndarray, want: np.ndarray, taus: np.ndarray) -> list[str]:
    """G2 relative to its peak: the psi tolerances, doubled by |psi|^2."""
    fails = []
    err = O.rel_linf(got, want)
    if not err <= 2.5 * PSI_TOL:
        fails.append(f"{label}: g2 rel L-inf {err:.3g}")
    late = taus >= PSI_LATE_NS
    err = float(np.max(np.abs(got[late] - want[late])) / np.max(want))
    if not err <= 2.5 * PSI_LATE_TOL:
        fails.append(f"{label}: g2 beyond {PSI_LATE_NS} ns rel L-inf {err:.3g}")
    return fails


def masked(label: str, unmasked: np.ndarray, got: np.ndarray, taus: np.ndarray,
           start: float) -> list[str]:
    """A wavepacket times the square train from `start`, edges smoothed causally.

    Closed before the start, never above the unmasked curve, and settled
    (open above 0.99, closed below 0.01) five rise times after each edge.
    """
    fails = []
    if np.any(got > unmasked * (1 + 1e-9)):
        fails.append(f"{label}: masked G2 above the unmasked one")
    if np.any(got[taus < start - 1e-3] != 0):
        fails.append(f"{label}: masked G2 nonzero before the mask opens")
    live = unmasked > 0
    ratio = np.divide(got, unmasked, out=np.zeros_like(got), where=live)
    width, period = MASK["pulse_width"], MASK["pulse_width"] + MASK["pulse_separation"]
    for k in range(MASK["n_pulses"]):
        t0 = start + k * period
        on = live & (taus >= t0 + 5 * RISE_NS) & (taus < t0 + width)
        off = live & (taus >= t0 + width + 5 * RISE_NS) & (taus < t0 + period)
        if np.any(ratio[on] < 0.99) or np.any(ratio[off] > 0.01):
            fails.append(f"{label}: mask pulse {k} not settled open/closed")
    return fails


def fit(result, want: dict, names, max_rel_stderr: float, dof: int,
        slack: float = 0.0) -> list[str]:
    """Fitted rates within N_SIGMA standard errors (plus a relative slack
    for a model that is only approximate); reduced chi2 near 1."""
    fails = []
    if not result.converged or result.singular:
        fails.append(f"fit converged={result.converged} singular={result.singular}")
    for name in names:
        est, err, true = result.estimates[name], result.stderr[name], want[name]
        if not (0 < err <= max_rel_stderr * abs(true)
                and abs(est - true) <= N_SIGMA * err + slack * abs(true)):
            fails.append(f"fitted {name} {est:.6g} +- {err:.3g} vs {true:.6g}")
    if not abs(result.reduced_chi2 - 1.0) <= N_SIGMA * math.sqrt(2.0 / dof):
        fails.append(f"reduced chi2 {result.reduced_chi2:.4g} with {dof} degrees of freedom")
    return fails


def totals(n_s: int, n_as: int, coincidences: int, det: dict, window_ns: float) -> list[str]:
    """Singles and coincidence totals against their Poisson expectations."""
    t = det["measurement_time"]
    pairs = det["pair_rate"] * det["duty_cycle"] * t
    eff_s = det["qe_stokes"] * det["channel_t_stokes"]
    eff_as = det["qe_antistokes"] * det["channel_t_antistokes"]
    mu_s = O.expected_singles(pairs, eff_s, det["background_s"], t)
    mu_as = O.expected_singles(pairs, eff_as, det["background_as"], t)
    fails = []
    for label, got, mu in (("stokes", n_s, mu_s), ("anti-stokes", n_as, mu_as)):
        if not O.within_sigma(got, mu, N_SIGMA):
            fails.append(f"{label} singles {got} vs expected {mu:.6g}")
    mu_c = O.expected_coincidences(pairs, eff_s, eff_as, mu_s, mu_as, window_ns * 1e-9, t)
    if not O.within_sigma(coincidences, mu_c, N_SIGMA):
        fails.append(f"coincidences {coincidences} vs expected {mu_c:.6g}")
    return fails


# ---------------------------------------------------------------- CLI outputs

def printed(stdout: str) -> dict:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def table(path: str) -> dict:
    """Columns of a biphoton CSV: '#' metadata lines, a header row, numbers."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}


def spectrum_csv(label: str, path: str, pt, filtered=False, two_pole=False) -> list[str]:
    """Power normalized to the peak of the unfiltered curve on the same grid."""
    t = table(path)
    om = t["omega_over_gamma13"]
    peak = np.max(np.abs(O.spectrum(pt, om, two_pole=two_pole))) ** 2
    want = np.abs(O.spectrum(pt, om, filtered, two_pole)) ** 2 / peak
    err = float(np.max(np.abs(t["value"] - want)))
    return [] if err <= CSV_TOL else [f"{label}: {os.path.basename(path)} off by {err:.3g}"]


def wavepacket_csv(label: str, path: str, pt, filtered=False, two_pole=False) -> list[str]:
    t = table(path)
    want = np.abs(O.psi_residues(pt, t["tau_ns"], filtered, two_pole)) ** 2
    return g2_curve(f"{label} {os.path.basename(path)}", t["value"], want, t["tau_ns"])


def cli_output(work, out: dict) -> list[str]:
    """Check one subcommand's printed values and files against the oracles."""
    sub, d, pt, outdir = out["sub"], O.dressed(work.POINT), work.POINT, out["outdir"]
    p = printed(out["stdout"])
    path = lambda name: os.path.join(outdir, name)  # noqa: E731
    fails = []

    def expect(key, want, rtol=PRINT_TOL):
        if key not in p or not close(float(p[key]), want, rtol):
            fails.append(f"{sub}: printed {key} {p.get(key)} vs {want:.6g}")

    if sub == "dressed":
        for key in ("omega_e", "delta_plus", "delta_minus", "gamma_plus", "gamma_minus",
                    "fwhm_narrow", "fwhm_broad"):
            expect(f"{key}_gamma13", d[key])
        expect("delta_c_gamma13", pt.delta_c)
        expect("omega_c_gamma13", pt.omega_c)
        expect("fwhm_narrow_hz", pt.hz(d["fwhm_narrow"]))
        expect("fwhm_broad_hz", pt.hz(d["fwhm_broad"]))
        expect("beat_period_ns", d["beat_period_ns"])
    elif sub == "spectrum":
        fails += spectrum_csv(sub, path("spectrum_full.csv"), pt)
        fails += spectrum_csv(sub, path("spectrum_approx.csv"), pt, two_pole=True)
        fails += spectrum_csv(sub, path("spectrum_filtered.csv"), pt, filtered=True)
    elif sub == "wavepacket":
        fails += wavepacket_csv(sub, path("wavepacket_analytic.csv"), pt, two_pole=True)
        fails += wavepacket_csv(sub, path("wavepacket_numeric.csv"), pt, two_pole=True)
        fails += spectrum_csv(sub, path("spectrum_power.csv"), pt)
        dev = p.get("analytic vs numeric max deviation")
        if dev is None or not float(dev) <= PSI_TOL:
            fails.append(f"{sub}: analytic vs numeric deviation {dev}")
        expect("beat_period_ns", d["beat_period_ns"])
    elif sub == "filter":
        fails += spectrum_csv(sub, path("spectrum_unfiltered.csv"), pt)
        fails += spectrum_csv(sub, path("spectrum_filtered.csv"), pt, filtered=True)
        fails += wavepacket_csv(sub, path("wavepacket_unfiltered.csv"), pt)
        fails += wavepacket_csv(sub, path("wavepacket_filtered.csv"), pt, filtered=True)
        before, after = float(p["beat_depth_before"]), float(p["beat_depth_after"])
        if not 0 <= after < before <= 1:
            fails.append(f"{sub}: beat depth does not fall: {before} -> {after}")
    elif sub == "montecarlo":
        fails += montecarlo_cli(work, p, path("histogram.csv"))
    elif sub == "fit":
        fails += fit_cli(work, path("fit_result.txt"))
    elif sub == "modulate":
        fails += modulate_cli(work, p, outdir)
    elif sub == "sweep":
        t = table(path("beat_periods.csv"))
        for i, dc in enumerate(work.SWEEP):
            q = O.Point(dc, pt.omega_c)
            dq = O.dressed(q)
            want = {"delta_c_gamma13": dc, "omega_e_gamma13": dq["omega_e"],
                    "beat_period_ns": dq["beat_period_ns"],
                    "two_gamma_minus_gamma13": 2 * dq["gamma_minus"],
                    "two_gamma_plus_gamma13": 2 * dq["gamma_plus"],
                    "linewidth_minus_hz": q.hz(2 * dq["gamma_minus"])}
            for col, value in want.items():
                if not close(t[col][i], value, CSV_TOL):
                    fails.append(f"{sub}: {col} at delta_c {dc} is {t[col][i]:.10g}")
            line = f"delta_c {dc:g}: beat period "
            got = [ln for ln in out["stdout"].splitlines() if ln.startswith(line)]
            if not got or not close(float(got[0][len(line):].split()[0]),
                                    dq["beat_period_ns"], 1e-3):
                fails.append(f"{sub}: printed beat period for delta_c {dc}")
    return fails


def montecarlo_cli(work, p: dict, hist_path: str) -> list[str]:
    fails = []
    counts = table(hist_path)["counts"]
    with open(hist_path + ".meta.json") as fh:
        meta = json.load(fh)
    total, n_s, n_as = (int(p[k]) for k in ("total_coincidences", "n_singles_s", "n_singles_as"))
    n_bins = int(round(GRID_NS[0] / work.DETECTION["bin_width"]))
    if len(counts) != n_bins or int(counts.sum()) != total:
        fails.append(f"montecarlo: histogram has {len(counts)} bins, {counts.sum()} counts; "
                     f"printed {total}")
    if (meta["n_singles_s"], meta["n_singles_as"]) != (n_s, n_as):
        fails.append("montecarlo: sidecar singles differ from the printed ones")
    fails += totals(n_s, n_as, total, work.DETECTION, n_bins * work.DETECTION["bin_width"])
    t = work.DETECTION["measurement_time"]
    floor = n_s * n_as * work.DETECTION["bin_width"] * 1e-9 / t
    if not close(float(p["expected_accidentals_per_bin"]), floor, 1e-3):
        fails.append(f"montecarlo: printed accidentals {p['expected_accidentals_per_bin']} "
                     f"vs {floor:.4g}")
    return fails


class _Fit:
    """fit_result.txt read back into the fields check `fit` uses."""

    def __init__(self, text: str):
        self.estimates, self.stderr, fields = {}, {}, printed(text)
        for key, value in fields.items():
            if "+-" in value:
                est, err = value.split("+-")
                self.estimates[key], self.stderr[key] = float(est), float(err)
        self.model = fields.get("model")
        self.linewidth_hz = float(fields["linewidth_hz"])
        self.reduced_chi2 = float(fields["reduced_chi2"])
        self.converged = fields.get("converged") == "True"
        self.singular = False


def fit_cli(work, path: str) -> list[str]:
    with open(path) as fh:
        result = _Fit(fh.read())
    pt = work.POINT
    if result.model != "single_exponential":
        return [f"fit: model {result.model}"]
    lo, hi = work.FIT_WINDOW
    bins = np.arange(0.5, GRID_NS[0], work.DETECTION["bin_width"])
    dof = int(np.count_nonzero((bins >= lo) & (bins <= hi))) - 3
    want = {"gamma_minus": abs(O.exact_roots(pt)[0].imag)}
    fails = fit(result, want, ["gamma_minus"], 0.25, dof, slack=LINEWIDTH_TOL)
    if not close(result.linewidth_hz, pt.hz(2 * result.estimates["gamma_minus"]), PRINT_TOL):
        fails.append(f"fit: linewidth_hz {result.linewidth_hz} inconsistent with gamma_minus")
    return [f"fit: {f}" for f in fails]


def modulate_cli(work, p: dict, outdir: str) -> list[str]:
    pt = work.POINT
    fails = wavepacket_csv("modulate", os.path.join(outdir, "wavepacket_unmasked.csv"),
                           pt, filtered=True)
    start = float(p["mask_start_ns"])
    mask = table(os.path.join(outdir, "mask.csv"))
    taus, m = mask["tau_ns"], mask["value"]
    step = taus[1] - taus[0]
    edges = np.flatnonzero(np.diff(np.concatenate([[0.0], m, [0.0]])))
    widths = (edges[1::2] - edges[::2]) * step
    if not (set(np.unique(m)) <= {0.0, 1.0} and len(widths) == MASK["n_pulses"]
            and abs(taus[edges[0]] - start) <= step
            and np.all(np.abs(widths - MASK["pulse_width"]) <= step)
            and abs((edges[2] - edges[1]) * step - MASK["pulse_separation"]) <= step):
        fails.append(f"modulate: mask.csv is not {MASK} from {start} ns")
    unmasked = table(os.path.join(outdir, "wavepacket_unmasked.csv"))["value"]
    got = table(os.path.join(outdir, "wavepacket_modulated.csv"))["value"]
    fails += masked("modulate", unmasked, got, taus, start)
    expect = O.dressed(pt)["beat_period_ns"]
    if not close(float(p["beat_period_ns"]), expect, PRINT_TOL):
        fails.append(f"modulate: printed beat period {p['beat_period_ns']}")
    return fails
