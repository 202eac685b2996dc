"""Self-check of the benchmark's output checks.

    python3 bench/selfcheck.py        (from the repository root, about 30 s)

Runs one round of every workload, requires its checks to pass, then
perturbs each output in a way a fault could (scale psi, drop a histogram
bin, shift a fitted rate, rewrite a CSV value, ...) and requires the
checks to report every perturbation.  Exits 1 if any check passes a
perturbed output or fails a true one.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys

import numpy as np

import checks


# --- filter_transform ----------------------------------------------------

def _w(out, key, **changes):
    out[key] = dataclasses.replace(out[key], **changes)
    return out


def _masked_above(out):
    k = int(out["masked"].argmax())
    out["masked"][k] = out["before"].g2[k] * 1.01
    return out


def _masked_early(out):
    k = int(out["before"].g2.argmax())
    out["masked"][k] = 0.5 * out["before"].g2[k]
    return out


FILTER_PERTURBATIONS = {
    "chi3_full scaled by 1+1e-6": lambda o: dict(o, full=o["full"] * (1 + 1e-6)),
    "filtered spectrum scaled by 0.999": lambda o: dict(o, filtered=o["filtered"] * 0.999),
    "unfiltered psi scaled by 1+1e-5": lambda o: _w(o, "before", psi=o["before"].psi * (1 + 1e-5)),
    "filtered psi one delay late": lambda o: _w(o, "after", psi=np.roll(o["after"].psi, 1)),
    "filtered g2 scaled by 1.01": lambda o: _w(o, "after", g2=o["after"].g2 * 1.01),
    "beat depths swapped": lambda o: dict(o, depths=o["depths"][::-1]),
    "masked G2 above the unmasked one": _masked_above,
    "mask open before its start": _masked_early,
    "fitted linewidth 5% high": lambda o: _w(o, "fit", linewidth_hz=o["fit"].linewidth_hz * 1.05),
    "fit not converged": lambda o: _w(o, "fit", converged=False),
}


# --- mc_roundtrip --------------------------------------------------------

def _fit_shift(out, name, n_sigma):
    fit = out["fit"]
    est = dict(fit.estimates, **{name: fit.estimates[name] + n_sigma * fit.stderr[name]})
    return _w(out, "fit", estimates=est)


def _lose_count(out):
    counts = out["back"].counts.copy()
    k = int(counts.argmax())
    counts[k] -= 1
    return _w(out, "back", counts=counts)


def _scale_counts(out, factor):
    for key in ("h", "back"):
        out = _w(out, key, counts=(out[key].counts * factor).astype(out[key].counts.dtype))
    return out


MC_PERTURBATIONS = {
    "histogram bin dropped on read back":
        lambda o: _w(o, "back", counts=np.delete(o["back"].counts, 10)),
    "one count lost on read back": _lose_count,
    "stokes singles 7 sigma high":
        lambda o: _w(o, "h", n_singles_s=o["h"].n_singles_s + int(7 * o["h"].n_singles_s ** 0.5)),
    "coincidences 2% high": lambda o: _scale_counts(o, 1.02),
    "gamma_minus 7 sigma off": lambda o: _fit_shift(o, "gamma_minus", 7.0),
    "gamma_plus 7 sigma off": lambda o: _fit_shift(o, "gamma_plus", -7.0),
    "omega_e 7 sigma off": lambda o: _fit_shift(o, "omega_e", 7.0),
    "reduced chi2 1.5": lambda o: _w(o, "fit", reduced_chi2=1.5),
    "fit singular": lambda o: _w(o, "fit", singular=True),
    "standard errors 100x": lambda o: _w(o, "fit", stderr={k: 100 * v for k, v in
                                                           o["fit"].stderr.items()}),
}


# --- cli_cold ------------------------------------------------------------

class CliEdit:
    """Copy a subcommand's output directory and rewrite one thing in it."""

    def __init__(self, scratch):
        self.scratch = scratch
        self.n = 0

    def copy(self, out):
        self.n += 1
        dst = os.path.join(self.scratch, f"edit{self.n}")
        shutil.copytree(out["outdir"], dst)
        return dict(out, outdir=dst)

    def csv(self, out, name, fn):
        """fn(rows) edits the data rows (lists of strings) in place."""
        out = self.copy(out)
        path = os.path.join(out["outdir"], name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        head = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        rows = [ln.split(",") for ln in body[1:]]
        fn(rows)
        with open(path, "w") as fh:
            fh.write("\n".join(head + [body[0]] + [",".join(r) for r in rows]) + "\n")
        return out

    def line(self, out, name, key, fn):
        """fn(value) rewrites the value of the `key: value` line."""
        out = self.copy(out)
        path = os.path.join(out["outdir"], name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines = [f"{key}: {fn(ln.split(': ', 1)[1])}" if ln.startswith(key + ": ") else ln
                 for ln in lines]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return out


def _scale_cell(rows, col, factor, row=None):
    row = max(range(len(rows)), key=lambda i: float(rows[i][col])) if row is None else row
    rows[row][col] = f"{float(rows[row][col]) * factor:.10g}"


def _printed(out, key, fn):
    lines = []
    for ln in out["stdout"].splitlines():
        if ln.startswith(key + ": "):
            ln = f"{key}: {fn(float(ln.split(': ', 1)[1]))}"
        lines.append(ln)
    return dict(out, stdout="\n".join(lines) + "\n")


def _flat_top(out):
    """Row 40 ns into the first mask pulse, where the smoothed mask is open."""
    start = float(checks.printed(out["stdout"])["mask_start_ns"])
    return int(round((start + 40.0) / (checks.GRID_NS[0] / (checks.GRID_NS[1] - 1))))


def _widen_pulse(rows):
    last_on = max(i for i, r in enumerate(rows) if float(r[1]) == 1.0)
    rows[last_on + 1][1] = "1"


def cli_perturbations(edit):
    return {
        "dressed": {
            "printed gamma_minus 1e-4 off": lambda o: _printed(o, "gamma_minus_gamma13",
                                                               lambda v: f"{v * 1.0001:.6g}"),
        },
        "spectrum": {
            "filtered spectrum peak 1% high": lambda o: edit.csv(
                o, "spectrum_filtered.csv", lambda r: _scale_cell(r, 1, 1.01)),
            "two-pole spectrum peak 1e-5 low": lambda o: edit.csv(
                o, "spectrum_approx.csv", lambda r: _scale_cell(r, 1, 1 - 1e-5)),
        },
        "wavepacket": {
            "numeric wavepacket peak 1% high": lambda o: edit.csv(
                o, "wavepacket_numeric.csv", lambda r: _scale_cell(r, 1, 1.01)),
        },
        "filter": {
            "beat depth rises after filtering": lambda o: _printed(
                o, "beat_depth_after", lambda v: "0.99"),
            "filtered wavepacket tail 1e-4 high": lambda o: edit.csv(
                o, "wavepacket_filtered.csv", lambda r: _scale_cell(r, 1, 1 + 1e-4, row=1500)),
        },
        "montecarlo": {
            "histogram bin dropped": lambda o: edit.csv(o, "histogram.csv",
                                                        lambda r: r.pop(10)),
            "printed singles differ from the sidecar": lambda o: _printed(
                o, "n_singles_s", lambda v: str(int(v) + 1)),
        },
        "fit": {
            "gamma_minus 50% high": lambda o: edit.line(
                o, "fit_result.txt", "gamma_minus",
                lambda v: f"{1.5 * float(v.split('+-')[0]):.6g} +-{v.split('+-')[1]}"),
            "reduced chi2 2": lambda o: edit.line(o, "fit_result.txt", "reduced_chi2",
                                                  lambda v: "2"),
        },
        "modulate": {
            "mask pulse one step wider": lambda o: edit.csv(o, "mask.csv", _widen_pulse),
            "modulated 1% high in the first pulse": lambda o: edit.csv(
                o, "wavepacket_modulated.csv", lambda r: _scale_cell(r, 1, 1.01, _flat_top(o))),
            "modulated 2% low in the first pulse": lambda o: edit.csv(
                o, "wavepacket_modulated.csv", lambda r: _scale_cell(r, 1, 0.98, _flat_top(o))),
        },
        "sweep": {
            "beat period 1e-5 off": lambda o: edit.csv(
                o, "beat_periods.csv", lambda r: _scale_cell(r, 2, 1 + 1e-5, row=1)),
        },
    }


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    import spans
    import workloads as W

    bad = []

    def expect(label, fails, should_fail):
        ok = bool(fails) == should_fail
        print(f"{'ok ' if ok else 'BAD'} {label}: "
              f"{'caught' if fails and should_fail else fails[:1] or 'passes'}")
        if not ok:
            bad.append(label)

    tracer = spans.Tracer(False)
    for name, perturbations in (("filter_transform", FILTER_PERTURBATIONS),
                                ("mc_roundtrip", MC_PERTURBATIONS)):
        work = W.WORKLOADS[name]
        state = work.setup(tracer, 1, root)
        try:
            inp = work.next_input(state, 0)
            out = work.op(state, inp)
            expect(f"{name} true output", work.check(state, inp, out), False)
            for label, perturb in perturbations.items():
                expect(f"{name}: {label}", work.check(state, inp, perturb(copy.deepcopy(out))),
                       True)
            expect(f"{name} rerun", work.final_check(state), False)
            if name == "mc_roundtrip":
                first_inp, h = state["first"]
                state["first"] = (first_inp, dataclasses.replace(h, n_singles_as=h.n_singles_as + 1))
                expect(f"{name}: rerun gives other singles", work.final_check(state), True)
        finally:
            work.teardown(state)

    work = W.WORKLOADS["cli_cold"]
    state = work.setup(tracer, 1, root)
    try:
        edit = CliEdit(state["tmp"])
        cases = cli_perturbations(edit)
        for i in range(work.round):
            inp = work.next_input(state, i)
            out = work.op(state, inp)
            expect(f"cli_cold {inp[1]} true output", work.check(state, inp, out), False)
            for label, perturb in cases[inp[1]].items():
                expect(f"cli_cold {inp[1]}: {label}", work.check(state, inp, perturb(out)), True)
        # a second cycle with the same bytes passes; one changed byte does not
        first = state["dirs"][0]
        state["dirs"][1] = os.path.join(state["tmp"], "cycle1")
        shutil.copytree(first, state["dirs"][1])
        expect("cli_cold identical rerun", work.final_check(state), False)
        path = os.path.join(state["dirs"][1], "histogram.csv")
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
            fh.seek(0)
            fh.write(data)
        expect("cli_cold: rerun wrote other bytes", work.final_check(state), True)
    finally:
        work.teardown(state)

    print(f"{'FAILED' if bad else 'passed'}: {len(bad)} of the expectations above are wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
