"""Command-line front end.

Subcommands: dressed | spectrum | wavepacket | filter | montecarlo |
fit | modulate | budget | sweep.  A YAML config file supplies the run
definition.  FLAGS declares each flag once, with the config key it
overrides, and COMMANDS gives each subcommand the flags it reads: a
subcommand refuses any other flag, with its own usage and exit code 2,
and no flag is taken by a prefix.
The flags are written into the file's sections and the merged mapping
is resolved once by config.config_from_dict.  File headers echo the
config file as written, without the flags.  All file output is
deterministic for a fixed config and seed (timestamps only with
--timestamps).

filter, montecarlo and modulate take every delay curve, with or without
a filter section, from the exact residue sum filtered_wavepacket; only
spectrum and wavepacket also write the two-pole approximation.

A run executes under numpy's raising error state.  An overflow, invalid
value or division by zero, or a non-finite number about to be written
or printed, ends it with one error line and exit code 3.  A warning of
the library (a UserWarning) is printed as one `warning:` line on stderr.

Exit codes: 0 success, 2 validation error, 3 numerical error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_from_dict, read_config_file
from .errors import NumericalError, OutputError, ToolkitError
from .estimation import MODEL_NAMES, FitModel, fit_wavepacket, initial_guess
from .filtering import (
    apply_filter,
    beat_suppression,
    filtered_wavepacket,
    narrow_mode_center,
    narrowband_etalon,
)
from .io import read_histogram, write_csv, write_histogram
from .modulation import apply_mask, mask_values, suggest_mask_start
from .params import dressed_modes
from .photostatistics import (
    budget_report,
    expected_accidental_floor,
    histogram_metadata,
    simulate_coincidences,
)
from .susceptibility import chi3_approx, chi3_full, default_frequency_grid
from .wavepacket import beat_period, g2_analytic, psi_numeric, spectrum_power


def _in_gamma13(why: str) -> dict:
    return {"type": float, "help": f"{why} (gamma13 units)"}


# flag -> ((config section, key) the flag overrides, or None; argparse keywords)
FLAGS = {
    "--config": (None, {"help": "YAML run configuration file"}),
    "--out": (("output", "directory"), {"help": "output directory"}),
    "--timestamps": (("output", "timestamps"), {
        "action": "store_true", "default": None,
        "help": "include wall-clock timestamps in file headers"}),
    "--delta-c": (("system", "delta_c"), _in_gamma13("coupling detuning")),
    "--omega-c": (("system", "omega_c"), _in_gamma13("coupling Rabi frequency")),
    "--gamma12": (("system", "gamma12"), _in_gamma13("ground-state dephasing")),
    "--gamma14": (("system", "gamma14"), _in_gamma13("pump-level dephasing")),
    "--delta-p": (("system", "delta_p"), _in_gamma13("pump detuning")),
    "--tau-max": (("grid", "tau_max_ns"),
                  {"type": float, "help": "time grid end (ns)"}),
    "--n-points": (("grid", "n_points"), {"type": int, "help": "time grid points"}),
    "--seed": (("detection", "rng_seed"), {"type": int, "help": "RNG seed"}),
    "--shards": (None, {"type": int, "default": 1, "help": "measurement-time slices"}),
    "--workers": (None, {"type": int, "default": 1, "help": "threads for the shards"}),
    "--data": (None, {"required": True, "help": "histogram CSV from montecarlo"}),
    "--model": (("fit", "model"), {"choices": [*MODEL_NAMES, "auto"],
                                   "help": "model shape"}),
    "--detected-rate": (("budget", "detected_rate"),
                        {"type": float, "help": "detected pair rate in 1/s"}),
    "--delta-c-list": (("sweep", "delta_c"), {
        "type": lambda text: text.split(","), "help": "comma-separated delta_c values"}),
}


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.output.directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(cfg: RunConfig, out: Path, name: str, command: str, columns: dict,
           **extra) -> None:
    """Write named columns under a header of the command, the system, the
    config file and `extra`; NumericalError, before anything is written,
    if a sample is not finite."""
    for column, samples in columns.items():
        bad = np.count_nonzero(~np.isfinite(samples))
        if bad:
            raise NumericalError(f"{name}: {bad} of {len(samples)} {column} "
                                 "samples are not finite")
    meta = {"command": command, "system": dataclasses.asdict(cfg.system), **extra}
    if cfg.echo:
        meta["config"] = cfg.echo
    write_csv(out / name, columns, meta, cfg.output.timestamps)


def _print_lines(pairs: list) -> None:
    """Print `key: value` lines; NumericalError, before any is printed,
    if a value reads as a number that is not finite."""
    bad = [key for key, value in pairs if not math.isfinite(float(value))]
    if bad:
        raise NumericalError(f"not finite: {', '.join(bad)}")
    for key, value in pairs:
        print(f"{key}: {value}")


def cmd_dressed(cfg: RunConfig, args: argparse.Namespace) -> int:
    p = cfg.system
    d = dressed_modes(p)
    _print_lines([
        ("delta_c_gamma13", f"{p.delta_c:.6g}"),
        ("omega_c_gamma13", f"{p.omega_c:.6g}"),
        ("omega_e_gamma13", f"{d.omega_e:.6g}"),
        ("delta_plus_gamma13", f"{d.delta_plus:.6g}"),
        ("delta_minus_gamma13", f"{d.delta_minus:.6g}"),
        ("gamma_plus_gamma13", f"{d.gamma_plus:.6g}"),
        ("gamma_minus_gamma13", f"{d.gamma_minus:.6g}"),
        ("fwhm_narrow_gamma13", f"{d.fwhm_narrow:.6g}"),
        ("fwhm_narrow_hz", f"{p.rate_to_hz(d.fwhm_narrow):.6g}"),
        ("fwhm_broad_gamma13", f"{d.fwhm_broad:.6g}"),
        ("fwhm_broad_hz", f"{p.rate_to_hz(d.fwhm_broad):.6g}"),
        ("beat_period_ns", f"{beat_period(p):.6g}"),
    ])
    return 0


def _spectra(cfg: RunConfig, filters):
    """Frequency grid, and the power of chi3_full on it without and with
    the filters in series, both relative to the unfiltered peak."""
    omegas = default_frequency_grid(cfg.system, cfg.freq_points)
    full = chi3_full(cfg.system, omegas)
    filtered = full
    for f in filters:
        filtered = apply_filter(filtered, f)
    power = np.abs(full.values) ** 2
    peak = power.max()
    return omegas, power / peak, np.abs(filtered.values) ** 2 / peak


def cmd_spectrum(cfg: RunConfig, args: argparse.Namespace) -> int:
    omegas, full, filtered = _spectra(cfg, cfg.filters)
    approx = chi3_approx(cfg.system, omegas)
    out = _outdir(cfg)
    curves = {"full": ("exact", full),
              "approx": ("two_pole", spectrum_power(approx))}
    if cfg.filters:
        curves["filtered"] = ("filtered", filtered)
    for kind, (curve, power) in curves.items():
        _write(cfg, out, f"spectrum_{kind}.csv", "spectrum",
               {"omega_over_gamma13": omegas, "value": power}, curve=curve)
    print(f"wrote {', '.join(f'spectrum_{k}.csv' for k in curves)} in {out}")
    return 0


def cmd_wavepacket(cfg: RunConfig, args: argparse.Namespace) -> int:
    omegas, full, _ = _spectra(cfg, [])
    analytic = g2_analytic(cfg.system, grid=cfg.grid)
    numeric = psi_numeric(chi3_approx(cfg.system, omegas), cfg.grid, cfg.system)
    peaks = analytic.g2.max(), numeric.g2.max()
    if not all(0 < peak < np.inf for peak in peaks):
        raise NumericalError(f"wavepacket peaks {peaks[0]:g}, {peaks[1]:g} "
                             "are not positive and finite")
    out = _outdir(cfg)
    _write(cfg, out, "wavepacket_analytic.csv", "wavepacket",
           {"tau_ns": analytic.taus, "value": analytic.g2}, curve="analytic")
    _write(cfg, out, "wavepacket_numeric.csv", "wavepacket",
           {"tau_ns": analytic.taus, "value": numeric.g2}, curve="numeric")
    _write(cfg, out, "spectrum_power.csv", "wavepacket",
           {"omega_over_gamma13": omegas, "value": full}, curve="spectrum")
    a, n = analytic.g2 / peaks[0], numeric.g2 / peaks[1]
    print(f"analytic vs numeric max deviation: {np.max(np.abs(a - n)):.3e}")
    _print_lines([("beat_period_ns", f"{beat_period(cfg.system):.6g}")])
    print(f"wrote 3 files in {out}")
    return 0


def cmd_filter(cfg: RunConfig, args: argparse.Namespace) -> int:
    p = cfg.system
    filters = cfg.filters or [narrowband_etalon(narrow_mode_center(p), p)]
    omegas, full, filtered = _spectra(cfg, filters)
    before = filtered_wavepacket(p, [], cfg.grid)
    after = filtered_wavepacket(p, filters, cfg.grid)
    depth_before, depth_after = beat_suppression(before, after, beat_period(p))
    out = _outdir(cfg)
    for kind, power, w in (("unfiltered", full, before),
                           ("filtered", filtered, after)):
        _write(cfg, out, f"spectrum_{kind}.csv", "filter",
               {"omega_over_gamma13": omegas, "value": power}, curve=kind)
        _write(cfg, out, f"wavepacket_{kind}.csv", "filter",
               {"tau_ns": w.taus, "value": w.g2}, curve=kind)
    _print_lines([
        ("beat_depth_before", f"{depth_before:.4f}"),
        ("beat_depth_after", f"{depth_after:.4f}"),
    ])
    print(f"wrote 4 files in {out}")
    return 0


def cmd_montecarlo(cfg: RunConfig, args: argparse.Namespace) -> int:
    det = cfg.detection
    model = filtered_wavepacket(cfg.system, cfg.filters, cfg.grid)
    h = simulate_coincidences(model, det, n_shards=args.shards,
                              workers=args.workers)
    path = _outdir(cfg) / "histogram.csv"
    meta = histogram_metadata(h, det, extra={
        "command": "montecarlo",
        "system": dataclasses.asdict(cfg.system),
        "n_shards": args.shards,
        "tool_version": __version__,
    })
    write_histogram(path, h, meta, cfg.output.timestamps)
    _print_lines([
        ("total_coincidences", int(h.counts.sum())),
        ("n_singles_s", h.n_singles_s),
        ("n_singles_as", h.n_singles_as),
        ("expected_accidentals_per_bin", f"{expected_accidental_floor(h):.4g}"),
    ])
    print(f"wrote {path} (+ sidecar)")
    return 0


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    h, _ = read_histogram(args.data)
    model = cfg.fit.model
    if model is None:
        guess = initial_guess(h, cfg.system.si_gamma13)
        model = FitModel(guess["suggested_model"])
        print(f"auto-selected model: {model.which}")
    result = fit_wavepacket(h, model, fit_window=cfg.fit.window_ns,
                            si_gamma13=cfg.system.si_gamma13)
    report = result.report()
    print(report)
    path = _outdir(cfg) / "fit_result.txt"
    try:
        path.write_text(report + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")
    if not result.converged:
        raise NumericalError("fit did not converge; best-so-far written")
    return 0


def cmd_modulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    settings = cfg.mask
    w = filtered_wavepacket(cfg.system, cfg.filters, cfg.grid)
    mask = settings.mask
    if settings.start_auto:
        start = suggest_mask_start(w, beat_period(cfg.system))
        mask = dataclasses.replace(mask, start_offset=start)
        print(f"mask_start_ns: {start:.6g}")
    masked = apply_mask(w, mask, settings.delay_ns, settings.convention,
                        settings.rise_time_ns)
    out = _outdir(cfg)
    for name, curve, values in (
        ("wavepacket_unmasked.csv", "unmasked", w.g2),
        ("mask.csv", "mask", mask_values(mask, w.taus - settings.delay_ns)),
        ("wavepacket_modulated.csv", "modulated", masked.g2),
    ):
        _write(cfg, out, name, "modulate", {"tau_ns": w.taus, "value": values},
               curve=curve)
    _print_lines([("beat_period_ns", f"{beat_period(cfg.system):.6g}")])
    print(f"wrote 3 files in {out}")
    return 0


def cmd_budget(cfg: RunConfig, args: argparse.Namespace) -> int:
    print(budget_report(cfg.budget.detected_rate, cfg.budget.budget))
    return 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = {"delta_c_gamma13": [], "omega_e_gamma13": [], "beat_period_ns": [],
            "two_gamma_minus_gamma13": [], "two_gamma_plus_gamma13": [],
            "linewidth_minus_hz": []}
    for dc in cfg.sweep_delta_c:
        p = dataclasses.replace(cfg.system, delta_c=float(dc))
        d = dressed_modes(p)
        rows["delta_c_gamma13"].append(dc)
        rows["omega_e_gamma13"].append(d.omega_e)
        rows["beat_period_ns"].append(beat_period(p))
        rows["two_gamma_minus_gamma13"].append(2.0 * d.gamma_minus)
        rows["two_gamma_plus_gamma13"].append(2.0 * d.gamma_plus)
        rows["linewidth_minus_hz"].append(p.rate_to_hz(2.0 * d.gamma_minus))
    out = _outdir(cfg)
    _write(cfg, out, "beat_periods.csv", "sweep", rows)
    for dc, period in zip(rows["delta_c_gamma13"], rows["beat_period_ns"]):
        print(f"delta_c {dc:g}: beat period {period:.4g} ns")
    print(f"wrote {out / 'beat_periods.csv'}")
    return 0


_IO = ("--config", "--out")
_SYSTEM = ("--delta-c", "--omega-c", "--gamma12", "--gamma14", "--delta-p")
_CURVES = (*_IO, "--timestamps", *_SYSTEM, "--tau-max", "--n-points")

# subcommand -> (handler, help, the flags it reads); dressed keeps --out,
# which it does not read, so that every subcommand takes --config and --out
COMMANDS = {
    "dressed": (cmd_dressed, "dressed-mode detunings, widths, linewidths",
                (*_IO, "--delta-c", "--omega-c", "--gamma12")),
    "spectrum": (cmd_spectrum, "spectral power of the exact and two-pole forms",
                 (*_IO, "--timestamps", *_SYSTEM)),
    "wavepacket": (cmd_wavepacket,
                   "analytic and numeric wavepackets plus spectrum", _CURVES),
    "filter": (cmd_filter, "pass the spectrum through the configured etalon",
               _CURVES),
    "montecarlo": (cmd_montecarlo, "synthetic coincidence histogram",
                   (*_CURVES, "--seed", "--shards", "--workers")),
    "fit": (cmd_fit, "fit a model shape to a histogram CSV",
            (*_IO, "--data", "--model")),
    "modulate": (cmd_modulate, "carve the heralded wavepacket with a mask",
                 _CURVES),
    "budget": (cmd_budget, "invert a detected rate through the loss chain",
               (*_IO, "--detected-rate")),
    "sweep": (cmd_sweep, "beat period and linewidths across delta_c values",
              (*_IO, "--timestamps", "--omega-c", "--gamma12", "--gamma14",
               "--delta-p", "--delta-c-list")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton", allow_abbrev=False,
        description="Biphoton wavepacket simulation and analysis toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"biphoton {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, why, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=why, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag][1])
        p.set_defaults(func=handler, parser=p)
    return parser


def _configure(args: argparse.Namespace) -> RunConfig:
    raw = read_config_file(args.config) if args.config else {}
    run = dict(raw)
    for flag in COMMANDS[args.command][2]:
        target, value = FLAGS[flag][0], getattr(args, flag[2:].replace("-", "_"))
        if target is None or value is None:
            continue
        section, key = target
        entry = run.get(section)
        # a malformed section is left as it is, for config_from_dict to reject
        if entry is None or isinstance(entry, dict):
            run[section] = {**(entry or {}), key: value}
    cfg = config_from_dict(run)
    # headers echo the file as written, so a different --out or --seed
    # never changes the bytes of an output file's header
    cfg.echo = raw
    return cfg


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # argparse hands a subcommand's leftovers to the top-level parser,
        # whose usage does not show the flags the subcommand takes
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    show = warnings.showwarning

    def one_line(message, category, *where):
        # a library UserWarning is one line, without a line of the source
        if issubclass(category, UserWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *where)

    with warnings.catch_warnings():
        warnings.showwarning = one_line
        try:
            # numpy 2 keeps this state per thread context;
            # simulate_coincidences hands it on to its worker threads
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return args.func(_configure(args), args)
        except ToolkitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except ArithmeticError as exc:  # Python float arithmetic, or numpy's errstate
            print(f"error: numerical failure: {exc}", file=sys.stderr)
            return NumericalError.exit_code
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
