"""Command-line front end.

Subcommands: dressed | spectrum | wavepacket | filter | montecarlo |
fit | modulate | budget | sweep.  A YAML config file supplies the run
definition; each command-line flag in FLAG_KEYS overrides one key of it,
and the merged mapping is resolved once by config.config_from_dict.
File headers echo the config file as written, without the flags.  All
file output is deterministic for a fixed config and seed (timestamps
only with --timestamps).

filter, montecarlo and modulate take every delay curve, with or without
a filter section, from the exact residue sum filtered_wavepacket; only
spectrum and wavepacket also write the two-pole approximation.

Exit codes: 0 success, 2 validation error, 3 numerical error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
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


# argparse dest -> (config section, key) that the flag overrides
FLAG_KEYS = {
    "delta_c": ("system", "delta_c"),
    "omega_c": ("system", "omega_c"),
    "gamma12": ("system", "gamma12"),
    "gamma14": ("system", "gamma14"),
    "delta_p": ("system", "delta_p"),
    "tau_max": ("grid", "tau_max_ns"),
    "n_points": ("grid", "n_points"),
    "seed": ("detection", "rng_seed"),
    "out": ("output", "directory"),
    "timestamps": ("output", "timestamps"),
    "model": ("fit", "model"),
    "detected_rate": ("budget", "detected_rate"),
    "delta_c_list": ("sweep", "delta_c"),
}


def _comma_list(text: str) -> list[str]:
    return text.split(",")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="YAML run configuration file")
    shared.add_argument("--out", help="output directory (overrides config)")
    shared.add_argument("--timestamps", action="store_true", default=None,
                        help="include wall-clock timestamps in file headers")
    for flag, why in (
        ("--delta-c", "coupling detuning (gamma13 units)"),
        ("--omega-c", "coupling Rabi frequency (gamma13 units)"),
        ("--gamma12", "ground-state dephasing (gamma13 units)"),
        ("--gamma14", "pump-level dephasing (gamma13 units)"),
        ("--delta-p", "pump detuning (gamma13 units)"),
    ):
        shared.add_argument(flag, type=float, help=why)
    shared.add_argument("--tau-max", type=float, help="time grid end (ns)")
    shared.add_argument("--n-points", type=int, help="time grid points")

    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Biphoton wavepacket simulation and analysis toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"biphoton {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dressed", parents=[shared],
                       help="dressed-mode detunings, widths, linewidths")
    p.set_defaults(func=cmd_dressed)

    p = sub.add_parser("spectrum", parents=[shared],
                       help="spectral power of the exact and two-pole forms")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavepacket", parents=[shared],
                       help="analytic and numeric wavepackets plus spectrum")
    p.set_defaults(func=cmd_wavepacket)

    p = sub.add_parser("filter", parents=[shared],
                       help="pass the spectrum through the configured etalon")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("montecarlo", parents=[shared],
                       help="synthetic coincidence histogram")
    p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    p.add_argument("--shards", type=int, default=1,
                   help="independent measurement-time slices")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads for the shards")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("fit", parents=[shared],
                       help="fit a model shape to a histogram CSV")
    p.add_argument("--data", required=True, help="histogram CSV from montecarlo")
    p.add_argument("--model", choices=[*MODEL_NAMES, "auto"],
                   help="model shape (overrides config)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("modulate", parents=[shared],
                       help="carve the heralded wavepacket with a mask")
    p.set_defaults(func=cmd_modulate)

    p = sub.add_parser("budget", parents=[shared],
                       help="invert a detected rate through the loss chain")
    p.add_argument("--detected-rate", type=float,
                   help="detected pair rate in 1/s (overrides config)")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("sweep", parents=[shared],
                       help="beat period and linewidths across delta_c values")
    p.add_argument("--delta-c-list", type=_comma_list,
                   help="comma-separated delta_c values (overrides config)")
    p.set_defaults(func=cmd_sweep)

    return parser


def _configure(args: argparse.Namespace) -> RunConfig:
    raw = read_config_file(args.config) if args.config else {}
    run = dict(raw)
    for dest, (section, key) in FLAG_KEYS.items():
        value = getattr(args, dest, None)
        entry = run.get(section)
        # a malformed section is left as it is, for config_from_dict to reject
        if value is not None and (entry is None or isinstance(entry, dict)):
            run[section] = {**(entry or {}), key: value}
    cfg = config_from_dict(run)
    # headers echo the file as written, so a different --out or --seed
    # never changes the bytes of an output file's header
    cfg.echo = raw
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.output.directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _meta(cfg: RunConfig, command: str, **extra) -> dict:
    meta = {"command": command, "system": dataclasses.asdict(cfg.system)}
    if cfg.echo:
        meta["config"] = cfg.echo
    return {**meta, **extra}


def _write(cfg: RunConfig, out: Path, name: str, command: str, curve: str,
           axis: tuple[str, np.ndarray], values) -> None:
    """Write `values` against `axis`, a (column name, samples) pair."""
    write_csv(out / name, dict([axis, ("value", values)]),
              _meta(cfg, command, curve=curve), cfg.output.timestamps)


def _print_lines(pairs) -> None:
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
        _write(cfg, out, f"spectrum_{kind}.csv", "spectrum", curve,
               ("omega_over_gamma13", omegas), power)
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
    axis = ("tau_ns", analytic.taus)
    _write(cfg, out, "wavepacket_analytic.csv", "wavepacket", "analytic",
           axis, analytic.g2)
    _write(cfg, out, "wavepacket_numeric.csv", "wavepacket", "numeric",
           axis, numeric.g2)
    _write(cfg, out, "spectrum_power.csv", "wavepacket", "spectrum",
           ("omega_over_gamma13", omegas), full)
    a, n = analytic.g2 / peaks[0], numeric.g2 / peaks[1]
    print(f"analytic vs numeric max deviation: {np.max(np.abs(a - n)):.3e}")
    print(f"beat_period_ns: {beat_period(cfg.system):.6g}")
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
        _write(cfg, out, f"spectrum_{kind}.csv", "filter", kind,
               ("omega_over_gamma13", omegas), power)
        _write(cfg, out, f"wavepacket_{kind}.csv", "filter", kind,
               ("tau_ns", w.taus), w.g2)
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
    axis = ("tau_ns", w.taus)
    _write(cfg, out, "wavepacket_unmasked.csv", "modulate", "unmasked",
           axis, w.g2)
    _write(cfg, out, "mask.csv", "modulate", "mask", axis,
           mask_values(mask, w.taus - settings.delay_ns))
    _write(cfg, out, "wavepacket_modulated.csv", "modulate", "modulated",
           axis, masked.g2)
    print(f"beat_period_ns: {beat_period(cfg.system):.6g}")
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
    path = _outdir(cfg) / "beat_periods.csv"
    write_csv(path, rows, _meta(cfg, "sweep"), cfg.output.timestamps)
    for dc, period in zip(rows["delta_c_gamma13"], rows["beat_period_ns"]):
        print(f"delta_c {dc:g}: beat period {period:.4g} ns")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _configure(args)
        return args.func(cfg, args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return NumericalError.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
