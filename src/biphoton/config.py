"""Run configuration: one YAML file per run, sections per module.

Sections (all optional; physically sensible defaults apply):

    system:    gamma12, gamma14, delta_p, delta_c, omega_c, gamma13_mhz
    grid:      tau_max_ns, n_points, tau_min_ns, freq_points
    filter:    list of {center_gamma13, fwhm_mhz, fsr_ghz, peak_transmission}
               (center_gamma13 takes a number or "narrow"/"broad")
    detection: pair_rate, qe_stokes, qe_antistokes, channel_t_stokes,
               channel_t_antistokes, duty_cycle, measurement_time,
               bin_width_ns, background_s, background_as, rng_seed
    fit:       model (two_component|resonant|single_exponential|auto),
               window_ns ([lo, hi])
    mask:      kind, pulse_width_ns, pulse_separation_ns, n_pulses,
               start_offset_ns (number or "auto"), delay_ns, convention,
               rise_time_ns, samples
    budget:    detected_rate, factors ([[label, value], ...])
    sweep:     delta_c (list of values)
    output:    directory, timestamps (true|false)

Each default is written once: a key that maps onto a library type
defaults to that type's field default (filters to the narrowband
etalon preset of filtering), and the rest are written in their parser
below; an absent or empty section resolves to them.  Every section is validated
against its module's invariants before any computation starts; unknown
keys and values of the wrong shape are rejected to catch typos early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ValidationError
from .estimation import FitModel
from .filtering import (
    NARROWBAND_FSR_GHZ, NARROWBAND_FWHM_MHZ, NARROWBAND_PEAK, EtalonFilter,
    mhz_to_gamma13, narrow_mode_center,
)
from .modulation import ModulationMask
from .params import SystemParams, dressed_modes
from .photostatistics import DetectionConfig, LossBudget
from .wavepacket import TimeGridConfig

DEFAULT_BUDGET_FACTORS = (
    ("detector_qe_stokes", 0.60),
    ("detector_qe_antistokes", 0.60),
    ("stokes_broadband_etalon", 0.45),
    ("antistokes_narrowband_etalon_fiber", 0.026),
    ("stokes_channel_transmittance", 0.50),
    ("antistokes_channel_transmittance", 0.50),
    ("duty_cycle", 0.20),
)


@dataclass
class MaskSettings:
    mask: ModulationMask
    start_auto: bool
    delay_ns: float
    convention: str
    rise_time_ns: float


@dataclass
class FitSettings:
    model: FitModel | None  # None means pick from the data
    window_ns: tuple[float, float] | None


@dataclass
class BudgetSettings:
    detected_rate: float = 2.18
    budget: LossBudget = field(
        default_factory=lambda: LossBudget(DEFAULT_BUDGET_FACTORS)
    )


@dataclass
class OutputSettings:
    directory: str
    timestamps: bool


@dataclass
class RunConfig:
    system: SystemParams
    grid: TimeGridConfig
    freq_points: int | None
    filters: list
    detection: DetectionConfig
    fit: FitSettings
    mask: MaskSettings
    budget: BudgetSettings
    sweep_delta_c: list
    output: OutputSettings
    echo: dict


def _section(name: str, given, allowed: set) -> dict:
    """The section's mapping ({} when absent or empty), keys checked."""
    if given is None:
        return {}
    if not isinstance(given, dict):
        raise ValidationError(f"[{name}] must be a mapping of keys to values")
    unknown = set(given) - allowed
    if unknown:
        raise ValidationError(
            f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
        )
    return given


def _num(section: str, key: str, value) -> float:
    # YAML 1.1 reads exponents without a sign ("4.0e4") as strings, so
    # coerce rather than trusting the loader's type; float(True) is 1.0,
    # so booleans are rejected first
    if isinstance(value, bool):
        raise ValidationError(f"[{section}] {key} must be a number")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"[{section}] {key} must be a number") from exc


def _nonneg(section: str, key: str, value) -> float:
    """A number that is finite and non-negative."""
    number = _num(section, key, value)
    if not 0 <= number < math.inf:
        raise ValidationError(f"[{section}] {key} must be finite and non-negative")
    return number


def _numbers(section: str, key: str, values) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"[{section}] {key} must be a list of numbers")
    return [_num(section, key, v) for v in values]


def _intval(section: str, key: str, value) -> int:
    """An int, or a float or numeric string with an integral value."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        number = _num(section, key, value)
    except ValidationError:
        number = math.nan
    if not number.is_integer():
        raise ValidationError(f"[{section}] {key} must be an integer")
    return int(number)


def _system_from(d) -> SystemParams:
    d = _section(
        "system", d,
        {"gamma12", "gamma14", "delta_p", "delta_c", "omega_c", "gamma13_mhz"},
    )
    kwargs = {k: _num("system", k, v) for k, v in d.items() if k != "gamma13_mhz"}
    if "gamma13_mhz" in d:
        kwargs["si_gamma13"] = (
            2.0 * math.pi * _num("system", "gamma13_mhz", d["gamma13_mhz"]) * 1e6
        )
    return SystemParams(**kwargs)


def _grid_from(d) -> tuple[TimeGridConfig, int | None]:
    d = _section("grid", d, {"tau_max_ns", "n_points", "tau_min_ns", "freq_points"})
    grid = TimeGridConfig(
        tau_max=_num("grid", "tau_max_ns", d.get("tau_max_ns", TimeGridConfig.tau_max)),
        n_points=_intval("grid", "n_points", d.get("n_points", TimeGridConfig.n_points)),
        tau_min=_num("grid", "tau_min_ns", d.get("tau_min_ns", TimeGridConfig.tau_min)),
    )
    freq_points = (
        _intval("grid", "freq_points", d["freq_points"])
        if "freq_points" in d else None
    )
    return grid, freq_points


def _filters_from(entries, p: SystemParams) -> list[EtalonFilter]:
    if entries is None:
        return []
    if isinstance(entries, dict):
        entries = [entries]
    if not isinstance(entries, list):
        raise ValidationError("[filter] must be one etalon or a list of them")
    return [_filter_from(e, p) for e in entries]


def _filter_from(d, p: SystemParams) -> EtalonFilter:
    d = _section(
        "filter", d, {"center_gamma13", "fwhm_mhz", "fsr_ghz", "peak_transmission"}
    )
    center = d.get("center_gamma13", "narrow")
    if isinstance(center, str):
        if center == "narrow":
            center_val = narrow_mode_center(p)
        elif center == "broad":
            center_val = dressed_modes(p).broad_detuning
        else:
            raise ValidationError(
                "center_gamma13 must be a number, 'narrow', or 'broad'"
            )
    else:
        center_val = _num("filter", "center_gamma13", center)
    return EtalonFilter(
        center=center_val,
        fwhm=mhz_to_gamma13(
            _num("filter", "fwhm_mhz", d.get("fwhm_mhz", NARROWBAND_FWHM_MHZ)), p
        ),
        fsr=mhz_to_gamma13(
            _num("filter", "fsr_ghz", d.get("fsr_ghz", NARROWBAND_FSR_GHZ)) * 1000.0, p
        ),
        peak_transmission=_num(
            "filter", "peak_transmission", d.get("peak_transmission", NARROWBAND_PEAK)
        ),
    )


def _detection_from(d) -> DetectionConfig:
    d = _section(
        "detection", d,
        {"pair_rate", "qe_stokes", "qe_antistokes", "channel_t_stokes",
         "channel_t_antistokes", "duty_cycle", "measurement_time",
         "bin_width_ns", "background_s", "background_as", "rng_seed"},
    )
    kwargs = {
        k: _num("detection", k, v) for k, v in d.items() if k != "rng_seed"
    }
    if "bin_width_ns" in kwargs:
        kwargs["bin_width"] = kwargs.pop("bin_width_ns")
    if "rng_seed" in d:
        kwargs["rng_seed"] = _intval("detection", "rng_seed", d["rng_seed"])
    return DetectionConfig(**kwargs)


def _fit_from(d) -> FitSettings:
    d = _section("fit", d, {"model", "window_ns"})
    name = d.get("model", FitModel.which)
    model = None if name == "auto" else FitModel(name)
    window = d.get("window_ns")
    if window is not None:
        try:
            lo, hi = (_num("fit", "window_ns", v) for v in window)
        except (TypeError, ValueError) as exc:
            raise ValidationError("fit window_ns must be [lo, hi]") from exc
        if not lo < hi:
            raise ValidationError("fit window_ns must satisfy lo < hi")
        window = (lo, hi)
    return FitSettings(model=model, window_ns=window)


def _mask_from(d) -> MaskSettings:
    d = _section(
        "mask", d,
        {"kind", "pulse_width_ns", "pulse_separation_ns", "n_pulses",
         "start_offset_ns", "delay_ns", "convention", "rise_time_ns", "samples"},
    )
    start = d.get("start_offset_ns", ModulationMask.start_offset)
    start_auto = isinstance(start, str)
    if start_auto and start != "auto":
        raise ValidationError("start_offset_ns must be a number or 'auto'")
    samples = d.get("samples")
    mask = ModulationMask(
        kind=d.get("kind", ModulationMask.kind),
        pulse_width=_num(
            "mask", "pulse_width_ns", d.get("pulse_width_ns", ModulationMask.pulse_width)
        ),
        pulse_separation=_num(
            "mask", "pulse_separation_ns",
            d.get("pulse_separation_ns", ModulationMask.pulse_separation),
        ),
        n_pulses=_intval("mask", "n_pulses", d.get("n_pulses", ModulationMask.n_pulses)),
        start_offset=0.0 if start_auto else _num("mask", "start_offset_ns", start),
        samples=None if samples is None else _numbers("mask", "samples", samples),
    )
    convention = d.get("convention", "intensity")
    if convention not in ("intensity", "amplitude"):
        raise ValidationError("mask convention must be intensity or amplitude")
    return MaskSettings(
        mask=mask,
        start_auto=start_auto,
        delay_ns=_nonneg("mask", "delay_ns", d.get("delay_ns", 0.0)),
        convention=convention,
        rise_time_ns=_nonneg("mask", "rise_time_ns", d.get("rise_time_ns", 0.0)),
    )


def _budget_from(d) -> BudgetSettings:
    d = _section("budget", d, {"detected_rate", "factors"})
    kwargs = {}
    if "detected_rate" in d:
        kwargs["detected_rate"] = _nonneg("budget", "detected_rate", d["detected_rate"])
    factors = d.get("factors")
    if factors is not None:
        try:
            pairs = tuple(
                (str(label), _num("budget", str(label), v)) for label, v in factors
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "budget factors must be a list of [label, value] pairs"
            ) from exc
        kwargs["budget"] = LossBudget(pairs)
    return BudgetSettings(**kwargs)


def _sweep_from(d) -> list[float]:
    d = _section("sweep", d, {"delta_c"})
    values = _numbers("sweep", "delta_c", d.get("delta_c", [0.0, 16.7, 28.3, 45.0]))
    if not values:
        raise ValidationError("[sweep] delta_c needs at least one value")
    return values


def _output_from(d) -> OutputSettings:
    d = _section("output", d, {"directory", "timestamps"})
    timestamps = d.get("timestamps", False)
    if not isinstance(timestamps, bool):
        raise ValidationError("[output] timestamps must be true or false")
    return OutputSettings(
        directory=str(d.get("directory", "out")),
        timestamps=timestamps,
    )


def config_from_dict(raw) -> RunConfig:
    """Build and validate a RunConfig from parsed YAML.

    The one place a run is resolved: every section, present or not,
    goes through its parser, and filters centred by mode name follow
    the resolved system.  echo keeps raw as given.
    """
    raw = _section(
        "config", raw,
        {"system", "grid", "filter", "detection", "fit", "mask", "budget",
         "sweep", "output"},
    )
    system = _system_from(raw.get("system"))
    grid, freq_points = _grid_from(raw.get("grid"))
    return RunConfig(
        system=system,
        grid=grid,
        freq_points=freq_points,
        filters=_filters_from(raw.get("filter"), system),
        detection=_detection_from(raw.get("detection")),
        fit=_fit_from(raw.get("fit")),
        mask=_mask_from(raw.get("mask")),
        budget=_budget_from(raw.get("budget")),
        sweep_delta_c=_sweep_from(raw.get("sweep")),
        output=_output_from(raw.get("output")),
        echo=raw,
    )


def read_config_file(path) -> dict:
    """The YAML file's mapping of sections as written, not yet resolved."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a mapping of sections")
    return raw


def load_config(path) -> RunConfig:
    """Parse a YAML config file into a validated RunConfig."""
    return config_from_dict(read_config_file(path))
