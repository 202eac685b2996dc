"""Run configuration: one YAML file per run, sections per module.

Sections (all optional; physically sensible defaults apply):

    system:    gamma12, gamma14, delta_p, delta_c, omega_c, gamma13_mhz
    grid:      tau_max_ns, n_points, freq_points (delays run from 0)
    filter:    center_gamma13 (a number, "narrow" or "broad"), fwhm_mhz,
               fsr_ghz, peak_transmission (one etalon, or a list of them)
    detection: pair_rate, qe_stokes, qe_antistokes, channel_t_stokes,
               channel_t_antistokes, duty_cycle, measurement_time,
               bin_width_ns, background_s, background_as, rng_seed
    fit:       model (two_component|resonant|single_exponential|auto),
               window_ns ([lo, hi])
    mask:      kind, pulse_width_ns, pulse_separation_ns, n_pulses,
               start_offset_ns (a number or "auto"), delay_ns, convention,
               rise_time_ns, samples
    budget:    detected_rate, factors ([[label, value], ...])
    sweep:     delta_c (list of values)
    output:    directory, timestamps (true|false)

Each section is one table from key to (field, parser): _read parses the
keys a section gives, and the target type's field defaults supply the
rest (a filter's are the narrowband etalon preset of filtering).  Every
section is validated against its module's invariants before any
computation starts; unknown keys and values of the wrong shape are
rejected to catch typos early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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

# filter centres named by their dressed mode, resolved on the run's system
_MODE_CENTERS = {"narrow": narrow_mode_center,
                 "broad": lambda p: dressed_modes(p).broad_detuning}


@dataclass
class MaskSettings:
    mask: ModulationMask = field(default_factory=ModulationMask)
    start_auto: bool = False
    delay_ns: float = 0.0
    convention: str = "intensity"
    rise_time_ns: float = 0.0


@dataclass
class FitSettings:
    model: FitModel | None = field(default_factory=FitModel)  # None: pick from the data
    window_ns: tuple[float, float] | None = None


@dataclass
class BudgetSettings:
    detected_rate: float = 2.18
    budget: LossBudget = field(
        default_factory=lambda: LossBudget(DEFAULT_BUDGET_FACTORS)
    )


@dataclass
class OutputSettings:
    directory: str = "out"
    timestamps: bool = False


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
    sweep_delta_c: list = field(default_factory=lambda: [0.0, 16.7, 28.3, 45.0])
    output: OutputSettings = field(default_factory=OutputSettings)
    echo: dict = field(default_factory=dict)  # the file as written; set by the CLI


def _read(name: str, given, table: dict) -> dict:
    """{field: parse(name, key, value)} for each key the section gives;
    {} when it is absent or empty, and an error for a key not in table."""
    if given is None:
        return {}
    if not isinstance(given, dict):
        raise ValidationError(f"[{name}] must be a mapping of keys to values")
    unknown = ", ".join(sorted(given.keys() - table.keys()))
    if unknown:
        raise ValidationError(f"unknown key(s) in [{name}]: {unknown}")
    return {table[key][0]: table[key][1](name, key, value)
            for key, value in given.items()}


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


def _numbers(section: str, key: str, values) -> list[float] | None:
    """A list of numbers; null stays None, the field's default."""
    if values is None:
        return None
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"[{section}] {key} must be a list of numbers")
    return [_num(section, key, v) for v in values]


def _intval(section: str, key: str, value) -> int:
    """An int, or a float or numeric string with an integral value."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _num(section, key, value) if isinstance(value, (float, str)) else math.nan
    if not number.is_integer():
        raise ValidationError(f"[{section}] {key} must be an integer")
    return int(number)


def _one_of(*names, number: bool = False):
    """The parser of one of names, kept as written, or of a number too;
    a name is matched first, so "4.0e1" reads as the number 40."""
    need = ("a number or " if number else "") + " or ".join(names)

    def parse(section: str, key: str, value):
        if value in names:
            return value
        if number:
            try:
                return _num(section, key, value)
            except ValidationError:
                pass
        raise ValidationError(f"[{section}] {key} must be {need}")
    return parse


def _directory(section: str, key: str, value) -> str:
    """A directory name; YAML may read one as a number, but not as null."""
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        raise ValidationError(f"[{section}] {key} must be a directory name")
    return str(value)


def _window(section: str, key: str, value) -> tuple[float, float] | None:
    """[lo, hi] in ns with lo < hi; null fits every bin."""
    window = _numbers(section, key, value)
    if window is not None and (len(window) != 2 or not window[0] < window[1]):
        raise ValidationError(f"[{section}] {key} must be [lo, hi] with lo < hi")
    return None if window is None else tuple(window)


def _factors(section: str, key: str, value) -> LossBudget:
    """[[label, value], ...] in chain order; null keeps the default chain."""
    if value is None:
        return LossBudget(DEFAULT_BUDGET_FACTORS)
    try:
        pairs = tuple((str(label), _num(section, str(label), v)) for label, v in value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"[{section}] {key} must be a list of "
                              "[label, value] pairs") from exc
    return LossBudget(pairs)


def _nonempty(section: str, key: str, value) -> list[float]:
    values = _numbers(section, key, value)
    if not values:
        raise ValidationError(f"[{section}] {key} needs at least one value")
    return values


def _flag(section: str, key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"[{section}] {key} must be true or false")
    return value


def _same(parse, *keys) -> dict:
    """Table rows for keys that set the field of their own name."""
    return {key: (key, parse) for key in keys}


# section -> {key: (field, parse)}; one post-read step each resolves the
# filter's fields (_etalons) and splits the mask's (_mask)
_TABLES = {
    "system": {
        **_same(_num, "gamma12", "gamma14", "delta_p", "delta_c", "omega_c"),
        "gamma13_mhz": (
            "si_gamma13", lambda s, k, v: 2.0 * math.pi * _num(s, k, v) * 1e6
        ),
    },
    "grid": {
        "tau_max_ns": ("tau_max", _num),
        **_same(_intval, "n_points", "freq_points"),
    },
    "filter": {
        "center_gamma13": ("center", _one_of(*_MODE_CENTERS, number=True)),
        "fwhm_mhz": ("fwhm", _num),
        "fsr_ghz": ("fsr", _num),
        **_same(_num, "peak_transmission"),
    },
    "detection": {
        **_same(_num, "pair_rate", "qe_stokes", "qe_antistokes",
                "channel_t_stokes", "channel_t_antistokes", "duty_cycle",
                "measurement_time", "background_s", "background_as"),
        "bin_width_ns": ("bin_width", _num),
        **_same(_intval, "rng_seed"),
    },
    "fit": {**_same(lambda s, k, v: None if v == "auto" else FitModel(v), "model"),
            **_same(_window, "window_ns")},
    "mask": {
        **_same(lambda s, k, v: v, "kind"),
        "pulse_width_ns": ("pulse_width", _num),
        "pulse_separation_ns": ("pulse_separation", _num),
        **_same(_intval, "n_pulses"),
        "start_offset_ns": ("start_offset", _one_of("auto", number=True)),
        **_same(_numbers, "samples"),
        **_same(_nonneg, "delay_ns", "rise_time_ns"),
        **_same(_one_of("intensity", "amplitude"), "convention"),
    },
    "budget": {**_same(_nonneg, "detected_rate"), "factors": ("budget", _factors)},
    "sweep": {"delta_c": ("sweep_delta_c", _nonempty)},
    "output": {
        **_same(_directory, "directory"),
        **_same(_flag, "timestamps"),
    },
}


def _etalons(entries, p: SystemParams) -> list[EtalonFilter]:
    """The filter section, one etalon or a list of them; a centre named
    by its dressed mode follows p, and MHz and GHz become gamma13 units."""
    if entries is None:
        return []
    entries = [entries] if isinstance(entries, dict) else entries
    if not isinstance(entries, list):
        raise ValidationError("[filter] must be one etalon or a list of them")
    etalons = []
    for entry in entries:
        f = {"center": "narrow", "fwhm": NARROWBAND_FWHM_MHZ,
             "fsr": NARROWBAND_FSR_GHZ, "peak_transmission": NARROWBAND_PEAK,
             **_read("filter", entry, _TABLES["filter"])}
        if isinstance(f["center"], str):
            f["center"] = _MODE_CENTERS[f["center"]](p)
        f["fwhm"] = mhz_to_gamma13(f["fwhm"], p)
        f["fsr"] = mhz_to_gamma13(f["fsr"] * 1000.0, p)
        etalons.append(EtalonFilter(**f))
    return etalons


def _mask(read: dict) -> MaskSettings:
    """The mask section split into the pulse shape and its settings; an
    "auto" start keeps the shape's start_offset and sets start_auto."""
    start_auto = read.get("start_offset") == "auto"
    if start_auto:
        del read["start_offset"]
    shape = {f.name: read.pop(f.name) for f in fields(ModulationMask)
             if f.name in read}
    return MaskSettings(mask=ModulationMask(**shape), start_auto=start_auto, **read)


def config_from_dict(raw) -> RunConfig:
    """Build and validate a RunConfig from parsed YAML: the one place a
    run is resolved.  Every section, present or not, goes through _read,
    and filters centred by mode name follow the resolved system."""
    raw = _read("config", raw, _same(lambda s, k, v: v, *_TABLES))

    def read(name: str) -> dict:
        return _read(name, raw.get(name), _TABLES[name])

    system = SystemParams(**read("system"))
    grid = read("grid")
    freq_points = grid.pop("freq_points", None)
    return RunConfig(
        system=system,
        grid=TimeGridConfig(**grid),
        freq_points=freq_points,
        filters=_etalons(raw.get("filter"), system),
        detection=DetectionConfig(**read("detection")),
        fit=FitSettings(**read("fit")),
        mask=_mask(read("mask")),
        budget=BudgetSettings(**read("budget")),
        **read("sweep"),
        output=OutputSettings(**read("output")),
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
