"""Narrowband biphoton generation by four-wave mixing: simulation and analysis.

The package synthesizes biphoton wavepackets from a two-pole
susceptibility model, applies Fabry-Perot spectral filtering, generates
synthetic coincidence data with realistic detection chains, and
recovers the physical parameters by nonlinear least squares.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateDataError,
    DegenerateInputError,
    GridError,
    NumericalError,
    OutputError,
    ToolkitError,
    ValidationError,
)
from .params import DressedModes, SystemParams, dressed_modes
from .susceptibility import (
    ComplexSpectrum,
    approx_poles,
    chi3_approx,
    chi3_full,
    component_weights,
    default_frequency_grid,
    exact_poles,
)
from .wavepacket import (
    TimeGridConfig,
    Wavepacket,
    beat_period,
    g2_analytic,
    g2_resonant,
    psi_numeric,
    psi_poles,
    spectrum_energy,
    spectrum_power,
)
from .filtering import (
    EtalonFilter,
    apply_filter,
    beat_suppression,
    broadband_etalon,
    estimate_beat_period_ns,
    etalon_amplitude,
    filtered_wavepacket,
    mhz_to_gamma13,
    modulation_depth_profile,
    narrow_mode_center,
    narrowband_etalon,
)
from .photostatistics import (
    CoincidenceHistogram,
    DetectionConfig,
    LossBudget,
    budget_report,
    cauchy_schwarz,
    expected_accidental_floor,
    histogram_metadata,
    loss_budget_rate,
    normalized_cross_correlation,
    simulate_coincidences,
)
from .estimation import FitModel, FitResult, fit_wavepacket, initial_guess
from .io import read_csv, read_histogram, write_csv, write_histogram
from .modulation import (
    ModulationMask,
    apply_mask,
    mask_values,
    suggest_mask_start,
)

__all__ = [
    "__version__",
    "ComplexSpectrum", "CoincidenceHistogram",
    "DetectionConfig", "DressedModes", "EtalonFilter", "FitModel",
    "FitResult", "LossBudget", "ModulationMask", "SystemParams",
    "TimeGridConfig", "Wavepacket",
    "apply_filter", "apply_mask", "approx_poles", "beat_period",
    "beat_suppression", "broadband_etalon", "budget_report",
    "cauchy_schwarz", "chi3_approx", "chi3_full", "component_weights",
    "default_frequency_grid", "dressed_modes", "estimate_beat_period_ns",
    "etalon_amplitude", "exact_poles", "expected_accidental_floor",
    "filtered_wavepacket", "fit_wavepacket", "g2_analytic", "g2_resonant",
    "histogram_metadata", "initial_guess", "loss_budget_rate", "mask_values",
    "mhz_to_gamma13", "modulation_depth_profile", "narrow_mode_center",
    "narrowband_etalon", "normalized_cross_correlation", "psi_numeric",
    "psi_poles",
    "read_csv", "read_histogram", "simulate_coincidences",
    "spectrum_energy", "spectrum_power", "suggest_mask_start",
    "write_csv", "write_histogram",
    "ToolkitError", "ValidationError", "DegenerateInputError",
    "DegenerateDataError", "GridError", "NumericalError", "OutputError",
]
