import numpy as np
import pytest
from hypothesis import settings

from biphoton import SystemParams, TimeGridConfig

# the same examples on every run, and no per-example deadline, which a
# loaded machine would turn into a failure unrelated to the code
settings.register_profile("biphoton", derandomize=True, database=None, deadline=None)
settings.load_profile("biphoton")


@pytest.fixture
def default_params():
    return SystemParams()


@pytest.fixture
def detuned_params():
    # strongly detuned case with a well separated narrow mode
    return SystemParams(delta_c=28.3, omega_c=14.8)


@pytest.fixture
def default_grid():
    return TimeGridConfig(tau_max=400.0, n_points=2000)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def window_masses(model_at, tau_max=400.0, n_bins=400):
    """Exact share of G2 in each of n_bins equal bins of [0, tau_max): the
    wavepacket model_at(grid) on 1000 grid steps a bin (400,001 points at
    the defaults), by the trapezoid rule, with no sampler code."""
    grid = TimeGridConfig(tau_max=tau_max, n_points=1000 * n_bins + 1)
    g2 = model_at(grid).g2
    masses = (0.5 * (g2[1:] + g2[:-1])).reshape(n_bins, -1).sum(axis=1)
    return masses / masses.sum()
