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


def window_masses(model, tau_max=400.0, n_bins=400):
    """Exact share of G2 in each of n_bins equal bins of [0, tau_max): the
    PoleModel's closed-form mass over the bin edges, with no sampler code."""
    edges = np.linspace(0.0, tau_max, n_bins + 1)
    masses = model.mass(edges[:-1], edges[1:])
    return masses / masses.sum()
