import numpy as np
import pytest
from hypothesis import settings

from dualaction import DomainBox, HamiltonianModel


@pytest.fixture
def free():
    return HamiltonianModel.free(1.0)


@pytest.fixture
def sho():
    return HamiltonianModel.sho(1.0, 1.0)


@pytest.fixture
def saddle():
    return HamiltonianModel.saddle_quadratic(1.0, 1.0)


@pytest.fixture
def box():
    return DomainBox(-2.0, 2.0, -2.0, 2.0)


def smooth_fourier_path(seed, n_intervals, t_span=(0.0, 1.0), amplitude=0.25, modes=4):
    """Seeded smooth (p, q) samples from a low-order Fourier series."""
    rng = np.random.default_rng(seed)
    amp_p = rng.normal(size=modes) * amplitude
    amp_q = rng.normal(size=modes) * amplitude
    t = np.linspace(t_span[0], t_span[1], n_intervals + 1)
    u = (t - t_span[0]) / (t_span[1] - t_span[0])
    p = 0.3 + sum(a / (k + 1) ** 3 * np.sin(np.pi * (k + 1) * u) for k, a in enumerate(amp_p))
    q = sum(a / (k + 1) ** 3 * np.cos(np.pi * (k + 1) * u) for k, a in enumerate(amp_q))
    return t, p, q


# property tests draw the same examples on every run; pytest --hypothesis-profile=random
# draws fresh ones, to search for the draws a fixed set misses
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.register_profile("random", deadline=None)
settings.load_profile("derandomized")
