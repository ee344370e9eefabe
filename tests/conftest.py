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


def padded_row_series(coeffs, waves):
    """A sample's series as a block builds it: row 0 of the zero-padded
    (16, k) product of its k coefficients with the (k, nodes) modes.

    A row of that product does not depend on the other rows, so every
    sample gets this series whatever its block.  It agrees with the modes
    added in k order, one sample's loop, to a few ulp of the series' peak
    (at most 4 seen over 2560 draws of 4 to 9 modes on 3 to 4001 nodes).
    """
    waves = np.array(waves, dtype=float)
    padded = np.zeros((16, len(coeffs)))
    padded[0] = coeffs
    series = (padded @ waves)[0]
    looped = sum(c * w for c, w in zip(coeffs, waves))
    assert np.max(np.abs(series - looped)) <= 8 * np.spacing(np.max(np.abs(looped)))
    return series


# property tests draw the same examples on every run; pytest --hypothesis-profile=random
# draws fresh ones, to search for the draws a fixed set misses
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.register_profile("random", deadline=None)
settings.load_profile("derandomized")
