import numpy as np
import pytest

from frecas.grid import LatentGrid


def bank_stack(bank) -> np.ndarray:
    """The bank's items unblocked into one (K, C, H, W) stack."""
    return np.stack([bank.item(k).data for k in range(bank.size)])


def as_is(x):
    """The identity, as the layout maps of a step function on (C, H, W) arrays."""
    return x


def rand_grid(rng, channels=3, side=16, scale=1.0) -> LatentGrid:
    return LatentGrid(scale * rng.standard_normal((channels, side, side)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
