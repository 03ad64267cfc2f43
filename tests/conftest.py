from functools import cached_property

import numpy as np
import pytest

from frecas.bank import CAMap, Posterior
from frecas.grid import LatentGrid


def bank_stack(bank) -> np.ndarray:
    """The bank's items unblocked into one (K, C, H, W) stack."""
    return np.stack([bank.item(k).data for k in range(bank.size)])


def as_is(x):
    """The identity, as the layout maps of a step function on (C, H, W) arrays."""
    return x


def count_map_work(monkeypatch) -> dict:
    """Counts, from this call on, of the CAMaps built (each checks its rows
    once) and of the class evidences a posterior forms."""
    counts = {"CAMap": 0, "evidence": 0}

    def checked(m, _fn=CAMap.__post_init__):
        counts["CAMap"] += 1
        return _fn(m)

    def evidence(post, _fn=Posterior.evidence.func):
        counts["evidence"] += 1
        return _fn(post)

    prop = cached_property(evidence)
    prop.__set_name__(Posterior, "evidence")
    monkeypatch.setattr(CAMap, "__post_init__", checked)
    monkeypatch.setattr(Posterior, "evidence", prop)
    return counts


def rand_grid(rng, channels=3, side=16, scale=1.0) -> LatentGrid:
    return LatentGrid(scale * rng.standard_normal((channels, side, side)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
