import math
from functools import cached_property

import numpy as np
import pytest

from frecas.bank import CAMap, LatentBank, Posterior
from frecas.grid import LatentGrid
from frecas.schedule import alpha_at


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


def brute_force_eps(bank: LatentBank, z: LatentGrid, t: float, condition, sched):
    """Literal posterior mean: python loops, log-domain for stability."""
    a = alpha_at(sched, t)
    scale, var = math.sqrt(a), 1.0 - a
    logw = []
    members = []
    for k in range(bank.size):
        if condition is not None and bank.class_ids[k] != condition:
            continue
        d = 0.0
        zf = z.data.ravel()
        xf = bank.item(k).data.ravel()
        for j in range(zf.size):
            diff = zf[j] - scale * xf[j]
            d += diff * diff
        logw.append(math.log(bank.weights[k]) - d / (2.0 * var))
        members.append(k)
    m = max(logw)
    p = [math.exp(v - m) for v in logw]
    s = sum(p)
    z0 = np.zeros_like(z.data)
    for weight, k in zip(p, members):
        z0 += (weight / s) * bank.item(k).data
    return (z.data - scale * z0) / math.sqrt(var)


def rand_grid(rng, channels=3, side=16, scale=1.0) -> LatentGrid:
    return LatentGrid(scale * rng.standard_normal((channels, side, side)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
