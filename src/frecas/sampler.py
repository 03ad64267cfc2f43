"""Single-step denoising machinery: classifier-free guidance, its
frequency-aware variant, clean-signal prediction, and the deterministic
DDIM / flow-Euler update rules.

Frequency-aware guidance applies strength w_l below the cut resolution's
Nyquist and w_h above it. Guidance is linear in the two scores, so it takes
one band split (:func:`frecas.freq.band_split`) of d = eps_c - eps_unc:

    combined = cfg_combine(eps_unc, eps_c, w_l) + (w_h - w_l) high(d)

A cut at the grid's own side makes high(d) exactly 0 and w_l == w_h makes
its weight 0; both give exactly plain guidance, and at the grid's own side
:func:`facfg_combine` skips the band split. `cascade.StagePlan.guidance`
cuts each stage at the previous stage's side, the first at its own.

Each rule is one function on arrays of any one layout (:func:`cfg_combine`,
:func:`facfg_combine`, :func:`ddim_step`, :func:`euler_flow_step`), so
`cascade.run_stage` applies them to patch-blocked arrays, and to the bank
coordinates of a one-stage plan, since every rule is linear, and a caller
with (C, H, W) grids passes their ``data``. :func:`predict_z0` is the grid form
of `ForwardModel.clean`, which the cascade's transition calls.
"""

from dataclasses import dataclass

import numpy as np

from .freq import band_split
from .grid import LatentGrid, Resolution
from .schedule import ForwardModel, NoiseSchedule, forward_model


@dataclass(frozen=True)
class GuidanceWeights:
    """Band guidance strengths; base is the cut resolution. A cascade stage
    gets its weights from `cascade.StagePlan.guidance`."""

    w_l: float
    w_h: float
    base: Resolution

    def __post_init__(self):
        if not (np.isfinite(self.w_l) and np.isfinite(self.w_h)):
            raise ValueError("guidance weights must be finite")
        if self.w_l < 0 or self.w_h < 0:
            raise ValueError("guidance weights must be non-negative")


def cfg_combine(eps_unc, eps_c, w: float):
    """Classifier-free guidance (1 - w) * eps_unc + w * eps_c on arrays of one layout."""
    out = (1.0 - w) * eps_unc
    out += w * eps_c
    return out


def facfg_combine(eps_unc, eps_c, gw: GuidanceWeights, side: int, to_grid, from_grid):
    """Frequency-aware guidance on arrays of one layout, of a grid of this
    side: CFG at w_l plus (w_h - w_l) times the band of eps_c - eps_unc
    above gw.base. ``to_grid`` and ``from_grid`` map the layout to a
    (C, side, side) array, where the band is taken, and back. A cut at the
    grid's own side has a high band of exactly 0, so there it is CFG at w_l
    and no band is taken. The band is taken in place and before the CFG sum
    is formed, so the two never hold temporaries at the same time."""
    if gw.base.side == side:
        return cfg_combine(eps_unc, eps_c, gw.w_l)
    high = to_grid(eps_c - eps_unc)
    high = from_grid(band_split(high, gw.base.side, out=high)[1])
    high *= gw.w_h - gw.w_l
    out = cfg_combine(eps_unc, eps_c, gw.w_l)
    out += high
    return out


def predict_z0(
    z_t: LatentGrid, eps_hat: LatentGrid, t: float, sched: NoiseSchedule
) -> LatentGrid:
    """Clean-signal estimate from the noisy latent and a predicted field (a
    noise on VP, a velocity on flow), the exact inverse of the field's form."""
    if z_t.shape != eps_hat.shape:
        raise ValueError(f"shape mismatch: {z_t.shape} vs {eps_hat.shape}")
    return LatentGrid(forward_model(sched, t).clean(z_t.data, eps_hat.data))


def ddim_step(z_t, eps_hat, fwd: ForwardModel, fwd_prev: ForwardModel):
    """Deterministic (eta = 0) DDIM on arrays of one layout: the clean estimate
    at t re-noised with eps_hat at t_prev, given both forward models."""
    return fwd_prev.noised(fwd.clean(z_t, eps_hat), eps_hat)


def euler_flow_step(z_t, v_hat, t: float, t_prev: float):
    """The flow-Euler update z + (t_prev - t) * v on arrays of one layout;
    ValueError unless 0 <= t_prev <= t <= 1."""
    if not (0.0 <= t_prev <= t <= 1.0):
        raise ValueError(f"need 0 <= t_prev <= t <= 1, got t={t}, t_prev={t_prev}")
    return z_t + (t_prev - t) * v_hat
