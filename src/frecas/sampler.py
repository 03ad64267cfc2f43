"""Single-step denoising machinery: classifier-free guidance, its
frequency-aware variant, clean-signal prediction, and the deterministic
DDIM / flow-Euler update rules.

Frequency-aware guidance applies strength w_l below the cut resolution's
Nyquist and w_h above it. Guidance is linear in the two scores, so it takes
one band split (the band_split residual construction) of d = eps_c - eps_unc:

    combined = cfg(eps_unc, eps_c, w_l) + (w_h - w_l) high(d)

A cut at the grid's own side makes high(d) exactly 0 and w_l == w_h makes
its weight 0; both give exactly plain guidance. `cascade.StagePlan.guidance`
cuts each stage at the previous stage's side, the first at its own.
"""

from dataclasses import dataclass

import numpy as np

from .freq import band_split
from .grid import LatentGrid, Resolution
from .schedule import NoiseSchedule, diffuse, forward_model, require_vp


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


def cfg_combine(eps_unc: LatentGrid, eps_c: LatentGrid, w: float) -> LatentGrid:
    """Classifier-free guidance: (1 - w) * eps_unc + w * eps_c."""
    if eps_unc.shape != eps_c.shape:
        raise ValueError(f"shape mismatch: {eps_unc.shape} vs {eps_c.shape}")
    return LatentGrid((1.0 - w) * eps_unc.data + w * eps_c.data)


def facfg_combine(
    eps_unc: LatentGrid, eps_c: LatentGrid, gw: GuidanceWeights
) -> LatentGrid:
    """Frequency-aware guidance: CFG at w_l plus (w_h - w_l) times the high
    band of eps_c - eps_unc."""
    plain = cfg_combine(eps_unc, eps_c, gw.w_l)
    high = band_split(LatentGrid(eps_c.data - eps_unc.data), gw.base).high
    return LatentGrid(plain.data + (gw.w_h - gw.w_l) * high.data)


def predict_z0(
    z_t: LatentGrid, eps_hat: LatentGrid, t: float, sched: NoiseSchedule
) -> LatentGrid:
    """Clean-signal estimate from the noisy latent and a predicted field (a
    noise on VP, a velocity on flow), the exact inverse of the field's form."""
    if z_t.shape != eps_hat.shape:
        raise ValueError(f"shape mismatch: {z_t.shape} vs {eps_hat.shape}")
    return LatentGrid(forward_model(sched, t).clean(z_t.data, eps_hat.data))


def ddim_step(
    z_t: LatentGrid,
    eps_hat: LatentGrid,
    t: float,
    t_prev: float,
    sched: NoiseSchedule,
) -> LatentGrid:
    """Deterministic (eta = 0) DDIM update from t down to t_prev."""
    if t_prev > t:
        raise ValueError(f"t_prev {t_prev} must not exceed t {t}")
    require_vp(sched)
    return diffuse(predict_z0(z_t, eps_hat, t, sched), t_prev, eps_hat, sched)


def euler_flow_step(
    z_t: LatentGrid, v_hat: LatentGrid, t: float, t_prev: float
) -> LatentGrid:
    """Linear Euler update z + (t_prev - t) * v along the flow path."""
    if z_t.shape != v_hat.shape:
        raise ValueError(f"shape mismatch: {z_t.shape} vs {v_hat.shape}")
    t, t_prev = float(t), float(t_prev)
    if not (0.0 <= t_prev <= t <= 1.0):
        raise ValueError(f"need 0 <= t_prev <= t <= 1, got t={t}, t_prev={t_prev}")
    return LatentGrid(z_t.data + (t_prev - t) * v_hat.data)
