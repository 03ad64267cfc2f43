"""Single-step denoising machinery: classifier-free guidance, its
frequency-aware variant, clean-signal prediction, and the deterministic
DDIM / flow-Euler update rules.

Frequency-aware guidance applies strength w_l below the cut resolution's
Nyquist and w_h above it. Guidance is linear in the two scores, so it takes
one band split (the band_split residual construction) of d = eps_c - eps_unc:

    combined = cfg(eps_unc, eps_c, w_l) + (w_h - w_l) high(d)

A cut at the grid's own side makes high(d) exactly 0 and w_l == w_h makes
its weight 0; both give exactly plain guidance, and at the grid's own side
:func:`facfg` skips the band split. `cascade.StagePlan.guidance` cuts each
stage at the previous stage's side, the first at its own.

Each rule is one array function (:func:`cfg`, :func:`facfg`,
:func:`ddim_update`, :func:`euler_update`) that works in any one layout, so
`cascade.run_stage` applies them to patch-blocked arrays; the grid functions
(:func:`cfg_combine`, :func:`facfg_combine`, :func:`ddim_step`,
:func:`euler_flow_step`) check their arguments and call the same ones.
"""

from dataclasses import dataclass

import numpy as np

from .freq import high_band
from .grid import LatentGrid, Resolution
from .schedule import ForwardModel, NoiseSchedule, forward_model, require_vp


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


def cfg(eps_unc, eps_c, w: float):
    """(1 - w) * eps_unc + w * eps_c on arrays of one layout."""
    out = (1.0 - w) * eps_unc
    out += w * eps_c
    return out


def facfg(eps_unc, eps_c, gw: GuidanceWeights, side: int, to_grid, from_grid):
    """Frequency-aware guidance on arrays of one layout, of a grid of this
    side: CFG at w_l plus (w_h - w_l) times the band of eps_c - eps_unc
    above gw.base. ``to_grid`` and ``from_grid`` map the layout to a
    (C, side, side) array, where the band is taken, and back. A cut at the
    grid's own side has a high band of exactly 0, so there it is CFG at w_l
    and no band is taken. The band is taken in place and before the CFG sum
    is formed, so the two never hold temporaries at the same time."""
    if gw.base.side == side:
        return cfg(eps_unc, eps_c, gw.w_l)
    high = to_grid(eps_c - eps_unc)
    high = from_grid(high_band(high, gw.base.side, out=high))
    high *= gw.w_h - gw.w_l
    out = cfg(eps_unc, eps_c, gw.w_l)
    out += high
    return out


def ddim_update(z_t, eps_hat, fwd: ForwardModel, fwd_prev: ForwardModel):
    """Deterministic DDIM on arrays of one layout: the clean estimate at t
    re-noised with eps_hat at t_prev, given both forward models."""
    return fwd_prev.noised(fwd.clean(z_t, eps_hat), eps_hat)


def euler_update(z_t, v_hat, t: float, t_prev: float):
    """The flow-Euler update z + (t_prev - t) * v on arrays of one layout."""
    return z_t + (t_prev - t) * v_hat


def _as_is(x):
    return x


def _same_shape(a: LatentGrid, b: LatentGrid):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def cfg_combine(eps_unc: LatentGrid, eps_c: LatentGrid, w: float) -> LatentGrid:
    """Classifier-free guidance of two grids (:func:`cfg`)."""
    _same_shape(eps_unc, eps_c)
    return LatentGrid(cfg(eps_unc.data, eps_c.data, w))


def facfg_combine(
    eps_unc: LatentGrid, eps_c: LatentGrid, gw: GuidanceWeights
) -> LatentGrid:
    """Frequency-aware guidance of two square grids (:func:`facfg`), the
    high band taken by :func:`frecas.freq.high_band`."""
    _same_shape(eps_unc, eps_c)
    side = eps_c.resolution().side
    return LatentGrid(facfg(eps_unc.data, eps_c.data, gw, side, _as_is, _as_is))


def predict_z0(
    z_t: LatentGrid, eps_hat: LatentGrid, t: float, sched: NoiseSchedule
) -> LatentGrid:
    """Clean-signal estimate from the noisy latent and a predicted field (a
    noise on VP, a velocity on flow), the exact inverse of the field's form."""
    _same_shape(z_t, eps_hat)
    return LatentGrid(forward_model(sched, t).clean(z_t.data, eps_hat.data))


def ddim_step(
    z_t: LatentGrid,
    eps_hat: LatentGrid,
    t: float,
    t_prev: float,
    sched: NoiseSchedule,
) -> LatentGrid:
    """Deterministic (eta = 0) DDIM update from t down to t_prev (:func:`ddim_update`)."""
    _same_shape(z_t, eps_hat)
    if t_prev > t:
        raise ValueError(f"t_prev {t_prev} must not exceed t {t}")
    require_vp(sched)
    return LatentGrid(ddim_update(z_t.data, eps_hat.data, forward_model(sched, t),
                                  forward_model(sched, t_prev)))


def euler_flow_step(
    z_t: LatentGrid, v_hat: LatentGrid, t: float, t_prev: float
) -> LatentGrid:
    """Linear Euler update along the flow path (:func:`euler_update`)."""
    _same_shape(z_t, v_hat)
    t, t_prev = float(t), float(t_prev)
    if not (0.0 <= t_prev <= t <= 1.0):
        raise ValueError(f"need 0 <= t_prev <= t <= 1, got t={t}, t_prev={t_prev}")
    return LatentGrid(euler_update(z_t.data, v_hat.data, t, t_prev))
