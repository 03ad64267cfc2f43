"""Noise schedules, SNR arithmetic, the forward model, and the closed-form
timestep shifts that keep SNR matched across resolution changes.

Two schedule kinds are supported:

* variance preserving (VP): z_t = sqrt(a_t) z_0 + sqrt(1 - a_t) eps, with a_t
  the cumulative product of (1 - beta_k) over a linear beta ramp. Timesteps
  are real-valued in [0, T]; a_t is evaluated by piecewise-linear
  interpolation between the integer grid points, with a_0 = 1.
* flow matching: z_t = (1 - t) z_0 + t eps over continuous t in [0, 1].

Both are z_t = scale z_0 + sigma eps. :func:`forward_model` gives these
coefficients at t and the c of the field (z_t - c z_0) / sigma a denoiser
predicts: the noise on VP (c = scale), the velocity eps - z_0 on flow (c = 1).
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import LatentGrid


class ScheduleKind(enum.Enum):
    VARIANCE_PRESERVING = "vp"
    FLOW_MATCHING = "flow"


DEFAULT_T = 1000
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02
MAX_T = 10**6  # 1000 times every preset's T; keeps the VP alpha table at 8 MB


@dataclass(frozen=True)
class NoiseSchedule:
    """A schedule is its kind and T; the VP alpha table derives from T."""

    kind: ScheduleKind
    T: int = DEFAULT_T
    alpha: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.T <= MAX_T:  # before any table is built
            raise ValueError(f"schedule T must lie in [1, {MAX_T}], got {self.T}")
        alpha = None
        if self.kind is ScheduleKind.VARIANCE_PRESERVING:
            betas = np.linspace(DEFAULT_BETA_START, DEFAULT_BETA_END, self.T)
            alpha = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
            if alpha[-1] <= 0.0 or np.any(np.diff(alpha) >= 0):  # from T = 73253 on
                raise ValueError(f"schedule T = {self.T} is too large: the linear-beta "
                                 "alpha table underflows to 0 and stops decreasing")
            alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)

    @property
    def t_max(self) -> float:
        return float(self.T) if self.kind is ScheduleKind.VARIANCE_PRESERVING else 1.0


def vp_default(T: int = DEFAULT_T) -> NoiseSchedule:
    """Linear-beta VP schedule (1e-4 to 0.02), the SD-family convention."""
    return NoiseSchedule(ScheduleKind.VARIANCE_PRESERVING, T)


def flow_schedule(T: int = DEFAULT_T) -> NoiseSchedule:
    """Rectified-flow schedule; T only maps discrete timestep indices to [0,1]."""
    return NoiseSchedule(ScheduleKind.FLOW_MATCHING, T)


def require_vp(sched: NoiseSchedule):
    if sched.kind is not ScheduleKind.VARIANCE_PRESERVING:
        raise ValueError("operation requires a variance-preserving schedule")


def alpha_at(sched: NoiseSchedule, t: float) -> float:
    """a_t by piecewise-linear interpolation; a_0 = 1."""
    require_vp(sched)
    t = float(t)
    if not 0.0 <= t <= sched.T:
        raise ValueError(f"timestep {t} outside [0, {sched.T}]")
    lo = int(np.floor(t))
    if lo == sched.T:
        return float(sched.alpha[-1])
    frac = t - lo
    a0, a1 = sched.alpha[lo], sched.alpha[lo + 1]
    return float(a0 + frac * (a1 - a0))


def alpha_inverse(sched: NoiseSchedule, target: float) -> float:
    """The t with a_t = target on the interpolated curve: a table search for
    the bracketing segment, then one linear solve, so a_i maps back to i."""
    require_vp(sched)
    if not sched.alpha[-1] <= target <= 1.0:
        raise ValueError(
            f"alpha {target} outside the schedule range [{sched.alpha[-1]:.3e}, 1]"
        )
    lo = min(int(np.searchsorted(-sched.alpha, -target, side="right")) - 1, sched.T - 1)
    a0, a1 = sched.alpha[lo], sched.alpha[lo + 1]
    return float(lo + (target - a0) / (a1 - a0))


def snr(sched: NoiseSchedule, t: float) -> float:
    """Signal-to-noise ratio a_t / (1 - a_t); ValueError where a_t rounds to
    1, as at t = 0, since the ratio is infinite there."""
    require_vp(sched)
    a = alpha_at(sched, t)
    if a >= 1.0:
        raise ValueError(f"SNR is infinite at t = {t:g}: alpha rounds to 1")
    return a / (1.0 - a)


class ForwardModel(NamedTuple):
    """z_t = scale z_0 + sigma eps at one t, with var = sigma**2 as the
    schedule computes it, and the field (z_t - c z_0) / sigma. Its methods
    act on arrays of any one layout, grids or patch blocks."""

    scale: float
    sigma: float
    var: float
    c: float

    def field(self, z_t, z0):
        return (z_t - self.c * z0) / self.sigma

    def clean(self, z_t, field):
        return (z_t - self.sigma * field) / self.c

    def noised(self, z0, noise):
        return self.scale * z0 + self.sigma * noise


def forward_model(sched: NoiseSchedule, t: float) -> ForwardModel:
    """The forward-model coefficients at t in [0, t_max]."""
    if sched.kind is ScheduleKind.VARIANCE_PRESERVING:
        a = alpha_at(sched, t)
        scale = np.sqrt(a)
        return ForwardModel(scale, np.sqrt(1.0 - a), 1.0 - a, scale)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"flow time {t} outside [0, 1]")
    return ForwardModel(1.0 - t, t, t * t, 1.0)


def diffuse(z0: LatentGrid, t: float, noise: LatentGrid, sched: NoiseSchedule) -> LatentGrid:
    """Forward diffusion to timestep t with the given noise realization."""
    if z0.shape != noise.shape:
        raise ValueError(f"shape mismatch: {z0.shape} vs {noise.shape}")
    return LatentGrid(forward_model(sched, t).noised(z0.data, noise.data))


def shift_timestep_vp(L: float, ratio: float, gamma: float, sched: NoiseSchedule) -> float:
    """Timestep F with SNR(F) = SNR(L) * ratio**gamma, via the closed form

        a_F = r a_L / ((1 - a_L) + r a_L),   r = ratio**gamma

    then inverted through the schedule. ratio is the side ratio of the
    previous stage over the next (<= 1 when growing resolution), so F >= L.
    Written with 1 - a_L, the denominator cannot round to 0 when a_L rounds
    to 1; an r that underflows to 0 gives a_F = 0, below the schedule.
    """
    require_vp(sched)
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"resolution ratio must be in (0, 1], got {ratio}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if not 0.0 < L < sched.T:
        raise ValueError(f"L must lie strictly inside (0, {sched.T})")
    r = ratio ** gamma
    a_l = alpha_at(sched, L)
    a_f = r * a_l / ((1.0 - a_l) + r * a_l) if r > 0.0 else 0.0
    return alpha_inverse(sched, a_f)


def shift_timestep_flow(L: float, scale: float) -> float:
    """SD3-style flow shift F = sqrt(k) L / (1 + (sqrt(k) - 1) L), k = scale.

    A Moebius map on [0,1] with fixed points 0 and 1; applying scale k then
    1/k returns L. Cascades use scale >= 1 (growing resolution) but any
    positive scale is a valid map.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    L = float(L)
    if not 0.0 <= L <= 1.0:
        raise ValueError(f"flow time {L} outside [0, 1]")
    root = np.sqrt(scale)
    return float(root * L / (1.0 + (root - 1.0) * L))
