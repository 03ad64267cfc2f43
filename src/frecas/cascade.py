"""Cascade orchestration: stage plans, the five-step transition between
resolutions (denoise, decode, interpolate, encode, diffuse), attention-map
averaging and fusion across stages, stage execution, and the analytic
denoiser-evaluation cost accountant.

A run starts from pure noise at the base resolution and the top of the
schedule, alternates stage sampling with transitions, and decodes the final
latent. Every timestep it visits comes from its `StagePlan`: stage 0 enters
at t_max, each later stage at the F that `StagePlan.entry_timestep` derives
from the previous stage's L through the shifts in :mod:`frecas.schedule`.
Every stage runs one step loop, :func:`run_stage`, over one
:class:`frecas.bank.Posterior` a step, from either of its two sources. A
one-stage plan, the single-stage baseline a cascade is measured against,
holds its latent in bank coordinates (:class:`frecas.bank.BankSpan`) where
the bank's Gram matrix pays for itself (:func:`runs_in_bank_span`); every
other stage, and every stage of a cascade, holds it patch-blocked.

Cost model: one denoiser evaluation at side s costs (s / s0)**2 units, so a
plan costs sum(steps_i * (s_i / s0)**2). Guidance's two evaluations per step
are a constant factor and excluded.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernels
from .bank import BankSpan, CAMap, LatentBank, bank_resample, blocked_posterior, predict
from .codec import LatentCodec, decode, encode
from .grid import LatentGrid, Resolution, resample_bilinear_rect, seeded_gaussian, subseed
from .sampler import GuidanceWeights, ddim_step, euler_flow_step, facfg_combine, predict_z0
from .schedule import (
    NoiseSchedule,
    ScheduleKind,
    diffuse,
    forward_model,
    shift_timestep_flow,
    shift_timestep_vp,
    snr,
)

_SUBSEED_INIT = 0
_SUBSEED_TRANSITION = 1


@dataclass(frozen=True)
class StageSpec:
    """One stage: its resolution, step count and L; its weights are the plan's."""

    resolution: Resolution
    steps: int
    last_timestep: float  # L; 0 for the final stage

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("each stage needs at least one step")
        if not 0 <= self.last_timestep < math.inf:
            raise ValueError(f"last timestep must be finite and non-negative, "
                             f"got {self.last_timestep}")


@dataclass(frozen=True)
class StagePlan:
    """Stages of increasing side and the settings they share: gamma, the
    schedule, FA-CFG strengths w_l, w_h (cut by `guidance`) and fusion w_c.
    `first_timesteps` is derived: each stage's entry F, t_max and then
    `entry_timestep`. A stage whose F is not above its L is a ValueError, as
    is one that runs the denoiser (at its `time_grid` but the last, and at a
    non-final L) where the noise variance is below the smallest normal float."""

    stages: tuple
    gamma: float
    schedule: NoiseSchedule
    w_l: float
    w_h: float
    w_c: float
    train_side: int | None = None  # cost reference s0; stage-0 side by default
    first_timesteps: tuple = field(init=False)

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("plan needs at least one stage")
        GuidanceWeights(self.w_l, self.w_h, stages[0].resolution)  # checks w_l and w_h
        if not 0.0 <= self.w_c <= 1.0:
            raise ValueError("ca fusion weight must lie in [0, 1]")
        sides = [s.resolution.side for s in stages]
        if any(b <= a for a, b in zip(sides, sides[1:])):
            raise ValueError("stage resolutions must be strictly increasing")
        if stages[-1].last_timestep != 0:
            raise ValueError("final stage must run to timestep 0")
        if any(s.last_timestep <= 0 for s in stages[:-1]):
            raise ValueError("non-final stages must stop at a positive timestep")
        t_max = self.schedule.t_max
        if any(s.last_timestep >= t_max for s in stages[:-1]):
            raise ValueError(f"non-final stages must stop below the schedule's "
                             f"t_max = {t_max:g}, got L = "
                             f"{', '.join(f'{s.last_timestep:g}' for s in stages[:-1])}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")
        firsts = [t_max]
        for i, (a, b) in enumerate(zip(stages, stages[1:]), 1):
            F = self.entry_timestep(a, b)
            if F <= b.last_timestep:
                raise ValueError(f"stage {i} (side {b.resolution.side}) enters at "
                                 f"F = {F:g}, not above its L = {b.last_timestep:g}")
            firsts.append(F)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "first_timesteps", tuple(firsts))
        for i, spec in enumerate(stages):
            # var grows with t, so a stage's least denoiser time decides: the
            # final stage's last step, or the L where a transition denoises
            t = self.time_grid(spec)[-2 if spec is stages[-1] else -1]
            if forward_model(self.schedule, t).var < np.finfo(float).tiny:
                raise ValueError(f"stage {i} (side {spec.resolution.side}) runs the "
                                 f"denoiser at zero noise level, t = {t:g}")
        if self.train_side is None:
            object.__setattr__(self, "train_side", stages[0].resolution.side)

    def entry_timestep(self, src: StageSpec, dst: StageSpec) -> float:
        """F, where stage dst starts from src's L. VP: SNR(F) = SNR(L) *
        (src side / dst side)**gamma, checked to 1e-6 relative plus the
        rounding SNR(F) = a_F / (1 - a_F) inherits from 1 - a_F, relative
        eps / (1 - a_F) = eps (1 + SNR), which near t = 0 outgrows 1e-6
        (AssertionError). Flow: SD3's shift by dst side / src side, which has
        no exponent, so gamma has no effect. ValueError when no F exists."""
        L, sched = src.last_timestep, self.schedule
        try:
            if sched.kind is ScheduleKind.FLOW_MATCHING:
                return shift_timestep_flow(L, dst.resolution.side / src.resolution.side)
            ratio = src.resolution.side / dst.resolution.side
            target = snr(sched, L) * ratio**self.gamma
            F = shift_timestep_vp(L, ratio, self.gamma, sched)
            achieved = snr(sched, F)
        except ValueError as e:
            raise ValueError(f"no entry timestep for side {dst.resolution.side} "
                             f"from L = {L:g}: {e}") from None
        tol = 1e-6 + 8 * np.finfo(float).eps * (1.0 + target)
        if abs(achieved - target) > tol * target:
            raise AssertionError(f"entry to side {dst.resolution.side} from L = {L:g}: "
                                 f"SNR mismatch, {achieved!r} against {target!r}")
        return F

    def guidance(self, spec: StageSpec) -> GuidanceWeights:
        """A stage's FA-CFG weights, cut at the previous stage's side (the first
        stage's own: plain CFG at w_l); ValueError for a stage not in the plan."""
        i = self.stages.index(spec)
        return GuidanceWeights(self.w_l, self.w_h, self.stages[max(i - 1, 0)].resolution)

    def time_grid(self, spec: StageSpec) -> np.ndarray:
        """steps + 1 evenly spaced times from a stage's F down to its L; the
        denoiser runs at grid[:-1]. ValueError for a stage not in the plan."""
        F = self.first_timesteps[self.stages.index(spec)]
        return np.linspace(F, spec.last_timestep, spec.steps + 1)


@dataclass(frozen=True)
class RunReport:
    """A run's cost units; its stages' F, L and costs are the plan's."""

    cost_units: float


def stage_costs(plan: StagePlan) -> tuple:
    """Cost units of each stage: steps * (side / s0)**2."""
    s0 = plan.train_side
    return tuple(s.steps * (s.resolution.side / s0) ** 2 for s in plan.stages)


def compute_cost(plan: StagePlan) -> float:
    return float(sum(stage_costs(plan)))


# ---------------------------------------------------------------------------
# attention-map algebra
# ---------------------------------------------------------------------------

def average_ca_maps(maps) -> CAMap:
    """Elementwise arithmetic mean of row-stochastic maps that fit the
    first (`CAMap.check_fit`)."""
    maps = list(maps)
    if not maps:
        raise ValueError("cannot average zero maps")
    first = maps[0]
    for m in maps[1:]:
        first.check_fit(m)
    mean = np.mean([m.values for m in maps], axis=0)
    return CAMap(mean, first.classes)


def fuse_ca_maps(current: CAMap, averaged: CAMap, w_c: float) -> CAMap:
    """Convex combination (1 - w_c) * current + w_c * averaged, of maps
    that fit (`CAMap.check_fit`)."""
    if not 0.0 <= w_c <= 1.0:
        raise ValueError(f"w_c must lie in [0, 1], got {w_c}")
    current.check_fit(averaged)
    fused = (1.0 - w_c) * current.values + w_c * averaged.values
    return CAMap(fused, current.classes)


def resample_ca_map(m: CAMap, rows: int) -> CAMap:
    """The map on a rows x rows patch grid: a bilinear resample from its own
    square grid (the root of its row count), then each row renormalized."""
    side = math.isqrt(len(m.values))
    if side == rows:
        return m
    grid = np.ascontiguousarray(m.values.T.reshape(len(m.classes), side, side))
    out = _kernels.bilinear_resample(grid, rows, rows)
    values = out.reshape(len(m.classes), rows * rows).T
    values = values / values.sum(axis=1, keepdims=True)
    return CAMap(values, m.classes)


# ---------------------------------------------------------------------------
# stage execution
# ---------------------------------------------------------------------------

def run_stage(
    spec: StageSpec,
    z: LatentGrid,
    bank: LatentBank,
    condition: int | None,
    plan: StagePlan,
    reused_maps: CAMap | None = None,
):
    """Run one stage over ``plan.time_grid(spec)``, from its F down to its L;
    returns the final latent and the average of the stage's step maps, or
    ``(latent, None)`` for the plan's final stage, whose average no stage reads.

    Scores are combined with ``plan.guidance(spec)``, plain guidance at the
    first stage. When an averaged map from the previous stage is supplied,
    it is regridded to this stage's patch grid, fused with each step's own
    map at ``plan.w_c`` and steers the conditional prediction patchwise.
    Each fused map and the average are CAMaps, whose rows are checked to sum
    to 1 within 1e-12 (ValueError otherwise).

    Each step takes the :class:`frecas.bank.Posterior` of its latent,
    fuses its map, takes `Posterior.fields` and applies
    :func:`frecas.sampler.facfg_combine` and :func:`frecas.sampler.ddim_step`
    or :func:`frecas.sampler.euler_flow_step` in the latent's own layout.
    The latent has one of two sources, picked once per stage. A one-stage
    plan whose bank and step count :func:`runs_in_bank_span` accepts holds
    it as coordinates in the :class:`frecas.bank.BankSpan` of its entry
    latent: its guidance is plain CFG, so it stays in that span, and a step
    reads the bank's Gram matrix, not the bank. Every other stage holds it
    as (P, C*p*p) blocks in the bank's layout, and a step is one
    :func:`frecas.bank.blocked_posterior` pass; only a cut stage's band
    split unblocks (the guidance difference). The latent is built from its
    coordinates or unblocked once, at the end. Its shape is checked on
    entry, and each new latent (in coordinates, its coordinates) for
    finiteness: a non-finite one is a ValueError naming the step's t. The
    latent built from finite coordinates is checked at the end, and where
    the next step's distances fail, under the step before.
    """
    if bank.item_shape != z.shape:
        raise ValueError(f"latent shape {z.shape} does not match bank {bank.item_shape}")
    if len(plan.stages) == 1 and reused_maps is not None:
        raise ValueError("the stage of a one-stage plan has no earlier maps to reuse")
    grid = plan.time_grid(spec)
    gw = plan.guidance(spec)
    z = bank.block(z.data)
    span, posterior = None, partial(blocked_posterior, bank)
    if len(plan.stages) == 1 and runs_in_bank_span(bank, spec.steps):
        span = BankSpan.of(bank, z)
        z, posterior = np.zeros(bank.size + 1), span.posterior
        z[0] = 1.0  # the entry latent's own coordinates
    if reused_maps is not None:
        reused_maps = resample_ca_map(reused_maps, bank.side // bank.patch_size)
    averages = spec != plan.stages[-1]  # only a later stage reads the average
    step_maps = []
    for idx in range(spec.steps):
        t, t_next = float(grid[idx]), float(grid[idx + 1])
        try:
            post = posterior(z, t, plan.schedule)
        except ValueError:
            if span is not None and idx:  # the latent may have left the float range
                _require_finite(span.latent(z), float(grid[idx - 1]))
            raise
        fused = None if reused_maps is None else fuse_ca_maps(post.ca, reused_maps, plan.w_c)
        fields = post.fields(condition, ca_mixture=fused)
        if averages:
            step_maps.append(post.ca if fused is None else fused)
        z = _guided_step(z, fields, gw, bank, plan, post.fwd, t, t_next)
    if span is not None:
        z = span.latent(z)
        _require_finite(z, t)
    return LatentGrid(bank.unblock(z)), average_ca_maps(step_maps) if averages else None


# Items per step up to which the coordinate route's Gram build, K^2 D / 2
# multiply-adds in one BLAS product, costs less than the dense passes it
# saves, about steps K D of numpy work; see runs_in_bank_span. One direct
# run on a 2-vCPU VM broke even at 50-120 items per step (sides 16 and 64,
# 4 to 50 steps), so the route runs only where it is the faster one.
SPAN_ITEMS_PER_STEP = 32


def runs_in_bank_span(bank: LatentBank, steps: int) -> bool:
    """Whether a one-stage run of ``steps`` steps on ``bank`` takes the
    coordinate route. The route holds the bank's K x K Gram matrix beside
    the bank and builds it in O(K^2 D) for items of D numbers, where the
    dense route makes O(K D) passes per step: it runs where the Gram is no
    larger than the bank (K <= D) and K is at most
    :data:`SPAN_ITEMS_PER_STEP` items per step."""
    k = bank.size
    return k <= bank.blocks[0].size and k <= SPAN_ITEMS_PER_STEP * steps


def _guided_step(z, fields, gw, bank, plan, fwd, t, t_next):
    """The guided update of z from the (unconditional, conditional) field
    pair at t to t_next; ValueError naming t when the new latent is not
    finite. z is in the bank's blocked layout, or in any one layout where
    the guidance is cut at the bank's own side and so takes no band split."""
    eps_hat = facfg_combine(*fields, gw, bank.side, bank.unblock, bank.block)
    if plan.schedule.kind is ScheduleKind.VARIANCE_PRESERVING:
        z = ddim_step(z, eps_hat, fwd, forward_model(plan.schedule, t_next))
    else:
        z = euler_flow_step(z, eps_hat, t, t_next)
    _require_finite(z, t)
    return z


def _require_finite(z, t):
    if not np.isfinite(z).all():
        raise ValueError(f"non-finite latent after the step at t = {t:g}")


def transition(
    z_last: LatentGrid,
    from_spec: StageSpec,
    to_spec: StageSpec,
    plan: StagePlan,
    codec: LatentCodec,
    bank: LatentBank,
    condition: int | None,
    noise_seed: int,
):
    """The five-step hop to the next stage: denoise the last latent to a
    clean estimate, decode, bilinearly interpolate to the next pixel
    resolution, encode, and diffuse to ``plan.entry_timestep(from_spec,
    to_spec)``, which for two stages of the plan is the later one's entry in
    ``plan.first_timesteps``.

    The denoise step is a single conditional evaluation, the plain field of
    :func:`frecas.bank.predict`, which forms no evidence or map. Returns (z_F, F).
    """
    sched = plan.schedule
    L = from_spec.last_timestep
    field = predict(bank, z_last, L, condition, sched)
    z0 = predict_z0(z_last, field, L, sched)
    image = decode(codec, z0)
    pixel_side = to_spec.resolution.side * codec.spatial_factor
    image_up = resample_bilinear_rect(image, pixel_side, pixel_side)
    z0_up = encode(codec, image_up)
    F = plan.entry_timestep(from_spec, to_spec)
    noise = seeded_gaussian(z0_up.shape, noise_seed)
    z_f = diffuse(z0_up, F, noise, sched)
    return z_f, F


def run_cascade(
    plan: StagePlan,
    codec: LatentCodec,
    bank: LatentBank,
    condition: int | None,
    seed: int,
    stage_callback=None,
):
    """Full cascaded run; returns (image, report).

    The run is a pure function of its arguments: initial noise and every
    transition noise derive from sub-seeds of the run seed. Every timestep it
    visits comes from the plan (`StagePlan.time_grid`).
    """
    shape = (bank.channels, plan.stages[0].resolution.side, plan.stages[0].resolution.side)
    z = seeded_gaussian(shape, subseed(seed, _SUBSEED_INIT))

    avg_map = None
    for i, spec in enumerate(plan.stages):
        # the stage bank serves the stage and the transition out of it: one
        # the bank keeps (config.build_bank's), or one resampled here and
        # dropped before the next is built
        stage_bank = bank_resample(bank, spec.resolution)
        z, avg_map = run_stage(spec, z, stage_bank, condition, plan, reused_maps=avg_map)
        if stage_callback is not None:
            stage_callback(i, z)
        if i + 1 < len(plan.stages):
            z, _ = transition(
                z, spec, plan.stages[i + 1], plan, codec, stage_bank, condition,
                subseed(seed, _SUBSEED_TRANSITION, i),
            )
        del stage_bank

    image = decode(codec, z)
    return image, RunReport(cost_units=compute_cost(plan))


# ---------------------------------------------------------------------------
# presets: the shipped cascade configurations (base latent side s0 scales the
# whole ladder; defaults keep runs desk-sized)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    name: str
    schedule_kind: ScheduleKind
    scale_per_stage: tuple  # resolution multipliers relative to s0
    steps: tuple
    last_timesteps: tuple  # L per non-final stage, in training-timestep units
    gamma: float
    w_l: float
    w_h: float
    w_c: float


PRESETS = {
    p.name: p
    for p in [
        Preset("sd21-x4", ScheduleKind.VARIANCE_PRESERVING, (1, 2), (40, 10), (100,), 3.0, 7.5, 45.0, 0.6),
        Preset("sd21-x16", ScheduleKind.VARIANCE_PRESERVING, (1, 2, 4), (30, 10, 10), (200, 200), 3.0, 7.5, 35.0, 0.4),
        Preset("sdxl-x4", ScheduleKind.VARIANCE_PRESERVING, (1, 2), (40, 10), (200,), 1.5, 7.5, 35.0, 0.6),
        Preset("sdxl-x16", ScheduleKind.VARIANCE_PRESERVING, (1, 2, 4), (30, 5, 15), (400, 200), 2.0, 7.5, 35.0, 0.6),
        Preset("sd3-x4", ScheduleKind.FLOW_MATCHING, (1, 2), (20, 8), (50,), 2.0, 7.0, 35.0, 0.5),
    ]
}


def preset_timestep(L: float, sched: NoiseSchedule) -> float:
    """A last timestep L, as a preset, a stage list or an L sweep writes it,
    in the schedule's units. On flow schedules an L above 1 is a
    training-timestep index and is divided by T, and an L of at most 1 is
    taken as is; VP schedules take every L as is."""
    if sched.kind is ScheduleKind.FLOW_MATCHING and L > 1.0:
        return L / sched.T
    return float(L)


def stage_timesteps(lasts, sched: NoiseSchedule) -> list:
    """:func:`preset_timestep` of a plan's non-final Ls; an error names them as written."""
    out = [preset_timestep(L, sched) for L in lasts]
    if any(t >= sched.t_max for t in out):
        raise ValueError(f"non-final stages must stop below the schedule's t_max = "
                         f"{sched.t_max:g}, got L = {', '.join(f'{L:g}' for L in lasts)}")
    return out


def ladder(sides, steps, last_timesteps, *, w_l, w_h, w_c, gamma, sched,
           train_side=None) -> StagePlan:
    """The stage plan that climbs `sides`: stage i runs steps[i] steps down to
    last_timesteps[i] (schedule units, one per non-final stage; the final
    stage runs to 0). `StagePlan.guidance` derives each stage's FA-CFG cut.
    """
    if not len(sides) == len(steps) == len(last_timesteps) + 1:
        raise ValueError("a ladder needs a side and a step count per stage "
                         "and a last timestep per non-final stage")
    lasts = [float(L) for L in last_timesteps] + [0.0]
    stages = tuple(StageSpec(Resolution(side), n, last)
                   for side, n, last in zip(sides, steps, lasts))
    return StagePlan(stages, gamma, sched, w_l, w_h, w_c, train_side)

