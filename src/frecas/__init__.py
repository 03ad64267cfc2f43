"""Frequency-aware cascaded sampling for diffusion models at desk scale:
stage-wise resolution growth with SNR-matched transitions, frequency-aware
classifier-free guidance, attention-map reuse across stages, an analytic
posterior-mean denoiser in place of a trained network, and radial PSD
analysis tools.
"""

from .bank import CAMap, LatentBank, Posterior, bank_resample, blocked_posterior, make_bank, predict
from .cascade import (
    PRESETS,
    RunReport,
    StagePlan,
    StageSpec,
    average_ca_maps,
    compute_cost,
    fuse_ca_maps,
    ladder,
    run_cascade,
    transition,
)
from .codec import HAAR1, IDENTITY, LatentCodec, decode, encode
from .freq import (
    PsdCurve,
    band_split,
    nyquist,
    psd_decomposition,
    radial_psd,
)
from .grid import (
    LatentGrid,
    Resolution,
    read_grid,
    resample_bilinear,
    seeded_gaussian,
    write_grid,
)
from .sampler import (
    GuidanceWeights,
    cfg_combine,
    ddim_step,
    euler_flow_step,
    facfg_combine,
    predict_z0,
)
from .schedule import (
    NoiseSchedule,
    ScheduleKind,
    alpha_at,
    alpha_inverse,
    diffuse,
    flow_schedule,
    shift_timestep_flow,
    shift_timestep_vp,
    snr,
    vp_default,
)

__version__ = "0.1.0"
