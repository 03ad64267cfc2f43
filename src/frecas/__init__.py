"""Frequency-aware cascaded sampling for diffusion models at desk scale:
stage-wise resolution growth with SNR-matched transitions, frequency-aware
classifier-free guidance, attention-map reuse across stages, an analytic
posterior-mean denoiser in place of a trained network, and radial PSD
analysis tools. The package re-exports nothing: import each name from its
module, as ``from frecas.bank import make_bank``.
"""
