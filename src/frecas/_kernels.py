"""Hot numeric kernels, one vectorized numpy implementation each.

These loops dominate the runtime of cascade runs: the per-step bank
distances, the patchwise bank mixture, and the corner-aligned bilinear
resampling behind band splits and transitions. Every caller reaches them
through this module, so a faster formulation of a kernel replaces it here
without touching the callers.

The per-patch distances use the norm expansion of exact L2 search,
||z_p||^2 - 2 s <z_p, x_kp> + s^2 ||x_kp||^2, with the bank norms
||x_kp||^2 supplied by the caller (see :func:`patch_sq_norms`). The
whole-latent distance is the row sum of the patch distances, so the bank
posterior makes one pass per step; :func:`sq_dists` stays as the direct
form that tests compare against.
"""

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; there is only the numpy one."""
    return "numpy"


# ---------------------------------------------------------------------------
# corner-aligned bilinear resampling, (C, H, W) -> (C, out_h, out_w)
#
# Output sample i maps to source coordinate i * (H - 1) / (out_h - 1), so
# corners land exactly on corners. The lerp form below keeps constant fields
# bit-exact: for equal neighbours the deltas are exactly zero.
# ---------------------------------------------------------------------------

def bilinear_resample(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    c, h, w = src.shape
    sy = (h - 1) / (out_h - 1) if out_h > 1 else 0.0
    sx = (w - 1) / (out_w - 1) if out_w > 1 else 0.0
    ys = np.arange(out_h) * sy
    xs = np.arange(out_w) * sx
    y0 = np.minimum(ys.astype(np.intp), max(h - 2, 0))
    x0 = np.minimum(xs.astype(np.intp), max(w - 2, 0))
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    v00 = src[:, y0[:, None], x0[None, :]]
    v01 = src[:, y0[:, None], x1[None, :]]
    v10 = src[:, y1[:, None], x0[None, :]]
    v11 = src[:, y1[:, None], x1[None, :]]
    top = v00 + fx * (v01 - v00)
    bot = v10 + fx * (v11 - v10)
    return top + fy * (bot - top)


# ---------------------------------------------------------------------------
# squared distances ||z - s * x_k||^2 against a stacked bank, (K, N) x (N,)
# ---------------------------------------------------------------------------

def sq_dists(bank_flat: np.ndarray, z_flat: np.ndarray, scale: float) -> np.ndarray:
    diff = z_flat[None, :] - scale * bank_flat
    return np.einsum("kn,kn->k", diff, diff)


# ---------------------------------------------------------------------------
# patch-restricted squared distances: latent tiled into (gh x gw) patches of
# size (ph x pw); result is (K, gh * gw)
#
# Norm-expanded, with the cross term as one einsum over reshaped views, so no
# K x C x H x W difference tensor is built. Cancellation where z_p ~ s x_kp
# can leave a tiny negative value, hence the clamp at 0.
# ---------------------------------------------------------------------------

def _patches(x, ph, pw):
    """View (..., C, H, W) as (..., C, gh, ph, gw, pw)."""
    *lead, c, h, w = x.shape
    return x.reshape(*lead, c, h // ph, ph, w // pw, pw)


def patch_sq_norms(x, ph, pw):
    """Per-patch squared norms of (..., C, H, W): shape (..., gh * gw)."""
    xp = _patches(x, ph, pw)
    return np.einsum("...ciajb,...ciajb->...ij", xp, xp).reshape(*x.shape[:-3], -1)


def patch_sq_dists(bank, z, scale, ph, pw, bank_norms=None):
    k = bank.shape[0]
    if bank_norms is None:
        bank_norms = patch_sq_norms(bank, ph, pw)
    cross = np.einsum("kciajb,ciajb->kij", _patches(bank, ph, pw), _patches(z, ph, pw))
    d = cross.reshape(k, -1)
    d *= -2.0 * scale
    d += patch_sq_norms(z, ph, pw)
    d += (scale * scale) * bank_norms
    return np.maximum(d, 0.0, out=d)


# ---------------------------------------------------------------------------
# patchwise mixture: out[c,y,x] = sum_k weights[k, patch(y,x)] * bank[k,c,y,x]
# ---------------------------------------------------------------------------

def patch_mix(bank, weights, ph, pw):
    k, c, h, w = bank.shape
    gh, gw = h // ph, w // pw
    wgrid = weights.reshape(k, gh, gw)
    wpix = np.repeat(np.repeat(wgrid, ph, axis=1), pw, axis=2)
    return np.einsum("khw,kchw->chw", wpix, bank)
