"""Hot numeric kernels, one vectorized numpy implementation each.

These four loops dominate the runtime of cascade runs: the per-step bank
distances (whole latent and per patch), the patchwise bank mixture, and the
corner-aligned bilinear resampling behind band splits and transitions.
Every caller reaches them through this module, so a faster formulation of a
kernel replaces it here without touching the callers.
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
# ---------------------------------------------------------------------------

def patch_sq_dists(bank, z, scale, ph, pw):
    k, c, h, w = bank.shape
    gh, gw = h // ph, w // pw
    diff = z[None] - scale * bank
    diff2 = (diff * diff).reshape(k, c, gh, ph, gw, pw)
    return diff2.sum(axis=(1, 3, 5)).reshape(k, gh * gw)


# ---------------------------------------------------------------------------
# patchwise mixture: out[c,y,x] = sum_k weights[k, patch(y,x)] * bank[k,c,y,x]
# ---------------------------------------------------------------------------

def patch_mix(bank, weights, ph, pw):
    k, c, h, w = bank.shape
    gh, gw = h // ph, w // pw
    wgrid = weights.reshape(k, gh, gw)
    wpix = np.repeat(np.repeat(wgrid, ph, axis=1), pw, axis=2)
    return np.einsum("khw,kchw->chw", wpix, bank)
