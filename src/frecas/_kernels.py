"""Hot numeric kernels, one vectorized numpy implementation each.

These loops dominate the runtime of cascade runs: the per-step bank
distances, the patchwise bank mixture, the bank's Gram matrix that a
one-stage run reads in their place, and the corner-aligned bilinear
resampling behind band splits and transitions. Every caller reaches them
through this module, so a faster formulation of a kernel replaces it here
without touching the callers.

Banks are patch-blocked: a (C, H, W) grid tiled into p x p patches is held
as a (P, C*p*p) array whose row i is patch i (row-major over the patch
grid) flattened in (c, y, x) order, and a bank of K items as (K, P, C*p*p)
(:func:`to_blocks`, :func:`from_blocks`). In that layout each patch of the
bank is a (K, C*p*p) matrix with row stride P*C*p*p, which BLAS reads in
place, so the per-patch cross terms and the patchwise mixture are batched
matrix products rather than strided reductions.

The per-patch distances use the norm expansion of exact L2 search,
||z_p||^2 - 2 s <z_p, x_kp> + s^2 ||x_kp||^2, with the bank norms
||x_kp||^2 supplied by the caller (see :func:`patch_sq_norms`). The
whole-latent distance is the row sum of the patch distances, so the bank
posterior makes one pass per step; :func:`sq_dists` stays as the direct
form that tests compare against.
"""

import functools

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; there is only the numpy one."""
    return "numpy"


# ---------------------------------------------------------------------------
# corner-aligned bilinear resampling, (C, H, W) -> (C, out_h, out_w)
#
# Output sample i maps to source coordinate i * (H - 1) / (out_h - 1), so
# corners land exactly on corners. The lerp form below keeps constant fields
# bit-exact: for equal neighbours the deltas are exactly zero. It lerps along
# x on every source row, then along y between the two rows each output row
# needs. Each pass gathers its two taps with np.take, which copies, so the
# lerp runs in place on the gathered upper tap: d = upper; d -= lower;
# d *= f; d += lower. That is the same float operations, in the same order,
# on the same values as lerping four gathered corners per output sample
# (lower + f * (upper - lower)), so the two forms are bitwise equal, and the
# input is only read.
# ---------------------------------------------------------------------------

@functools.lru_cache
def _taps(n_in: int, n_out: int):
    """(lower index, upper index, weight) of n_out samples on an n_in axis;
    memoized per axis pair, so the arrays are read-only."""
    step = (n_in - 1) / (n_out - 1) if n_out > 1 else 0.0
    pos = np.arange(n_out) * step
    lo = np.minimum(pos.astype(np.intp), max(n_in - 2, 0))
    taps = lo, np.minimum(lo + 1, n_in - 1), pos - lo
    for a in taps:
        a.setflags(write=False)
    return taps


def bilinear_resample(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """(C, H, W) float64 -> a new C-contiguous (C, out_h, out_w) array; any
    strided view is read as it is and left unchanged."""
    y0, y1, fy = _taps(src.shape[1], out_h)
    x0, x1, fx = _taps(src.shape[2], out_w)
    left = np.take(src, x0, axis=2)
    rows = np.take(src, x1, axis=2)
    rows -= left
    rows *= fx
    rows += left
    del left
    top = np.take(rows, y0, axis=1)
    out = np.take(rows, y1, axis=1)
    del rows
    out -= top
    out *= fy[:, None]
    out += top
    return out


# ---------------------------------------------------------------------------
# squared distances ||z - s * x_k||^2 against a stacked bank, (K, N) x (N,)
# ---------------------------------------------------------------------------

def sq_dists(bank_flat: np.ndarray, z_flat: np.ndarray, scale: float) -> np.ndarray:
    diff = z_flat[None, :] - scale * bank_flat
    return np.einsum("kn,kn->k", diff, diff)


# ---------------------------------------------------------------------------
# patch blocking: (C, H, W) <-> (P, C*p*p)
# ---------------------------------------------------------------------------

def _patch_view(x, p):
    """View (C, H, W) as (H/p, W/p, C, p, p), the patch-blocked order."""
    c, h, w = x.shape
    return x.reshape(c, h // p, p, w // p, p).transpose(1, 3, 0, 2, 4)


def to_blocks(x, p, out=None):
    """(C, H, W) -> (P, C*p*p), written into ``out`` when given."""
    c, h, w = x.shape
    if out is None:
        out = np.empty(((h // p) * (w // p), c * p * p))
    out.reshape(h // p, w // p, c, p, p)[...] = _patch_view(x, p)
    return out


def from_blocks(blocks, shape, p):
    """(P, C*p*p) -> the (C, H, W) grid of ``shape`` it blocks."""
    out = np.empty(shape)
    c, h, w = shape
    _patch_view(out, p)[...] = blocks.reshape(h // p, w // p, c, p, p)
    return out


# ---------------------------------------------------------------------------
# patch-restricted squared distances against a blocked bank: bank (K, P, D),
# latent (P, D); result is (K, P)
#
# Norm-expanded, with the cross term one batched matrix-vector product over
# the patches, so no K x P x D difference tensor is built. Cancellation where
# z_p ~ s x_kp can leave a tiny negative value, hence the clamp at 0.
# ---------------------------------------------------------------------------

def patch_sq_norms(blocks):
    """Per-patch squared norms of (..., P, D) blocks: shape (..., P)."""
    return np.einsum("...d,...d->...", blocks, blocks)


def patch_sq_dists(blocks, z_blocks, scale, bank_norms):
    cross = np.matmul(blocks.transpose(1, 0, 2), z_blocks[:, :, None])[:, :, 0].T
    d = (-2.0 * scale) * cross
    d += patch_sq_norms(z_blocks)
    d += (scale * scale) * bank_norms
    return np.maximum(d, 0.0, out=d)


# ---------------------------------------------------------------------------
# Gram matrix of a blocked bank: G[j, k] = <x_j, x_k> over whole items, (K, K)
#
# numpy computes x @ x.T as one symmetric rank-k update, so G is exactly
# symmetric.
# ---------------------------------------------------------------------------

def gram(blocks):
    flat = blocks.reshape(len(blocks), -1)
    return flat @ flat.T


# ---------------------------------------------------------------------------
# patchwise mixture: out[i] = sum_k weights[k, i] * blocks[k, i], (P, D)
# ---------------------------------------------------------------------------

def patch_mix(blocks, weights):
    return np.matmul(weights.T[:, None, :], blocks.transpose(1, 0, 2))[:, 0, :]
