"""Each vectorized kernel must agree with its plain-loop twin, kept here as
the reference formulation of the kernel's arithmetic. The patch kernels
read patch-blocked banks; their earlier einsum forms over (K, C, H, W)
stacks are kept here too, as references for the blocked products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frecas import _kernels as K
from frecas.bank import LatentBank, default_patch_size


def bilinear_loop(src, out_h, out_w):
    c, h, w = src.shape
    out = np.empty((c, out_h, out_w))
    sy = (h - 1) / (out_h - 1) if out_h > 1 else 0.0
    sx = (w - 1) / (out_w - 1) if out_w > 1 else 0.0
    for ch in range(c):
        for i in range(out_h):
            y = i * sy
            y0 = max(min(int(y), h - 2), 0)
            y1 = min(y0 + 1, h - 1)
            fy = y - y0
            for j in range(out_w):
                x = j * sx
                x0 = max(min(int(x), w - 2), 0)
                x1 = min(x0 + 1, w - 1)
                fx = x - x0
                top = src[ch, y0, x0] + fx * (src[ch, y0, x1] - src[ch, y0, x0])
                bot = src[ch, y1, x0] + fx * (src[ch, y1, x1] - src[ch, y1, x0])
                out[ch, i, j] = top + fy * (bot - top)
    return out


def bilinear_four_gather(src, out_h, out_w):
    """The bilinear kernel's earlier form: gather the four corners of every
    output sample as 2-D arrays, lerp the top and bottom pairs along x, then
    lerp those along y."""
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


def sq_dists_loop(bank_flat, z_flat, scale):
    out = np.zeros(bank_flat.shape[0])
    for i, row in enumerate(bank_flat):
        for zj, xj in zip(z_flat, row):
            out[i] += (zj - scale * xj) ** 2
    return out


def patch_sq_dists_loop(bank, z, scale, ph, pw):
    k, c, h, w = bank.shape
    gw = w // pw
    out = np.zeros((k, (h // ph) * gw))
    for i in range(k):
        for ch in range(c):
            for y in range(h):
                for x in range(w):
                    d = z[ch, y, x] - scale * bank[i, ch, y, x]
                    out[i, (y // ph) * gw + x // pw] += d * d
    return out


def patch_mix_loop(bank, weights, ph, pw):
    k, c, h, w = bank.shape
    gw = w // pw
    out = np.zeros((c, h, w))
    for i in range(k):
        for ch in range(c):
            for y in range(h):
                for x in range(w):
                    out[ch, y, x] += weights[i, (y // ph) * gw + x // pw] * bank[i, ch, y, x]
    return out


def _patches(x, ph, pw):
    """View (..., C, H, W) as (..., C, gh, ph, gw, pw)."""
    *lead, c, h, w = x.shape
    return x.reshape(*lead, c, h // ph, ph, w // pw, pw)


def patch_sq_norms_einsum(x, ph, pw):
    xp = _patches(x, ph, pw)
    return np.einsum("...ciajb,...ciajb->...ij", xp, xp).reshape(*x.shape[:-3], -1)


def patch_sq_dists_einsum(bank, z, scale, ph, pw):
    """The norm-expanded distances with an einsum cross term over a stack."""
    cross = np.einsum("kciajb,ciajb->kij", _patches(bank, ph, pw), _patches(z, ph, pw))
    d = cross.reshape(bank.shape[0], -1)
    d *= -2.0 * scale
    d += patch_sq_norms_einsum(z, ph, pw)
    d += (scale * scale) * patch_sq_norms_einsum(bank, ph, pw)
    return np.maximum(d, 0.0, out=d)


def patch_mix_einsum(bank, weights, ph, pw):
    """The patchwise mixture with the weights repeated over each patch's pixels."""
    k, c, h, w = bank.shape
    wgrid = weights.reshape(k, h // ph, w // pw)
    wpix = np.repeat(np.repeat(wgrid, ph, axis=1), pw, axis=2)
    return np.einsum("khw,kchw->chw", wpix, bank)


def blocked(stack, p):
    return np.stack([K.to_blocks(x, p) for x in stack])


def dists(bank, z, scale, p):
    """patch_sq_dists on a (K, C, H, W) stack, through the blocked layout."""
    blocks = blocked(bank, p)
    return K.patch_sq_dists(blocks, K.to_blocks(z, p), scale, K.patch_sq_norms(blocks))


def mix(bank, weights, p):
    """patch_mix on a (K, C, H, W) stack, unblocked to (C, H, W)."""
    return K.from_blocks(K.patch_mix(blocked(bank, p), weights), bank.shape[1:], p)


def test_backend_reports_active_choice():
    assert K.backend() == "numpy"


def test_bilinear_twins_agree(rng):
    for shape, out in [((3, 8, 8), (16, 16)), ((1, 5, 7), (11, 3)), ((2, 16, 16), (4, 4)),
                       ((1, 2, 2), (1, 5))]:
        src = rng.standard_normal(shape)
        np.testing.assert_allclose(K.bilinear_resample(src, *out), bilinear_loop(src, *out),
                                   rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(c=st.integers(1, 12), h=st.integers(1, 70), w=st.integers(1, 70),
       out_h=st.integers(1, 130), out_w=st.integers(1, 130), identity=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_separable_bilinear_is_the_four_gather_form_bitwise(c, h, w, out_h, out_w,
                                                            identity, seed):
    src = np.random.default_rng(seed).standard_normal((c, h, w))
    if identity:
        out_h, out_w = h, w
    assert K.bilinear_resample(src, out_h, out_w).tobytes() == \
        bilinear_four_gather(src, out_h, out_w).tobytes()


def test_taps_are_memoized_read_only_and_leave_the_kernel_unchanged(rng):
    src = rng.standard_normal((3, 9, 13))
    K._taps.cache_clear()
    first = K.bilinear_resample(src, 17, 5)  # computes the taps
    taps = K._taps(9, 17) + K._taps(13, 5)
    assert K._taps(9, 17) is K._taps(9, 17)
    assert K._taps.cache_info().misses == 2
    for a in taps:
        assert not a.flags.writeable
    again = K.bilinear_resample(src, 17, 5)  # reads the cached taps
    assert first.tobytes() == again.tobytes() == bilinear_four_gather(src, 17, 5).tobytes()


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("base, view", [
    ((3, 9, 13), _read_only),
    ((3, 13, 9), lambda a: a.transpose(0, 2, 1)),
    ((9, 13), lambda a: a[None]),
])
def test_bilinear_only_reads_its_input_and_returns_a_fresh_array(rng, base, view):
    a = rng.standard_normal(base)
    before = a.tobytes()
    src = view(a)
    out = K.bilinear_resample(src, 17, 5)
    assert a.tobytes() == before
    assert out.dtype == np.float64 and out.shape == (src.shape[0], 17, 5)
    assert out.flags.c_contiguous and out.flags.writeable and out.flags.owndata
    assert not np.shares_memory(out, a)
    assert out.tobytes() == bilinear_four_gather(src, 17, 5).tobytes()


def test_sq_dists_twins_agree(rng):
    bank = rng.standard_normal((12, 300))
    z = rng.standard_normal(300)
    np.testing.assert_allclose(K.sq_dists(bank, z, 0.7), sq_dists_loop(bank, z, 0.7),
                               rtol=1e-12)


def test_patch_sq_dists_twins_agree(rng):
    bank = rng.standard_normal((5, 3, 8, 12))
    z = rng.standard_normal((3, 8, 12))
    a = dists(bank, z, 0.5, 4)
    assert a.shape == (5, 6)
    np.testing.assert_allclose(a, patch_sq_dists_loop(bank, z, 0.5, 4, 4), rtol=1e-12)


def test_patch_sq_dists_matches_full_distance(rng):
    bank = rng.standard_normal((4, 2, 6, 6))
    z = rng.standard_normal((2, 6, 6))
    per_patch = dists(bank, z, 0.9, 3)
    full = K.sq_dists(bank.reshape(4, -1), z.ravel(), 0.9)
    np.testing.assert_allclose(per_patch.sum(axis=1), full, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5), c=st.integers(1, 4),
    gh=st.integers(1, 3), gw=st.integers(1, 3), p=st.integers(1, 4),
    scale=st.floats(0.01, 1.5), exact_row=st.integers(0, 4) | st.none(),
    jitter=st.sampled_from([0.0, 1e-6]), seed=st.integers(0, 2**32 - 1),
)
def test_norm_expanded_patch_dists_match_direct_form(k, c, gh, gw, p, scale,
                                                     exact_row, jitter, seed):
    # the expansion loses most where z_p ~ s x_kp, so some latents sit on a
    # scaled bank item, exactly or within 1e-6
    rng = np.random.default_rng(seed)
    bank = rng.standard_normal((k, c, gh * p, gw * p))
    z = rng.standard_normal((c, gh * p, gw * p))
    if exact_row is not None:
        z = scale * bank[exact_row % k] + jitter * rng.standard_normal(z.shape)
    d = dists(bank, z, scale, p)
    assert d.shape == (k, gh * gw)
    assert np.all(d >= 0)
    # rounding error of the expansion is relative to the norms it cancels
    norms = patch_sq_norms_einsum(z, p, p)[None] + scale**2 * patch_sq_norms_einsum(bank, p, p)
    np.testing.assert_array_less(np.abs(d - patch_sq_dists_loop(bank, z, scale, p, p)),
                                 1e-12 * norms + 1e-300)
    full = K.sq_dists(bank.reshape(k, -1), z.ravel(), scale)
    np.testing.assert_array_less(np.abs(d.sum(axis=1) - full),
                                 1e-12 * norms.sum(axis=1) + 1e-300)


def test_patch_mix_twins_agree(rng):
    bank = rng.standard_normal((6, 3, 8, 8))
    w = rng.random((6, 16))
    np.testing.assert_allclose(mix(bank, w, 2), patch_mix_loop(bank, w, 2, 2), rtol=1e-12)


def test_patch_mix_uniform_weights_is_weighted_sum(rng):
    bank = rng.standard_normal((4, 2, 4, 4))
    w = np.full((4, 4), 0.25)
    np.testing.assert_allclose(mix(bank, w, 2), bank.mean(axis=0), rtol=1e-12)


# sides <= 15 get patch size 1; 45, 51 and 64 get 5, 3 and 8
SIDES = st.integers(2, 15) | st.sampled_from([45, 51, 64])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), c=st.integers(1, 12), side=SIDES, seed=st.integers(0, 2**32 - 1))
def test_blocking_round_trips_bitwise(k, c, side, seed):
    stack = np.random.default_rng(seed).standard_normal((k, c, side, side))
    bank = LatentBank(stack, np.arange(k), np.full(k, 1.0 / k))
    p = default_patch_size(side)
    assert bank.blocks.shape == (k, (side // p) ** 2, c * p * p)
    for i in range(k):
        np.testing.assert_array_equal(bank.item(i).data, stack[i])
    # row j of an item's blocks is its j-th patch, row-major over the grid
    j = side // p + 1 if side // p > 1 else 0
    y, x = divmod(j, side // p)
    np.testing.assert_array_equal(bank.blocks[0, j],
                                  stack[0, :, y * p:(y + 1) * p, x * p:(x + 1) * p].ravel())


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), c=st.integers(1, 12), side=SIDES,
       scale=st.floats(0.01, 1.5), near=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_products_match_the_einsum_forms(k, c, side, scale, near, seed):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((k, c, side, side))
    bank = LatentBank(stack, np.arange(k), np.full(k, 1.0 / k))
    p = bank.patch_size
    z = rng.standard_normal((c, side, side))
    if near:  # where the expansion cancels most
        z = scale * stack[0] + 1e-6 * z
    d = K.patch_sq_dists(bank.blocks, K.to_blocks(z, p), scale, bank.patch_norms)
    norms = patch_sq_norms_einsum(z, p, p)[None] + scale**2 * patch_sq_norms_einsum(stack, p, p)
    np.testing.assert_array_less(np.abs(d - patch_sq_dists_einsum(stack, z, scale, p, p)),
                                 1e-12 * norms + 1e-300)
    w = rng.random(d.shape)
    mixed = K.from_blocks(K.patch_mix(bank.blocks, w), z.shape, p)
    ref = patch_mix_einsum(stack, w, p, p)
    bound = patch_mix_einsum(np.abs(stack), w, p, p)  # sum of |terms| per pixel
    np.testing.assert_array_less(np.abs(mixed - ref), 1e-12 * bound + 1e-300)
