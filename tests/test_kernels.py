"""Each vectorized kernel must agree with its plain-loop twin, kept here as
the reference formulation of the kernel's arithmetic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frecas import _kernels as K


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


def test_backend_reports_active_choice():
    assert K.backend() == "numpy"


def test_bilinear_twins_agree(rng):
    for shape, out in [((3, 8, 8), (16, 16)), ((1, 5, 7), (11, 3)), ((2, 16, 16), (4, 4)),
                       ((1, 2, 2), (1, 5))]:
        src = rng.standard_normal(shape)
        np.testing.assert_allclose(K.bilinear_resample(src, *out), bilinear_loop(src, *out),
                                   rtol=0, atol=1e-12)


def test_sq_dists_twins_agree(rng):
    bank = rng.standard_normal((12, 300))
    z = rng.standard_normal(300)
    np.testing.assert_allclose(K.sq_dists(bank, z, 0.7), sq_dists_loop(bank, z, 0.7),
                               rtol=1e-12)


def test_patch_sq_dists_twins_agree(rng):
    bank = rng.standard_normal((5, 3, 8, 12))
    z = rng.standard_normal((3, 8, 12))
    a = K.patch_sq_dists(bank, z, 0.5, 2, 4)
    assert a.shape == (5, 12)
    np.testing.assert_allclose(a, patch_sq_dists_loop(bank, z, 0.5, 2, 4), rtol=1e-12)


def test_patch_sq_dists_matches_full_distance(rng):
    bank = rng.standard_normal((4, 2, 6, 6))
    z = rng.standard_normal((2, 6, 6))
    per_patch = K.patch_sq_dists(bank, z, 0.9, 3, 3)
    full = K.sq_dists(bank.reshape(4, -1), z.ravel(), 0.9)
    np.testing.assert_allclose(per_patch.sum(axis=1), full, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5), c=st.integers(1, 4),
    gh=st.integers(1, 3), gw=st.integers(1, 3), ph=st.integers(1, 4), pw=st.integers(1, 4),
    scale=st.floats(0.01, 1.5), exact_row=st.integers(0, 4) | st.none(),
    jitter=st.sampled_from([0.0, 1e-6]), seed=st.integers(0, 2**32 - 1),
)
def test_norm_expanded_patch_dists_match_direct_form(k, c, gh, gw, ph, pw, scale,
                                                     exact_row, jitter, seed):
    # the expansion loses most where z_p ~ s x_kp, so some latents sit on a
    # scaled bank item, exactly or within 1e-6
    rng = np.random.default_rng(seed)
    bank = rng.standard_normal((k, c, gh * ph, gw * pw))
    z = rng.standard_normal((c, gh * ph, gw * pw))
    if exact_row is not None:
        z = scale * bank[exact_row % k] + jitter * rng.standard_normal(z.shape)
    d = K.patch_sq_dists(bank, z, scale, ph, pw)
    assert d.shape == (k, gh * gw)
    assert np.all(d >= 0)
    # rounding error of the expansion is relative to the norms it cancels
    norms = K.patch_sq_norms(z, ph, pw)[None] + scale**2 * K.patch_sq_norms(bank, ph, pw)
    np.testing.assert_array_less(np.abs(d - patch_sq_dists_loop(bank, z, scale, ph, pw)),
                                 1e-12 * norms + 1e-300)
    full = K.sq_dists(bank.reshape(k, -1), z.ravel(), scale)
    np.testing.assert_array_less(np.abs(d.sum(axis=1) - full),
                                 1e-12 * norms.sum(axis=1) + 1e-300)
    np.testing.assert_array_equal(d, K.patch_sq_dists(bank, z, scale, ph, pw,
                                                      K.patch_sq_norms(bank, ph, pw)))


def test_patch_mix_twins_agree(rng):
    bank = rng.standard_normal((6, 3, 8, 8))
    w = rng.random((6, 16))
    np.testing.assert_allclose(K.patch_mix(bank, w, 2, 2), patch_mix_loop(bank, w, 2, 2),
                               rtol=1e-12)


def test_patch_mix_uniform_weights_is_weighted_sum(rng):
    bank = rng.standard_normal((4, 2, 4, 4))
    w = np.full((4, 4), 0.25)
    out = K.patch_mix(bank, w, 2, 2)
    np.testing.assert_allclose(out, bank.mean(axis=0), rtol=1e-12)
