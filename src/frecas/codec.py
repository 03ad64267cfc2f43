"""Latent codecs standing in for a learned autoencoder: the identity map and
an exactly invertible one-level orthonormal Haar transform.

Haar packs each 2x2 pixel block (a, b, c, d) into four coefficients

    LL = (a + b + c + d) / 2      LH = (a - b + c - d) / 2
    HL = (a + b - c - d) / 2      HH = (a - b - c + d) / 2

stacked as 4x the channels at half resolution. The transform is orthonormal,
so both directions are exact inverses and norms are preserved; that lets the
stage-transition chain be tested without codec reconstruction error.
"""

import enum

import numpy as np

from .grid import LatentGrid


class LatentCodec(enum.Enum):
    IDENTITY = "identity"
    HAAR1 = "haar1"

    @property
    def spatial_factor(self) -> int:
        """Image side = latent side * spatial_factor."""
        return 1 if self is LatentCodec.IDENTITY else 2

    @property
    def channel_factor(self) -> int:
        """Latent channels = image channels * channel_factor."""
        return 1 if self is LatentCodec.IDENTITY else 4


IDENTITY = LatentCodec.IDENTITY
HAAR1 = LatentCodec.HAAR1


def encode(codec: LatentCodec, image: LatentGrid) -> LatentGrid:
    if codec is IDENTITY:
        return image
    x = image.data
    if image.height % 2 or image.width % 2:
        raise ValueError(f"Haar encode needs even dimensions, got {image.shape}")
    a = x[:, 0::2, 0::2]
    b = x[:, 0::2, 1::2]
    c = x[:, 1::2, 0::2]
    d = x[:, 1::2, 1::2]
    coeffs = np.concatenate(
        [
            (a + b + c + d) * 0.5,
            (a - b + c - d) * 0.5,
            (a + b - c - d) * 0.5,
            (a - b - c + d) * 0.5,
        ],
        axis=0,
    )
    return LatentGrid(coeffs)


def decode(codec: LatentCodec, latent: LatentGrid) -> LatentGrid:
    if codec is IDENTITY:
        return latent
    z = latent.data
    if latent.channels % 4:
        raise ValueError(f"Haar decode needs channels divisible by 4, got {latent.channels}")
    n = latent.channels // 4
    ll, lh, hl, hh = z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n :]
    out = np.empty((n, latent.height * 2, latent.width * 2), dtype=np.float64)
    out[:, 0::2, 0::2] = (ll + lh + hl + hh) * 0.5
    out[:, 0::2, 1::2] = (ll - lh + hl - hh) * 0.5
    out[:, 1::2, 0::2] = (ll + lh - hl - hh) * 0.5
    out[:, 1::2, 1::2] = (ll - lh - hl + hh) * 0.5
    return LatentGrid(out)
