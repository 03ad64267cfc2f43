import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frecas.codec import HAAR1, IDENTITY, decode, encode
from frecas.grid import LatentGrid

from conftest import rand_grid


class TestIdentity:
    def test_both_maps_are_identity(self, rng):
        g = rand_grid(rng)
        assert encode(IDENTITY, g) is g
        assert decode(IDENTITY, g) is g

    def test_factors(self):
        assert IDENTITY.spatial_factor == 1
        assert IDENTITY.channel_factor == 1


class TestHaar:
    def test_factors(self):
        assert HAAR1.spatial_factor == 2
        assert HAAR1.channel_factor == 4

    def test_constant_image_packs_into_ll(self):
        v = 1.75
        img = LatentGrid(np.full((2, 4, 4), v))
        z = encode(HAAR1, img)
        assert z.shape == (8, 2, 2)
        np.testing.assert_allclose(z.data[:2], 2 * v, rtol=1e-15)  # LL = (4v)/2
        np.testing.assert_array_equal(z.data[2:], 0.0)

    def test_roundtrip_encode_decode(self, rng):
        img = rand_grid(rng, channels=3, side=8)
        back = decode(HAAR1, encode(HAAR1, img))
        np.testing.assert_allclose(back.data, img.data, rtol=1e-9, atol=1e-12)

    def test_roundtrip_decode_encode(self, rng):
        z = LatentGrid(rng.standard_normal((8, 4, 4)))
        back = encode(HAAR1, decode(HAAR1, z))
        np.testing.assert_allclose(back.data, z.data, rtol=1e-9, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(channels=st.integers(1, 4), half_h=st.integers(1, 12), half_w=st.integers(1, 12),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_roundtrips_and_norms(self, channels, half_h, half_w, scale, seed):
        rng = np.random.default_rng(seed)
        img = LatentGrid(scale * rng.standard_normal((channels, 2 * half_h, 2 * half_w)))
        z = encode(HAAR1, img)
        assert z.shape == (4 * channels, half_h, half_w)
        # each direction rounds three additions of four halved terms, so a
        # round trip is off by at most 12 eps of the largest input value
        eps = np.finfo(float).eps
        assert np.abs(decode(HAAR1, z).data - img.data).max() <= 12 * eps * np.abs(img.data).max()
        lat = LatentGrid(scale * rng.standard_normal((4 * channels, half_h, half_w)))
        back = encode(HAAR1, decode(HAAR1, lat))
        assert np.abs(back.data - lat.data).max() <= 12 * eps * np.abs(lat.data).max()
        np.testing.assert_allclose(np.sum(z.data**2), np.sum(img.data**2), rtol=1e-12)

    def test_integer_inputs_reconstruct_exactly(self, rng):
        img = LatentGrid(rng.integers(-8, 8, (1, 6, 6)).astype(float))
        back = decode(HAAR1, encode(HAAR1, img))
        np.testing.assert_array_equal(back.data, img.data)

    def test_orthonormal_energy_preservation(self, rng):
        img = rand_grid(rng, channels=2, side=10)
        z = encode(HAAR1, img)
        assert float((z.data**2).sum()) == pytest.approx(
            float((img.data**2).sum()), rel=1e-9
        )

    def test_ll_only_latent_decodes_piecewise_constant(self, rng):
        ll = rng.standard_normal((1, 3, 3))
        z = LatentGrid(np.concatenate([ll, np.zeros((3, 3, 3))]))
        img = decode(HAAR1, z).data[0]
        blocks = img.reshape(3, 2, 3, 2).transpose(0, 2, 1, 3).reshape(9, 4)
        assert np.all(blocks == blocks[:, :1])  # each 2x2 block constant
        np.testing.assert_allclose(blocks[:, 0], ll.ravel() / 2.0, rtol=1e-12)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            encode(HAAR1, LatentGrid(np.zeros((1, 5, 4))))

    def test_channel_count_rejected(self):
        with pytest.raises(ValueError):
            decode(HAAR1, LatentGrid(np.zeros((3, 4, 4))))
