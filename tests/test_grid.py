import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from frecas.grid import (
    LatentGrid,
    Resolution,
    read_grid,
    resample_bilinear,
    resample_bilinear_rect,
    seeded_gaussian,
    subseed,
    write_grid,
)

from conftest import rand_grid


class TestLatentGrid:
    def test_validates_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            LatentGrid(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            LatentGrid(np.full((1, 2, 2), np.nan))

    def test_immutable(self):
        g = LatentGrid(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            g.data[0, 0, 0] = 1.0

    def test_takes_ownership_of_float64_contiguous_input(self):
        x = np.zeros((1, 2, 2))
        g = LatentGrid(x)
        assert g.data is x and not x.flags.writeable
        base = np.zeros((2, 2, 2))
        g = LatentGrid(base[:1])
        base[0, 0, 0] = 5.0
        assert g.data[0, 0, 0] == 5.0 and base.flags.writeable
        # any other input is converted into a new array
        y = np.zeros((1, 2, 2), dtype=np.float32)
        assert not np.shares_memory(LatentGrid(y).data, y) and y.flags.writeable

    def test_resolution_side_bounds(self):
        with pytest.raises(ValueError):
            Resolution(1)


class TestSeededGaussian:
    def test_same_seed_bit_identical(self):
        a = seeded_gaussian((4, 64, 64), 7)
        b = seeded_gaussian((4, 64, 64), 7)
        assert np.array_equal(a.data, b.data)

    def test_distinct_seeds_differ(self):
        a = seeded_gaussian((4, 64, 64), 7)
        b = seeded_gaussian((4, 64, 64), 8)
        assert np.any(a.data != b.data)

    def test_moments_over_many_seeds(self):
        # Monte-Carlo oracle: >= 1e6 samples pooled over seeds
        samples = np.concatenate(
            [seeded_gaussian((4, 64, 64), s).data.ravel() for s in range(62)]
        )
        assert samples.size >= 1_000_000
        assert -0.01 <= samples.mean() <= 0.01
        assert 0.98 <= samples.var() <= 1.02

    def test_subseed_deterministic_and_path_sensitive(self):
        assert subseed(3, 1, 2) == subseed(3, 1, 2)
        assert subseed(3, 1, 2) != subseed(3, 2, 1)
        assert subseed(3, 1) != subseed(4, 1)


class TestResampleBilinear:
    def test_constant_preserved_exactly(self):
        g = LatentGrid(np.full((2, 5, 5), 3.0))
        for side in (2, 4, 5, 9, 16):
            out = resample_bilinear(g, Resolution(side))
            assert np.array_equal(out.data, np.full((2, side, side), 3.0))

    def test_identity_at_same_resolution(self, rng):
        # grids are immutable, so an identity resample returns its input
        g = rand_grid(rng, side=8)
        assert resample_bilinear(g, Resolution(8)) is g
        assert resample_bilinear_rect(g, 8, 8) is g
        rect = LatentGrid(rng.standard_normal((2, 4, 8)))
        assert resample_bilinear_rect(rect, 4, 8) is rect

    def test_hand_evaluated_2x2_to_4x4(self):
        g = LatentGrid(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
        out = resample_bilinear(g, Resolution(4))
        expected_row = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        for row in out.data[0]:
            np.testing.assert_allclose(row, expected_row, rtol=1e-9, atol=1e-15)

    def test_corners_map_to_corners(self, rng):
        g = rand_grid(rng, channels=1, side=7)
        out = resample_bilinear(g, Resolution(13))
        for (yi, xi), (yo, xo) in [((0, 0), (0, 0)), ((0, 6), (0, 12)),
                                   ((6, 0), (12, 0)), ((6, 6), (12, 12))]:
            assert abs(out.data[0, yo, xo] - g.data[0, yi, xi]) < 1e-12

    def test_linearity(self, rng):
        g1 = rand_grid(rng, side=6)
        g2 = rand_grid(rng, side=6)
        a, b = 2.5, -0.75
        combo = LatentGrid(a * g1.data + b * g2.data)
        lhs = resample_bilinear(combo, Resolution(11)).data
        rhs = (a * resample_bilinear(g1, Resolution(11)).data
               + b * resample_bilinear(g2, Resolution(11)).data)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_rect_variant_handles_rectangles(self, rng):
        g = LatentGrid(rng.standard_normal((2, 4, 8)))
        out = resample_bilinear_rect(g, 8, 4)
        assert out.shape == (2, 8, 4)

    def test_downsample_then_upsample_not_identity(self, rng):
        g = rand_grid(rng, side=16)
        down = resample_bilinear(g, Resolution(8))
        back = resample_bilinear(down, Resolution(16))
        assert not np.allclose(back.data, g.data)


class TestGridDump:
    def test_roundtrip_is_float32_exact(self, rng, tmp_path):
        g = rand_grid(rng, channels=4, side=6)
        path = tmp_path / "g.frcg"
        write_grid(path, g)
        back = read_grid(path)
        assert back.shape == g.shape
        np.testing.assert_array_equal(back.data, g.data.astype(np.float32).astype(np.float64))

    def test_header_layout(self, rng, tmp_path):
        g = rand_grid(rng, channels=2, side=3)
        path = tmp_path / "g.frcg"
        write_grid(path, g)
        raw = path.read_bytes()
        assert raw[:4] == b"FRCG"
        assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [2, 3, 3]
        assert len(raw) == 16 + 4 * 2 * 3 * 3

    @pytest.mark.parametrize("value", [3.5e38, -1e300])
    def test_value_beyond_float32_writes_no_file(self, tmp_path, value):
        # finite in float64, inf in float32, which read_grid would refuse;
        # the float32 maximum itself round-trips
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "g.frcg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_grid(path, LatentGrid(np.full((1, 2, 2), top)))
            assert np.all(read_grid(path).data == top)
            path.unlink()
            with pytest.raises(ValueError, match="exceed the float32 range"):
                write_grid(path, LatentGrid(np.array([[[1.0, value], [0.0, -top]]])))
        assert not path.exists()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.frcg"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            read_grid(path)

    @pytest.mark.parametrize("dims,match", [
        ((2**32 - 1,) * 3, "truncated"),  # claims far more than any index can hold
        ((3, 64, 64), "truncated"),  # plausible, but larger than the file
        ((1, 2, 2), "trailing bytes"),  # smaller than the file
    ])
    def test_header_checked_against_file_size(self, tmp_path, dims, match):
        path = tmp_path / "g.frcg"
        path.write_bytes(struct.pack("<4sIII", b"FRCG", *dims) + b"\x00" * 64)
        with pytest.raises(ValueError, match=match):
            read_grid(path)

    def test_oversized_header_allocates_nothing(self, tmp_path):
        path = tmp_path / "g.frcg"
        path.write_bytes(struct.pack("<4sIII", b"FRCG", 4, 1024, 1024) + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                read_grid(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the header claims 16 MiB

    def test_rejects_truncation(self, rng, tmp_path):
        g = rand_grid(rng, channels=1, side=4)
        path = tmp_path / "g.frcg"
        write_grid(path, g)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            read_grid(path)


def _read_short_file(path):
    path.write_bytes(b"FRCG\x01\x00\x00\x00")  # half of the 16-byte header
    return read_grid(path)


@pytest.mark.parametrize("call,message", [
    (lambda path: LatentGrid(np.zeros((1, 0, 4))),
     r"^grid dimensions must be positive, got \(1, 0, 4\)$"),
    (lambda path: seeded_gaussian((1, -2, 4), 0),
     r"^shape dimensions must be positive, got \(1, -2, 4\)$"),
    (lambda path: resample_bilinear_rect(LatentGrid(np.zeros((1, 4, 4))), 0, 4),
     "^output dimensions must be positive$"),
    (_read_short_file, "truncated grid header$"),
], ids=["grid-zero-dimension", "noise-non-positive-shape", "resample-to-no-rows",
        "short-header"])
def test_input_guards_name_the_fault(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path / "short.frcg")
