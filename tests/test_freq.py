import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frecas.freq import (
    PsdCurve,
    band_energy_fractions,
    band_split,
    nyquist,
    psd_decomposition,
    radial_psd,
    write_psd_csv,
)
from frecas.grid import LatentGrid, Resolution, seeded_gaussian
from frecas.schedule import alpha_inverse, diffuse, flow_schedule, forward_model, vp_default

from conftest import rand_grid

SCHED = vp_default()


def full_plane_psd(g):
    """radial_psd's full-plane form, kept as the reference: every mode of
    the complex fft2 binned by rounding its wrapped radius to the nearest
    bin centre; (bin powers, modes per bin)."""
    side = g.height
    n_bins = side // 2
    k = np.fft.fftfreq(side) * side
    r = np.hypot(*np.meshgrid(k, k, indexing="ij"))
    idx = np.minimum(np.rint(r / (side / 2 / n_bins)).astype(np.intp), n_bins - 1).ravel()
    f = np.fft.fft2(g.data)
    powers = ((f.real**2 + f.imag**2) / float(side) ** 4).mean(axis=0)
    counts = np.bincount(idx, minlength=n_bins)
    return np.bincount(idx, weights=powers.ravel(), minlength=n_bins) / counts, counts


def decompose(z0, noise, t, sched):
    """psd_decomposition at the one timestep t, as its three curves."""
    rows = psd_decomposition(z0, noise, [t], sched)[0]
    return [PsdCurve(p, Resolution(z0.height)) for p in rows]


class TestNyquist:
    @pytest.mark.parametrize("side,expected", [(64, 32.0), (2, 1.0), (128, 64.0)])
    def test_half_side(self, side, expected):
        assert nyquist(Resolution(side)) == expected


class TestBandSplit:
    def test_constant_has_zero_high_band(self):
        x = np.full((3, 16, 16), 2.5)
        low, high = band_split(x, 8)
        np.testing.assert_array_equal(high, 0.0)
        np.testing.assert_array_equal(low, x)

    def test_reconstruction_is_elementwise_exact(self, rng):
        # exact up to the one floating addition that rebuilds the grid
        for _ in range(50):
            x = rand_grid(rng, side=16).data
            low, high = band_split(x, 8)
            err = np.abs(low + high - x)
            assert err.max() <= 1e-6 * (1.0 + np.abs(x).max())

    @settings(max_examples=60, deadline=None)
    @given(channels=st.integers(1, 4), side=st.integers(2, 24), base_frac=st.floats(0.0, 1.0),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_bands_rebuild_the_grid(self, channels, side, base_frac, scale, seed):
        x = scale * np.random.default_rng(seed).standard_normal((channels, side, side))
        base = 2 + round(base_frac * (side - 2))
        low, high = band_split(x, base)
        # high = x - low is one rounding, low + high one more
        err = np.abs(low + high - x)
        assert np.all(err <= 2 * np.finfo(float).eps * (np.abs(x) + np.abs(low)))
        if base == side:  # a cut at the grid's own side leaves no high band
            assert low is x
            assert not high.any()

    def test_high_band_written_into_out(self, rng):
        # facfg_combine takes the band in place: out may be the input itself
        x = rand_grid(rng, side=16).data
        low, high = band_split(x, 8)
        buf = np.empty_like(x)
        assert band_split(x, 8, out=buf)[1] is buf
        np.testing.assert_array_equal(buf, high)
        same = x.copy()
        low_in_place, high_in_place = band_split(same, 8, out=same)
        assert high_in_place is same
        np.testing.assert_array_equal(same, high)
        np.testing.assert_array_equal(low_in_place, low)

    def test_nyquist_checkerboard_low_energy(self):
        # Oracle-derived: corner-aligned down/up of the +-1 checkerboard
        # leaves ~11.8% of the energy in the low band (edge samples land on
        # grid corners); re-derived here and frozen with headroom.
        yy, xx = np.mgrid[0:64, 0:64]
        cb = (((yy + xx) % 2) * 2.0 - 1.0)[None]
        low, _ = band_split(cb, 32)
        frac = float((low**2).sum() / (cb**2).sum())
        assert frac <= 0.13

    def test_high_band_has_little_low_content(self, rng):
        # bilinear is approximately, not exactly, a projection
        for _ in range(10):
            _, high = band_split(rand_grid(rng, side=64).data, 32)
            again, _ = band_split(high, 32)
            ratio = float((again**2).sum() / (high**2).sum())
            assert ratio <= 0.02

    def test_base_above_current_rejected(self, rng):
        with pytest.raises(ValueError):
            band_split(rand_grid(rng, side=8).data, 16)



class TestRadialPsd:
    def test_constant_grid_all_power_in_dc_bin(self):
        c = 1.4
        curve = radial_psd(LatentGrid(np.full((2, 16, 16), c)))
        assert curve.power[0] == pytest.approx(c * c / 1.0, rel=1e-12)  # lone DC mode
        np.testing.assert_allclose(curve.power[1:], 0.0, atol=1e-20)

    def test_parseval_sum_of_mode_powers_is_mean_square(self, rng):
        # modes per bin x bin power, summed over bins, is the channel-mean
        # mean square only if every mirrored half-plane column counts twice
        for side in (2, 3, 15, 16):
            g = rand_grid(rng, side=side)
            _, counts = full_plane_psd(g)
            total = float(counts @ radial_psd(g).power)
            assert total == pytest.approx(float((g.data**2).mean()), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(2, 40), channels=st.integers(1, 3), seed=st.integers(0, 2**31))
    def test_half_plane_curve_is_the_full_plane_curve(self, side, channels, seed):
        # odd sides have no Nyquist column, even sides one that counts once
        g = seeded_gaussian((channels, side, side), seed)
        curve = radial_psd(g).power
        reference, _ = full_plane_psd(g)
        assert np.all(np.abs(curve - reference) <= 1e-12 * curve.max())

    def test_pure_cosine_spikes_in_its_radius_bin(self):
        side, k = 32, 5
        x = np.arange(side)
        wave = np.cos(2 * np.pi * k * x / side)
        g = LatentGrid(np.broadcast_to(wave, (1, side, side)).copy())
        curve = radial_psd(g)
        assert curve.power.argmax() == k
        others = np.delete(curve.power, k)
        assert curve.power[k] > 1e6 * others.max()

    def test_white_noise_flat_within_ten_percent(self):
        # Monte-Carlo oracle: fixed 100-seed average, single channel
        acc = np.zeros(32)
        for s in range(100):
            acc += radial_psd(seeded_gaussian((1, 64, 64), 5000 + s)).power
        acc /= 100
        dev = np.abs(acc / acc.mean() - 1.0)
        assert dev.max() <= 0.10

    def test_translation_invariance(self, rng):
        g = rand_grid(rng, channels=1, side=16)
        rolled = LatentGrid(np.roll(g.data, shift=(3, 5), axis=(1, 2)))
        a, b = radial_psd(g), radial_psd(rolled)
        np.testing.assert_allclose(a.power, b.power, rtol=1e-9)

    def test_bin_frequencies_increase_from_zero(self, rng):
        curve = radial_psd(rand_grid(rng, side=32))
        assert curve.freqs[0] == 0.0
        assert np.all(np.diff(curve.freqs) > 0)
        assert curve.n_bins == 16

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            radial_psd(LatentGrid(np.zeros((1, 8, 16))))

    def test_coarser_binning_collects_neighbouring_radii(self):
        # side 32 has 16 bins of width 1, so a cosine at frequency k lands in
        # bin k, with the modes at radii within 1/2 of k
        side, k = 32, 6
        x = np.arange(side)
        wave = np.cos(2 * np.pi * k * x / side)
        g = LatentGrid(np.broadcast_to(wave, (1, side, side)).copy())
        curve = radial_psd(g)
        assert curve.n_bins == 16
        np.testing.assert_allclose(curve.freqs, np.arange(16) * 1.0)
        assert curve.power.argmax() == k


class TestPsdDecomposition:
    def test_t0_signal_equals_total(self, rng):
        z0, noise = rand_grid(rng, side=16), rand_grid(rng, side=16)
        total, noise_curve, signal = decompose(z0, noise, 0, SCHED)
        np.testing.assert_allclose(noise_curve.power, 0.0, atol=1e-20)
        np.testing.assert_array_equal(signal.power, total.power)
        np.testing.assert_allclose(total.power, radial_psd(z0).power, rtol=1e-12)

    def test_pure_noise_limit_has_tiny_signal(self, rng):
        z0, noise = rand_grid(rng, side=16), rand_grid(rng, side=16)
        sched = vp_default(4000)  # long enough for alpha to reach 1e-12
        _, _, signal = decompose(z0, noise, alpha_inverse(sched, 1e-12), sched)
        assert signal.power.sum() <= 1e-6 * radial_psd(z0).power.sum()

    def test_signal_clamped_non_negative(self, rng):
        z0, noise = rand_grid(rng, side=16), rand_grid(rng, side=16)
        _, _, signal = decompose(z0, noise, 700, SCHED)
        assert np.all(signal.power >= 0)

    @settings(max_examples=40, deadline=None)
    @given(side=st.integers(2, 40), channels=st.integers(1, 3), seed=st.integers(0, 2**31),
           inner=st.lists(st.floats(0, SCHED.T), max_size=3))
    @example(side=22, channels=1, seed=277, inner=[169.0])  # total's DC bin << noise's
    def test_rows_match_the_two_transform_form(self, side, channels, seed, inner):
        # the total row is a quadratic form in (scale_t, sigma_t) over the
        # binned products of z0's and eps's transforms, where the direct form
        # transforms the diffused grid; its error is bounded by the curve's
        # scale, not per bin, since the cross term cancels in some bins. The
        # noise row scales eps's one curve by var_t, where the direct form
        # transforms sigma_t * eps, so its error is relative to that curve,
        # not to total, which the cross term can cancel far below it; at
        # t = T the signal is the smallest difference of total and noise,
        # so the check is weakest there
        z0 = seeded_gaussian((channels, side, side), seed)
        noise = seeded_gaussian((channels, side, side), seed + 1)
        timesteps = [0, *inner, SCHED.T]
        rows = psd_decomposition(z0, noise, timesteps, SCHED)
        assert rows.shape == (len(timesteps), 3, side // 2)
        z0_power, eps_power = radial_psd(z0).power, radial_psd(noise).power
        for (total, noise_row, signal), t in zip(rows, timesteps):
            fwd = forward_model(SCHED, t)
            scale = (fwd.scale**2 * z0_power + fwd.var * eps_power).max()
            direct_total = radial_psd(diffuse(z0, t, noise, SCHED)).power
            assert np.all(np.abs(total - direct_total) <= 1e-12 * scale)
            np.testing.assert_array_equal(noise_row, fwd.var * eps_power)
            direct = radial_psd(LatentGrid(fwd.sigma * noise.data)).power
            assert np.all(np.abs(noise_row - direct) <= 1e-12 * direct)
            bound = 1e-12 * total
            assert np.all(np.abs(signal - np.maximum(total - direct, 0.0)) <= bound)

    def test_flow_schedule_rejected(self, rng):
        z0, noise = rand_grid(rng, side=16), rand_grid(rng, side=16)
        with pytest.raises(ValueError, match="variance-preserving"):
            psd_decomposition(z0, noise, [0.5], flow_schedule())

    def test_band_energy_fractions_sum_to_one(self, rng):
        curve = radial_psd(rand_grid(rng, side=32))
        low, high = band_energy_fractions(curve)
        assert low + high == pytest.approx(1.0, abs=1e-12)
        assert 0 < low < 1


class TestCsv:
    def test_header_and_finite_cells(self, rng, tmp_path):
        z0, noise = rand_grid(rng, side=16), rand_grid(rng, side=16)
        triplet = decompose(z0, noise, 500, SCHED)
        path = tmp_path / "psd.csv"
        write_psd_csv(path, *triplet)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin,freq,psd_total,psd_noise,psd_signal"
        assert len(lines) == 1 + triplet[0].n_bins
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 5
            assert all(np.isfinite(float(c)) for c in cells)


class TestPsdCurveInvariants:
    def test_rejects_negative_power(self):
        with pytest.raises(ValueError, match="non-negative"):
            PsdCurve(np.array([1.0, -0.5]), Resolution(4))

    @pytest.mark.parametrize("side,power", [(4, [1.0]), (4, [1.0, 1.0, 1.0]), (5, [[1.0, 1.0]])])
    def test_rejects_a_bin_count_other_than_half_the_side(self, side, power):
        with pytest.raises(ValueError, match="side // 2"):
            PsdCurve(np.array(power), Resolution(side))

    @settings(max_examples=40, deadline=None)
    @given(side=st.integers(2, 40), channels=st.integers(1, 3), seed=st.integers(0, 2**31))
    def test_bins_follow_from_the_resolution(self, side, channels, seed):
        # odd sides included: side // 2 bins, bin i at the correctly rounded
        # i * nyquist / n_bins, and the power and resolution alone rebuild the curve
        curve = radial_psd(seeded_gaussian((channels, side, side), seed))
        n_bins = side // 2
        assert curve.n_bins == n_bins and curve.power.shape == (n_bins,)
        ny = nyquist(Resolution(side))
        assert curve.freqs.tolist() == [i * ny / n_bins for i in range(n_bins)]
        again = PsdCurve(curve.power, curve.resolution)
        assert again.resolution == curve.resolution
        np.testing.assert_array_equal(again.power, curve.power)
        np.testing.assert_array_equal(again.freqs, curve.freqs)


def test_band_energy_fractions_of_a_zero_curve_are_zero():
    assert band_energy_fractions(PsdCurve(np.zeros(4), Resolution(8))) == (0.0, 0.0)


@pytest.mark.parametrize("call,message", [
    (lambda path: psd_decomposition(LatentGrid(np.zeros((3, 8, 8))),
                                    LatentGrid(np.zeros((3, 16, 16))), [500], SCHED),
     r"^shape mismatch: \(3, 8, 8\) vs \(3, 16, 16\)$"),
    (lambda path: band_split(np.zeros((1, 8, 6)), 4), "^band_split needs a square grid, got 8x6$"),
    (lambda path: write_psd_csv(path, *(PsdCurve(np.zeros(s // 2), Resolution(s))
                                        for s in (8, 8, 16))),
     "^curves must share a resolution$"),
], ids=["decomposition-shape", "band-split-non-square", "csv-of-two-resolutions"])
def test_input_guards_name_the_fault(tmp_path, call, message):
    path = tmp_path / "psd.csv"
    with pytest.raises(ValueError, match=message):
        call(path)
    assert not path.exists()
