import numpy as np
import pytest

from frecas.cascade import PRESETS, plan_from_preset
from frecas.freq import band_split
from frecas.grid import LatentGrid, Resolution
from frecas.sampler import (
    GuidanceWeights,
    cfg_combine,
    ddim_step,
    euler_flow_step,
    facfg_combine,
    predict_z0,
)
from frecas.schedule import alpha_at, diffuse, flow_schedule, vp_default

from conftest import rand_grid

SCHED = vp_default()
FLOW = flow_schedule()


class TestCfg:
    def test_w1_returns_conditional(self, rng):
        unc, con = rand_grid(rng), rand_grid(rng)
        np.testing.assert_array_equal(cfg_combine(unc, con, 1.0).data, con.data)

    def test_w0_returns_unconditional(self, rng):
        unc, con = rand_grid(rng), rand_grid(rng)
        np.testing.assert_array_equal(cfg_combine(unc, con, 0.0).data, unc.data)

    def test_extrapolation(self):
        unc = LatentGrid(np.zeros((1, 4, 4)))
        con = LatentGrid(np.ones((1, 4, 4)))
        out = cfg_combine(unc, con, 7.5)
        np.testing.assert_allclose(out.data, 7.5, rtol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            cfg_combine(rand_grid(rng, side=4), rand_grid(rng, side=8), 1.0)


def two_split_facfg(eps_unc, eps_c, gw):
    """Reference form: per-band CFG on both scores' band splits, summed."""
    unc = band_split(eps_unc, gw.base)
    con = band_split(eps_c, gw.base)
    low = cfg_combine(unc.low, con.low, gw.w_l)
    high = cfg_combine(unc.high, con.high, gw.w_h)
    return LatentGrid(low.data + high.data)


class TestFaCfg:
    def test_equal_weights_degenerate_to_cfg(self, rng):
        # (w_h - w_l) = 0 scales the high band away exactly
        gw = GuidanceWeights(7.5, 7.5, Resolution(8))
        for _ in range(100):
            unc, con = rand_grid(rng, side=16), rand_grid(rng, side=16)
            np.testing.assert_array_equal(facfg_combine(unc, con, gw).data,
                                          cfg_combine(unc, con, 7.5).data)

    @pytest.mark.parametrize("w_l,w_h", [(7.5, 35.0), (7.5, 0.0), (0.0, 15.0)])
    def test_own_side_cut_is_plain_cfg(self, rng, w_l, w_h):
        # a cut at the grid's own side has a high band of exactly 0
        gw = GuidanceWeights(w_l, w_h, Resolution(16))
        for _ in range(20):
            unc, con = rand_grid(rng, side=16), rand_grid(rng, side=16)
            np.testing.assert_array_equal(facfg_combine(unc, con, gw).data,
                                          cfg_combine(unc, con, w_l).data)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_one_split_matches_two_split_at_shipped_stages(self, rng, name):
        preset = PRESETS[name]
        sched = SCHED if preset.schedule_kind is SCHED.kind else FLOW
        plan = plan_from_preset(preset, 32, sched)
        for spec in plan.stages:
            side, gw = spec.resolution.side, plan.guidance(spec)
            unc, con = rand_grid(rng, side=side), rand_grid(rng, side=side)
            one = facfg_combine(unc, con, gw).data
            two = two_split_facfg(unc, con, gw).data
            scale = max(gw.w_l, gw.w_h) * np.abs(con.data).max()
            assert np.abs(one - two).max() <= 1e-14 * scale

    def test_constant_scores_use_low_weight_only(self):
        unc = LatentGrid(np.full((2, 16, 16), 1.0))
        con = LatentGrid(np.full((2, 16, 16), 3.0))
        gw = GuidanceWeights(2.0, 50.0, Resolution(8))
        out = facfg_combine(unc, con, gw)
        expected = (1 - 2.0) * 1.0 + 2.0 * 3.0
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_zero_unconditional_leaves_weighted_bands(self, rng):
        con = rand_grid(rng, side=16)
        unc = LatentGrid(np.zeros(con.shape))
        gw = GuidanceWeights(2.0, 5.0, Resolution(8))
        bands = band_split(con, gw.base)
        expected = 2.0 * bands.low.data + 5.0 * bands.high.data
        np.testing.assert_allclose(facfg_combine(unc, con, gw).data, expected,
                                   rtol=1e-9, atol=1e-12)

    def test_joint_linearity_under_scaling(self, rng):
        unc, con = rand_grid(rng, side=16), rand_grid(rng, side=16)
        gw = GuidanceWeights(7.5, 35.0, Resolution(8))
        c = 3.25
        lhs = facfg_combine(LatentGrid(c * unc.data), LatentGrid(c * con.data), gw)
        rhs = c * facfg_combine(unc, con, gw).data
        np.testing.assert_allclose(lhs.data, rhs, rtol=1e-9)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            GuidanceWeights(-1.0, 2.0, Resolution(8))


class TestPredictZ0:
    def test_exact_noise_recovers_z0(self, rng):
        z0, noise = rand_grid(rng), rand_grid(rng)
        t = 333
        z_t = diffuse(z0, t, noise, SCHED)
        rec = predict_z0(z_t, noise, t, SCHED)
        np.testing.assert_allclose(rec.data, z0.data, rtol=1e-5, atol=1e-9)

    def test_t0_returns_latent(self, rng):
        z = rand_grid(rng)
        out = predict_z0(z, rand_grid(rng), 0, SCHED)
        np.testing.assert_array_equal(out.data, z.data)

    def test_substitution_oracle(self, rng):
        x, n = rand_grid(rng), rand_grid(rng)
        t = 812
        a = alpha_at(SCHED, t)
        z_t = LatentGrid(np.sqrt(a) * x.data + np.sqrt(1 - a) * n.data)
        np.testing.assert_allclose(predict_z0(z_t, n, t, SCHED).data, x.data,
                                   rtol=1e-5, atol=1e-9)

    def test_flow_velocity_inversion(self, rng):
        z0, eps = rand_grid(rng), rand_grid(rng)
        t = 0.6
        z_t = diffuse(z0, t, eps, FLOW)
        v = LatentGrid(eps.data - z0.data)
        np.testing.assert_allclose(predict_z0(z_t, v, t, FLOW).data, z0.data,
                                   rtol=1e-9, atol=1e-12)


class TestDdim:
    def test_fixed_point_when_times_equal(self, rng):
        z, eps = rand_grid(rng), rand_grid(rng)
        out = ddim_step(z, eps, 500, 500, SCHED)
        np.testing.assert_allclose(out.data, z.data, atol=1e-6)

    def test_step_to_zero_returns_z0_estimate(self, rng):
        z, eps = rand_grid(rng), rand_grid(rng)
        out = ddim_step(z, eps, 500, 0, SCHED)
        np.testing.assert_allclose(out.data, predict_z0(z, eps, 500, SCHED).data,
                                   rtol=1e-12)

    def test_exact_noise_lands_on_forward_marginal(self, rng):
        z0, noise = rand_grid(rng), rand_grid(rng)
        t, t_prev = 700, 250
        z_t = diffuse(z0, t, noise, SCHED)
        stepped = ddim_step(z_t, noise, t, t_prev, SCHED)
        expected = diffuse(z0, t_prev, noise, SCHED)
        np.testing.assert_allclose(stepped.data, expected.data, rtol=1e-6, atol=1e-9)

    def test_roundtrip_self_consistency(self, rng):
        # step down with exact noise, then invert through the same update
        z0, noise = rand_grid(rng), rand_grid(rng)
        t, t_prev = 600, 200
        z_t = diffuse(z0, t, noise, SCHED)
        down = ddim_step(z_t, noise, t, t_prev, SCHED)
        a_t = alpha_at(SCHED, t)
        back = np.sqrt(a_t) * predict_z0(down, noise, t_prev, SCHED).data \
            + np.sqrt(1 - a_t) * noise.data
        np.testing.assert_allclose(back, z_t.data, atol=1e-5)

    def test_ordering_violation(self, rng):
        with pytest.raises(ValueError):
            ddim_step(rand_grid(rng), rand_grid(rng), 100, 200, SCHED)

    def test_flow_schedule_rejected(self, rng):
        # a flow field is a velocity, not the noise DDIM re-noises with
        with pytest.raises(ValueError, match="variance-preserving"):
            ddim_step(rand_grid(rng), rand_grid(rng), 0.5, 0.25, FLOW)


class TestEulerFlow:
    def test_no_move_when_times_equal(self, rng):
        z, v = rand_grid(rng), rand_grid(rng)
        np.testing.assert_array_equal(euler_flow_step(z, v, 0.5, 0.5).data, z.data)

    def test_straight_line_reaches_z0_in_one_step(self, rng):
        z0, eps = rand_grid(rng), rand_grid(rng)
        t = 0.8
        z_t = diffuse(z0, t, eps, FLOW)
        v = LatentGrid(eps.data - z0.data)
        out = euler_flow_step(z_t, v, t, 0.0)
        np.testing.assert_allclose(out.data, z0.data, rtol=1e-9, atol=1e-12)

    def test_two_half_steps_equal_one_step_for_constant_v(self, rng):
        z, v = rand_grid(rng), rand_grid(rng)
        one = euler_flow_step(z, v, 0.8, 0.2)
        half = euler_flow_step(euler_flow_step(z, v, 0.8, 0.5), v, 0.5, 0.2)
        np.testing.assert_allclose(one.data, half.data, rtol=1e-12, atol=1e-15)

    def test_ordering_violation(self, rng):
        with pytest.raises(ValueError):
            euler_flow_step(rand_grid(rng), rand_grid(rng), 0.2, 0.5)
