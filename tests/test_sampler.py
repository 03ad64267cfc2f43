import numpy as np
import pytest

from frecas.cascade import PRESETS
from frecas.config import RunConfig, build_plan
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
from frecas.schedule import alpha_at, diffuse, flow_schedule, forward_model, vp_default

from conftest import as_is, rand_grid

SCHED = vp_default()
FLOW = flow_schedule()


def rand_array(rng, **kwargs) -> np.ndarray:
    return rand_grid(rng, **kwargs).data


def facfg(eps_unc, eps_c, gw):
    """facfg_combine of two (C, side, side) arrays."""
    return facfg_combine(eps_unc, eps_c, gw, eps_c.shape[1], as_is, as_is)


class TestCfg:
    def test_w1_returns_conditional(self, rng):
        unc, con = rand_array(rng), rand_array(rng)
        np.testing.assert_array_equal(cfg_combine(unc, con, 1.0), con)

    def test_w0_returns_unconditional(self, rng):
        unc, con = rand_array(rng), rand_array(rng)
        np.testing.assert_array_equal(cfg_combine(unc, con, 0.0), unc)

    def test_extrapolation(self):
        out = cfg_combine(np.zeros((1, 4, 4)), np.ones((1, 4, 4)), 7.5)
        np.testing.assert_allclose(out, 7.5, rtol=1e-12)


def two_split_facfg(eps_unc, eps_c, gw):
    """Reference form: per-band CFG on both scores' band splits, summed."""
    unc = band_split(eps_unc, gw.base.side)
    con = band_split(eps_c, gw.base.side)
    low = cfg_combine(unc[0], con[0], gw.w_l)
    high = cfg_combine(unc[1], con[1], gw.w_h)
    return low + high


class TestFaCfg:
    def test_equal_weights_degenerate_to_cfg(self, rng):
        # (w_h - w_l) = 0 scales the high band away exactly
        gw = GuidanceWeights(7.5, 7.5, Resolution(8))
        for _ in range(100):
            unc, con = rand_array(rng, side=16), rand_array(rng, side=16)
            np.testing.assert_array_equal(facfg(unc, con, gw), cfg_combine(unc, con, 7.5))

    @pytest.mark.parametrize("w_l,w_h", [(7.5, 35.0), (7.5, 0.0), (0.0, 15.0)])
    def test_own_side_cut_is_plain_cfg(self, rng, w_l, w_h):
        # a cut at the grid's own side has a high band of exactly 0
        gw = GuidanceWeights(w_l, w_h, Resolution(16))
        for _ in range(20):
            unc, con = rand_array(rng, side=16), rand_array(rng, side=16)
            np.testing.assert_array_equal(facfg(unc, con, gw), cfg_combine(unc, con, w_l))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_one_split_matches_two_split_at_shipped_stages(self, rng, name):
        preset = PRESETS[name]
        sched = SCHED if preset.schedule_kind is SCHED.kind else FLOW
        plan = build_plan(RunConfig(preset=name, base_side=32), sched)
        for spec in plan.stages:
            side, gw = spec.resolution.side, plan.guidance(spec)
            unc, con = rand_array(rng, side=side), rand_array(rng, side=side)
            one = facfg(unc, con, gw)
            two = two_split_facfg(unc, con, gw)
            scale = max(gw.w_l, gw.w_h) * np.abs(con).max()
            assert np.abs(one - two).max() <= 1e-14 * scale

    def test_constant_scores_use_low_weight_only(self):
        unc = np.full((2, 16, 16), 1.0)
        con = np.full((2, 16, 16), 3.0)
        gw = GuidanceWeights(2.0, 50.0, Resolution(8))
        out = facfg(unc, con, gw)
        expected = (1 - 2.0) * 1.0 + 2.0 * 3.0
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_zero_unconditional_leaves_weighted_bands(self, rng):
        con = rand_array(rng, side=16)
        unc = np.zeros(con.shape)
        gw = GuidanceWeights(2.0, 5.0, Resolution(8))
        low, high = band_split(con, gw.base.side)
        expected = 2.0 * low + 5.0 * high
        np.testing.assert_allclose(facfg(unc, con, gw), expected, rtol=1e-9, atol=1e-12)

    def test_joint_linearity_under_scaling(self, rng):
        unc, con = rand_array(rng, side=16), rand_array(rng, side=16)
        gw = GuidanceWeights(7.5, 35.0, Resolution(8))
        c = 3.25
        lhs = facfg(c * unc, c * con, gw)
        rhs = c * facfg(unc, con, gw)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

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


def ddim(z_t, eps_hat, t, t_prev):
    """ddim_step from t down to t_prev on the VP schedule."""
    return ddim_step(z_t, eps_hat, forward_model(SCHED, t), forward_model(SCHED, t_prev))


class TestDdim:
    def test_fixed_point_when_times_equal(self, rng):
        z, eps = rand_array(rng), rand_array(rng)
        out = ddim(z, eps, 500, 500)
        np.testing.assert_allclose(out, z, atol=1e-6)

    def test_step_to_zero_returns_z0_estimate(self, rng):
        z, eps = rand_grid(rng), rand_grid(rng)
        out = ddim(z.data, eps.data, 500, 0)
        np.testing.assert_allclose(out, predict_z0(z, eps, 500, SCHED).data, rtol=1e-12)

    def test_exact_noise_lands_on_forward_marginal(self, rng):
        z0, noise = rand_grid(rng), rand_grid(rng)
        t, t_prev = 700, 250
        z_t = diffuse(z0, t, noise, SCHED)
        stepped = ddim(z_t.data, noise.data, t, t_prev)
        expected = diffuse(z0, t_prev, noise, SCHED)
        np.testing.assert_allclose(stepped, expected.data, rtol=1e-6, atol=1e-9)

    def test_roundtrip_self_consistency(self, rng):
        # step down with exact noise, then invert through the same update
        z0, noise = rand_grid(rng), rand_grid(rng)
        t, t_prev = 600, 200
        z_t = diffuse(z0, t, noise, SCHED)
        down = LatentGrid(ddim(z_t.data, noise.data, t, t_prev))
        a_t = alpha_at(SCHED, t)
        back = np.sqrt(a_t) * predict_z0(down, noise, t_prev, SCHED).data \
            + np.sqrt(1 - a_t) * noise.data
        np.testing.assert_allclose(back, z_t.data, atol=1e-5)


class TestEulerFlow:
    def test_no_move_when_times_equal(self, rng):
        z, v = rand_array(rng), rand_array(rng)
        np.testing.assert_array_equal(euler_flow_step(z, v, 0.5, 0.5), z)

    def test_straight_line_reaches_z0_in_one_step(self, rng):
        z0, eps = rand_grid(rng), rand_grid(rng)
        t = 0.8
        z_t = diffuse(z0, t, eps, FLOW)
        v = eps.data - z0.data
        out = euler_flow_step(z_t.data, v, t, 0.0)
        np.testing.assert_allclose(out, z0.data, rtol=1e-9, atol=1e-12)

    def test_two_half_steps_equal_one_step_for_constant_v(self, rng):
        z, v = rand_array(rng), rand_array(rng)
        one = euler_flow_step(z, v, 0.8, 0.2)
        half = euler_flow_step(euler_flow_step(z, v, 0.8, 0.5), v, 0.5, 0.2)
        np.testing.assert_allclose(one, half, rtol=1e-12, atol=1e-15)

    def test_ordering_violation(self, rng):
        with pytest.raises(ValueError):
            euler_flow_step(rand_array(rng), rand_array(rng), 0.2, 0.5)

    @pytest.mark.parametrize("t,t_prev", [(1.5, 0.5), (0.5, -0.1)])
    def test_times_outside_the_unit_interval_rejected(self, rng, t, t_prev):
        with pytest.raises(ValueError, match="t_prev <= t <= 1"):
            euler_flow_step(rand_array(rng), rand_array(rng), t, t_prev)


def test_input_guards_name_the_fault():
    with pytest.raises(ValueError, match=r"^shape mismatch: \(3, 8, 8\) vs \(3, 4, 4\)$"):
        predict_z0(LatentGrid(np.zeros((3, 8, 8))), LatentGrid(np.zeros((3, 4, 4))), 500, SCHED)
