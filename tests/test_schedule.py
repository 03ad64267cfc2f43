import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frecas.bank import LatentBank, blocked_posterior
from frecas.grid import LatentGrid
from frecas.sampler import predict_z0
from frecas.schedule import (
    MAX_T,
    ScheduleKind,
    alpha_at,
    alpha_inverse,
    diffuse,
    flow_schedule,
    forward_model,
    shift_timestep_flow,
    shift_timestep_vp,
    snr,
    vp_default,
)

from conftest import rand_grid

SCHED = vp_default()


def brute_force_alpha(t: int, T: int = 1000) -> float:
    """Cumulative-product oracle for integer timesteps."""
    betas = np.linspace(1e-4, 0.02, T)
    acc = 1.0
    for k in range(t):
        acc *= 1.0 - betas[k]
    return acc


class TestAlpha:
    def test_endpoints(self):
        assert alpha_at(SCHED, 0) == 1.0
        assert 0.0 < alpha_at(SCHED, 1000) < 1e-4

    def test_matches_cumprod_oracle(self):
        for t in (1, 137, 500, 999, 1000):
            assert alpha_at(SCHED, t) == pytest.approx(brute_force_alpha(t), rel=1e-12)

    def test_interpolates_between_integers(self):
        a0, a1 = alpha_at(SCHED, 500), alpha_at(SCHED, 501)
        assert alpha_at(SCHED, 500.25) == pytest.approx(a0 + 0.25 * (a1 - a0), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_at(SCHED, -1)
        with pytest.raises(ValueError):
            alpha_at(SCHED, 1001)
        with pytest.raises(ValueError):
            alpha_at(flow_schedule(), 0.5)


def test_timestep_count_is_bounded():
    for make, T in ((vp_default, 0), (vp_default, MAX_T + 1), (flow_schedule, -3),
                    (flow_schedule, 10**12)):
        with pytest.raises(ValueError, match=f"T must lie in \\[1, {MAX_T}\\], got {T}"):
            make(T)
    assert flow_schedule(MAX_T).T == MAX_T
    # a VP table this long underflows to 0: the table check refuses it, naming T
    with pytest.raises(ValueError, match=f"^schedule T = {MAX_T} is too large: the linear-beta "
                                         "alpha table underflows to 0"):
        vp_default(MAX_T)
    assert vp_default(73252).alpha[-1] > 0.0  # the longest table that builds
    with pytest.raises(ValueError, match="^schedule T = 73253 is too large"):
        vp_default(73253)


class TestEquality:
    def test_vp_schedules_compare_by_value(self):
        assert vp_default(1000) == vp_default(1000)
        assert hash(vp_default(1000)) == hash(vp_default(1000))
        assert vp_default(1000) != vp_default(999)
        assert vp_default(10) != flow_schedule(10)
        assert flow_schedule(10) == flow_schedule(10)
        assert flow_schedule(10) != flow_schedule(20)


class TestAlphaInverse:
    def test_inverts_alpha(self, rng):
        for t in rng.uniform(0.0, 1000.0, 50):
            a = alpha_at(SCHED, t)
            assert alpha_inverse(SCHED, a) == pytest.approx(t, abs=1e-6)

    @pytest.mark.parametrize("T", [1000, 7])
    def test_table_entries_invert_exactly(self, T):
        sched = vp_default(T)
        assert [alpha_inverse(sched, a) for a in sched.alpha] == list(range(T + 1))

    def test_inverse_lands_on_the_target(self, rng):
        for a in rng.uniform(SCHED.alpha[-1], 1.0, 2000):
            assert abs(alpha_at(SCHED, alpha_inverse(SCHED, a)) - a) <= 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_inverse(SCHED, 1e-9)
        with pytest.raises(ValueError):
            alpha_inverse(SCHED, 1.5)


class TestSnr:
    def test_half_alpha_gives_one(self):
        t = alpha_inverse(SCHED, 0.5)
        assert snr(SCHED, t) == pytest.approx(1.0, rel=1e-8)

    def test_alpha_08_gives_four(self):
        t = alpha_inverse(SCHED, 0.8)
        assert snr(SCHED, t) == pytest.approx(0.8 / 0.2, rel=1e-8)

    def test_strictly_decreasing(self, rng):
        ts = np.sort(rng.uniform(1.0, 1000.0, 30))
        values = [snr(SCHED, t) for t in ts]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_diverges_at_zero(self):
        with pytest.raises(ValueError):
            snr(SCHED, 0)


class TestDiffuse:
    def test_t0_returns_z0(self, rng):
        z0, noise = rand_grid(rng), rand_grid(rng)
        out = diffuse(z0, 0, noise, SCHED)
        np.testing.assert_array_equal(out.data, z0.data)

    def test_alpha_zero_limit_returns_noise(self, rng):
        z0, noise = rand_grid(rng), rand_grid(rng)
        sched = vp_default(4000)  # long enough for alpha to reach 1e-12
        out = diffuse(z0, alpha_inverse(sched, 1e-12), noise, sched)
        np.testing.assert_allclose(out.data, noise.data, atol=1e-5)

    def test_zero_signal_scales_noise(self, rng):
        noise = rand_grid(rng)
        z0 = LatentGrid(np.zeros(noise.shape))
        t = 400
        out = diffuse(z0, t, noise, SCHED)
        expected = np.sqrt(1 - alpha_at(SCHED, t)) * noise.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_exact_inverse_recovers_z0(self, rng):
        z0, noise = rand_grid(rng), rand_grid(rng)
        t = 635.5
        a = alpha_at(SCHED, t)
        z_t = diffuse(z0, t, noise, SCHED)
        rec = (z_t.data - np.sqrt(1 - a) * noise.data) / np.sqrt(a)
        np.testing.assert_allclose(rec, z0.data, rtol=1e-6, atol=1e-9)

    def test_flow_interpolation(self, rng):
        z0, noise = rand_grid(rng), rand_grid(rng)
        fs = flow_schedule()
        out = diffuse(z0, 0.25, noise, fs)
        np.testing.assert_allclose(out.data, 0.75 * z0.data + 0.25 * noise.data, rtol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            diffuse(rand_grid(rng, side=4), 10, rand_grid(rng, side=8), SCHED)


class TestShiftVp:
    def test_same_resolution_is_identity(self):
        assert shift_timestep_vp(300.0, 1.0, 2.0, SCHED) == pytest.approx(300.0, abs=1e-6)

    def test_gamma_zero_is_identity(self):
        assert shift_timestep_vp(300.0, 0.5, 0.0, SCHED) == pytest.approx(300.0, abs=1e-6)

    def test_worked_case_alpha_08_half_gamma2(self):
        # target alpha = (0.25 * 0.8) / (1 + (0.25 - 1) * 0.8) = 0.5
        L = alpha_inverse(SCHED, 0.8)
        F = shift_timestep_vp(L, 0.5, 2.0, SCHED)
        assert alpha_at(SCHED, F) == pytest.approx(0.5, abs=1e-8)

    def test_snr_matching_property(self, rng):
        for _ in range(100):
            L = float(rng.uniform(10.0, 600.0))
            ratio = float(rng.uniform(0.25, 1.0))
            gamma = float(rng.uniform(0.0, 3.0))
            F = shift_timestep_vp(L, ratio, gamma, SCHED)
            target = snr(SCHED, L) * ratio**gamma
            assert abs(snr(SCHED, F) - target) <= 1e-6 * target
            if ratio < 1.0 and gamma > 0.0:
                assert F >= L

    def test_monotone_in_L(self):
        Fs = [shift_timestep_vp(L, 0.5, 2.0, SCHED) for L in (50, 150, 300, 500)]
        assert all(a < b for a, b in zip(Fs, Fs[1:]))

    def test_target_outside_schedule_range_raises(self):
        with pytest.raises(ValueError):
            shift_timestep_vp(990.0, 0.25, 3.0, SCHED)

    @settings(max_examples=150, deadline=None)
    @given(T=st.integers(1, 3000), L_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           ratio=st.floats(0.0, 1.0, exclude_min=True), gamma=st.floats(0.0, 10.0))
    def test_entry_matches_snr_or_is_rejected(self, T, L_frac, ratio, gamma):
        sched = vp_default(T)
        L = L_frac * T
        assume(0.0 < L < T)
        r = ratio**gamma
        a_l = alpha_at(sched, L)
        assume(r > 0.0 or a_l < 1.0)  # 0 * inf: see the underflow test below
        snr_f = r * a_l / (1.0 - a_l) if a_l < 1.0 else math.inf  # SNR(L) * ratio**gamma
        a_f = snr_f / (1.0 + snr_f) if snr_f < math.inf else 1.0
        floor = sched.alpha[-1]
        assume(abs(a_f - floor) > 1e-12 * floor)  # clear of the range's edge
        if a_f < floor:
            with pytest.raises(ValueError, match="outside the schedule range"):
                shift_timestep_vp(L, ratio, gamma, sched)
            return
        F = shift_timestep_vp(L, ratio, gamma, sched)
        assert L - 1e-9 <= F <= T  # more noise, never less
        assert abs(alpha_at(sched, F) - a_f) <= 1e-9

    def test_underflowing_ratio_power_is_rejected(self):
        # alpha(1e-13) rounds to 1 and (1/128)**200 to 0: the entry is taken
        # as alpha 0, below the schedule, not as a division by zero
        assert alpha_at(SCHED, 1e-13) == 1.0
        with pytest.raises(ValueError, match="outside the schedule range"):
            shift_timestep_vp(1e-13, 1 / 128, 200.0, SCHED)


class TestShiftFlow:
    def test_scale_one_identity(self):
        assert shift_timestep_flow(0.37, 1.0) == pytest.approx(0.37, rel=1e-12)

    def test_fixed_points(self):
        assert shift_timestep_flow(0.0, 4.0) == 0.0
        assert shift_timestep_flow(1.0, 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_worked_case_half_scale4(self):
        assert shift_timestep_flow(0.5, 4.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_moebius_involution(self, rng):
        for L in rng.uniform(0.0, 1.0, 25):
            for k in (2.0, 4.0, 9.0):
                back = shift_timestep_flow(shift_timestep_flow(float(L), k), 1.0 / k)
                assert back == pytest.approx(float(L), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(L=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3))
    def test_inverse_scale_undoes_the_shift(self, L, scale):
        F = shift_timestep_flow(L, scale)
        assert shift_timestep_flow(min(F, 1.0), 1.0 / scale) == pytest.approx(L, abs=1e-12)

    def test_monotone_in_L(self, rng):
        Ls = np.sort(rng.uniform(0.0, 1.0, 20))
        Fs = [shift_timestep_flow(float(L), 4.0) for L in Ls]
        assert all(a <= b for a, b in zip(Fs, Fs[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            shift_timestep_flow(1.5, 4.0)


EPS = np.finfo(float).eps


class TestForwardModel:
    """z_t = scale z0 + sigma eps, and the field f = (z_t - c z0) / sigma:
    f is eps on VP and the velocity eps - z0 on flow."""

    @staticmethod
    def draw_case(data, sched):
        t = data.draw(st.floats(0.0, sched.t_max, exclude_min=True), label="t")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        z0, eps = rng.standard_normal((2, 1, 4, 4))
        f = eps if sched.kind is ScheduleKind.VARIANCE_PRESERVING else eps - z0
        return t, LatentGrid(z0), LatentGrid(eps), f

    @pytest.mark.parametrize("sched", [SCHED, flow_schedule()], ids=["vp", "flow"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_predict_z0_inverts_diffuse(self, sched, data):
        t, z0, eps, f = self.draw_case(data, sched)
        fwd = forward_model(sched, t)
        z_t = diffuse(z0, t, eps, sched)
        rec = predict_z0(z_t, LatentGrid(f), t, sched)
        # rounding of z_t, of sigma f and of their difference, divided by c
        budget = 8 * EPS * (np.abs(z_t.data) + fwd.scale * np.abs(z0.data)
                            + fwd.sigma * (np.abs(eps.data) + np.abs(f))) / fwd.c
        assert np.all(np.abs(rec.data - z0.data) <= budget)

    @pytest.mark.parametrize("sched", [SCHED, flow_schedule()], ids=["vp", "flow"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_one_item_posterior_field_is_the_forward_field(self, sched, data):
        t, x, eps, f = self.draw_case(data, sched)
        fwd = forward_model(sched, t)
        bank = LatentBank(x.data[None], [5], [1.0])
        z_t = diffuse(x, t, eps, sched)
        z_blocks = bank.block(z_t.data)
        if fwd.var < np.finfo(float).tiny:
            with pytest.raises(ValueError, match="zero noise level"):
                blocked_posterior(bank, z_blocks, t, sched)
            return
        field = bank.unblock(blocked_posterior(bank, z_blocks, t, sched).fields(None)[0])
        # the posterior mean is x exactly; z_t - c x cancels, then / sigma
        budget = 8 * EPS * (np.abs(z_t.data) + fwd.c * np.abs(x.data)
                            + fwd.sigma * np.abs(f)) / fwd.sigma
        assert np.all(np.abs(field - f) <= budget)


@pytest.mark.parametrize("call,message", [
    (lambda: forward_model(flow_schedule(), 1.5), r"^flow time 1.5 outside \[0, 1\]$"),
    (lambda: forward_model(flow_schedule(), -0.25), r"^flow time -0.25 outside \[0, 1\]$"),
    (lambda: shift_timestep_vp(200.0, 0.0, 2.0, SCHED),
     r"^resolution ratio must be in \(0, 1\], got 0.0$"),
    (lambda: shift_timestep_vp(200.0, 2.0, 2.0, SCHED),
     r"^resolution ratio must be in \(0, 1\], got 2.0$"),
    (lambda: shift_timestep_vp(200.0, 0.5, -1.0, SCHED), "^gamma must be non-negative, got -1.0$"),
    (lambda: shift_timestep_vp(0.0, 0.5, 2.0, SCHED), r"^L must lie strictly inside \(0, 1000\)$"),
    (lambda: shift_timestep_vp(1000.0, 0.5, 2.0, SCHED),
     r"^L must lie strictly inside \(0, 1000\)$"),
    (lambda: shift_timestep_flow(0.5, 0.0), "^scale must be positive, got 0.0$"),
], ids=["flow-t-above-1", "flow-t-below-0", "ratio-0", "ratio-above-1", "negative-gamma",
        "L-at-0", "L-at-T", "flow-scale-0"])
def test_input_guards_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
