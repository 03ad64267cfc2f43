import math
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frecas import _kernels
from frecas import bank as bank_module
from frecas.bank import (
    SUPPORT_FLOOR,
    BankSpan,
    CAMap,
    LatentBank,
    bank_resample,
    blocked_posterior,
    default_patch_size,
    load_bank,
    make_bank,
    plain_weights,
    predict,
    save_bank,
)
from frecas.codec import HAAR1, IDENTITY, encode
from frecas.freq import radial_psd
from frecas.cascade import PRESETS
from frecas.config import RunConfig, build_plan
from frecas.grid import LatentGrid, Resolution, resample_bilinear, write_grid
from frecas.sampler import ddim_step
from frecas.schedule import (
    NoiseSchedule,
    ScheduleKind,
    alpha_at,
    alpha_inverse,
    diffuse,
    flow_schedule,
    forward_model,
    shift_timestep_flow,
    shift_timestep_vp,
    vp_default,
)

from conftest import bank_stack, brute_force_eps, count_map_work, rand_grid

SCHED = vp_default()
FLOW = flow_schedule()


def posterior_at(bank, z: LatentGrid, t, sched):
    """The posterior at a grid latent, blocked in the bank's layout."""
    return blocked_posterior(bank, bank.block(z.data), t, sched)


def field_grid(post, condition, ca_mixture=None) -> np.ndarray:
    """A posterior's conditional field as a (C, H, W) array."""
    return post.bank.unblock(post.fields(condition, ca_mixture)[1])


def small_bank(rng, n_items=6, channels=2, side=8, n_classes=3) -> LatentBank:
    stack = rng.standard_normal((n_items, channels, side, side))
    ids = np.arange(n_items) % n_classes
    w = rng.uniform(0.5, 2.0, n_items)
    return LatentBank(stack, ids, w / w.sum())


class TestBankType:
    def test_weight_validation(self, rng):
        stack = rng.standard_normal((2, 1, 4, 4))
        with pytest.raises(ValueError):
            LatentBank(stack, np.array([0, 1]), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            LatentBank(stack, np.array([0, 1]), np.array([1.1, -0.1]))

    def test_classes_sorted_unique(self, rng):
        bank = small_bank(rng, n_items=5, n_classes=2)
        assert bank.classes == (0, 1)

    def test_patch_norms_are_computed_once_at_the_banks_patch_size(self, rng):
        bank = small_bank(rng, n_items=3, channels=2, side=16)
        assert bank.patch_size == default_patch_size(16) == 2
        norms = bank.patch_norms
        direct = (bank_stack(bank).reshape(3, 2, 8, 2, 8, 2) ** 2).sum(axis=(1, 3, 5))
        np.testing.assert_allclose(norms, direct.reshape(3, -1), rtol=1e-12)
        assert bank.patch_norms is norms and not norms.flags.writeable
        assert bank_resample(bank, Resolution(4)).patch_norms.shape == (3, 16)

    def test_items_must_be_finite_square_and_one_per_id(self, rng):
        ids, w = np.array([0, 1]), np.array([0.5, 0.5])
        stack = rng.standard_normal((2, 1, 4, 4))
        stack[1, 0, 2, 3] = np.nan
        for items, match in ((stack, "finite"), (stack[:1], "one entry per item"),
                             (rng.standard_normal((3, 1, 4, 4)), "one entry per item"),
                             (rng.standard_normal((2, 1, 4, 6)), "square"),
                             ([np.zeros((1, 4, 4)), np.zeros((1, 8, 8))], "shape")):
            with pytest.raises(ValueError, match=match):
                LatentBank(items, ids, w)

    def test_generator_and_stack_build_the_same_bank(self, rng):
        stack = rng.standard_normal((5, 3, 16, 16))
        ids, w = np.arange(5) % 2, np.full(5, 0.2)
        a = LatentBank(stack, ids, w)
        b = LatentBank((x for x in stack), ids, w)
        np.testing.assert_array_equal(a.blocks, b.blocks)
        np.testing.assert_array_equal(a.input_slots, b.input_slots)
        np.testing.assert_array_equal(bank_stack(a)[a.input_slots], stack)
        assert not a.blocks.flags.writeable


class TestBankResample:
    def test_same_resolution_identity(self, rng):
        bank = small_bank(rng)
        assert bank_resample(bank, Resolution(8)) is bank

    def test_constant_items_stay_constant(self):
        stack = np.full((2, 1, 8, 8), 4.0)
        bank = LatentBank(stack, np.array([0, 1]), np.array([0.5, 0.5]))
        out = bank_resample(bank, Resolution(4))
        np.testing.assert_array_equal(bank_stack(out), np.full((2, 1, 4, 4), 4.0))

    def test_down_up_is_not_identity(self, rng):
        bank = small_bank(rng)
        down = bank_resample(bank, Resolution(4))
        back = bank_resample(down, Resolution(8))
        assert not np.allclose(bank_stack(back), bank_stack(bank))


class TestPredict:
    def test_single_item_bank_is_point_mass(self, rng):
        x = rand_grid(rng, channels=1, side=4)
        bank = LatentBank(x.data[None], np.array([0]), np.array([1.0]))
        z = rand_grid(rng, channels=1, side=4)
        t = 500
        a = alpha_at(SCHED, t)
        eps = predict(bank, z, t, None, SCHED)
        expected = (z.data - np.sqrt(a) * x.data) / np.sqrt(1 - a)
        np.testing.assert_allclose(eps.data, expected, rtol=1e-12)

    def test_high_noise_limit_recovers_prior_mean(self, rng):
        # alpha -> 1e-6: posterior approaches the prior weights
        sched = vp_default(2000)  # long enough for alpha to reach 1e-6
        t = alpha_inverse(sched, 1e-6)
        bank = small_bank(rng, n_items=5, channels=1, side=4)
        z = rand_grid(rng, channels=1, side=4, scale=0.1)
        eps = predict(bank, z, t, None, sched)
        a = alpha_at(sched, t)
        prior_mean = np.tensordot(bank.weights, bank_stack(bank), axes=1)
        z0_implied = (z.data - np.sqrt(1 - a) * eps.data) / np.sqrt(a)
        np.testing.assert_allclose(z0_implied, prior_mean, rtol=1e-2)

    def test_low_noise_concentrates_on_nearest_item(self, rng):
        bank = small_bank(rng, n_items=4, channels=1, side=4)
        k = 2
        t = 20  # alpha close to 1
        a = alpha_at(SCHED, t)
        z = LatentGrid(np.sqrt(a) * bank.item(k).data + 1e-4 * rng.standard_normal((1, 4, 4)))
        eps = predict(bank, z, t, None, SCHED)
        z0 = (z.data - np.sqrt(1 - a) * eps.data) / np.sqrt(a)
        # posterior mass on item k >= 0.999 means z0 is within 0.1% of it
        np.testing.assert_allclose(z0, bank.item(k).data, atol=2e-3)

    def test_matches_brute_force_unconditional_and_conditional(self, rng):
        bank = small_bank(rng, n_items=6, channels=2, side=8, n_classes=3)
        z = rand_grid(rng, channels=2, side=8)
        for t in (100, 500, 999):
            for condition in (None, 0, 2):
                eps = predict(bank, z, t, condition, SCHED)
                oracle = brute_force_eps(bank, z, t, condition, SCHED)
                np.testing.assert_allclose(eps.data, oracle, rtol=1e-9)

    def test_conditional_collapse_single_class(self, rng):
        stack = rng.standard_normal((4, 1, 4, 4))
        bank = LatentBank(stack, np.zeros(4, dtype=int), np.full(4, 0.25))
        z = rand_grid(rng, channels=1, side=4)
        unc = predict(bank, z, 300, None, SCHED)
        con = predict(bank, z, 300, 0, SCHED)
        np.testing.assert_array_equal(unc.data, con.data)

    def test_unknown_class_rejected(self, rng):
        bank = small_bank(rng)
        with pytest.raises(ValueError):
            predict(bank, rand_grid(rng, channels=2, side=8), 300, 99, SCHED)

    def test_boundary_t_rejected(self, rng):
        bank = small_bank(rng)
        z = rand_grid(rng, channels=2, side=8)
        with pytest.raises(ValueError):
            predict(bank, z, 0, None, SCHED)
        with pytest.raises(ValueError):
            predict(bank, z, 0.0, None, FLOW)

    def test_flow_zero_noise_cut_sits_where_distances_overflow(self, rng):
        # var = 4e-308 is a normal float, but d / (2 var) overflows for the
        # far item; at t = 1e-150 every distance over 2 var stays finite
        bank = small_bank(rng, n_items=2, channels=1, side=8, n_classes=2)
        z = bank.item(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero noise level"):
                posterior_at(bank, z, 2e-154, FLOW)
            post = posterior_at(bank, z, 1e-150, FLOW)
            for condition in (None, 1):
                assert all(np.all(np.isfinite(f)) for f in post.fields(condition))

    def test_overflowing_distances_are_not_a_zero_noise_level(self):
        # at t = 500 var is about 0.99, but a 1e160 latent's squared norm
        # overflows; a 1e150 latent's stays finite and runs
        bank = make_bank("value_noise", 8, n_items=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow at t = 500$"):
                posterior_at(bank, LatentGrid(np.full((3, 8, 8), 1e160)), 500.0, SCHED)
            posterior_at(bank, LatentGrid(np.full((3, 8, 8), 1e150)), 500.0, SCHED)

    def test_flow_velocity_consistent_with_kernel(self, rng):
        bank = small_bank(rng, n_items=4, channels=1, side=4)
        z = rand_grid(rng, channels=1, side=4)
        t = 0.5
        v = predict(bank, z, t, None, FLOW)
        stack = bank_stack(bank)
        logw = np.log(bank.weights) - (
            ((z.data[None] - (1 - t) * stack) ** 2).sum(axis=(1, 2, 3))
        ) / (2 * t * t)
        p = np.exp(logw - logw.max())
        p /= p.sum()
        z0 = np.tensordot(p, stack, axes=1)
        np.testing.assert_allclose(v.data, (z.data - z0) / t, rtol=1e-9)

    def test_ddim_with_denoiser_converges_to_nearest_item(self, rng):
        # well-separated items, start from low noise around one of them
        stack = 10.0 * np.stack([np.full((1, 4, 4), v) for v in (-2.0, -1.0, 1.0, 2.0)])
        bank = LatentBank(stack, np.arange(4) % 2, np.full(4, 0.25))
        target = 2
        t0 = 80.0
        a0 = alpha_at(SCHED, t0)
        noise = rand_grid(rng, channels=1, side=4)
        z = LatentGrid(np.sqrt(a0) * stack[target] + np.sqrt(1 - a0) * noise.data)
        grid = np.linspace(t0, 0.0, 9)
        for t, t_next in zip(grid[:-1], grid[1:]):
            eps = predict(bank, z, t, None, SCHED)
            z = LatentGrid(ddim_step(z.data, eps.data, forward_model(SCHED, t),
                                     forward_model(SCHED, t_next)))
        dists = ((stack - z.data[None]) ** 2).sum(axis=(1, 2, 3))
        assert dists.argmin() == target
        np.testing.assert_allclose(z.data, stack[target], atol=1e-3)


def smallest_preset_t(sched: NoiseSchedule) -> float:
    """Lowest evaluation time of any shipped preset on this schedule: the last
    step of a cascade's final stage, entered at the SNR-matched shift of the
    previous stage's L, or the last step of the direct baseline."""
    vp = sched.kind is ScheduleKind.VARIANCE_PRESERVING
    times = []
    for preset in PRESETS.values():
        if preset.schedule_kind is not sched.kind:
            continue
        plan = build_plan(RunConfig(preset=preset.name, base_side=16), sched)
        prev, final = plan.stages[-2], plan.stages[-1]
        ratio = prev.resolution.side / final.resolution.side
        if vp:
            F = shift_timestep_vp(prev.last_timestep, ratio, plan.gamma, sched)
        else:
            F = shift_timestep_flow(prev.last_timestep, 1.0 / ratio)
        times += [F / final.steps, (sched.T if vp else 1.0) / sum(preset.steps)]
    return min(times)


def direct_field(bank, z, t, condition, sched):
    """Per-item ||z - s x_k||^2 posterior, written out item by item."""
    if sched.kind is ScheduleKind.VARIANCE_PRESERVING:
        a = alpha_at(sched, t)
        scale, var = math.sqrt(a), 1.0 - a
    else:
        scale, var = 1.0 - t, t * t
    members = [k for k in range(bank.size)
               if condition is None or bank.class_ids[k] == condition]
    logw = np.array([math.log(bank.weights[k])
                     - np.sum((z.data - scale * bank.item(k).data) ** 2) / (2.0 * var)
                     for k in members])
    p = np.exp(logw - logw.max())
    p /= p.sum()
    z0 = sum(pk * bank.item(k).data for pk, k in zip(p, members))
    if sched.kind is ScheduleKind.VARIANCE_PRESERVING:
        return (z.data - scale * z0) / math.sqrt(var)
    return (z.data - z0) / t


def indexed_field(post, condition, t, sched):
    """A plain prediction in its index form: the admissible items are copied
    out of the bank and weighted alone. The weights are one row of a
    two-row product, the shape of the posterior's (unconditional,
    conditional) product, so that an unmasked row rounds alike."""
    bank = post.bank
    adm = (np.arange(bank.size) if condition is None
           else np.flatnonzero(bank.class_ids == condition))
    lw = np.log(bank.weights)[adm] - post.d_full[adm] / (2.0 * post.fwd.var)
    lw -= lw.max()
    p = np.exp(lw)
    p /= p.sum()
    items = bank_stack(bank)[adm]
    z0 = (np.stack([p, p]) @ items.reshape(adm.size, -1))[1].reshape(items.shape[1:])
    z_t = bank.unblock(post.z)
    if sched.kind is ScheduleKind.VARIANCE_PRESERVING:
        return (z_t - post.fwd.scale * z0) / np.sqrt(post.fwd.var)
    return (z_t - z0) / t


class TestPosterior:
    @pytest.mark.parametrize("sched", [SCHED, FLOW], ids=["vp", "flow"])
    def test_field_matches_direct_form_at_smallest_preset_t(self, rng, sched):
        t = smallest_preset_t(sched)
        bank = small_bank(rng, n_items=8, channels=3, side=16, n_classes=4)
        # a noisy copy of item 1 (class 1) and a point between items 2 and 3
        noise = LatentGrid(rng.standard_normal((3, 16, 16)))
        between = LatentGrid(0.5 * (bank.item(2).data + bank.item(3).data))
        for z in (diffuse(bank.item(1), t, noise, sched), diffuse(between, t, noise, sched)):
            post = posterior_at(bank, z, t, sched)
            for condition in (None, 0, 1, 2, 3):
                np.testing.assert_allclose(
                    field_grid(post, condition), direct_field(bank, z, t, condition, sched),
                    rtol=1e-9, atol=1e-9,
                )

    @pytest.mark.parametrize("channels", [3, 12])
    @pytest.mark.parametrize("sched", [SCHED, FLOW], ids=["vp", "flow"])
    def test_field_at_shipped_shape_and_balanced_point(self, rng, sched, channels):
        # side 64 with 3 (identity) or 12 (haar1) channels, as the shipped
        # presets run their final stage at base side 32
        t = smallest_preset_t(sched)
        vp = sched.kind is ScheduleKind.VARIANCE_PRESERVING
        stack = rng.standard_normal((8, channels, 64, 64))
        bank = LatentBank(stack, np.arange(8) % 4, np.full(8, 1.0 / 8))
        scale = math.sqrt(alpha_at(sched, t)) if vp else 1.0 - t
        var = 1.0 - scale**2 if vp else t * t
        noise = LatentGrid(rng.standard_normal((channels, 64, 64)))
        # at the exactly balanced point items 2 and 3 tie, and the VP field
        # cancels to ~0, so errors are measured against one item's field
        balanced = LatentGrid(scale * 0.5 * (stack[2] + stack[3]))
        for z in (diffuse(bank.item(1), t, noise, sched), balanced):
            item_field = ((z.data - scale * stack[2]) / math.sqrt(var) if vp
                          else (z.data - stack[2]) / t)
            field_scale = np.max(np.abs(item_field))
            # the norm expansion rounds each distance to within about
            # eps * (||z||^2 + s^2 ||x||^2), and the posterior divides it by 2 var
            budget = np.finfo(float).eps * (
                np.sum(z.data**2) + scale**2 * np.sum(stack[2] ** 2)) / (2.0 * var)
            post = posterior_at(bank, z, t, sched)
            for condition in (None, 0, 1, 2, 3):
                err = np.max(np.abs(field_grid(post, condition)
                                    - direct_field(bank, z, t, condition, sched)))
                assert err <= budget * field_scale

    @pytest.mark.parametrize("channels", [3, 12])
    @pytest.mark.parametrize("sched,t", [(SCHED, 1.0), (FLOW, 1e-3)], ids=["vp", "flow"])
    def test_masked_weights_match_the_indexed_form(self, rng, sched, t, channels):
        # at the smallest timestep and flow time, where the kernel is sharpest
        stack = rng.standard_normal((12, channels, 64, 64))
        bank = LatentBank(stack, np.arange(12) % 4, np.full(12, 1.0 / 12))
        post0 = posterior_at(bank, bank.item(0), t, sched)
        scale, var = post0.fwd.scale, post0.fwd.var
        noise = LatentGrid(rng.standard_normal((channels, 64, 64)))
        # items 1 and 5 share class 1; this point gives them log-weights
        # one apart, so that class's posterior is spread over two items
        delta = stack[5] - stack[1]
        tau = var / (scale**2 * np.sum(delta**2))
        spread = LatentGrid(scale * (0.5 * (stack[1] + stack[5]) + tau * delta))
        for z in (diffuse(bank.item(1), t, noise, sched), noise, spread):
            post = posterior_at(bank, z, t, sched)
            np.testing.assert_array_equal(field_grid(post, None),
                                          indexed_field(post, None, t, sched))
            for condition in range(4):
                ref = indexed_field(post, condition, t, sched)
                err = np.linalg.norm(field_grid(post, condition) - ref)
                assert err <= 1e-12 * np.linalg.norm(ref)

    def test_plain_fields_read_the_bank_in_place(self, rng):
        # class 0 holds 20 of the 24 items, so copying its items (or the
        # whole bank) would allocate more than half of the bank
        stack = rng.standard_normal((24, 3, 32, 32))
        bank = LatentBank(stack, np.array([0] * 20 + [1] * 4), np.full(24, 1.0 / 24))
        post = posterior_at(bank, rand_grid(rng, side=32), 500.0, SCHED)
        for condition in (None, 0):
            tracemalloc.start()
            try:
                post.fields(condition)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bank.blocks.nbytes / 2

    def test_one_step_reads_the_blocked_bank_in_place(self, rng):
        # a posterior, both plain fields and a mixture field at the shipped
        # side: a copy of a strided batch of the bank would show here
        items = (rng.standard_normal((3, 64, 64)) for _ in range(100))
        bank = LatentBank(items, np.arange(100) % 4, np.full(100, 0.01))
        tracemalloc.start()
        try:
            post = posterior_at(bank, rand_grid(rng, side=64), 500.0, SCHED)
            post.fields(1)
            post.fields(1, post.ca)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bank.blocks.nbytes / 4

    def test_predict_is_field_and_map_of_one_posterior(self, rng):
        bank = small_bank(rng)
        z = rand_grid(rng, channels=2, side=8)
        post = posterior_at(bank, z, 300.0, SCHED)
        for condition in (None, 0, 1, 2):
            field = predict(bank, z, 300.0, condition, SCHED)
            np.testing.assert_array_equal(field.data, field_grid(post, condition))

    def test_predict_is_the_conditional_field_grid_alone(self, rng, monkeypatch):
        # the grid entry forms no class evidence and no map, which only a
        # stage's fusion and averaging read
        bank = small_bank(rng)
        z = rand_grid(rng, channels=2, side=8)
        counts = count_map_work(monkeypatch)
        for condition in (None, 1):
            field = predict(bank, z, 300.0, condition, SCHED)
            assert isinstance(field, LatentGrid) and field.shape == z.shape
        assert counts == {"CAMap": 0, "evidence": 0}
        assert posterior_at(bank, z, 300.0, SCHED).ca.classes == bank.classes
        assert counts == {"CAMap": 1, "evidence": 1}

    def test_mixture_map_must_fit_the_posteriors_own(self, rng):
        # the posterior's own map relabelled (1, 0) with its columns
        # swapped, labelled (5, 9), and a map on the 4 x 4 grid
        bank = small_bank(rng, n_items=8, channels=2, side=16, n_classes=2)
        z = rand_grid(rng, channels=2, side=16)
        post = posterior_at(bank, z, 300.0, SCHED)
        own = post.ca
        assert (own.values.shape, own.classes) == ((64, 2), (0, 1))
        post.fields(1, own)
        for m in (CAMap(own.values[:, ::-1], (1, 0)), CAMap(own.values, (5, 9)),
                  CAMap(own.values[:16], (0, 1))):
            with pytest.raises(ValueError, match="does not fit"):
                post.fields(1, m)


def dense_weights(post, conditions) -> np.ndarray:
    """Plain posterior weights in their dense, unfloored form: a condition
    masks the other classes, each row shifted so its max is 1, not normalized."""
    bank = post.bank
    lw = np.log(bank.weights) - post.d_full / (2.0 * post.fwd.var)
    rows = np.tile(lw, (len(conditions), 1))
    for row, condition in zip(rows, conditions):
        if condition is not None:
            row[bank.class_ids != condition] = -np.inf
    return np.exp(rows - rows.max(axis=1, keepdims=True))


def dense_z0(post, conditions) -> np.ndarray:
    """Plain posterior means weighting every item, one product over all K."""
    bank = post.bank
    w = dense_weights(post, conditions)
    z0 = (w / w.sum(axis=1, keepdims=True)) @ bank.blocks.reshape(bank.size, -1)
    return z0.reshape(len(conditions), *bank.blocks.shape[1:])


def z0_budget(bank) -> float:
    """The floor's bound, at most K * 2^-60 of the largest distance between
    two items, plus rounding of a product over K items."""
    x = np.abs(bank.blocks).max()
    return bank.size * (2.0**-60 * 2.0 * x + 2.0 * np.finfo(float).eps * x)


class TestSparsePosterior:
    @pytest.mark.parametrize("sched", [SCHED, FLOW], ids=["vp", "flow"])
    def test_floored_product_matches_dense_form_at_smallest_preset_t(self, rng, sched):
        t = smallest_preset_t(sched)
        fwd = forward_model(sched, t)
        stack = rng.standard_normal((8, 3, 16, 16))
        bank = LatentBank(stack, np.arange(8) % 4, np.full(8, 1.0 / 8))
        noise = LatentGrid(rng.standard_normal((3, 16, 16)))
        conditions = [None, 0, 1, 2, 3]
        # the items in bank slots 2 and 3 tie at their balanced point, as do
        # those in slots 1 and 6, whose range also holds the four dropped
        # items between them
        x = bank_stack(bank)
        for z, pair in ((diffuse(bank.item(1), t, noise, sched), None),
                        (LatentGrid(fwd.scale * 0.5 * (x[2] + x[3])), (2, 3)),
                        (LatentGrid(fwd.scale * 0.5 * (x[1] + x[6])), (1, 6))):
            post = posterior_at(bank, z, t, sched)
            err = np.abs(post._plain_z0(conditions) - dense_z0(post, conditions))
            assert err.max() <= z0_budget(bank)
            if pair is not None:
                weights, lo, hi = plain_weights(bank, post.d_full, post.fwd.var, [None])
                np.testing.assert_array_equal(np.flatnonzero(weights[0]), pair)
                assert (lo, hi) == (pair[0], pair[1] + 1)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(1, 12),
           n_classes=st.integers(1, 4), flow=st.booleans(), log_t=st.floats(-3.0, 0.0),
           on_item=st.booleans())
    def test_kept_range_holds_every_weight_above_the_floor(
            self, seed, n_items, n_classes, flow, log_t, on_item):
        rng = np.random.default_rng(seed)
        sched = FLOW if flow else SCHED
        t = 10.0**log_t * (1.0 if flow else sched.T)
        bank = small_bank(rng, n_items=n_items, channels=2, side=4, n_classes=n_classes)
        noise = LatentGrid(rng.standard_normal((2, 4, 4)))
        z = diffuse(bank.item(int(rng.integers(n_items))), t, noise, sched) if on_item else noise
        post = posterior_at(bank, z, t, sched)
        conditions = [None, *bank.classes]
        weights, lo, hi = plain_weights(bank, post.d_full, post.fwd.var, conditions)
        dense = dense_weights(post, conditions)
        np.testing.assert_array_equal(weights > 0, dense >= SUPPORT_FLOOR)
        outside = np.ones(bank.size, dtype=bool)
        outside[lo:hi] = False
        assert np.all(dense[:, outside] < SUPPORT_FLOOR)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=4e-16 * bank.size)
        err = np.abs(post._plain_z0(conditions) - dense_z0(post, conditions))
        assert err.max() <= z0_budget(bank)

    @pytest.mark.parametrize("sched,t", [(SCHED, 300.0), (FLOW, 0.3)], ids=["vp", "flow"])
    def test_dropped_item_leaves_the_kept_items_zeros_exact(self, sched, t):
        # item 0 differs from item 1 only in channel 0, where item 1 is 0;
        # at item 1's noiseless latent, item 0 weighs 2^-70 of item 1, below
        # the floor, so z0 and the field are exactly 0 in channel 0
        fwd = forward_model(sched, t)
        kept = np.zeros((2, 4, 4))
        kept[1] = 1.0
        dropped = kept.copy()
        dropped[0] = math.sqrt(70.0 * math.log(2.0) * 2.0 * fwd.var / (16 * fwd.scale**2))
        bank = LatentBank(np.stack([dropped, kept]), np.array([0, 1]), np.full(2, 0.5))
        z = LatentGrid(fwd.scale * kept)
        post = posterior_at(bank, z, t, sched)
        log_ratio = (post.d_full[1] - post.d_full[0]) / (2.0 * fwd.var) / math.log(2.0)
        assert -70.5 < log_ratio < -69.5
        np.testing.assert_array_equal(post._plain_z0([None])[0], bank.blocks[1])
        field = predict(bank, z, t, None, sched)
        np.testing.assert_array_equal(field.data[0], 0.0)


# |coordinate - dense distance| in float64 epsilons of ||z||^2 + s^2 ||x_k||^2,
# the terms the norm expansion cancels. Measured worst case over 20000 random
# banks and latents drawn as below, at smallest_preset_t and t_max on both
# schedules: 6.7.
SPAN_DISTANCE_EPS = 64


class TestBankSpan:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(1, 12),
           n_classes=st.integers(1, 4), flow=st.booleans(), at_t_max=st.booleans(),
           on_item=st.booleans(), conditioned=st.booleans())
    def test_coordinate_distances_match_the_dense_pass(
            self, seed, n_items, n_classes, flow, at_t_max, on_item, conditioned):
        rng = np.random.default_rng(seed)
        sched = FLOW if flow else SCHED
        t = sched.t_max if at_t_max else smallest_preset_t(sched)
        fwd = forward_model(sched, t)
        eps = np.finfo(float).eps
        bank = small_bank(rng, n_items=n_items, n_classes=n_classes)
        span = BankSpan.of(bank, bank.block(rng.standard_normal((2, 8, 8))))
        # a latent as a run holds it: noise times sigma plus scale times a
        # posterior mean, on one item or a mixture of items
        p = (np.eye(n_items)[rng.integers(n_items)] if on_item
             else rng.dirichlet(np.full(n_items, 0.3)))
        u = np.concatenate([[fwd.sigma], fwd.scale * p])
        coords = span.posterior(u, t, sched)
        d = coords.d_full
        np.testing.assert_array_equal(d, span.distances(u, fwd.scale))
        z = span.latent(u)
        post = blocked_posterior(bank, z, t, sched)
        cancelled = np.sum(z * z) + fwd.scale**2 * bank.patch_norms.sum(axis=1)
        err = np.abs(d - post.d_full)
        assert np.all(err <= SPAN_DISTANCE_EPS * eps * cancelled)
        # the weights follow within the log-weight error the distances allow
        condition = bank.classes[-1] if conditioned else None
        conditions = [None, condition]
        log_err = err.max() / (2.0 * fwd.var)
        w_err = 4.0 * log_err + 16 * eps
        np.testing.assert_allclose(plain_weights(bank, d, fwd.var, conditions)[0],
                                   plain_weights(bank, post.d_full, post.fwd.var, conditions)[0],
                                   rtol=0, atol=w_err)
        # and so do the fields, (u - c (0, weights)) / sigma in coordinates,
        # through the linear span.latent: c / sigma times the weight error of
        # each item, plus the rounding of two sums of K + 1 terms
        x_max = max(np.abs(bank.blocks).max(), np.abs(span.entry).max())
        atol = (fwd.c * n_items * w_err * x_max
                + 8 * (n_items + 1) * eps * (np.abs(u).sum() + fwd.c) * x_max) / fwd.sigma
        for mine, dense in zip(coords.fields(condition), post.fields(condition)):
            np.testing.assert_allclose(span.latent(mine), dense, rtol=0, atol=atol)
        # the map reads patch distances of the built latent, formed on first read
        assert "d_patch" not in vars(coords)
        np.testing.assert_array_equal(coords.ca.values, post.ca.values)

    def test_gram_is_the_items_inner_products_built_once_and_read_only(self, rng):
        bank = small_bank(rng, n_items=5)
        flat = bank_stack(bank).reshape(5, -1)
        gram = bank.gram
        np.testing.assert_allclose(gram, flat @ flat.T, rtol=1e-12)
        np.testing.assert_array_equal(gram, gram.T)
        np.testing.assert_allclose(np.diagonal(gram), bank.patch_norms.sum(axis=1), rtol=1e-12)
        assert bank.gram is gram and not gram.flags.writeable

    def test_class_slice_is_the_class_and_refuses_an_unknown_id(self, rng):
        bank = small_bank(rng, n_items=7, n_classes=3)
        for c in bank.classes:
            own = bank.class_slice(c)
            assert np.all(bank.class_ids[own] == c)
            assert own.stop - own.start == np.sum(bank.class_ids == c)
        with pytest.raises(ValueError, match="^unknown class id 9$"):
            bank.class_slice(9)


def looped_class_evidence(log_patch, ids, classes) -> np.ndarray:
    """Per-class patch log-evidence, one class at a time over its members in
    the order given, each shifted by its own max: (n_classes, P)."""
    out = []
    for c in classes:
        rows = log_patch[ids == c]
        m = rows.max(axis=0)
        out.append(m + np.log(np.exp(rows - m).sum(axis=0)))
    return np.array(out)


class TestClassSlices:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(1, 12),
           n_classes=st.integers(1, 5), low_id=st.integers(-20, 5), flow=st.booleans())
    def test_bank_is_its_items_stably_sorted_by_class(self, seed, n_items, n_classes, low_id,
                                                       flow):
        rng = np.random.default_rng(seed)
        sched = FLOW if flow else SCHED
        # unsorted, gapped and often negative ids; the last item's class is
        # placed far from the latent, which sits near an item of another class
        ids = low_id + 3 * rng.integers(0, n_classes, n_items)
        stack = rng.standard_normal((n_items, 2, 8, 8))
        stack[ids == ids[-1]] += 50.0
        w = rng.uniform(0.5, 2.0, n_items)
        w /= w.sum()
        bank = LatentBank((x for x in stack), ids, w)

        order = np.argsort(ids, kind="stable")
        np.testing.assert_array_equal(order[bank.input_slots], np.arange(n_items))
        np.testing.assert_array_equal(bank.input_slots[order], np.arange(n_items))
        presorted = LatentBank(stack[order], ids[order], w[order])
        np.testing.assert_array_equal(presorted.input_slots, np.arange(n_items))
        for name in ("blocks", "class_ids", "weights"):
            np.testing.assert_array_equal(getattr(bank, name), getattr(presorted, name))

        t = smallest_preset_t(sched)
        near = int(np.flatnonzero(ids != ids[-1])[0]) if np.any(ids != ids[-1]) else 0
        noise = LatentGrid(rng.standard_normal((2, 8, 8)))
        post = posterior_at(bank, diffuse(LatentGrid(stack[near]), t, noise, sched), t, sched)
        expected = looped_class_evidence(post.log_patch[bank.input_slots], ids, bank.classes)
        assert np.all(np.isfinite(post.evidence))
        np.testing.assert_allclose(post.evidence, expected, rtol=1e-12, atol=0)
        if len(bank.classes) > 1:
            # a shift by the max over all classes would underflow the far one to 0
            far = bank.classes.index(int(ids[-1]))
            assert np.all(post.evidence[far] - post.evidence.max(axis=0) < -800)

        with tempfile.TemporaryDirectory() as directory:
            save_bank(directory, bank)
            back = load_bank(directory)
        np.testing.assert_array_equal(back.input_slots, bank.input_slots)
        np.testing.assert_array_equal(back.class_ids, bank.class_ids)
        resampled = bank_resample(bank, Resolution(4))
        given = LatentBank((resample_bilinear(LatentGrid(x), Resolution(4)).data for x in stack),
                           ids, w)
        for name in ("blocks", "class_ids", "weights", "input_slots"):
            np.testing.assert_array_equal(getattr(resampled, name), getattr(given, name))


class TestCaMaps:
    def test_rows_sum_to_one_tightly(self, rng):
        bank = small_bank(rng, n_items=6, channels=2, side=8, n_classes=3)
        z = rand_grid(rng, channels=2, side=8)
        ca = posterior_at(bank, z, 700, SCHED).ca
        np.testing.assert_allclose(ca.values.sum(axis=1), 1.0, atol=1e-12)

    def test_patch_grid_shape(self, rng):
        bank = small_bank(rng, n_items=4, channels=1, side=16, n_classes=2)
        z = rand_grid(rng, channels=1, side=16)
        ca = posterior_at(bank, z, 500, SCHED).ca
        assert ca.values.shape == (64, 2)

    def test_default_patch_size_rules(self):
        assert default_patch_size(64) == 8
        assert default_patch_size(32) == 4
        assert default_patch_size(8) == 1
        assert default_patch_size(20) == 2  # largest divisor <= 20//8
        assert default_patch_size(7) == 1

    def test_one_hot_mixture_matches_patchwise_class_posterior(self, rng):
        bank = small_bank(rng, n_items=6, channels=1, side=8, n_classes=2)
        z = rand_grid(rng, channels=1, side=8)
        t = 400
        a = alpha_at(SCHED, t)
        onehot = np.zeros((64, 2))
        onehot[:, 1] = 1.0
        ca = CAMap(onehot, (0, 1))
        eps = field_grid(posterior_at(bank, z, t, SCHED), 1, ca_mixture=ca)
        # oracle: per-pixel posterior over class-1 items with pixel distances
        members = np.flatnonzero(bank.class_ids == 1)
        items = bank_stack(bank)[members, 0]
        logw = np.log(bank.weights[members])[:, None, None] - (
            (z.data[0][None] - np.sqrt(a) * items) ** 2
        ) / (2 * (1 - a))
        p = np.exp(logw - logw.max(axis=0))
        p /= p.sum(axis=0)
        z0 = (p * items).sum(axis=0)
        expected = (z.data[0] - np.sqrt(a) * z0) / np.sqrt(1 - a)
        np.testing.assert_allclose(eps[0], expected, rtol=1e-9)

    def test_class_ids_need_not_be_0_to_n(self, rng):
        # unsorted, negative and gapped ids: each item's class column comes
        # from its class's slice of the bank, not from its id
        stack = rng.standard_normal((9, 1, 8, 8))
        ids, w = np.tile([12, -3, 7], 3), rng.uniform(0.5, 2.0, 9)
        bank = LatentBank(stack, ids, w / w.sum())
        assert bank.classes == (-3, 7, 12)
        z = rand_grid(rng, channels=1, side=8)
        post = posterior_at(bank, z, 400, SCHED)
        assert post.ca.classes == bank.classes
        for condition in (None, -3, 7, 12):
            np.testing.assert_allclose(field_grid(post, condition),
                                       direct_field(bank, z, 400, condition, SCHED),
                                       rtol=1e-9, atol=1e-9)
        onehot = np.zeros((64, 3))
        onehot[:, 2] = 1.0  # class 12's column
        eps = field_grid(post, 12, ca_mixture=CAMap(onehot, bank.classes))
        # oracle: per-pixel posterior over the class-12 items, as given
        a = alpha_at(SCHED, 400)
        members = np.flatnonzero(ids == 12)
        items = stack[members, 0]
        logw = np.log(w[members] / w.sum())[:, None, None] - (
            (z.data[0][None] - np.sqrt(a) * items) ** 2
        ) / (2 * (1 - a))
        p = np.exp(logw - logw.max(axis=0))
        p /= p.sum(axis=0)
        expected = (z.data[0] - np.sqrt(a) * (p * items).sum(axis=0)) / np.sqrt(1 - a)
        np.testing.assert_allclose(eps[0], expected, rtol=1e-9)

    def test_mixture_changes_prediction(self, rng):
        bank = small_bank(rng, n_items=6, channels=1, side=8, n_classes=2)
        z = rand_grid(rng, channels=1, side=8)
        post = posterior_at(bank, z, 400, SCHED)
        plain, mixed = field_grid(post, 1), field_grid(post, 1, ca_mixture=post.ca)
        assert not np.allclose(plain, mixed)

    def test_mixture_shape_mismatch_rejected(self, rng):
        bank = small_bank(rng, n_items=6, channels=1, side=8, n_classes=2)
        z = rand_grid(rng, channels=1, side=8)
        bad = CAMap(np.full((4, 2), 0.5), (0, 1))
        with pytest.raises(ValueError):
            posterior_at(bank, z, 400, SCHED).fields(1, bad)

    def test_rows_must_tile_a_square_patch_grid(self):
        for rows in (1, 4, 9, 64):
            assert len(CAMap(np.full((rows, 2), 0.5), (0, 1)).values) == rows
        for shape in ((2, 2), (3, 2), (8, 2), (63, 2), (4, 2, 1)):
            with pytest.raises(ValueError, match="square patch grid"):
                CAMap(np.full(shape, 0.5), (0, 1))

    def test_camap_validation(self):
        with pytest.raises(ValueError):
            CAMap(np.array([[0.5, 0.4]]), (0, 1))  # rows must sum to 1
        with pytest.raises(ValueError):
            CAMap(np.array([[1.2, -0.2]]), (0, 1))


class TestProceduralBanks:
    def test_value_noise_bank_shape_and_classes(self):
        bank = make_bank("value_noise", 32, channels=3, n_items=20, n_classes=4, seed=1)
        assert (bank.size, bank.item_shape) == (20, (3, 32, 32))
        assert bank.blocks.shape == (20, 8 * 8, 3 * 4 * 4)  # patch size 4 at side 32
        assert bank.classes == (0, 1, 2, 3)
        np.testing.assert_allclose(bank.weights.sum(), 1.0, atol=1e-12)

    def test_value_noise_bank_deterministic(self):
        a = make_bank("value_noise", 16, n_items=4, seed=9)
        b = make_bank("value_noise", 16, n_items=4, seed=9)
        np.testing.assert_array_equal(a.blocks, b.blocks)

    def test_value_noise_spectrum_decays(self):
        bank = make_bank("value_noise", 64, n_items=20, seed=0)
        psd = np.mean([radial_psd(bank.item(k)).power for k in range(20)], axis=0)
        assert psd[1] > 10 * psd[16]  # red spectrum, unlike white noise

    def test_white_bank_flat_spectrum(self):
        bank = make_bank("white", 64, n_items=20, seed=0)
        psd = np.mean([radial_psd(bank.item(k)).power for k in range(20)], axis=0)
        dev = np.abs(psd / psd.mean() - 1)
        assert dev.max() < 0.35  # no radial structure

    def test_make_bank_dispatch(self):
        assert make_bank("white", 8, n_items=2).size == 2
        with pytest.raises(ValueError):
            make_bank("perlin", 8)

    @pytest.mark.parametrize("kind", ["value_noise", "white"])
    def test_encoded_bank_is_the_image_bank_encoded_item_by_item(self, kind):
        images = make_bank(kind, 16, channels=3, n_items=5, n_classes=2, seed=4)
        latents = make_bank(kind, 16, channels=3, n_items=5, n_classes=2, seed=4, codec=HAAR1)
        assert latents.item_shape == (12, 8, 8)
        for k in range(images.size):
            np.testing.assert_array_equal(latents.item(k).data,
                                          encode(HAAR1, images.item(k)).data)
        np.testing.assert_array_equal(latents.class_ids, images.class_ids)
        np.testing.assert_array_equal(latents.weights, images.weights)


def interpolation_matrix(n_in, side):
    """(side, n_in) matrix of the bilinear taps of ``_kernels._taps``."""
    lo, hi, f = _kernels._taps(n_in, side)
    rows = np.zeros((side, n_in))
    rows[np.arange(side), lo] = 1.0 - f
    rows[np.arange(side), hi] = f
    return rows


def reference_value_noise_bank(side, channels, n_items, n_classes, seed, codec):
    """The value-noise bank build written channel by channel and item by
    item: each coarse octave of a channel interpolated along x by its own
    (o, o) @ R_o^T product, the octaves' rows stacked and interpolated along
    y by one product with the gain-weighted rows R_o, the finest octave
    added times its gain, and each shape mask on np.mgrid coordinates."""
    rng = np.random.default_rng(seed)
    octaves = [(side // factor, gain)
               for factor, gain in sorted(bank_module._OCTAVE_GAINS.items(), reverse=True)
               if side // factor >= 2]
    *coarse, (_, finest_gain) = octaves
    if coarse:
        x_rows = [interpolation_matrix(o, side).T.copy() for o, _ in coarse]
        y_rows = np.hstack([gain * interpolation_matrix(o, side) for o, gain in coarse])

    def channel():
        *layers, finest = [rng.standard_normal((o, o)) for o, _ in octaves]
        acc = finest * finest_gain
        if coarse:
            acc += y_rows @ np.vstack([layer @ x for layer, x in zip(layers, x_rows)])
        return acc

    def shape_mask(kind):
        yy, xx = np.mgrid[0:side, 0:side]
        cy, cx = rng.integers(side // 4, 3 * side // 4, 2)
        r = int(rng.integers(side // 8, side // 3))
        if kind == 0:
            return ((yy - cy) ** 2 + (xx - cx) ** 2 < r * r).astype(float)
        if kind == 1:
            return ((np.abs(yy - cy) < r) & (np.abs(xx - cx) < r // 2 + 1)).astype(float)
        if kind == 2:
            d2 = (yy - cy) ** 2 + (xx - cx) ** 2
            return ((d2 < r * r) & (d2 > (r // 2) ** 2)).astype(float)
        return (np.abs((yy - cy) + (xx - cx)) < r // 2 + 1).astype(float)

    ids = np.arange(n_items, dtype=np.int64) % n_classes
    items = []
    for cls in ids:
        item = np.stack([channel() for _ in range(channels)])
        item -= item.mean()
        item /= np.sqrt(np.mean(item * item))
        shapes = []
        for _ in range(2):
            mask = shape_mask(cls % 4)
            shapes.append(bank_module._SHAPE_AMPLITUDE * float(rng.normal()) * mask)
        item += shapes[0] + shapes[1]
        items.append(encode(codec, LatentGrid(item / item.std())).data)
    return LatentBank(items, ids, np.full(n_items, 1.0 / n_items))


def upsampled_value_noise(rng, side, channels):
    """The value-noise synthesis's earlier form: each coarse octave
    upsampled by ``bilinear_resample``, times its gain, and accumulated
    coarse to fine; the draws are the generator's."""
    octaves = bank_module._octaves(side)
    draws = [np.empty((channels, o, o)) for o, _ in octaves]
    for c in range(channels):
        for octave in draws:
            rng.standard_normal(out=octave[c])
    acc = np.zeros((channels, side, side))
    for (o, gain), layer in zip(octaves, draws):
        if o < side:
            layer = _kernels.bilinear_resample(layer, side, side)
        acc += gain * layer
    return acc


class TestValueNoiseBuild:
    @pytest.mark.parametrize("side, codec", [
        (3, IDENTITY), (13, IDENTITY), (37, IDENTITY), (64, IDENTITY),
        (14, HAAR1), (38, HAAR1), (64, HAAR1),  # the Haar codec needs an even side
    ], ids=lambda v: getattr(v, "value", None))
    @pytest.mark.parametrize("channels", [1, 3])
    def test_bank_is_the_per_channel_build_bytewise(self, side, codec, channels):
        bank = make_bank("value_noise", side, channels=channels, n_items=6, n_classes=4,
                         seed=11, codec=codec)
        ref = reference_value_noise_bank(side, channels, 6, 4, 11, codec)
        assert bank.blocks.tobytes() == ref.blocks.tobytes()
        np.testing.assert_array_equal(bank.class_ids, ref.class_ids)
        assert bank.weights.tobytes() == ref.weights.tobytes()

    @pytest.mark.parametrize("side", [2, 3, 13, 37, 64, 128])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_synthesis_is_the_upsampled_octave_sum(self, side, channels):
        # the two products regroup the sum of the upsampled octaves, so the
        # items move by rounding only (<= 1.4e-16 relative L2 measured); the
        # draws are the same calls in the same order, so both generators
        # end in the same state
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(4):
            got = bank_module._value_noise(rng, side, channels)
            want = upsampled_value_noise(ref_rng, side, channels)
            assert got.shape == (channels, side, side)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("channels", [1, 3])
    def test_side_two_bank_builds(self, channels):
        bank = make_bank("value_noise", 2, channels=channels, n_items=5, seed=3)
        assert bank.item_shape == (channels, 2, 2)
        assert np.isfinite(bank.blocks).all()


class TestSerialization:
    def test_roundtrip_to_float32_precision(self, rng, tmp_path):
        bank = small_bank(rng, n_items=4, channels=2, side=8)
        save_bank(tmp_path / "bank", bank)
        back = load_bank(tmp_path / "bank")
        assert back.size == bank.size
        np.testing.assert_array_equal(back.class_ids, bank.class_ids)
        np.testing.assert_allclose(back.weights, bank.weights, rtol=1e-12)
        np.testing.assert_allclose(back.blocks, bank.blocks, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("line", [
        "item_0000.frcg 0",
        "item_0000.frcg 0 0.5 extra",
        "item_0000.frcg zero 0.5",
        "item_0000.frcg 0 half",
        "item_0000.frcg 9223372036854775808 0.5",  # one past the largest int64
        "item_0000.frcg 0 nan",
        "item_0000.frcg 0 -0.5",
    ])
    def test_malformed_manifest_line_is_named(self, rng, tmp_path, line):
        write_grid(tmp_path / "item_0000.frcg", rand_grid(rng, channels=1, side=4))
        (tmp_path / "manifest.txt").write_text(f"item_0000.frcg 1 0.5\n\n{line}\n")
        with pytest.raises(ValueError, match=r"manifest\.txt:3: expected 'filename class_id weight'"):
            load_bank(tmp_path)

    def test_manifest_is_checked_before_any_grid_is_read(self, rng, tmp_path, monkeypatch):
        write_grid(tmp_path / "item_0000.frcg", rand_grid(rng, channels=1, side=4))
        (tmp_path / "manifest.txt").write_text(
            "item_0000.frcg 1 0.5\n\nitem_0000.frcg 0 half\n")
        monkeypatch.setattr("frecas.bank.read_grid", lambda path: pytest.fail(
            f"{path} read before the manifest was checked"))
        with pytest.raises(ValueError, match=r"manifest\.txt:3: "):
            load_bank(tmp_path)

    def test_load_bank_normalizes_weights(self, rng, tmp_path):
        for k in range(3):
            write_grid(tmp_path / f"item_{k}.frcg", rand_grid(rng, channels=1, side=4))
        (tmp_path / "manifest.txt").write_text(
            "".join(f"item_{k}.frcg {k} 2.0\n" for k in range(3)))
        bank = load_bank(tmp_path)
        np.testing.assert_allclose(bank.weights, 1 / 3, rtol=1e-12)
        assert bank.classes == (0, 1, 2)

    def test_load_bank_holds_no_second_copy(self, tmp_path):
        # grids stream into the blocked bank one at a time, so loading
        # holds about one bank's worth, not a list of grids beside it
        save_bank(tmp_path, make_bank("white", 64, n_items=100))
        tracemalloc.start()
        try:
            bank = load_bank(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bank.size == 100 and bank.side == 64
        assert peak < 1.5 * bank.blocks.nbytes

    def test_load_bank_weights_near_the_float_max(self, rng, tmp_path):
        # 1e308 + 1e308 overflows; the weights are divided by their max first
        for k in range(2):
            write_grid(tmp_path / f"item_{k}.frcg", rand_grid(rng, channels=1, side=4))
        (tmp_path / "manifest.txt").write_text(
            "".join(f"item_{k}.frcg {k} 1e308\n" for k in range(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bank = load_bank(tmp_path)
        np.testing.assert_array_equal(bank.weights, [0.5, 0.5])

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("\n")
        with pytest.raises(ValueError, match="no bank items"):
            load_bank(tmp_path)


@pytest.mark.parametrize("call,message", [
    (lambda: CAMap(np.full((4, 2), 0.5), (0,)), "^one column per class required$"),
    (lambda: LatentBank(np.zeros((0, 1, 4, 4)), [], []),
     "^class_ids and weights must have one entry per item, K >= 1$"),
    (lambda: predict(make_bank("white", 8, n_items=2), LatentGrid(np.zeros((3, 4, 4))), 500,
                     None, SCHED),
     r"^latent shape \(3, 4, 4\) does not match bank \(3, 8, 8\)$"),
], ids=["ca-map-columns", "bank-without-ids", "predict-shape"])
def test_input_guards_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
