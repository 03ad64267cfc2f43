import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frecas import _kernels
from frecas import cascade as cascade_module
from frecas.bank import BankSpan, CAMap, LatentBank, bank_resample, blocked_posterior, predict
from frecas.cascade import (
    PRESETS,
    SPAN_ITEMS_PER_STEP,
    StagePlan,
    StageSpec,
    average_ca_maps,
    compute_cost,
    fuse_ca_maps,
    ladder,
    preset_timestep,
    resample_ca_map,
    run_cascade,
    run_stage,
    runs_in_bank_span,
    stage_costs,
    transition,
)
from frecas.codec import HAAR1, IDENTITY, decode, encode
from frecas.config import (
    ConfigError,
    RunConfig,
    ablation_plan,
    build_bank,
    build_codec,
    build_direct_plan,
    build_plan,
    build_schedule,
)
from frecas.grid import LatentGrid, Resolution, resample_bilinear, seeded_gaussian, subseed
from frecas.sampler import (
    GuidanceWeights,
    cfg_combine,
    ddim_step,
    euler_flow_step,
    facfg_combine,
    predict_z0,
)
from frecas.schedule import (
    ScheduleKind,
    alpha_at,
    diffuse,
    flow_schedule,
    forward_model,
    shift_timestep_vp,
    snr,
    vp_default,
)

from conftest import as_is, count_map_work

SCHED = vp_default()


def ddim_grid(z: LatentGrid, eps_hat: np.ndarray, t, t_next) -> LatentGrid:
    """ddim_step of a grid latent from t down to t_next on the VP schedule."""
    return LatentGrid(ddim_step(z.data, eps_hat, forward_model(SCHED, t),
                                forward_model(SCHED, t_next)))


def toy_bank(rng, side=16, channels=2, n_items=8, n_classes=3, scale=1.0) -> LatentBank:
    stack = scale * rng.standard_normal((n_items, channels, side, side))
    ids = np.arange(n_items) % n_classes
    return LatentBank(stack, ids, np.full(n_items, 1.0 / n_items))


def toy_plan(side0=8, side1=16, steps=(4, 3), L=200.0, w=(7.5, 35.0), w_c=0.6,
             gamma=2.0, sched=SCHED) -> StagePlan:
    return StagePlan(
        stages=(
            StageSpec(Resolution(side0), steps[0], L),
            StageSpec(Resolution(side1), steps[1], 0.0),
        ),
        gamma=gamma,
        schedule=sched,
        w_l=w[0], w_h=w[1], w_c=w_c,
    )


def three_stage_plan(lasts=(200.0, 100.0), sched=SCHED) -> StagePlan:
    """Sides 8, 16 and 32: a middle stage reads stage 0's average, and the
    final stage reads the middle one's."""
    return ladder([8, 16, 32], [4, 3, 2], lasts, w_l=7.5, w_h=35.0, w_c=0.6, gamma=2.0,
                  sched=sched)


def one_stage_plan(side=8, steps=4, w_l=7.5, sched=SCHED) -> StagePlan:
    """A direct plan: one stage from t_max to 0, plain CFG at w_l."""
    return ladder([side], [steps], [], w_l=w_l, w_h=35.0, w_c=0.6, gamma=2.0, sched=sched)


def uniform_map(rows, classes) -> CAMap:
    n = len(classes)
    return CAMap(np.full((rows * rows, n), 1.0 / n), classes)


class TestCaMapAlgebra:
    def test_fuse_endpoints_exact(self, rng):
        a = _random_map(rng, 4, (0, 1, 2))
        b = _random_map(rng, 4, (0, 1, 2))
        np.testing.assert_array_equal(fuse_ca_maps(a, b, 0.0).values, a.values)
        np.testing.assert_array_equal(fuse_ca_maps(a, b, 1.0).values, b.values)

    def test_fuse_preserves_row_sums(self, rng):
        a = _random_map(rng, 4, (0, 1))
        b = _random_map(rng, 4, (0, 1))
        fused = fuse_ca_maps(a, b, 0.6)
        np.testing.assert_allclose(fused.values.sum(axis=1), 1.0, atol=1e-12)

    def test_fuse_domain(self, rng):
        a = _random_map(rng, 2, (0,))
        with pytest.raises(ValueError):
            fuse_ca_maps(a, a, 1.5)

    def test_average_of_equal_maps_is_identity(self, rng):
        m = _random_map(rng, 3, (0, 1))
        avg = average_ca_maps([m, m, m])
        np.testing.assert_allclose(avg.values, m.values, rtol=1e-12)

    def test_average_two_maps_rows_sum_one(self, rng):
        a = _random_map(rng, 3, (0, 1))
        b = _random_map(rng, 3, (0, 1))
        avg = average_ca_maps([a, b])
        np.testing.assert_allclose(avg.values, (a.values + b.values) / 2, rtol=1e-12)
        np.testing.assert_allclose(avg.values.sum(axis=1), 1.0, atol=1e-12)

    def test_average_rejects_empty_and_mismatched(self, rng):
        with pytest.raises(ValueError):
            average_ca_maps([])
        with pytest.raises(ValueError):
            average_ca_maps([_random_map(rng, 2, (0,)), _random_map(rng, 3, (0,))])

    def test_resampled_uniform_stays_uniform(self):
        m = uniform_map(4, (0, 1, 2))
        out = resample_ca_map(m, 8)
        np.testing.assert_allclose(out.values, 1.0 / 3.0, rtol=1e-12)
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)

    def test_resample_renormalizes_rows(self, rng):
        m = _random_map(rng, 4, (0, 1))
        out = resample_ca_map(m, 6)
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)


def _random_map(rng, rows, classes) -> CAMap:
    raw = rng.random((rows * rows, len(classes))) + 0.1
    return CAMap(raw / raw.sum(axis=1, keepdims=True), classes)


@st.composite
def stochastic_maps(draw, count=1):
    """``count`` random row-stochastic maps on one square patch grid of side
    1-16 over 1-6 sorted class ids; some entries are 0, some rows one-hot."""
    side = draw(st.integers(1, 16))
    classes = tuple(sorted(draw(st.lists(st.integers(-3, 20), min_size=1, max_size=6,
                                         unique=True))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9]))
    maps = []
    for _ in range(count):
        raw = rng.exponential(size=(side * side, len(classes)))
        raw[rng.random(raw.shape) < zeros] = 0.0
        raw[np.arange(side * side), rng.integers(0, len(classes), side * side)] += 1e-3
        maps.append(CAMap(raw / raw.sum(axis=1, keepdims=True), classes))
    return maps


def misfits(m: CAMap):
    """Maps that do not fit m: the next larger square patch grid and other
    class ids (reordered where there are two)."""
    rows = math.isqrt(len(m.values)) + 1
    other = m.classes[::-1] if len(m.classes) > 1 else (m.classes[0] + 1,)
    values = np.resize(m.values, (rows * rows, len(m.classes)))
    return [CAMap(values, m.classes), CAMap(m.values[:, ::-1], other)]


class TestCaMapProperties:
    @settings(deadline=None)
    @given(maps=stochastic_maps(count=2), w_c=st.floats(0.0, 1.0))
    def test_fuse_rows_sum_to_one_and_endpoints_are_exact(self, maps, w_c):
        a, b = maps
        rows = fuse_ca_maps(a, b, w_c).values.sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-12
        assert fuse_ca_maps(a, b, 0.0).values.tobytes() == a.values.tobytes()
        assert fuse_ca_maps(a, b, 1.0).values.tobytes() == b.values.tobytes()

    @settings(deadline=None)
    @given(maps=stochastic_maps(count=5), n=st.integers(1, 5))
    def test_average_rows_sum_to_one(self, maps, n):
        rows = average_ca_maps(maps[:n]).values.sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-12

    @settings(deadline=None)
    @given(maps=stochastic_maps(), rows=st.integers(1, 16))
    def test_resample_rows_sum_to_one(self, maps, rows):
        out = resample_ca_map(maps[0], rows)
        assert (len(out.values), out.classes) == (rows * rows, maps[0].classes)
        assert np.max(np.abs(out.values.sum(axis=1) - 1.0)) <= 1e-12

    @settings(deadline=None)
    @given(maps=stochastic_maps())
    def test_fit_rule_rejects_another_grid_or_other_class_ids(self, maps):
        m, = maps
        m.check_fit(m)
        for bad in misfits(m):
            for check in (lambda: m.check_fit(bad), lambda: fuse_ca_maps(m, bad, 0.5),
                          lambda: average_ca_maps([m, bad])):
                with pytest.raises(ValueError, match="does not fit"):
                    check()


class TestTransition:
    def test_equal_resolution_identity_codec_is_pure_renoise(self, rng):
        bank = toy_bank(rng, side=8)
        plan = toy_plan()
        spec = plan.stages[0]
        z_L = LatentGrid(rng.standard_normal((2, 8, 8)))
        seed = 99
        z_F, F = transition(z_L, spec, spec, plan, IDENTITY, bank, 1, seed)
        assert F == pytest.approx(spec.last_timestep, abs=1e-6)
        eps = predict(bank, z_L, spec.last_timestep, 1, SCHED)
        z0 = predict_z0(z_L, eps, spec.last_timestep, SCHED)
        manual = diffuse(z0, F, seeded_gaussian(z0.shape, seed), SCHED)
        np.testing.assert_array_equal(z_F.data, manual.data)

    def test_snr_matched_entry_timestep(self, rng):
        bank = toy_bank(rng, side=16)
        plan = toy_plan()
        z_L = LatentGrid(rng.standard_normal((2, 8, 8)))
        _, F = transition(z_L, plan.stages[0], plan.stages[1], plan, IDENTITY,
                          bank_resample(bank, Resolution(8)), 0, 5)
        target = snr(SCHED, 200.0) * 0.5**2.0
        assert abs(snr(SCHED, F) - target) <= 1e-6 * target

    def test_sdxl_x4_entry_alpha_from_closed_form(self):
        # L = 200, side ratio 1/2, gamma = 1.5
        a_l = alpha_at(SCHED, 200.0)
        r = 0.5**1.5
        target_alpha = r * a_l / (1 + (r - 1) * a_l)
        rng = np.random.default_rng(0)
        bank = toy_bank(rng, side=16)
        preset_plan = toy_plan(L=200.0, gamma=1.5)
        z_L = LatentGrid(rng.standard_normal((2, 8, 8)))
        _, F = transition(z_L, preset_plan.stages[0], preset_plan.stages[1],
                          preset_plan, IDENTITY, bank_resample(bank, Resolution(8)), 0, 5)
        assert alpha_at(SCHED, F) == pytest.approx(target_alpha, abs=1e-8)

    def test_haar_chain_lossless_without_interpolation(self, rng):
        # equal resolutions: decode -> encode round-trips exactly, so the
        # transition equals plain re-noising of the clean estimate
        bank = toy_bank(rng, side=8, channels=4)
        plan = toy_plan()
        spec = plan.stages[0]
        z_L = LatentGrid(rng.standard_normal((4, 8, 8)))
        z_F, F = transition(z_L, spec, spec, plan, HAAR1, bank, 1, 42)
        eps = predict(bank, z_L, spec.last_timestep, 1, SCHED)
        z0 = predict_z0(z_L, eps, spec.last_timestep, SCHED)
        roundtrip = encode(HAAR1, decode(HAAR1, z0))
        np.testing.assert_allclose(roundtrip.data, z0.data, rtol=1e-12, atol=1e-12)
        manual = diffuse(roundtrip, F, seeded_gaussian(z0.shape, 42), SCHED)
        np.testing.assert_allclose(z_F.data, manual.data, rtol=1e-12, atol=1e-12)

    def test_transition_builds_no_map_and_reads_no_evidence(self, rng, monkeypatch):
        plan = toy_plan()
        counts = count_map_work(monkeypatch)
        transition(LatentGrid(rng.standard_normal((2, 8, 8))), plan.stages[0], plan.stages[1],
                   plan, IDENTITY, toy_bank(rng, side=8), 1, 5)
        assert counts == {"CAMap": 0, "evidence": 0}

    def test_haar_chain_with_interpolation_differs_only_by_resample(self, rng):
        bank = toy_bank(rng, side=8, channels=4)
        plan = toy_plan()
        z_L = LatentGrid(rng.standard_normal((4, 8, 8)))
        z_F, F = transition(z_L, plan.stages[0], plan.stages[1], plan, HAAR1, bank, 1, 42)
        eps = predict(bank, z_L, 200.0, 1, SCHED)
        z0 = predict_z0(z_L, eps, 200.0, SCHED)
        image = decode(HAAR1, z0)
        up = resample_bilinear(image, Resolution(32))  # 16 latent * factor 2
        z0_up = encode(HAAR1, up)
        manual = diffuse(z0_up, F, seeded_gaussian(z0_up.shape, 42), SCHED)
        np.testing.assert_array_equal(z_F.data, manual.data)


class TestRunStage:
    def test_single_step_stage(self, rng):
        bank = toy_bank(rng, side=8)
        plan = toy_plan(steps=(1, 1))
        z = LatentGrid(rng.standard_normal((2, 8, 8)))
        out, avg = run_stage(plan.stages[0], z, bank_resample(bank, Resolution(8)),
                             1, plan)
        assert out.shape == z.shape
        np.testing.assert_allclose(avg.values.sum(axis=1), 1.0, atol=1e-12)

    def test_bitwise_deterministic(self, rng):
        bank = toy_bank(rng, side=8)
        plan = toy_plan()
        z = LatentGrid(rng.standard_normal((2, 8, 8)))
        small = bank_resample(bank, Resolution(8))
        a, _ = run_stage(plan.stages[0], z, small, 1, plan)
        b, _ = run_stage(plan.stages[0], z, small, 1, plan)
        assert np.array_equal(a.data, b.data)

    def test_stage0_with_w1_depends_only_on_conditional(self, rng):
        # w = 1 makes guidance return the conditional score exactly
        bank = toy_bank(rng, side=8, n_items=6, n_classes=2)
        plan = toy_plan(w=(1.0, 1.0))
        z = LatentGrid(rng.standard_normal((2, 8, 8)))
        out, _ = run_stage(plan.stages[0], z, bank, 1, plan)
        grid = np.linspace(1000.0, 200.0, 5)
        manual = z
        for t, t_next in zip(grid[:-1], grid[1:]):
            eps_c = predict(bank, manual, t, 1, SCHED)
            manual = ddim_grid(manual, eps_c.data, t, t_next)
        # the stage takes both plain fields from one product over the bank,
        # predict the conditional one alone, so they agree to rounding
        assert np.linalg.norm(out.data - manual.data) <= 1e-12 * np.linalg.norm(manual.data)

    def test_reused_maps_change_trajectory(self, rng):
        bank = toy_bank(rng, side=8, n_items=6, n_classes=2)
        plan = toy_plan(w_c=1.0)
        z = LatentGrid(rng.standard_normal((2, 8, 8)))
        skewed = CAMap(np.tile([0.9, 0.1], (64, 1)), (0, 1))
        with_maps, _ = run_stage(plan.stages[1], z, toy_bank(rng, side=8, n_items=6, n_classes=2),
                                 1, plan, reused_maps=skewed)
        assert with_maps.shape == z.shape

    def test_reused_map_is_regridded_to_the_stage_grid(self, rng):
        # side 16 has patch size 2, so the stage's grid is 8 x 8
        bank = toy_bank(rng, side=16, n_items=6, n_classes=2)
        plan = toy_plan()
        z = LatentGrid(rng.standard_normal((2, 16, 16)))
        coarse = _random_map(rng, 4, (0, 1))
        a, avg_a = run_stage(plan.stages[1], z, bank, 1, plan, reused_maps=coarse)
        b, avg_b = run_stage(plan.stages[1], z, bank, 1, plan,
                             reused_maps=resample_ca_map(coarse, 8))
        np.testing.assert_array_equal(a.data, b.data)
        assert avg_a is None and avg_b is None  # the final stage's average is never read

    @pytest.mark.parametrize("with_map", [False, True])
    def test_one_distance_pass_per_step(self, rng, monkeypatch, with_map):
        calls = {"patch_sq_dists": 0, "sq_dists": 0}
        for name in calls:
            def counted(*args, _fn=getattr(_kernels, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(_kernels, name, counted)
        bank = toy_bank(rng, side=8, n_items=6, n_classes=2)
        plan = toy_plan(steps=(5, 3))
        z = LatentGrid(rng.standard_normal((2, 8, 8)))
        if with_map:
            reused = CAMap(np.tile([0.7, 0.3], (64, 1)), (0, 1))
            run_stage(plan.stages[1], z, bank, 1, plan, reused_maps=reused)
            steps = 3
        else:
            run_stage(plan.stages[0], z, bank, 1, plan)
            steps = 5
        assert calls == {"patch_sq_dists": steps, "sq_dists": 0}


def reference_stage(spec, z, bank, condition, plan, reused_maps=None):
    """run_stage's loop written with the step functions on (C, H, W) arrays:
    the latent is blocked for each posterior and its fields unblocked."""
    sched = plan.schedule
    grid = plan.time_grid(spec)
    gw = plan.guidance(spec)
    z = z.data
    maps = []
    for t, t_next in zip(grid[:-1].tolist(), grid[1:].tolist()):
        post = blocked_posterior(bank, bank.block(z), t, sched)
        fused = None
        if reused_maps is not None:
            reused_maps = resample_ca_map(reused_maps, math.isqrt(len(post.ca.values)))
            fused = fuse_ca_maps(post.ca, reused_maps, plan.w_c)
        eps_unc, eps_c = (bank.unblock(f) for f in post.fields(condition, fused))
        maps.append(post.ca if fused is None else fused)
        eps_hat = facfg_combine(eps_unc, eps_c, gw, spec.resolution.side, as_is, as_is)
        if sched.kind is ScheduleKind.VARIANCE_PRESERVING:
            z = ddim_step(z, eps_hat, forward_model(sched, t), forward_model(sched, t_next))
        else:
            z = euler_flow_step(z, eps_hat, t, t_next)
    return LatentGrid(z), average_ca_maps(maps)


class TestBlockedStage:
    @pytest.mark.parametrize("sched,lasts", [(SCHED, (200.0, 100.0)),
                                             (flow_schedule(), (0.3, 0.15))], ids=["vp", "flow"])
    @pytest.mark.parametrize("stages,stage", [(2, 0), (2, 1), (3, 1)],
                             ids=["stage0", "cut-stage-fused-map", "middle-stage-fused-map"])
    @pytest.mark.parametrize("condition", [None, 1])
    def test_matches_the_public_step_functions_bytewise(self, rng, sched, lasts, stages, stage,
                                                        condition):
        plan = (toy_plan(L=lasts[0], sched=sched) if stages == 2
                else three_stage_plan(lasts, sched))
        spec = plan.stages[stage]
        side = spec.resolution.side
        bank = toy_bank(rng, side=side, n_items=9)
        z = LatentGrid(rng.standard_normal((2, side, side)))
        # stage 1 has an 8 x 8 patch grid; a 4 x 4 map is regridded first
        reused = _random_map(rng, 4, bank.classes) if stage else None
        out, avg = run_stage(spec, z, bank, condition, plan, reused_maps=reused)
        ref, ref_avg = reference_stage(spec, z, bank, condition, plan, reused_maps=reused)
        assert out.data.tobytes() == ref.data.tobytes()
        if spec == plan.stages[-1]:
            assert avg is None  # no later stage reads the final stage's average
        else:
            assert avg.values.shape == ref_avg.values.shape
            assert avg.values.tobytes() == ref_avg.values.tobytes()
        assert plan.guidance(spec).base.side == (side if stage == 0 else 8)

    @pytest.mark.parametrize("stage,w,t", [
        (0, (1e308, 35.0), "1000"),  # plain CFG at w_l overflows
        (1, (7.5, 1e308), None),  # the high band's weight overflows
        (None, (1e308, 35.0), "1000"),  # a one-stage plan, run in bank coordinates
    ], ids=["w_l", "w_h", "one-stage-w_l"])
    def test_non_finite_latent_names_the_step(self, rng, stage, w, t):
        plan = one_stage_plan(w_l=w[0]) if stage is None else toy_plan(w=w)
        spec = plan.stages[stage or 0]
        side = spec.resolution.side
        # coordinates are weights of order 1, so on that route only a latent
        # that overflows in exact arithmetic is non-finite: w_l times the gap
        # between the two posterior means, here widened by a 100 times larger
        # bank (much larger, and both means collapse onto one item at t_max)
        bank = toy_bank(rng, side=side, scale=1.0 if stage is not None else 100.0)
        z = LatentGrid(rng.standard_normal((2, side, side)))
        t = t or f"{plan.first_timesteps[stage]:g}"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"non-finite latent after the step at t = {t}$"):
                run_stage(spec, z, bank, 1, plan)


class TestBankCoordinateStage:
    """A one-stage plan runs in the coordinates of frecas.bank.BankSpan."""

    @pytest.mark.parametrize("sched", [SCHED, flow_schedule()], ids=["vp", "flow"])
    @pytest.mark.parametrize("condition", [None, 1])
    def test_one_stage_run_matches_the_dense_loop(self, rng, sched, condition):
        plan = one_stage_plan(side=16, steps=50, sched=sched)
        bank = toy_bank(rng, side=16, n_items=9)
        image, _ = run_cascade(plan, IDENTITY, bank, condition, seed=3)
        z = seeded_gaussian((2, 16, 16), subseed(3, 0))
        ref, _ = reference_stage(plan.stages[0], z, bank, condition, plan)
        err = np.linalg.norm(image.data - ref.data) / np.linalg.norm(ref.data)
        assert err <= 1e-10

    def test_one_stage_run_reads_no_patch_distances_and_builds_no_map(self, rng, monkeypatch):
        calls = {"patch_sq_dists": 0, "CAMap": 0}

        def dists(*args, _fn=_kernels.patch_sq_dists):
            calls["patch_sq_dists"] += 1
            return _fn(*args)

        def checked(m, _fn=CAMap.__post_init__):
            calls["CAMap"] += 1
            return _fn(m)

        monkeypatch.setattr(_kernels, "patch_sq_dists", dists)
        monkeypatch.setattr(CAMap, "__post_init__", checked)
        bank = toy_bank(rng, side=16)
        run_cascade(one_stage_plan(side=16), IDENTITY, bank, 1, seed=2)
        assert calls == {"patch_sq_dists": 0, "CAMap": 0}
        run_cascade(toy_plan(), IDENTITY, bank, 1, seed=2)  # the dense route counts
        assert calls["patch_sq_dists"] > 0 and calls["CAMap"] > 0

    @pytest.mark.parametrize("side,n_items,steps,in_span", [
        (16, 4 * SPAN_ITEMS_PER_STEP, 4, True),  # K at its cap of items per step
        (16, 4 * SPAN_ITEMS_PER_STEP + 1, 4, False),  # one item more
        (4, 32, 4, True),  # K = D: the Gram is the bank's size
        (4, 33, 4, False),  # the Gram would outgrow the bank
    ], ids=["steps-cap", "past-steps-cap", "gram-as-bank", "gram-past-bank"])
    def test_route_is_cut_where_the_gram_stops_paying(self, rng, monkeypatch, side, n_items,
                                                       steps, in_span):
        # items of D = 2 * side**2 numbers; past either cut the one stage runs
        # dense, byte for byte the dense loop: each step makes its distance
        # pass and plain fields. No step on either route reads the class
        # evidence or map, which only fusion and averaging read, no route
        # returns a map, and the coordinate route builds its latent once
        bank = toy_bank(rng, side=side, n_items=n_items)
        assert runs_in_bank_span(bank, steps) is in_span
        calls = {"patch_sq_dists": 0, "CAMap": 0, "average_ca_maps": 0, "latent": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(_kernels, "patch_sq_dists",
                            counted("patch_sq_dists", _kernels.patch_sq_dists))
        monkeypatch.setattr(CAMap, "__post_init__", counted("CAMap", CAMap.__post_init__))
        monkeypatch.setattr("frecas.cascade.average_ca_maps",
                            counted("average_ca_maps", average_ca_maps))
        monkeypatch.setattr(BankSpan, "latent", counted("latent", BankSpan.latent))
        plan = one_stage_plan(side=side, steps=steps)
        z = LatentGrid(rng.standard_normal((2, side, side)))
        out, avg = run_stage(plan.stages[0], z, bank, 1, plan)
        assert avg is None
        assert calls == {"patch_sq_dists": 0 if in_span else steps, "CAMap": 0,
                         "average_ca_maps": 0, "latent": 1 if in_span else 0}
        ref, _ = reference_stage(plan.stages[0], z, bank, 1, plan)
        if in_span:
            err = np.linalg.norm(out.data - ref.data) / np.linalg.norm(ref.data)
            assert err <= 1e-10
        else:
            assert out.data.tobytes() == ref.data.tobytes()
            assert "gram" not in vars(bank)

    @pytest.mark.parametrize("side,n_items", [(16, 4 * SPAN_ITEMS_PER_STEP + 1), (4, 33)],
                             ids=["past-steps-cap", "gram-past-bank"])
    def test_dense_one_stage_run_builds_no_map_and_no_average(self, rng, monkeypatch, side,
                                                             n_items):
        # past either cut the one stage runs dense: each step makes its
        # distance pass and plain fields, and no step reads the class
        # evidence or map, which only fusion and averaging read
        calls = {"patch_sq_dists": 0, "CAMap": 0, "average_ca_maps": 0}

        def dists(*args, _fn=_kernels.patch_sq_dists):
            calls["patch_sq_dists"] += 1
            return _fn(*args)

        def checked(m, _fn=CAMap.__post_init__):
            calls["CAMap"] += 1
            return _fn(m)

        def averaged(maps, _fn=average_ca_maps):
            calls["average_ca_maps"] += 1
            return _fn(maps)

        monkeypatch.setattr(_kernels, "patch_sq_dists", dists)
        monkeypatch.setattr(CAMap, "__post_init__", checked)
        monkeypatch.setattr("frecas.cascade.average_ca_maps", averaged)
        bank = toy_bank(rng, side=side, n_items=n_items)
        plan = one_stage_plan(side=side, steps=4)
        assert not runs_in_bank_span(bank, 4)
        z = LatentGrid(rng.standard_normal((2, side, side)))
        out, avg = run_stage(plan.stages[0], z, bank, 1, plan)
        assert avg is None
        assert calls == {"patch_sq_dists": 4, "CAMap": 0, "average_ca_maps": 0}
        ref, _ = reference_stage(plan.stages[0], z, bank, 1, plan)
        assert out.data.tobytes() == ref.data.tobytes()

    def test_gram_is_built_once_across_runs_on_one_bank(self, rng, monkeypatch):
        calls = []

        def gram(blocks, _fn=_kernels.gram):
            calls.append(blocks.shape)
            return _fn(blocks)

        monkeypatch.setattr(_kernels, "gram", gram)
        bank = toy_bank(rng, side=8)
        for seed in (1, 2):
            run_cascade(one_stage_plan(), IDENTITY, bank, 1, seed=seed)
        assert calls == [bank.blocks.shape]

    def test_built_latent_is_checked(self, rng):
        # one step: the coordinates stay finite, the latent built from them
        # overflows (see test_non_finite_latent_names_the_step)
        plan = one_stage_plan(steps=1, w_l=1e308)
        bank = toy_bank(rng, side=8, scale=100.0)
        z = LatentGrid(rng.standard_normal((2, 8, 8)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite latent after the step at t = 1000$"):
                run_stage(plan.stages[0], z, bank, 1, plan)

    def test_stage_returns_no_map_and_takes_none(self, rng):
        bank = toy_bank(rng, side=8)
        plan = one_stage_plan()
        z = LatentGrid(rng.standard_normal((2, 8, 8)))
        out, avg = run_stage(plan.stages[0], z, bank, 1, plan)
        assert avg is None and out.shape == z.shape
        with pytest.raises(ValueError, match="no earlier maps"):
            run_stage(plan.stages[0], z, bank, 1, plan, reused_maps=uniform_map(4, (0, 1, 2)))

    def test_unknown_condition_is_the_dense_routes_error(self, rng):
        bank = toy_bank(rng, side=16)
        for plan in (toy_plan(), one_stage_plan(side=16)):
            with pytest.raises(ValueError, match="^unknown class id 7$"):
                run_cascade(plan, IDENTITY, bank, 7, seed=1)


class TestRunCascade:
    def test_deterministic_end_to_end(self, rng):
        bank = toy_bank(rng)
        plan = toy_plan()
        a, ra = run_cascade(plan, IDENTITY, bank, 1, seed=7)
        b, rb = run_cascade(plan, IDENTITY, bank, 1, seed=7)
        assert np.array_equal(a.data, b.data)
        assert ra == rb

    def test_seed_changes_output(self, rng):
        bank = toy_bank(rng)
        plan = toy_plan()
        a, _ = run_cascade(plan, IDENTITY, bank, 1, seed=7)
        b, _ = run_cascade(plan, IDENTITY, bank, 1, seed=8)
        assert not np.array_equal(a.data, b.data)

    def test_one_stage_plan_equals_standalone_cfg_ddim(self, rng):
        bank = toy_bank(rng, side=8)
        w = 7.5
        plan = StagePlan(
            stages=(StageSpec(Resolution(8), 6, 0.0),),
            gamma=2.0,
            schedule=SCHED,
            w_l=w, w_h=99.0, w_c=0.0,
        )
        image, report = run_cascade(plan, IDENTITY, bank, 2, seed=11)
        z = seeded_gaussian((2, 8, 8), subseed(11, 0))
        grid = np.linspace(1000.0, 0.0, 7)
        for t, t_next in zip(grid[:-1], grid[1:]):
            eps_unc = predict(bank, z, t, None, SCHED)
            eps_c = predict(bank, z, t, 2, SCHED)
            z = ddim_grid(z, cfg_combine(eps_unc.data, eps_c.data, w), t, t_next)
        assert np.abs(image.data - z.data).max() <= 1e-6
        assert report.cost_units == 6.0

    def test_single_stage_image_ignores_w_c(self, rng):
        # a single stage has no maps to reuse, so the direct plan's w_c is moot
        bank = toy_bank(rng, side=8)
        images = [run_cascade(ladder([8], [4], [], w_l=7.5, w_h=35.0, w_c=w_c, gamma=2.0,
                                     sched=SCHED), IDENTITY, bank, 1, seed=5)[0]
                  for w_c in (0.0, 0.6, 1.0)]
        for image in images[1:]:
            assert image.data.tobytes() == images[0].data.tobytes()

    def test_equal_band_weights_degenerate_to_plain_cfg_cascade(self, rng):
        # manual two-stage cascade with plain guidance at both stages must
        # bit-match the frequency-aware path when w_l == w_h
        bank = toy_bank(rng, side=16)
        w = 5.0
        plan = toy_plan(w=(w, w), w_c=0.4)
        image, _ = run_cascade(plan, IDENTITY, bank, 1, seed=3)

        from frecas.cascade import fuse_ca_maps as fuse

        banks = [bank_resample(bank, Resolution(8)), bank]
        z = seeded_gaussian((2, 8, 8), subseed(3, 0))
        grid = np.linspace(1000.0, 200.0, 5)
        maps = []
        for t, t_next in zip(grid[:-1], grid[1:]):
            eps_unc = predict(banks[0], z, t, None, SCHED)
            eps_c = predict(banks[0], z, t, 1, SCHED)
            maps.append(blocked_posterior(banks[0], banks[0].block(z.data), t, SCHED).ca)
            z = ddim_grid(z, cfg_combine(eps_unc.data, eps_c.data, w), t, t_next)
        avg = average_ca_maps(maps)
        z, F = transition(z, plan.stages[0], plan.stages[1], plan, IDENTITY,
                          banks[0], 1, subseed(3, 1, 0))
        grid = np.linspace(F, 0.0, 4)
        for t, t_next in zip(grid[:-1], grid[1:]):
            post = blocked_posterior(banks[1], banks[1].block(z.data), t, SCHED)
            fields = post.fields(1, fuse(post.ca, avg, 0.4))
            eps_unc, eps_c = (banks[1].unblock(f) for f in fields)
            z = ddim_grid(z, cfg_combine(eps_unc, eps_c, w), t, t_next)
        np.testing.assert_allclose(image.data, z.data, atol=1e-9)

    def test_clean_run_passes_row_and_snr_checks(self, rng):
        # the row-stochastic and SNR checks run on every call
        bank = toy_bank(rng)
        plan = toy_plan()
        run_cascade(plan, IDENTITY, bank, 0, seed=2)

    @pytest.mark.parametrize("plan", [toy_plan(), three_stage_plan()], ids=["two", "three"])
    def test_only_a_stage_with_a_successor_averages_its_maps(self, rng, monkeypatch, plan):
        calls = []

        def averaged(maps, _fn=average_ca_maps):
            calls.append(len(maps))
            return _fn(maps)

        monkeypatch.setattr("frecas.cascade.average_ca_maps", averaged)
        run_cascade(plan, IDENTITY, toy_bank(rng, side=32), 1, seed=2)
        assert calls == [spec.steps for spec in plan.stages[:-1]]

    @pytest.mark.parametrize("side1,regrids", [(16, 0), (12, 1)], ids=["same-grid", "regrid"])
    def test_maps_are_built_in_the_stage_loop_only(self, rng, monkeypatch, side1, regrids):
        # stage 0 (side 8, an 8 x 8 patch grid) builds its 4 step maps and
        # their average; stage 1 regrids that average to its own grid (side
        # 16 has patch size 2, so 8 x 8 again; side 12 is 12 x 12) and builds
        # its 3 own and 3 fused maps. Each step forms one class evidence; the
        # transition forms none
        counts = count_map_work(monkeypatch)
        spent = {"run_stage": [], "transition": []}
        for name, calls in spent.items():
            def counted(*args, _fn=getattr(cascade_module, name), _calls=calls, **kwargs):
                before = dict(counts)
                out = _fn(*args, **kwargs)
                _calls.append({k: counts[k] - before[k] for k in counts})
                return out
            monkeypatch.setattr(cascade_module, name, counted)
        run_cascade(toy_plan(side1=side1), IDENTITY, toy_bank(rng, side=side1), 1, seed=2)
        assert spent == {"run_stage": [{"CAMap": 5, "evidence": 4},
                                       {"CAMap": 6 + regrids, "evidence": 3}],
                         "transition": [{"CAMap": 0, "evidence": 0}]}

    def test_fused_map_off_the_simplex_fails_the_run(self, rng, monkeypatch):
        fuse = fuse_ca_maps

        def skewed(own, reused, w_c):
            m = fuse(own, reused, w_c)
            return CAMap(m.values * (1.0 + 1e-9), m.classes)

        monkeypatch.setattr("frecas.cascade.fuse_ca_maps", skewed)
        with pytest.raises(ValueError, match="attention rows deviate"):
            run_cascade(toy_plan(), IDENTITY, toy_bank(rng), 0, seed=2)

    def test_missed_entry_snr_fails_the_run(self, rng, monkeypatch):
        shift = shift_timestep_vp
        monkeypatch.setattr("frecas.cascade.shift_timestep_vp",
                            lambda *args: shift(*args) + 1.0)
        with pytest.raises(AssertionError, match="SNR mismatch"):
            run_cascade(toy_plan(), IDENTITY, toy_bank(rng), 0, seed=2)

    def test_report_cost_additivity(self, rng):
        bank = toy_bank(rng)
        plan = toy_plan()
        _, report = run_cascade(plan, IDENTITY, bank, 1, seed=7)
        assert report.cost_units == sum(stage_costs(plan))
        assert report.cost_units == compute_cost(plan)

    def test_stage_timesteps_strictly_decreasing(self, rng):
        bank = toy_bank(rng)
        plan = toy_plan()
        run_cascade(plan, IDENTITY, bank, 1, seed=7)
        for first, spec in zip(plan.first_timesteps, plan.stages):
            assert first > spec.last_timestep

    @pytest.mark.parametrize("sched,L", [(SCHED, 200.0), (flow_schedule(), 0.05)],
                             ids=["vp", "flow"])
    def test_first_stage_enters_at_t_max(self, rng, sched, L):
        plan = toy_plan(L=L, sched=sched)
        run_cascade(plan, IDENTITY, toy_bank(rng), 1, seed=7)
        assert plan.first_timesteps[0] == sched.t_max

    def test_report_entry_timesteps_satisfy_snr_matching(self, rng):
        bank = toy_bank(rng)
        plan = toy_plan()
        run_cascade(plan, IDENTITY, bank, 1, seed=7)
        for prev, nxt, first in zip(plan.stages, plan.stages[1:], plan.first_timesteps[1:]):
            ratio = prev.resolution.side / nxt.resolution.side
            target = snr(SCHED, prev.last_timestep) * ratio**plan.gamma
            assert abs(snr(SCHED, first) - target) <= 1e-6 * target

    def test_flow_cascade_runs(self, rng):
        fs = flow_schedule()
        bank = toy_bank(rng, side=16)
        plan = toy_plan(L=0.05, sched=fs)
        image, report = run_cascade(plan, IDENTITY, bank, 0, seed=1)
        assert image.shape == (2, 16, 16)

    def test_three_stage_cascade_with_map_regridding(self, rng):
        # sides 10 -> 20 -> 40 move the attention grid from 10x10 to 8x8,
        # exercising the resample-renormalize path between stages
        plan = StagePlan(
            stages=(StageSpec(Resolution(10), 3, 300.0),
                    StageSpec(Resolution(20), 2, 150.0),
                    StageSpec(Resolution(40), 2, 0.0)),
            gamma=2.0,
            schedule=SCHED,
            w_l=7.5, w_h=35.0, w_c=0.5,
        )
        bank = toy_bank(rng, side=40, n_items=6, n_classes=2)
        image, report = run_cascade(plan, IDENTITY, bank, 1, seed=9)
        assert image.shape == (2, 40, 40)
        assert len(plan.first_timesteps) == 3
        for prev, nxt, first in zip(plan.stages, plan.stages[1:], plan.first_timesteps[1:]):
            ratio = prev.resolution.side / nxt.resolution.side
            target = snr(SCHED, prev.last_timestep) * ratio**plan.gamma
            assert abs(snr(SCHED, first) - target) <= 1e-6 * target


def desk_run_inputs(cfg: RunConfig):
    """The schedule, plan and codec of a run of ``cfg``."""
    sched = build_schedule(cfg)
    return sched, build_plan(cfg, sched), build_codec(cfg)


class TestStageBanks:
    def test_each_stage_side_is_resampled_once_per_bank(self, monkeypatch):
        cfg = RunConfig(base_side=8, bank_items=8)
        sched, plan, codec = desk_run_inputs(cfg)
        assert not build_bank(cfg, build_direct_plan(cfg, plan, sched), codec).stage_banks
        bank = build_bank(cfg, plan, codec)
        assert sorted(bank.stage_banks) == [s.resolution.side for s in plan.stages[:-1]]
        for side, kept in bank.stage_banks.items():
            assert bank_resample(bank, Resolution(side)) is kept
            assert not kept.stage_banks
        with pytest.raises(TypeError):
            bank.stage_banks[12] = bank
        shapes = []

        def norms(blocks, _fn=_kernels.patch_sq_norms):
            shapes.append(blocks.shape)
            return _fn(blocks)

        monkeypatch.setattr(_kernels, "patch_sq_norms", norms)
        added = []
        for seed in (1, 2, 3):
            before = len(shapes)
            run_cascade(plan, codec, bank, 0, seed)
            added.append(shapes[before:])
        # one latent's norms per denoiser evaluation, a stage step or a
        # transition's denoise; run 1 also builds the target bank's norms
        evaluations = sum(s.steps for s in plan.stages) + len(plan.stages) - 1
        assert [len(a) for a in added] == [evaluations + 1, evaluations, evaluations]
        assert [shape for shape in added[0] if len(shape) == 3] == [bank.blocks.shape]
        assert all(len(shape) == 2 for shape in added[1] + added[2])

    @pytest.mark.parametrize("cfg", [
        RunConfig(base_side=8, bank_items=8),
        RunConfig(stages="8:2:300,12:2:150,16:2:0", schedule="flow", bank_items=8),
        RunConfig(preset="sd3-x4", codec="haar1", base_side=8, bank_items=8),
    ], ids=["sdxl-x4", "flow-ladder", "sd3-x4-haar1"])
    def test_kept_stage_banks_give_the_bytes_of_resampled_ones(self, cfg):
        # a bank built for the direct plan keeps no stage bank, so its run
        # resamples each earlier side for that stage alone
        sched, plan, codec = desk_run_inputs(cfg)
        kept = build_bank(cfg, plan, codec)
        bare = build_bank(cfg, build_direct_plan(cfg, plan, sched), codec)
        a, _ = run_cascade(plan, codec, kept, 0, seed=5)
        b, _ = run_cascade(plan, codec, bare, 0, seed=5)
        assert a.data.tobytes() == b.data.tobytes()


class TestPlansAndCost:
    def test_plan_validation(self):
        kw = dict(gamma=2.0, schedule=SCHED, w_l=7.5, w_h=35.0, w_c=0.0)
        with pytest.raises(ValueError):  # non-increasing resolutions
            StagePlan(stages=(StageSpec(Resolution(16), 4, 200.0),
                              StageSpec(Resolution(8), 4, 0.0)), **kw)
        with pytest.raises(ValueError):  # final stage must reach 0
            StagePlan(stages=(StageSpec(Resolution(8), 4, 100.0),), **kw)
        with pytest.raises(ValueError):  # earlier stages need L > 0
            StagePlan(stages=(StageSpec(Resolution(8), 4, 0.0),
                              StageSpec(Resolution(16), 4, 0.0)), **kw)

    def test_flow_stage_cannot_stop_at_t_max(self):
        # the one check that stops a flow stage at L = 1, where no later
        # stage could enter above it
        with pytest.raises(ValueError, match="below the schedule's t_max = 1, got L = 1$"):
            ladder([8, 16], [2, 2], [1.0], w_l=7.5, w_h=35.0, w_c=0.6, gamma=2.0,
                   sched=flow_schedule())

    def test_compute_cost_examples(self):
        sched = SCHED
        single = StagePlan(
            stages=(StageSpec(Resolution(32), 50, 0.0),),
            gamma=2.0, schedule=sched, w_l=7.5, w_h=35.0, w_c=0.0,
        )
        assert compute_cost(single) == 50.0

        sdxl4 = build_plan(RunConfig(preset="sdxl-x4", base_side=32), sched)
        assert compute_cost(sdxl4) == 80.0
        assert compute_cost(build_direct_plan(RunConfig(), sdxl4, sched)) == 200.0

        sdxl16 = build_plan(RunConfig(preset="sdxl-x16", base_side=32), sched)
        assert compute_cost(sdxl16) == 290.0
        assert compute_cost(build_direct_plan(RunConfig(), sdxl16, sched)) == 800.0

    def test_preset_consistency(self):
        for name, preset in PRESETS.items():
            assert len(preset.steps) == len(preset.scale_per_stage)
            assert len(preset.last_timesteps) == len(preset.steps) - 1

    def test_flow_preset_normalizes_L(self):
        fs = flow_schedule()
        plan = build_plan(RunConfig(preset="sd3-x4", base_side=16), fs)
        assert plan.stages[0].last_timestep == pytest.approx(0.05)

    @given(st.floats(0.0, 5000.0), st.integers(1, 3000))
    def test_preset_timestep_is_the_one_L_rule(self, L, T):
        # VP takes every L as is; flow reads an L above 1 as a
        # training-timestep index and an L of at most 1 as a time in [0, 1]
        assert preset_timestep(L, vp_default(T)) == L
        assert preset_timestep(L, flow_schedule(T)) == (L / T if L > 1 else L)

    def test_ladder_cuts_guidance_at_previous_side(self):
        plan = ladder([8, 12, 16], [4, 3, 2], [300, 100.5], w_l=7.5, w_h=35.0,
                      w_c=0.6, gamma=2.0, sched=SCHED)
        assert [s.resolution.side for s in plan.stages] == [8, 12, 16]
        assert [s.steps for s in plan.stages] == [4, 3, 2]
        assert [s.last_timestep for s in plan.stages] == [300.0, 100.5, 0.0]
        assert [plan.guidance(s).base.side for s in plan.stages] == [8, 8, 12]
        assert plan.train_side == 8

    def test_guidance_of_a_stage_from_another_plan_raises(self):
        plan, other = toy_plan(), toy_plan(side1=12)
        assert plan.guidance(plan.stages[1]) == GuidanceWeights(7.5, 35.0, Resolution(8))
        with pytest.raises(ValueError):
            plan.guidance(other.stages[1])

    @pytest.mark.parametrize("w", [dict(w_c=1.5), dict(w_c=-0.1), dict(w=(-1.0, 35.0)),
                                   dict(w=(7.5, float("nan")))])
    def test_plan_checks_its_weights(self, w):
        with pytest.raises(ValueError, match="fusion weight|guidance weights"):
            toy_plan(**w)

    def test_ladder_equals_hand_built_plan(self):
        plan = ladder([8, 16], [4, 3], [200], w_l=7.5, w_h=35.0, w_c=0.6,
                      gamma=2.0, sched=vp_default())
        assert plan == toy_plan()

    def test_ladder_length_mismatch(self):
        kw = dict(w_l=7.5, w_h=35.0, w_c=0.6, gamma=2.0, sched=SCHED)
        with pytest.raises(ValueError, match="ladder"):
            ladder([8, 16], [4, 2], [], **kw)
        with pytest.raises(ValueError, match="ladder"):
            ladder([8, 16], [4], [100], **kw)

    @pytest.mark.parametrize("L", [float("nan"), float("inf"), -1.0])
    def test_stage_rejects_non_finite_or_negative_last_timestep(self, L):
        with pytest.raises(ValueError, match="last timestep must be finite"):
            StageSpec(Resolution(8), 4, L)

    @pytest.mark.parametrize("side0,L,gamma", [(8, 200.0, 20.0), (4, 900.0, 2.0)])
    def test_plan_rejects_unreachable_vp_entry(self, side0, L, gamma):
        # the SNR-matched entry alpha falls below the schedule's last alpha
        with pytest.raises(ValueError, match="outside the schedule range"):
            shift_timestep_vp(L, side0 / 16, gamma, SCHED)
        with pytest.raises(ValueError, match="no entry timestep for side 16 from L"):
            toy_plan(side0=side0, L=L, gamma=gamma)

    @pytest.mark.parametrize("sched,lasts,gamma", [
        (SCHED, [100, 500], 2.0),
        (flow_schedule(), [100, 500], 2.0),
        (SCHED, [300, 300], 0.0),  # gamma = 0 shifts nothing, so F = L
    ], ids=["vp", "flow", "vp-gamma-0"])
    def test_plan_rejects_a_stage_entering_at_or_below_its_L(self, sched, lasts, gamma):
        # stage 1 enters at the shift of L = 100 (VP 147.4, flow 0.12) or
        # at 300 itself, none of them above its own L
        lasts = [preset_timestep(L, sched) for L in lasts]
        with pytest.raises(ValueError, match=r"stage 1 \(side 12\) enters at F = .*"
                                             r"not above its L"):
            ladder([8, 12, 16], [2, 2, 2], lasts, w_l=7.5, w_h=35.0, w_c=0.6,
                   gamma=gamma, sched=sched)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_transition_enters_at_the_plans_first_timestep(self, rng, name):
        # the preset's ladder and its ablate --param N ladders with 1 to 3
        # additional stages: the run's F is the one the plan derived
        cfg = RunConfig(preset=name, base_side=8)
        sched = build_schedule(cfg)
        plans = [build_plan(cfg, sched), *(ablation_plan(cfg, "N", n, sched) for n in (1, 2, 3))]
        for plan in plans:
            for i, (a, b) in enumerate(zip(plan.stages, plan.stages[1:])):
                side = a.resolution.side
                bank = toy_bank(rng, side=side, n_items=4, n_classes=2)
                z = LatentGrid(rng.standard_normal((2, side, side)))
                _, F = transition(z, a, b, plan, IDENTITY, bank, 1, 5)
                assert F == plan.first_timesteps[i + 1]

    def test_entry_near_t0_passes_the_snr_check(self):
        # 1 - alpha(1e-8) is ~1e-12, so SNR(F) carries ~1e-4 relative
        # rounding; a fixed 1e-6 tolerance raised "SNR mismatch" here
        cfg = RunConfig(base_side=8, bank_items=8)
        for L in (1e-8, 1e-10):
            plan = ablation_plan(cfg, "L", L, build_schedule(cfg))
            assert plan.first_timesteps[1] > plan.stages[1].last_timestep

    @settings(max_examples=200, deadline=None)
    @given(log_L=st.floats(-10.0, math.log10(999.0)),
           sides=st.sampled_from([(8, 16), (8, 12), (4, 16), (16, 17), (2, 64)]),
           gamma=st.floats(0.0, 8.0))
    def test_entry_snr_check_holds_down_to_small_L(self, log_L, sides, gamma):
        # L from 1e-10 up: a plan builds or names the transition it cannot
        # enter; it never fails the SNR check on correct arithmetic
        L = 10.0**log_L
        try:
            ladder(sides, [2, 2], [L], w_l=7.5, w_h=35.0, w_c=0.6, gamma=gamma, sched=SCHED)
        except ValueError as e:
            assert "no entry timestep" in str(e) or "not above its L" in str(e)

    @pytest.mark.parametrize("sched,L,reason", [
        # stage 1 enters near 3e-12 and steps down in tenths; its last step's
        # 1 - alpha rounds to 0
        (SCHED, 1e-12, r"stage 1 \(side 16\) runs the denoiser at zero noise level, "
                       r"t = 3\.33067e-13$"),
        # the transition denoises at L, where var = L**2 is subnormal
        (flow_schedule(), 1e-160, r"stage 0 \(side 8\) runs the denoiser at zero noise "
                                  r"level, t = 1e-160$"),
    ], ids=["vp-last-step", "flow-transition"])
    def test_plan_rejects_denoiser_times_at_zero_noise(self, sched, L, reason):
        with pytest.raises(ValueError, match=reason):
            ladder([8, 16], [40, 10], [L], w_l=7.5, w_h=35.0, w_c=0.6, gamma=1.5,
                   sched=sched)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["sdxl-x4", "sd3-x4"]), log_L=st.floats(-14.0, -6.0))
    def test_every_plan_accepted_down_to_small_L_runs(self, name, log_L):
        # an L sweep down to 1e-14: the plan is a config error when it is
        # built, or the run completes; it never stops mid-run at zero noise
        cfg = RunConfig(preset=name, base_side=8, bank_items=8)
        try:
            plan = ablation_plan(cfg, "L", 10.0**log_L, build_schedule(cfg))
        except ConfigError as e:
            assert "no entry timestep" in str(e) or "zero noise level" in str(e)
            return
        codec = build_codec(cfg)
        image, _ = run_cascade(plan, codec, build_bank(cfg, plan, codec), 1, seed=3)
        assert np.all(np.isfinite(image.data))

    def test_perturbed_entry_still_fails_the_snr_check(self, monkeypatch):
        shift = shift_timestep_vp
        monkeypatch.setattr("frecas.cascade.shift_timestep_vp",
                            lambda *args: shift(*args) * (1.0 + 1e-4))
        with pytest.raises(AssertionError, match="SNR mismatch"):
            toy_plan(L=200.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -0.5])
    def test_plan_rejects_non_finite_or_negative_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            toy_plan(gamma=gamma)


@pytest.mark.parametrize("call,message", [
    (lambda: run_stage(toy_plan().stages[-1], LatentGrid(np.zeros((2, 8, 8))),
                       toy_bank(np.random.default_rng(0)), None, toy_plan()),
     r"^latent shape \(2, 8, 8\) does not match bank \(2, 16, 16\)$"),
    (lambda: StageSpec(Resolution(8), 0, 0.0), "^each stage needs at least one step$"),
    (lambda: StagePlan((), gamma=2.0, schedule=SCHED, w_l=7.5, w_h=35.0, w_c=0.6),
     "^plan needs at least one stage$"),
], ids=["run-stage-shape", "stage-without-steps", "plan-without-stages"])
def test_input_guards_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
