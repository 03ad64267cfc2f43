"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values tagged as derived were computed with the independent
oracles embedded here (literal-loop posterior means, cumulative products,
hand-evaluated closed forms) before being frozen into assertions.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from frecas.bank import CAMap, LatentBank, make_bank, predict
from frecas.cascade import (
    PRESETS,
    StagePlan,
    StageSpec,
    average_ca_maps,
    compute_cost,
    fuse_ca_maps,
    resample_ca_map,
    run_cascade,
    transition,
)
from frecas.cli import main
from frecas.codec import HAAR1, IDENTITY, decode, encode
from frecas.config import RunConfig, build_direct_plan, build_plan
from frecas.freq import band_split, psd_decomposition
from frecas.grid import LatentGrid, Resolution, seeded_gaussian, subseed
from frecas.sampler import (
    GuidanceWeights,
    cfg_combine,
    ddim_step,
    facfg_combine,
    predict_z0,
)
from frecas.schedule import (
    alpha_at,
    alpha_inverse,
    diffuse,
    forward_model,
    shift_timestep_flow,
    shift_timestep_vp,
    snr,
    vp_default,
)

from conftest import as_is, brute_force_eps

SCHED = vp_default()


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


def test_criterion_1_facfg_degeneracy():
    with criterion(1, "frequency-aware guidance degenerates to plain guidance"):
        rng = np.random.default_rng(101)
        gw_base = Resolution(32)
        start = time.perf_counter()
        for _ in range(100):
            w = float(rng.uniform(0.0, 15.0))
            unc = rng.standard_normal((1, 64, 64))
            con = rng.standard_normal((1, 64, 64))
            fa = facfg_combine(unc, con, GuidanceWeights(w, w, gw_base), 64, as_is, as_is)
            plain = cfg_combine(unc, con, w)
            bound = 1e-5 * (1.0 + max(np.abs(unc).max(), np.abs(con).max()))
            assert np.abs(fa - plain).max() <= bound
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_exact_band_partition():
    with criterion(2, "band split reconstructs the input exactly"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for _ in range(1000):
            x = rng.standard_normal((1, 32, 32))
            low, high = band_split(x, 16)
            err = np.abs(low + high - x).max()
            assert err <= 1e-6 * (1.0 + np.abs(x).max())
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_snr_matched_shifting():
    with criterion(3, "SNR-matched timestep shifts (closed forms)"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            L = float(rng.uniform(10.0, 600.0))
            ratio = float(rng.uniform(0.25, 1.0))
            gamma = float(rng.uniform(0.0, 3.0))
            F = shift_timestep_vp(L, ratio, gamma, SCHED)
            target = snr(SCHED, L) * ratio**gamma
            assert abs(snr(SCHED, F) - target) <= 1e-6 * target
        # worked case: alpha_L = 0.8, ratio 1/2, gamma 2 -> alpha_F = 0.5
        L = alpha_inverse(SCHED, 0.8)
        F = shift_timestep_vp(L, 0.5, 2.0, SCHED)
        assert abs(alpha_at(SCHED, F) - 0.5) <= 1e-8
        # flow shift: L = 0.5, scale 4 -> 2/3; fixed points at 0 and 1
        assert abs(shift_timestep_flow(0.5, 4.0) - 2.0 / 3.0) <= 1e-12
        assert shift_timestep_flow(0.0, 4.0) == 0.0
        assert abs(shift_timestep_flow(1.0, 4.0) - 1.0) <= 1e-12


def test_criterion_4_haar_perfect_reconstruction():
    with criterion(4, "Haar codec reconstructs exactly both ways"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            img = LatentGrid(rng.standard_normal((3, 16, 16)))
            back = decode(HAAR1, encode(HAAR1, img))
            np.testing.assert_allclose(back.data, img.data, rtol=1e-9, atol=1e-12)
            z = LatentGrid(rng.standard_normal((4, 8, 8)))
            back_z = encode(HAAR1, decode(HAAR1, z))
            np.testing.assert_allclose(back_z.data, z.data, rtol=1e-9, atol=1e-12)
            coeffs = encode(HAAR1, img)
            assert float((coeffs.data**2).sum()) == pytest.approx(
                float((img.data**2).sum()), rel=1e-9
            )


def test_criterion_5_bank_denoiser_oracle_equivalence():
    with criterion(5, "posterior-mean denoiser matches the literal oracle"):
        rng = np.random.default_rng(505)
        start = time.perf_counter()
        for n_items in (1, 4, 16):
            stack = rng.standard_normal((n_items, 2, 8, 8))
            ids = np.arange(n_items) % 3
            w = rng.uniform(0.5, 2.0, n_items)
            bank = LatentBank(stack, ids, w / w.sum())
            for t in (1.0, 100.0, 500.0, 999.0):
                z = LatentGrid(rng.standard_normal((2, 8, 8)))
                conditions = [None] + ([0, 1] if n_items >= 4 else [])
                for condition in conditions:
                    eps = predict(bank, z, t, condition, SCHED)
                    oracle = brute_force_eps(bank, z, t, condition, SCHED)
                    np.testing.assert_allclose(eps.data, oracle, rtol=1e-9, atol=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_6_coarse_to_fine_psd():
    with criterion(6, "clean-signal energy emerges low-frequency first"):
        start = time.perf_counter()
        bank = make_bank("value_noise", 64, channels=3, n_items=100, n_classes=4, seed=0)
        noises = [
            seeded_gaussian((3, 64, 64), subseed(0, 2, k)) for k in range(bank.size)
        ]
        frac_low, frac_high = {}, {}
        timesteps = (900, 600, 300, 0)
        sums = sum(psd_decomposition(bank.item(k), noises[k], timesteps, SCHED)
                   for k in range(bank.size))
        for t, (_, _, acc) in zip(timesteps, sums):
            cut = len(acc) // 4  # lowest 25% of the radial bins
            total = acc.sum()
            frac_low[t] = acc[:cut].sum() / total
            frac_high[t] = 1.0 - frac_low[t]
        assert frac_low[900] > frac_low[0]
        assert frac_low[900] > frac_low[300]
        order = [900, 600, 300, 0]
        for earlier, later in zip(order, order[1:]):
            assert frac_high[later] >= frac_high[earlier] - 0.02
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_7_compute_proxy_speedups():
    with criterion(7, "preset cost units and proxy speedups (exact arithmetic)"):
        x4 = build_plan(RunConfig(preset="sdxl-x4", base_side=32), SCHED)
        x4_direct = build_direct_plan(RunConfig(), x4, SCHED)
        assert compute_cost(x4) == 80.0
        assert compute_cost(x4_direct) == 200.0
        assert compute_cost(x4_direct) / compute_cost(x4) == 2.5

        x16 = build_plan(RunConfig(preset="sdxl-x16", base_side=32), SCHED)
        x16_direct = build_direct_plan(RunConfig(), x16, SCHED)
        assert compute_cost(x16) == 290.0
        assert compute_cost(x16_direct) == 800.0
        assert compute_cost(x16_direct) / compute_cost(x16) == 800.0 / 290.0


def test_criterion_8_framework_degeneracy():
    with criterion(8, "one-stage cascade equals a standalone guided sampler"):
        rng = np.random.default_rng(808)
        stack = rng.standard_normal((10, 2, 16, 16))
        bank = LatentBank(stack, np.arange(10) % 4, np.full(10, 0.1))
        w = 7.5
        plan = StagePlan(
            stages=(StageSpec(Resolution(16), 8, 0.0),),
            gamma=2.0,
            schedule=SCHED,
            w_l=w, w_h=35.0, w_c=0.0,
        )
        image, _ = run_cascade(plan, IDENTITY, bank, 1, seed=77)

        z = seeded_gaussian((2, 16, 16), subseed(77, 0))
        grid = np.linspace(1000.0, 0.0, 9)
        for t, t_next in zip(grid[:-1], grid[1:]):
            eps_unc = predict(bank, z, t, None, SCHED)
            eps_c = predict(bank, z, t, 1, SCHED)
            eps_hat = cfg_combine(eps_unc.data, eps_c.data, w)
            z = LatentGrid(ddim_step(z.data, eps_hat, forward_model(SCHED, t),
                                     forward_model(SCHED, t_next)))
        assert np.abs(image.data - z.data).max() <= 1e-6


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "byte-identical reruns of sample and psd commands"):
        for label in ("a", "b"):
            assert main(["sample", "--preset", "sdxl-x4", "--seed", "7",
                         "--out", str(tmp_path / f"s_{label}")]) == 0
            assert main(["psd", "--preset", "sdxl-x4", "--seed", "7",
                         "--out", str(tmp_path / f"p_{label}"),
                         "--timesteps", "900,0"]) == 0
        for name in ("image.ppm", "image.frcg", "manifest.txt"):
            assert (tmp_path / "s_a" / name).read_bytes() == \
                (tmp_path / "s_b" / name).read_bytes()
        for name in ("psd_t900.csv", "psd_t0.csv", "psd_summary.csv"):
            assert (tmp_path / "p_a" / name).read_bytes() == \
                (tmp_path / "p_b" / name).read_bytes()


def test_criterion_10_ca_map_algebra(rng):
    with criterion(10, "attention-map fusion, averaging and resampling algebra"):
        def random_map(rows, n_classes):
            raw = rng.random((rows * rows, n_classes)) + 0.05
            return CAMap(raw / raw.sum(axis=1, keepdims=True), tuple(range(n_classes)))

        for _ in range(20):
            a = random_map(8, 4)
            b = random_map(8, 4)
            np.testing.assert_array_equal(fuse_ca_maps(a, b, 0.0).values, a.values)
            np.testing.assert_array_equal(fuse_ca_maps(a, b, 1.0).values, b.values)
            fused = fuse_ca_maps(a, b, 0.6)
            assert np.abs(fused.values.sum(axis=1) - 1.0).max() <= 1e-12
            avg = average_ca_maps([a, b, fused])
            assert np.abs(avg.values.sum(axis=1) - 1.0).max() <= 1e-12
            res = resample_ca_map(a, 16)
            assert np.abs(res.values.sum(axis=1) - 1.0).max() <= 1e-12


def test_criterion_11_transition_chain_integrity(rng):
    with criterion(11, "transition chain preserves SNR and codec information"):
        # identity codec, equal resolutions: F = L and only the noise changes
        stack = rng.standard_normal((6, 2, 8, 8))
        bank = LatentBank(stack, np.arange(6) % 2, np.full(6, 1 / 6))
        plan = StagePlan(
            stages=(StageSpec(Resolution(8), 2, 200.0),
                    StageSpec(Resolution(16), 2, 0.0)),
            gamma=2.0,
            schedule=SCHED,
            w_l=7.5, w_h=35.0, w_c=0.5,
        )
        spec = plan.stages[0]
        z_L = LatentGrid(rng.standard_normal((2, 8, 8)))
        z_F, F = transition(z_L, spec, spec, plan, IDENTITY, bank, 1, 123)
        assert abs(F - spec.last_timestep) <= 1e-6
        target = snr(SCHED, spec.last_timestep)
        assert abs(snr(SCHED, F) - target) <= 1e-6 * target
        eps = predict(bank, z_L, spec.last_timestep, 1, SCHED)
        z0 = predict_z0(z_L, eps, spec.last_timestep, SCHED)
        renoise = diffuse(z0, F, seeded_gaussian(z0.shape, 123), SCHED)
        np.testing.assert_array_equal(z_F.data, renoise.data)

        # Haar codec: decode -> encode inside the chain is lossless, so a
        # chain with the interpolation step removed reduces to re-noising
        hbank = LatentBank(rng.standard_normal((6, 4, 8, 8)),
                           np.arange(6) % 2, np.full(6, 1 / 6))
        hz_L = LatentGrid(rng.standard_normal((4, 8, 8)))
        hz_F, hF = transition(hz_L, spec, spec, plan, HAAR1, hbank, 1, 321)
        heps = predict(hbank, hz_L, spec.last_timestep, 1, SCHED)
        hz0 = predict_z0(hz_L, heps, spec.last_timestep, SCHED)
        roundtrip = encode(HAAR1, decode(HAAR1, hz0))
        np.testing.assert_allclose(roundtrip.data, hz0.data, rtol=1e-12, atol=1e-12)
        manual = diffuse(roundtrip, hF, seeded_gaussian(hz0.shape, 321), SCHED)
        np.testing.assert_allclose(hz_F.data, manual.data, rtol=1e-12, atol=1e-12)

        # with interpolation the only extra change is the bilinear resize
        from frecas.grid import resample_bilinear

        hz_F2, hF2 = transition(hz_L, plan.stages[0], plan.stages[1], plan,
                                HAAR1, hbank, 1, 321)
        image = decode(HAAR1, hz0)
        up = resample_bilinear(image, Resolution(32))
        z0_up = encode(HAAR1, up)
        manual2 = diffuse(z0_up, hF2, seeded_gaussian(z0_up.shape, 321), SCHED)
        np.testing.assert_array_equal(hz_F2.data, manual2.data)
