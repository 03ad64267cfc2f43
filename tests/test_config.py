import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frecas.cascade import PRESETS
from frecas.cli import EXIT_USAGE, _build_parser, _config_from_args, main
from frecas.codec import HAAR1, IDENTITY
from frecas.config import (
    ConfigError,
    RunConfig,
    ablation_plan,
    build_bank,
    build_codec,
    build_direct_plan,
    build_plan,
    build_schedule,
    parse_config_file,
    target_side,
)
from frecas.schedule import ScheduleKind, alpha_at, shift_timestep_flow, shift_timestep_vp


class TestConfigFile:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "preset = sd21-x4\n"
            "seed = 9   # trailing comment\n"
            "\n"
            "bank.items = 12\n"
            "dump_stages = true\n"
            "w_h = 45.0\n"
        )
        values = parse_config_file(path)
        assert values == {"preset": "sd21-x4", "seed": 9, "bank_items": 12,
                          "dump_stages": True, "w_h": 45.0}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for line in ("wibble = 3\n", "parallel = true\n"):
            path.write_text(line)
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_file(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dump_stages = maybe\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "nope.cfg")

    def test_false_boolean_and_a_line_with_no_equals_sign(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("dump_stages = false\n")
        assert parse_config_file(path) == {"dump_stages": False}
        path.write_text("seed = 5\ndump_stages\n")
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"frecas: config error: {path}:2: expected 'key = value'\n"
        assert not (tmp_path / "r").exists()

    def test_merge_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\ncodec = haar1\n")
        cfg = replace(RunConfig(), **parse_config_file(path))
        assert cfg.seed == 5 and cfg.codec == "haar1"
        assert cfg.preset == "sdxl-x4"


# Every config key and flag, written out rather than derived, so a change to
# the naming rule that drops or renames one fails here: key, flag, RunConfig
# field, a valid value and its typed form.
SETTINGS = [
    ("preset", "--preset", "preset", "sd3-x4", "sd3-x4"),
    ("stages", "--stages", "stages", "8:4:100,16:2:0", "8:4:100,16:2:0"),
    ("base_side", "--base-side", "base_side", "16", 16),
    ("schedule", "--schedule", "schedule", "flow", "flow"),
    ("T", "--T", "T", "500", 500),
    ("gamma", "--gamma", "gamma", "2.5", 2.5),
    ("w_l", "--w-l", "w_l", "6.5", 6.5),
    ("w_h", "--w-h", "w_h", "30", 30.0),
    ("w_c", "--w-c", "w_c", "0.25", 0.25),
    ("condition", "--condition", "condition", "2", 2),
    ("codec", "--codec", "codec", "haar1", "haar1"),
    ("seed", "--seed", "seed", "7", 7),
    ("out", "--out", "out", "elsewhere", "elsewhere"),
    ("dump_stages", "--dump-stages", "dump_stages", "true", True),
    ("bank.path", "--bank-path", "bank_path", "some/bank", "some/bank"),
    ("bank.kind", "--bank-kind", "bank_kind", "white", "white"),
    ("bank.seed", "--bank-seed", "bank_seed", "3", 3),
    ("bank.items", "--bank-items", "bank_items", "12", 12),
    ("bank.classes", "--bank-classes", "bank_classes", "3", 3),
    ("bank.channels", "--bank-channels", "bank_channels", "1", 1),
]
BOOL_FLAGS = {"--dump-stages"}


def flag_args(flag, value):
    return [flag] if flag in BOOL_FLAGS else [flag, value]


def cfg_from_file(tmp_path, text) -> RunConfig:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return cfg_from_flags("--config", str(path))


class TestOneSchema:
    """Config-file keys, flags and value types all come from RunConfig."""

    def test_settings_cover_every_field(self):
        assert [row[2] for row in SETTINGS] == list(RunConfig.__dataclass_fields__)

    @pytest.mark.parametrize("key,flag,name,value,typed", SETTINGS)
    def test_key_and_flag_give_equal_configs(self, tmp_path, key, flag, name, value, typed):
        from_file = cfg_from_file(tmp_path, f"{key} = {value}\n")
        from_flags = cfg_from_flags(*flag_args(flag, value))
        assert getattr(from_file, name) == typed
        assert from_file == from_flags == replace(RunConfig(), **{name: typed})

    def test_all_keys_at_once(self, tmp_path):
        text = "".join(f"{key} = {value}\n" for key, _, _, value, _ in SETTINGS)
        flags = [arg for _, flag, _, value, _ in SETTINGS for arg in flag_args(flag, value)]
        expected = RunConfig(**{name: typed for _, _, name, _, typed in SETTINGS})
        assert cfg_from_file(tmp_path, text) == cfg_from_flags(*flags) == expected
        # --config is the 21st flag
        assert cfg_from_flags("--config", str(tmp_path / "run.cfg"), "--seed", "9") == \
            replace(expected, seed=9)

    @pytest.mark.parametrize("key,flag,value", [
        *((key, flag, "x") for key, flag, _, _, typed in SETTINGS
          if type(typed) in (int, float)),
        ("schedule", "--schedule", "foo"),
        ("codec", "--codec", "foo"),
        ("bank.kind", "--bank-kind", "foo"),
    ])
    def test_invalid_value_is_the_same_config_error(self, tmp_path, capsys, monkeypatch,
                                                    key, flag, value):
        monkeypatch.setattr("frecas.cli.run_cascade", pytest.fail)
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        errors = []
        for args in (["--config", str(path)], [flag, value]):
            assert main(["sample", *args, "--out", str(tmp_path / "r")]) == EXIT_USAGE
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("frecas: config error: ") and value in errors[0]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["sample", "psd"])
    @pytest.mark.parametrize("key,flag", [("seed", "--seed"), ("bank.seed", "--bank-seed")])
    def test_negative_seed_is_a_config_error_naming_its_key(self, tmp_path, capsys, monkeypatch,
                                                            command, key, flag):
        monkeypatch.setattr("frecas.cli.build_schedule", pytest.fail)
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = -1\n")
        for args in (["--config", str(path)], [flag, "-1"]):
            assert main([command, *args, "--out", str(tmp_path / "r")]) == EXIT_USAGE
            assert capsys.readouterr().err == \
                f"frecas: config error: {key} must be non-negative, got -1\n"
        assert not (tmp_path / "r").exists()
        with pytest.raises(ConfigError, match=f"^{key} must be non-negative"):
            RunConfig(**{key.replace(".", "_"): -3})


class TestBuilders:
    def test_schedule_follows_preset_kind(self):
        assert build_schedule(RunConfig(preset="sd3-x4")).kind is ScheduleKind.FLOW_MATCHING
        assert build_schedule(RunConfig(preset="sdxl-x4")).kind is ScheduleKind.VARIANCE_PRESERVING

    def test_explicit_schedule_wins(self):
        cfg = RunConfig(preset="sdxl-x4", schedule="flow")
        assert build_schedule(cfg).kind is ScheduleKind.FLOW_MATCHING

    def test_unknown_preset(self):
        cfg = RunConfig(preset="sd9-x99")
        with pytest.raises(ConfigError, match="unknown preset"):
            build_plan(cfg, build_schedule(RunConfig()))

    def test_custom_stage_triples(self):
        cfg = RunConfig(stages="8:4:150,16:2:0", preset=None)
        sched = build_schedule(cfg)
        plan = build_plan(cfg, sched)
        assert [s.resolution.side for s in plan.stages] == [8, 16]
        assert [s.steps for s in plan.stages] == [4, 2]
        assert plan.stages[0].last_timestep == 150.0
        assert plan.guidance(plan.stages[0]).base.side == 8
        assert plan.guidance(plan.stages[1]).base.side == 8

    def test_bad_stage_triples(self):
        cfg = RunConfig(stages="8:4", preset=None)
        with pytest.raises(ConfigError):
            build_plan(cfg, build_schedule(cfg))

    def test_flow_L_normalization_in_triples(self):
        cfg = RunConfig(stages="8:4:50,16:2:0", preset=None, schedule="flow")
        plan = build_plan(cfg, build_schedule(cfg))
        assert plan.stages[0].last_timestep == pytest.approx(0.05)

    def test_guidance_overrides_apply_to_preset(self):
        cfg = RunConfig(preset="sdxl-x4", w_h=99.0, gamma=2.5)
        plan = build_plan(cfg, build_schedule(cfg))
        assert plan.guidance(plan.stages[1]).w_h == 99.0
        assert plan.gamma == 2.5

    def test_direct_plan_for_custom_stages_uses_total_steps(self):
        cfg = RunConfig(stages="8:4:150,16:2:0", preset=None)
        sched = build_schedule(cfg)
        plan = build_plan(cfg, sched)
        direct = build_direct_plan(cfg, plan, sched)
        assert len(direct.stages) == 1
        assert direct.stages[0].steps == 6
        assert direct.stages[0].resolution.side == 16
        assert direct.train_side == 8

    def test_codec_dispatch(self):
        assert build_codec(RunConfig(codec="identity")) is IDENTITY
        assert build_codec(RunConfig(codec="haar1")) is HAAR1
        with pytest.raises(ConfigError):
            build_codec(RunConfig(codec="vae"))


class TestBuildBank:
    def test_procedural_bank_matches_plan_resolution(self):
        cfg = RunConfig(stages="8:2:100,16:1:0", preset=None, bank_items=6)
        sched = build_schedule(cfg)
        plan = build_plan(cfg, sched)
        bank = build_bank(cfg, plan, IDENTITY)
        assert bank.side == 16
        assert bank.size == 6

    def test_haar_bank_is_encoded_image_bank(self):
        cfg = RunConfig(stages="8:2:100,16:1:0", preset=None, bank_items=4,
                        bank_channels=3, codec="haar1")
        sched = build_schedule(cfg)
        plan = build_plan(cfg, sched)
        bank = build_bank(cfg, plan, HAAR1)
        assert bank.side == 16  # latent side
        assert bank.channels == 12  # 3 image channels x 4 subbands

    def test_bank_path_roundtrip(self, tmp_path):
        from frecas.bank import make_bank, save_bank

        saved = make_bank("white", 16, 2, 4, 2, seed=3)
        save_bank(tmp_path / "bank", saved)
        cfg = RunConfig(stages="8:2:100,16:1:0", preset=None,
                        bank_path=str(tmp_path / "bank"))
        sched = build_schedule(cfg)
        plan = build_plan(cfg, sched)
        bank = build_bank(cfg, plan, IDENTITY)
        assert bank.size == 4

    def test_bank_path_ignores_procedural_counts(self, tmp_path):
        from frecas.bank import make_bank, save_bank

        save_bank(tmp_path / "bank", make_bank("white", 16, 2, 4, 2, seed=3))
        cfg = RunConfig(stages="8:2:100,16:1:0", preset=None, bank_path=str(tmp_path / "bank"),
                        bank_items=0, bank_classes=0, bank_channels=0, bank_kind="foo")
        plan = build_plan(cfg, build_schedule(cfg))
        assert build_bank(cfg, plan, IDENTITY).size == 4

    @pytest.mark.parametrize("flag,value,key", [
        ("--bank-classes", "100000000000000000000000", "bank.classes"),
        ("--bank-classes", "5", "bank.classes"),
        ("--bank-channels", "100000000000000000000000", "bank.channels"),
        ("--bank-channels", "2", "bank.channels"),
    ])
    def test_bank_settings_rejected_before_the_build(self, tmp_path, capsys, monkeypatch,
                                                     flag, value, key):
        # more classes than items, or channels other than 1 and 3: without
        # the check an oversized count overflows or allocates until killed
        monkeypatch.setattr("frecas.config.procedural_items", lambda *args, **kwargs: pytest.fail(
            "bank built before its settings were checked"))
        code = main(["sample", "--base-side", "4", "--bank-items", "4", flag, value,
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"frecas: config error: {key} ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_bank_path_resolution_mismatch(self, tmp_path):
        from frecas.bank import make_bank, save_bank

        save_bank(tmp_path / "bank", make_bank("white", 8, 2, 4, 2, seed=3))
        cfg = RunConfig(stages="8:2:100,16:1:0", preset=None,
                        bank_path=str(tmp_path / "bank"))
        sched = build_schedule(cfg)
        plan = build_plan(cfg, sched)
        with pytest.raises(ConfigError, match="resolution"):
            build_bank(cfg, plan, IDENTITY)

    def test_encoded_bank_build_holds_no_stacked_copy(self):
        # each image item is encoded as it is drawn and blocked straight into
        # the latent bank, so the build holds about one bank's worth, with no
        # image bank or stack beside it
        cfg = RunConfig(preset="sd3-x4", codec="haar1", bank_items=32)
        plan = build_plan(cfg, build_schedule(cfg))
        tracemalloc.start()
        try:
            bank = build_bank(cfg, plan, HAAR1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bank.channels == 12 and bank.side == 64
        assert peak < 1.5 * bank.blocks.nbytes

    def test_condition_must_be_a_class_of_the_bank(self):
        cfg = RunConfig(stages="8:2:100,16:1:0", preset=None, bank_items=6, condition=4)
        plan = build_plan(cfg, build_schedule(cfg))
        with pytest.raises(ConfigError, match="^condition 4 is not a class of the bank; "
                                              "available: 0, 1, 2, 3$"):
            build_bank(cfg, plan, IDENTITY)

    def test_saved_bank_classes_are_checked_once_loaded(self, tmp_path):
        from frecas.bank import LatentBank, save_bank

        # classes 1 and 3: a saved bank's ids need not be 0 .. n - 1
        save_bank(tmp_path / "bank", LatentBank(np.zeros((2, 2, 16, 16)), [1, 3], [0.5, 0.5]))
        cfg = RunConfig(stages="8:2:100,16:1:0", preset=None, condition=0,
                        bank_path=str(tmp_path / "bank"))
        plan = build_plan(cfg, build_schedule(cfg))
        with pytest.raises(ConfigError, match="^condition 0 is not a class of the bank; "
                                              "available: 1, 3$"):
            build_bank(cfg, plan, IDENTITY)

    def test_saved_banks_unknown_condition_is_refused_before_any_grid_is_read(self, tmp_path,
                                                                              monkeypatch):
        # the manifest holds the class ids, so no grid need be read to refuse one
        from frecas.bank import LatentBank, save_bank

        save_bank(tmp_path / "bank", LatentBank(np.zeros((2, 2, 16, 16)), [1, 3], [0.5, 0.5]))
        monkeypatch.setattr("frecas.bank.read_grid", lambda path: pytest.fail(
            f"{path} read before the condition was checked"))
        cfg = RunConfig(stages="8:2:100,16:1:0", preset=None, condition=0,
                        bank_path=str(tmp_path / "bank"))
        with pytest.raises(ConfigError, match="^condition 0 is not a class of the bank"):
            build_bank(cfg, build_plan(cfg, build_schedule(cfg)), IDENTITY)

    @pytest.mark.parametrize("command", [["sample"], ["ablate", "--param", "w_h", "--values", "1"],
                                         ["bench"]])
    def test_unknown_condition_is_refused_before_any_item_is_drawn(self, tmp_path, capsys,
                                                                   monkeypatch, command):
        from frecas import config as config_module

        calls = []
        procedural_items = config_module.procedural_items
        monkeypatch.setattr(config_module, "procedural_items", lambda *args, **kwargs:
                            calls.append(1) or procedural_items(*args, **kwargs))
        code = main([*command, "--base-side", "4", "--bank-items", "4", "--condition", "7",
                     "--out", str(tmp_path / "r")])
        assert (code, len(calls)) == (EXIT_USAGE, 0)
        assert capsys.readouterr().err == ("frecas: config error: condition 7 is not a class of "
                                           "the bank; available: 0, 1, 2, 3\n")

    @pytest.mark.parametrize("cfg,side", [
        (RunConfig(), 64),
        (RunConfig(preset="sdxl-x16", base_side=8), 32),
        (RunConfig(stages="8:2:100,24:1:0", preset=None), 24),
    ])
    def test_target_side_is_the_plans_final_side(self, cfg, side):
        assert target_side(cfg) == side
        assert build_plan(cfg, build_schedule(cfg)).stages[-1].resolution.side == side


def cfg_from_flags(*flags) -> RunConfig:
    return _config_from_args(_build_parser().parse_args(["sample", *flags]))


def plans_of(cfg: RunConfig):
    """(cascade plan, direct plan) as the CLI builds them."""
    sched = build_schedule(cfg)
    plan = build_plan(cfg, sched)
    return plan, build_direct_plan(cfg, plan, sched)


def plans_or_error(cfg: RunConfig):
    """plans_of(cfg), or the message of the config error it raises."""
    try:
        return plans_of(cfg)
    except ConfigError as e:
        return str(e)


def vp_entry_reachable(sched, L, ratio, gamma) -> bool:
    """Whether the SNR-matched entry alpha of a VP transition lies in the
    schedule's range [alpha[-1], 1], rounded as `shift_timestep_vp` rounds it
    (its accuracy is a property of tests/test_schedule.py)."""
    r = ratio ** gamma
    a_l = alpha_at(sched, L)
    return sched.alpha[-1] <= r * a_l / ((1.0 - a_l) + r * a_l) <= 1.0


def spell(sides, steps, lasts) -> str:
    return ",".join(f"{side}:{n}:{L!r}" for side, n, L in zip(sides, steps, lasts))


def preset_as_stages(name, base_side=32) -> str:
    p = PRESETS[name]
    sides = [base_side * m for m in p.scale_per_stage]
    return spell(sides, p.steps, [*p.last_timesteps, 0])


# a two-stage stage list whose side ratio, 1.5, is not an integer
TWO_STAGES = "8:4:150,12:3:0"


def preset_or_stages(name) -> RunConfig:
    return RunConfig(preset=name) if name in PRESETS else RunConfig(preset=None, stages=name)


class TestLadderRoutes:
    """Every route to a plan meets in one ladder, so equal settings build
    equal plans (stages, gamma, train_side, schedule kind and T)."""

    @pytest.mark.parametrize("flags,preset", [
        (["--stages", "32:40:200,64:10:0", "--gamma", "1.5"], "sdxl-x4"),
        (["--stages", "32:20:50,64:8:0", "--schedule", "flow", "--w-l", "7",
          "--w-c", "0.5"], "sd3-x4"),
    ])
    def test_stage_flags_build_the_preset(self, flags, preset):
        assert plans_of(cfg_from_flags(*flags)) == plans_of(RunConfig(preset=preset))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_stages_spelling_of_every_preset(self, name):
        p = PRESETS[name]
        cfg = RunConfig(preset=None, stages=preset_as_stages(name),
                        schedule=p.schedule_kind.value, gamma=p.gamma,
                        w_l=p.w_l, w_h=p.w_h, w_c=p.w_c)
        assert plans_of(cfg) == plans_of(RunConfig(preset=name))

    @pytest.mark.parametrize("name", [*sorted(n for n, p in PRESETS.items()
                                              if len(p.scale_per_stage) == 2), TWO_STAGES])
    def test_one_extra_stage_is_the_preset(self, name):
        cfg = preset_or_stages(name)
        sched = build_schedule(cfg)
        assert ablation_plan(cfg, "N", 1, sched) == build_plan(cfg, sched)

    @pytest.mark.parametrize("name", [*sorted(PRESETS), TWO_STAGES])
    def test_no_extra_stage_is_the_direct_plan(self, name):
        cfg = preset_or_stages(name)
        sched = build_schedule(cfg)
        plan = build_plan(cfg, sched)
        assert ablation_plan(cfg, "N", 0, sched) == build_direct_plan(cfg, plan, sched)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_ladder_is_cut_from_the_plan_alone(self, n):
        # a preset and its stage-list spelling build one plan, so they give
        # one N ladder
        p = PRESETS["sdxl-x16"]
        spelled = RunConfig(preset=None, stages=preset_as_stages("sdxl-x16"), gamma=p.gamma,
                            w_l=p.w_l, w_h=p.w_h, w_c=p.w_c)
        preset = RunConfig(preset="sdxl-x16")
        sched = build_schedule(preset)
        assert ablation_plan(spelled, "N", n, sched) == ablation_plan(preset, "N", n, sched)


@st.composite
def stage_lists(draw):
    """(sides, steps, lasts) of a valid --stages list."""
    n = draw(st.integers(1, 4))
    sides = sorted(draw(st.sets(st.integers(2, 256), min_size=n, max_size=n)))
    steps = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    positive = st.integers(1, 2000) | st.floats(1e-6, 2000.0)
    lasts = draw(st.lists(positive, min_size=n - 1, max_size=n - 1))
    return sides, steps, [*lasts, 0]


class TestStageListProperties:
    @settings(deadline=None)
    @given(stage_lists(), st.sampled_from([None, "vp", "flow"]), st.integers(1, 3000))
    def test_stage_list_parses_into_its_ladder(self, ladder, schedule, T):
        sides, steps, lasts = ladder
        cfg = RunConfig(preset=None, stages=spell(sides, steps, lasts),
                        schedule=schedule, T=T)
        sched = build_schedule(cfg)
        flow = schedule == "flow"
        expected = [L / T if flow and L > 1 else L for L in lasts]
        if any(L >= sched.t_max for L in expected[:-1]):
            with pytest.raises(ConfigError, match="t_max"):
                build_plan(cfg, sched)
            return
        # each later stage enters at the shift of the previous L, which must
        # exist and lie above the stage's own L; the first failure is reported
        firsts = [sched.t_max]
        for i, (L, nxt, a, b) in enumerate(zip(expected, expected[1:], sides, sides[1:]), 1):
            if flow:
                F = shift_timestep_flow(L, b / a)
            elif vp_entry_reachable(sched, L, a / b, 2.0):
                F = shift_timestep_vp(L, a / b, 2.0, sched)
            else:
                with pytest.raises(ConfigError, match="no entry timestep"):
                    build_plan(cfg, sched)
                return
            if F <= nxt:
                with pytest.raises(ConfigError, match=rf"stage {i} \(side {b}\).*not above"):
                    build_plan(cfg, sched)
                return
            firsts.append(F)
        plan = build_plan(cfg, sched)
        assert list(plan.first_timesteps) == firsts
        assert [s.resolution.side for s in plan.stages] == sides
        assert [s.steps for s in plan.stages] == steps
        assert [s.last_timestep for s in plan.stages] == expected
        assert [plan.guidance(s).base.side for s in plan.stages] == [sides[0], *sides[:-1]]

    @settings(deadline=None)
    @given(
        st.one_of(
            st.fixed_dictionaries({"preset": st.sampled_from(sorted(PRESETS)),
                                   "base_side": st.integers(2, 64)}),
            st.fixed_dictionaries({"stages": stage_lists().map(lambda s: spell(*s)),
                                   "schedule": st.sampled_from(["vp", "flow"])}),
        ),
        st.fixed_dictionaries({}, optional={
            "T": st.integers(1, 3000),
            "gamma": st.floats(0.0, 10.0),
            "w_l": st.floats(0.0, 100.0),
            "w_h": st.floats(0.0, 100.0),
            "w_c": st.floats(0.0, 1.0),
        }),
    )
    def test_config_file_and_flags_build_equal_plans(self, ladder, extra):
        values = {**ladder, **extra}
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        flags = [arg for key, value in values.items()
                 for arg in (f"--{key.replace('_', '-')}", str(value))]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as f:
                f.write(text)
            from_file = cfg_from_flags("--config", path)
        assert plans_or_error(from_file) == plans_or_error(cfg_from_flags(*flags))
