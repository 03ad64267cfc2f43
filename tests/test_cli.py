import tracemalloc

import numpy as np
import pytest

from frecas.cli import EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from frecas.config import (
    ConfigError,
    RunConfig,
    build_bank,
    build_codec,
    build_plan,
    build_schedule,
)
from frecas.bank import LatentBank, make_bank, save_bank
from frecas.freq import band_energy_fractions, psd_decomposition, radial_psd
from frecas.grid import LatentGrid, read_grid, seeded_gaussian, subseed, write_grid

FAST = ["--base-side", "8", "--bank-items", "8", "--bank-channels", "3"]


def run_sample(out, extra=()):
    return main(["sample", "--preset", "sdxl-x4", *FAST, "--seed", "7",
                 "--out", str(out), *extra])


class TestSample:
    def test_writes_expected_files(self, tmp_path):
        assert run_sample(tmp_path / "r") == EXIT_OK
        for name in ("image.ppm", "image.frcg", "manifest.txt"):
            assert (tmp_path / "r" / name).exists()

    def test_byte_identical_reruns(self, tmp_path):
        run_sample(tmp_path / "a")
        run_sample(tmp_path / "b")
        for name in ("image.ppm", "image.frcg", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_records_cost_and_speedup(self, tmp_path):
        run_sample(tmp_path / "r")
        manifest = (tmp_path / "r" / "manifest.txt").read_text()
        entries = dict(line.split(" = ") for line in manifest.strip().split("\n"))
        assert float(entries["cost_units"]) == 80.0
        assert float(entries["direct_cost_units"]) == 200.0
        assert float(entries["proxy_speedup"]) == 2.5

    def test_single_stage_cost_equals_step_count(self, tmp_path):
        code = main(["sample", "--stages", "8:5:0", "--bank-items", "6",
                     "--seed", "1", "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        manifest = (tmp_path / "r" / "manifest.txt").read_text()
        entries = dict(line.split(" = ") for line in manifest.strip().split("\n"))
        assert float(entries["cost_units"]) == 5.0

    def test_dump_stages(self, tmp_path):
        run_sample(tmp_path / "r", extra=["--dump-stages"])
        assert (tmp_path / "r" / "stage_0.frcg").exists()
        assert (tmp_path / "r" / "stage_1.frcg").exists()
        stage0 = read_grid(tmp_path / "r" / "stage_0.frcg")
        assert stage0.shape == (3, 8, 8)

    def test_ppm_header(self, tmp_path):
        run_sample(tmp_path / "r")
        raw = (tmp_path / "r" / "image.ppm").read_bytes()
        assert raw.startswith(b"P6\n16 16\n255\n")
        assert len(raw) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3

    def test_pgm_for_single_channel(self, tmp_path):
        code = main(["sample", "--stages", "8:2:100,16:1:0", "--bank-items", "4",
                     "--bank-channels", "1", "--seed", "1", "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        raw = (tmp_path / "r" / "image.pgm").read_bytes()
        assert raw.startswith(b"P5\n16 16\n255\n")

    def test_two_channel_bank_writes_the_grid_and_no_image(self, tmp_path):
        # a portable image holds 1 or 3 channels: the manifest lists the grid alone
        rng = np.random.default_rng(2)
        save_bank(tmp_path / "bank", LatentBank(rng.standard_normal((4, 2, 16, 16)),
                                                np.arange(4) % 2, np.full(4, 0.25)))
        code = main(["sample", "--stages", "8:2:100,16:2:0", "--bank-path",
                     str(tmp_path / "bank"), "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == ["image.frcg",
                                                                       "manifest.txt"]
        assert read_grid(tmp_path / "r" / "image.frcg").shape == (2, 16, 16)
        outputs = [line for line in (tmp_path / "r" / "manifest.txt").read_text().splitlines()
                   if line.startswith("output.")]
        assert outputs == ["output.grid = image.frcg"]

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "preset = sdxl-x4\nbase_side = 8\nbank.items = 8\nseed = 1\n"
            f"out = {tmp_path / 'from_file'}\n"
        )
        code = main(["sample", "--config", str(cfg), "--seed", "2",
                     "--out", str(tmp_path / "cli_wins")])
        assert code == EXIT_OK
        assert (tmp_path / "cli_wins" / "manifest.txt").exists()
        manifest = (tmp_path / "cli_wins" / "manifest.txt").read_text()
        assert "seed = 2" in manifest


@pytest.mark.parametrize("command", ["sample", "psd"])
def test_side_two_value_noise_bank_runs(tmp_path, command):
    assert main([command, "--stages", "2:2:0", "--out", str(tmp_path / "r")]) == EXIT_OK


class TestExitCodes:
    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        code = main(["sample", "--preset", "bogus", "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--definitely-not-a-flag"])
        assert exc.value.code == EXIT_USAGE

    def test_psd_on_flow_schedule_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("frecas.cli.item_source", pytest.fail)
        code = main(["psd", "--preset", "sd3-x4", *FAST, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("frecas: config error: psd analysis requires a "
                       "variance-preserving schedule\n")
        assert not (tmp_path / "r").exists()

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("i am a file")
        code = main(["sample", "--preset", "sdxl-x4", *FAST, "--seed", "1",
                     "--out", str(blocker)])
        assert code == EXIT_IO

    @pytest.mark.parametrize("item,manifest", [
        (b"FRCG" + b"\xff" * 12, "item_0000.frcg 0 1.0\n"),
        (None, "item_0000.frcg 0 1.0 2\n"),
        # a valid grid of the plan's target shape behind a bad id or weight
        ("grid", "item_0000.frcg 99999999999999999999 1.0\n"),
        ("grid", "item_0000.frcg 0 nan\n"),
        ("grid", "item_0000.frcg 0 -1.0\n"),
    ])
    def test_malformed_bank_is_runtime_error(self, tmp_path, capsys, item, manifest):
        bank = tmp_path / "bank"
        bank.mkdir()
        if item == "grid":
            write_grid(bank / "item_0000.frcg", LatentGrid(np.zeros((3, 16, 16))))
        elif item is not None:
            (bank / "item_0000.frcg").write_bytes(item)
        (bank / "manifest.txt").write_text(manifest)
        code = main(["sample", *FAST, "--bank-path", str(bank), "--out", str(tmp_path / "r")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("frecas: error: ") and "Traceback" not in err
        assert err.count("\n") == 1
        if item == "grid":  # rejected as the manifest is read, naming its line
            assert "manifest.txt:1: " in err

    def test_oversized_bank_is_runtime_error(self, tmp_path, capsys):
        # 10^12 items of 3x64x64 float64 is 87.3 PiB: the allocation is
        # refused outright, no memory is touched
        code = main(["sample", "--bank-items", "1000000000000", "--out", str(tmp_path / "r")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("frecas: error: ") and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["presets", "--T", "7"],
        ["sample", "--preset", "sdxl-x4", "--T", "150"],
        ["sample", "--stages", "8:2:1.0,16:1:0", "--schedule", "flow"],
    ])
    def test_unreachable_stage_exit_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        # a non-final L at or above the schedule's t_max: rejected with the
        # plan, before a bank is built or a table printed
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main([*argv, *FAST, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("frecas: config error: ") and "t_max" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--gamma", "20"],
        ["sample", "--stages", "8:4:900,32:2:0"],
        ["ablate", "--param", "N", "--values", "1", "--gamma", "20"],
    ])
    def test_unreachable_vp_entry_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        # the SNR-matched entry of a transition lies outside the schedule:
        # rejected with the plan, before a bank is built or a stage sampled
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main([*argv, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("frecas: config error: ") and err.count("\n") == 1
        assert "no entry timestep" in err and "outside the schedule range" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv,reason", [
        (["sample", "--stages", "8:2:100,12:2:500,16:2:0"],
         "stage 1 (side 12) enters at F = 147.356, not above its L = 500"),
        (["sample", "--stages", "8:2:100,12:2:500,16:2:0", "--schedule", "flow"],
         "stage 1 (side 12) enters at F = 0.119782, not above its L = 0.5"),
        (["ablate", "--preset", "sdxl-x4", "--param", "L", "--values", "1e-13",
          "--base-side", "8"],
         "no entry timestep for side 16 from L = 1e-13: "
         "SNR is infinite at t = 1e-13: alpha rounds to 1"),
    ], ids=["vp-stages", "flow-stages", "ablate-L-1e-13"])
    def test_stage_entry_not_above_its_L_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                         argv, reason):
        # a stage that could not move down from its entry F to its L: rejected
        # with the plan, before a bank is built or a stage sampled
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main([*argv, "--bank-items", "8", "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"frecas: config error: {reason}\n"
        assert not (tmp_path / "r").exists()

    def test_plan_reaching_zero_noise_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # at L = 1e-12 the final stage's last step has 1 - alpha rounding to
        # 0: rejected with the plan, before a bank is built or a stage sampled
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main(["ablate", "--preset", "sdxl-x4", "--param", "L", "--values", "1e-12",
                     "--base-side", "8", "--bank-items", "8", "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("frecas: config error: stage 1 (side 16) runs the denoiser at zero "
                       "noise level, t = 3.33067e-13\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", [
        ["sample"], ["ablate", "--param", "w_c", "--values", "0.5"], ["bench"],
    ])
    def test_unknown_condition_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr("frecas.cli.run_cascade", pytest.fail)
        code = main([*command, *FAST, "--condition", "99", "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("frecas: config error: condition 99 is not a class of the bank; "
                       "available: 0, 1, 2, 3\n")
        assert not (tmp_path / "r").exists()

    def test_unknown_condition_lists_unsorted_bank_ids(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(3)
        save_bank(tmp_path / "bank", LatentBank(rng.standard_normal((6, 3, 16, 16)),
                                                np.tile([12, -3, 7], 2), np.full(6, 1 / 6)))
        monkeypatch.setattr("frecas.cli.run_cascade", pytest.fail)
        code = main(["sample", *FAST, "--bank-path", str(tmp_path / "bank"), "--condition", "5",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("frecas: config error: condition 5 is not a class "
                                           "of the bank; available: -3, 7, 12\n")

    @pytest.mark.parametrize("argv", [
        ["ablate", "--preset", "sd3-x4", "--param", "L", "--values", "1000"],
        ["sample", "--schedule", "flow", "--stages", "16:4:1000,32:2:0"],
    ])
    def test_flow_L_error_names_the_L_as_written(self, tmp_path, capsys, monkeypatch, argv):
        # 1000 is training timestep T, flow time 1: the error names 1000, not 1
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main([*argv, *FAST, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("frecas: config error: non-final stages must stop below the "
                       "schedule's t_max = 1, got L = 1000\n")

    def test_unknown_ablate_param_is_usage_error(self, tmp_path):
        code = main(["ablate", "--param", "zeta", "--values", "1", *FAST,
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("param,value", [
        ("w_c", "1.5"), ("w_h", "-1"), ("L", "1000"), ("L", "nan"), ("N", "1.5"),
    ])
    def test_ablate_value_out_of_domain_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       param, value):
        # every swept plan is checked like a sample plan, before the bank is built
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main(["ablate", "--param", param, "--values", value, *FAST,
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("frecas: config error: ")

    @pytest.mark.parametrize("argv,message", [
        (["ablate", "--param", "w_c", "--values", "0.5,x"],
         "--values: could not convert string to float: 'x'"),
        (["ablate", "--param", "w_c", "--values", ","], "--values must list at least one value"),
        (["psd", "--timesteps", "900,x"], "--timesteps: could not convert string to float: 'x'"),
        (["psd", "--timesteps", ""], "--timesteps must list at least one value"),
        (["psd", "--timesteps", "300,2000"], "--timesteps must lie in [0, 1000], got 2000"),
        (["psd", "--timesteps", "nan"], "--timesteps must lie in [0, 1000], got nan"),
    ])
    def test_bad_number_list_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main([*argv, *FAST, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"frecas: config error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--values", "10"], "N=10 collapses the resolution ladder"),
        (["--values", "11"], "step budget 10 too small for N=11"),
        # the budget is checked before the ladder sides are listed, so N=1e6
        # reports the budget, not a collapse (and N=1e20 lists no 10^20 sides)
        (["--values", "1e6"], "step budget 10 too small for N=1000000"),
    ])
    def test_ablate_n_plan_problem_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                  argv, message):
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main(["ablate", "--param", "N", *argv, *FAST, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("frecas: config error: ") and message in err

    @pytest.mark.parametrize("argv", [
        ["--stages", "32:40:nan,64:10:0"], ["--gamma", "nan"], ["--gamma", "inf"],
    ])
    def test_non_finite_plan_number_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        code = main(["sample", *argv, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("frecas: config error: ") and "finite" in err

    @pytest.mark.parametrize("key", ["bank.items", "bank.classes", "bank.channels"])
    def test_procedural_bank_count_below_one_is_usage_error(self, tmp_path, capsys, key):
        flag = "--" + key.replace(".", "-")
        code = main(["sample", *FAST, flag, "0", "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"frecas: config error: {key} must be at least 1, got 0\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flag,t", [("--w-l", "1000"), ("--w-h", None)])
    def test_overflowing_guidance_is_runtime_error(self, tmp_path, capsys, flag, t):
        # a finite weight whose guided field overflows: the step's new latent
        # is non-finite, and the error names the step (stage 1 enters at F)
        # in one line, with no numpy warning before it
        cfg = RunConfig(base_side=8, bank_items=8)
        t = t or f"{build_plan(cfg, build_schedule(cfg)).first_timesteps[1]:g}"
        code = main(["sample", "--preset", "sdxl-x4", *FAST[:4], flag, "1e308",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == f"frecas: error: non-finite latent after the step at t = {t}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distances_name_t_as_the_step_check_does(self, tmp_path, capsys):
        # the first step's latent is finite but its distances to the bank
        # overflow at the second step, t = 750; t is written as the
        # step's finiteness check writes it
        code = main(["sample", "--stages", "8:4:0", "--w-l", "1e308",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "frecas: error: latent distances to the bank overflow at t = 750\n"

    @pytest.mark.parametrize("w_l", ["1e300", "5e307"])
    def test_latent_beyond_float32_is_runtime_error(self, tmp_path, capsys, w_l):
        # a finite final latent whose float32 dump would be inf: the grid is
        # written first and refuses it before the out directory is made, so
        # no image, grid, manifest or directory appears
        out = tmp_path / "r"
        code = main(["sample", "--stages", "8:1:0", "--w-l", w_l, "--bank-items", "8",
                     "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == (f"frecas: error: {out / 'image.frcg'}: grid values exceed the "
                       "float32 range of the dump format\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,message", [
        (["sample", "--stages", "8:1:0", "--w-l", "1e300"],
         "run/image.frcg: grid values exceed the float32 range of the dump format"),
        (["sample", "--w-h", "1e308", "--base-side", "8"],
         "non-finite latent after the step at t = 296.068"),
        (["ablate", "--stages", "8:4:0", "--param", "w_l", "--values", "1,1e308"],
         "latent distances to the bank overflow at t = 750"),
    ], ids=["sample", "sample-dense-w_h", "ablate"])
    def test_failed_run_makes_no_out_directory(self, tmp_path, capsys, argv, message):
        # the run or the sweep fails after the bank is built; the out
        # directory, and its missing parent, are made only once it returns
        out = tmp_path / "f" / "run"
        code = main([*argv, "--bank-items", "8", "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("frecas: error: ") and err.endswith(message + "\n")
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--T", "0"],
        ["sample", "--T", "-3"],
        ["presets", "--T", "0"],
        ["psd", "--T", "0"],
        ["sample", "--T", "1000000000000"],
    ])
    def test_timestep_count_out_of_range_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        argv):
        # T is checked before the schedule's table is built: T = 10^12 would
        # ask for three 8 TB arrays, and nothing near that is allocated
        for builder in ("build_bank", "item_source"):
            monkeypatch.setattr(f"frecas.cli.{builder}", pytest.fail)
        tracemalloc.start()
        try:
            code = main([*argv, *FAST, "--out", str(tmp_path / "r")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert peak < 2**20
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"frecas: config error: schedule T must lie in [1, 1000000], "
                       f"got {argv[-1]}\n")
        assert not (tmp_path / "r").exists()

    def test_underflowing_vp_table_names_T(self, tmp_path, capsys):
        code = main(["sample", "--T", "100000", *FAST, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("frecas: config error: schedule T = 100000 is too large: the "
                       "linear-beta alpha table underflows to 0 and stops decreasing\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", [
        ["sample"],
        ["ablate", "--param", "w_h", "--values", "1,7.5"],
    ])
    def test_bank_the_codec_cannot_decode_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        command):
        # a saved 3-channel bank with the Haar codec: rejected as the bank is
        # built, before any sampling and before the output directory exists
        save_bank(tmp_path / "bank16", make_bank("value_noise", 16, n_items=8))
        monkeypatch.setattr("frecas.cli.run_cascade", pytest.fail)
        code = main([*command, "--stages", "8:2:100,16:2:0", "--codec", "haar1",
                     "--bank-path", str(tmp_path / "bank16"), "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("frecas: config error: bank channels 3 are not a multiple of "
                       "the haar1 codec's 4\n")
        assert not (tmp_path / "r").exists()

    def test_ablate_L_near_t0_passes_the_entry_check(self, tmp_path, capsys):
        code = main(["ablate", "--preset", "sdxl-x4", "--param", "L", "--values", "1e-8",
                     *FAST[:4], "--out", str(tmp_path / "r")])
        assert code == EXIT_OK, capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["sample", "--preset", "sd3-x4", "--schedule", "vp"],
         "preset sd3-x4 needs a flow schedule"),
        (["sample", "--stages", "8:2:100,16:2:50"], "final stage must run to timestep 0"),
        (["sample", "--stages", "8:x:0"],
         "stage '8:x:0': invalid literal for int() with base 10: 'x'"),
        (["psd", "--stages", "1:2:0"], "resolution side must be an integer >= 2, got 1"),
        (["psd", "--timesteps", "100,100.0000001"],
         "--timesteps lists two timesteps written to psd_t100.csv"),
        (["psd", "--timesteps", "0,100,300,100"],
         "--timesteps lists two timesteps written to psd_t100.csv"),
    ], ids=["preset-schedule", "final-L", "stage-steps", "psd-side", "psd-csv-near",
            "psd-csv-equal"])
    def test_plan_or_output_clash_is_one_usage_error_line(self, tmp_path, capsys, monkeypatch,
                                                          argv, message):
        # rejected before a bank is built or the output directory made
        monkeypatch.setattr("frecas.cli.build_bank", pytest.fail)
        monkeypatch.setattr("frecas.cli.item_source", pytest.fail)
        code = main([*argv, *FAST, "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"frecas: config error: {message}\n"
        assert not (tmp_path / "r").exists()


class TestPsd:
    def test_writes_per_timestep_and_summary(self, tmp_path):
        code = main(["psd", "--preset", "sdxl-x4", *FAST, "--seed", "3",
                     "--out", str(tmp_path / "p"), "--timesteps", "900,0"])
        assert code == EXIT_OK
        for name in ("psd_t900.csv", "psd_t0.csv", "psd_summary.csv"):
            assert (tmp_path / "p" / name).exists()
        lines = (tmp_path / "p" / "psd_summary.csv").read_text().strip().split("\n")
        assert lines[0] == "t,low_band_signal_fraction,high_band_signal_fraction"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            assert all(np.isfinite(cells))

    def test_t0_noise_column_is_zero(self, tmp_path):
        main(["psd", "--preset", "sdxl-x4", *FAST, "--seed", "3",
              "--out", str(tmp_path / "p"), "--timesteps", "0"])
        rows = (tmp_path / "p" / "psd_t0.csv").read_text().strip().split("\n")[1:]
        noise_col = [float(r.split(",")[3]) for r in rows]
        assert max(noise_col) == 0.0

    def test_gamma_does_not_enter_the_psd(self, tmp_path):
        # gamma 20 leaves the sdxl-x4 transition no entry timestep, but psd
        # runs no cascade: it reads only the schedule and the bank
        cfg = RunConfig(gamma=20.0)
        with pytest.raises(ConfigError, match="no entry timestep"):
            build_plan(cfg, build_schedule(cfg))
        assert main(["psd", "--gamma", "20", "--timesteps", "900",
                     "--out", str(tmp_path / "g")]) == EXIT_OK
        assert main(["psd", "--timesteps", "900", "--out", str(tmp_path / "d")]) == EXIT_OK
        assert (tmp_path / "g" / "psd_t900.csv").read_bytes() == \
            (tmp_path / "d" / "psd_t900.csv").read_bytes()

    def test_columns_are_the_item_order_bank_mean(self, tmp_path):
        # reference: the decomposition of the k-th item given to the bank,
        # which sits in slot input_slots[k], under its own noise
        # subseed(seed, 2, k), summed in the given order and divided by the
        # item count, written as %.17g text
        timesteps = (900, 300, 0)
        assert main(["psd", "--preset", "sdxl-x4", *FAST, "--seed", "3",
                     "--timesteps", ",".join(map(str, timesteps)),
                     "--out", str(tmp_path / "p")]) == EXIT_OK
        cfg = RunConfig(preset="sdxl-x4", base_side=8, bank_items=8, bank_channels=3, seed=3)
        sched = build_schedule(cfg)
        bank = build_bank(cfg, build_plan(cfg, sched), build_codec(cfg))
        noises = [seeded_gaussian(bank.item_shape, subseed(3, 2, k)) for k in range(bank.size)]
        sums = 0
        for k, noise in enumerate(noises):
            sums = sums + psd_decomposition(bank.item(bank.input_slots[k]), noise, timesteps,
                                            sched)
        freqs = radial_psd(noises[0]).freqs
        for t, total in zip(timesteps, sums):
            expected = [[f"{v:.17g}" for v in col] for col in (freqs, *(total / bank.size))]
            rows = (tmp_path / "p" / f"psd_t{t}.csv").read_text().split()[1:]
            columns = [list(col) for col in zip(*(r.split(",") for r in rows))]
            assert columns[0] == [str(i) for i in range(len(freqs))]
            assert columns[1:] == expected

    def test_saved_bank_pairs_each_item_with_its_procedural_noise(self, tmp_path):
        # save_bank writes the items in the order they were given, so psd on
        # the saved bank draws each item's noise as psd on the procedural bank
        # does; the two differ only by the float32 rounding of the saved grids
        save_bank(tmp_path / "bank", make_bank("value_noise", 16, n_items=8))
        args = ["psd", "--stages", "16:2:0", "--seed", "3", "--timesteps", "900,300"]
        assert main([*args, "--bank-items", "8", "--out", str(tmp_path / "p")]) == EXIT_OK
        assert main([*args, "--bank-path", str(tmp_path / "bank"),
                     "--out", str(tmp_path / "s")]) == EXIT_OK
        for t in (900, 300):
            procedural, saved = (np.loadtxt(tmp_path / d / f"psd_t{t}.csv", delimiter=",",
                                            skiprows=1) for d in ("p", "s"))
            np.testing.assert_allclose(saved, procedural, rtol=1e-6, atol=1e-9)

    def test_holds_one_item_not_the_bank(self, tmp_path):
        # each item is transformed as it arrives and dropped, so the peak does
        # not grow with the bank: a 1024-item bank of 3 x 16 x 16 float64
        # items is 6.3 MB, and psd on it peaks within a tenth of that of 64 items
        args = ["psd", "--stages", "16:2:0", "--timesteps", "900"]
        assert main([*args, "--bank-items", "4", "--out", str(tmp_path / "warm")]) == EXIT_OK
        peaks = {}
        for items in (64, 1024):
            tracemalloc.start()
            try:
                code = main([*args, "--bank-items", str(items), "--out", str(tmp_path / "r")])
                peaks[items] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        assert abs(peaks[1024] - peaks[64]) < 0.1 * (1024 * 3 * 16 * 16 * 8)

    @pytest.mark.parametrize("argv,item_3_side,code,message", [
        (["--stages", "16:2:0"], 8, EXIT_RUNTIME,
         "frecas: error: bank item 3 has shape (3, 8, 8), not (3, 16, 16)\n"),
        (["--stages", "8:2:0"], 16, EXIT_USAGE,
         "frecas: config error: bank resolution 16 does not match the plan's target side 8\n"),
        (["--stages", "16:2:0", "--codec", "haar1"], 16, EXIT_USAGE,
         "frecas: config error: bank channels 3 are not a multiple of the haar1 codec's 4\n"),
    ], ids=["item-side", "bank-side", "codec-channels"])
    def test_saved_bank_is_refused_as_the_bank_refuses_it(self, tmp_path, capsys, argv,
                                                          item_3_side, code, message):
        # each fault is found as the items stream by, before the output
        # directory is made: a fourth grid of another side, a bank of another
        # side than the plan's and a 3-channel bank under the Haar codec
        bank = tmp_path / "bank16c3"
        save_bank(bank, make_bank("value_noise", 16, n_items=8))
        write_grid(bank / "item_0003.frcg", LatentGrid(np.zeros((3, item_3_side, item_3_side))))
        assert main(["psd", *argv, "--bank-path", str(bank), "--out", str(tmp_path / "r")]) == code
        assert capsys.readouterr().err == message
        assert not (tmp_path / "r").exists()

    def test_deterministic(self, tmp_path):
        args = ["psd", "--preset", "sdxl-x4", *FAST, "--seed", "3", "--timesteps", "300"]
        main([*args, "--out", str(tmp_path / "a")])
        main([*args, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "psd_t300.csv").read_bytes() == \
            (tmp_path / "b" / "psd_t300.csv").read_bytes()


class TestAblate:
    def test_csv_shape_and_header(self, tmp_path):
        code = main(["ablate", "--param", "w_h", "--values", "7.5,35", *FAST,
                     "--seed", "2", "--out", str(tmp_path / "a")])
        assert code == EXIT_OK
        lines = (tmp_path / "a" / "ablate_w_h.csv").read_text().strip().split("\n")
        assert lines[0] == "value,cost_units,high_band_energy,low_band_energy,bank_psd_distance"
        assert len(lines) == 3

    def test_n_sweep_costs(self, tmp_path):
        main(["ablate", "--param", "N", "--values", "0,1", *FAST,
              "--seed", "2", "--out", str(tmp_path / "a")])
        lines = (tmp_path / "a" / "ablate_N.csv").read_text().strip().split("\n")[1:]
        costs = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines}
        assert costs[0.0] == 200.0
        assert costs[1.0] == 80.0

    def test_wc_endpoints_differ(self, tmp_path):
        main(["ablate", "--param", "w_c", "--values", "0,1", *FAST,
              "--seed", "2", "--out", str(tmp_path / "a")])
        lines = (tmp_path / "a" / "ablate_w_c.csv").read_text().strip().split("\n")[1:]
        rows = [l.split(",")[2:] for l in lines]
        assert rows[0] != rows[1]

    def test_sweeping_at_preset_values_reproduces_base_run(self, tmp_path):
        # sweeping any parameter at its preset value is the unmodified run,
        # so different sweeps must produce identical metric rows; on a flow
        # schedule L = 50 is the training-timestep index of L = 0.05
        def row(preset, param, value, out):
            main(["ablate", "--preset", preset, "--param", param, "--values", value,
                  *FAST, "--seed", "2", "--out", str(tmp_path / out)])
            csv = (tmp_path / out / f"ablate_{param}.csv").read_text()
            return csv.strip().split("\n")[1].split(",")[1:]

        assert row("sdxl-x4", "w_h", "35.0", "a") == row("sdxl-x4", "L", "200", "b")
        base = row("sd3-x4", "w_h", "35.0", "c")
        assert row("sd3-x4", "L", "50", "d") == base
        assert row("sd3-x4", "L", "0.05", "e") == base

    def test_low_band_is_cut_where_the_psd_summary_cuts_it(self, tmp_path):
        # side 14 has 7 radial bins: the lowest quarter rounds to 2 bins,
        # where n_bins // 4 would give 1
        flags = ["--preset", "sdxl-x4", "--base-side", "7", "--bank-items", "8", "--seed", "2"]
        assert main(["ablate", "--param", "w_h", "--values", "35", *flags,
                     "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["sample", "--w-h", "35", *flags, "--out", str(tmp_path / "s")]) == EXIT_OK
        curve = radial_psd(read_grid(tmp_path / "s" / "image.frcg"))  # float32 dump
        assert curve.n_bins == 7 and curve.low_bins == 2 != 7 // 4
        row = (tmp_path / "a" / "ablate_w_h.csv").read_text().split("\n")[1].split(",")
        high, low = float(row[2]), float(row[3])
        assert high == pytest.approx(curve.power[2:].sum(), rel=1e-5)
        assert low == pytest.approx(curve.power[:2].sum(), rel=1e-5)
        assert low / (low + high) == pytest.approx(band_energy_fractions(curve)[0], rel=1e-5)


class TestBenchAndPresets:
    def test_bench_reports_constant_cost(self, tmp_path, capsys):
        code = main(["bench", "--stages", "8:2:100,16:1:0", "--bank-items", "4",
                     "--seed", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("cost_units = 6") == 6  # five runs + summary line
        assert "bench: median_wall_seconds = " in out
        assert "bench: proxy_speedup = 2 measured_speedup = " in out

    def test_bench_x16_preset_cost(self, capsys):
        code = main(["bench", "--preset", "sdxl-x16", "--base-side", "8",
                     "--bank-items", "8", "--seed", "1"])
        assert code == EXIT_OK
        assert "bench: cost_units = 290" in capsys.readouterr().out

    def test_presets_lists_valid_rows_and_reports_invalid_ones(self, capsys):
        # at T = 250 sd21-x16 has no entry timestep for its second transition
        # and sdxl-x16 stops a stage above t_max; the other three are valid
        assert main(["presets", "--T", "250"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert [row.split()[0] for row in out.splitlines()] == \
            ["name", "sd21-x4", "sd3-x4", "sdxl-x4"]
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("frecas: config error: preset sd21-x16: no entry timestep")
        assert lines[1].startswith("frecas: config error: preset sdxl-x16: ")
        assert "t_max = 250" in lines[1]

    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("sd21-x4", "sd21-x16", "sdxl-x4", "sdxl-x16", "sd3-x4"):
            assert name in out


class TestWhiteBankControl:
    def test_white_bank_signal_fraction_flat_at_low_noise(self, tmp_path):
        # control oracle: a white bank has no radial structure, so at low
        # noise the signal fraction per band tracks the bin count share
        code = main(["psd", "--stages", "32:2:100,64:1:0", "--bank-items", "30",
                     "--bank-kind", "white", "--seed", "4",
                     "--out", str(tmp_path / "w"), "--timesteps", "300,0"])
        assert code == EXIT_OK
        lines = (tmp_path / "w" / "psd_summary.csv").read_text().strip().split("\n")[1:]
        for line in lines:
            low = float(line.split(",")[1])
            assert abs(low - 0.25) < 0.03
