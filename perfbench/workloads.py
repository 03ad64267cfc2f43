"""The benchmark's workloads: how each is set up, what one operation calls
into frecas, and how that operation's outputs are checked.

An operation is split into `call`, the part that is timed (or traced), and
`check`, which reads its outputs afterwards. A failed check raises
`CheckFailed`; the runner counts it against the operations attempted.
"""

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# frecas functions are looked up through their modules at call time, so the
# tracer's wrappers in those modules see every call made from here.
from frecas import cascade, cli, config

CONDITION = 0
# Fixed seeds whose outputs are compared with fingerprints.json.
CHECK_SEEDS = (101, 202)
# Largest relative L2 distance ||a - b|| / ||b|| allowed between a fingerprint
# vector and its recorded value. Exact reformulations of the distances move
# these vectors by ~1e-14; scaling the posterior variance by 1 + 1e-4 moves
# them by 7e-7 or more.
FINGERPRINT_RTOL = 1e-8
# Block-mean grid of an image fingerprint, per side.
FINGERPRINT_BLOCKS = 8

ABLATE_HEADER = "value,cost_units,high_band_energy,low_band_energy,bank_psd_distance"
ABLATE_VALUES = (0.0, 1.0, 2.0, 3.0)
PSD_TIMESTEPS = (900, 600, 300, 100)
PSD_HEADER = "bin,freq,psd_total,psd_noise,psd_signal"
PSD_SUMMARY_HEADER = "t,low_band_signal_fraction,high_band_signal_fraction"


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Setup:
    """What the workload's configuration builds through frecas.config."""

    workload: "Workload"
    sched: object
    plan: object
    codec: object
    bank: object
    direct: object


def set_up(w: "Workload") -> Setup:
    sched = config.build_schedule(w.cfg)
    plan = config.build_plan(w.cfg, sched)
    codec = config.build_codec(w.cfg)
    bank = config.build_bank(w.cfg, plan, codec)
    direct = config.build_direct_plan(w.cfg, plan, sched)
    return Setup(w, sched, plan, codec, bank, direct)


@dataclass(frozen=True)
class Output:
    raw: bytes  # compared byte for byte between runs of one seed
    fingerprint: dict  # name -> 1-D float vector


@dataclass(frozen=True)
class Op:
    call: Callable  # (Setup, seed, out_dir) -> result; timed
    check: Callable  # (Setup, result, out_dir) -> Output; untimed


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: config.RunConfig
    run: Op  # the operation behind run_s
    cost_units: float | tuple | None  # of the run operation's cascade(s)
    direct_cost: float  # cost_units of the single-stage baseline


def image_fingerprint(data: np.ndarray) -> np.ndarray:
    c, h, w = data.shape
    b = FINGERPRINT_BLOCKS
    return data.reshape(c, b, h // b, b, w // b).mean(axis=(2, 4)).ravel()


def fingerprint_mismatches(got: dict, recorded: dict) -> list:
    """Names of recorded vectors that `got` lacks or misses by more than
    FINGERPRINT_RTOL in relative L2 distance."""
    bad = []
    for name, ref in recorded.items():
        ref = np.asarray(ref, dtype=np.float64)
        vec = got.get(name)
        if vec is None or vec.shape != ref.shape or not (
            np.linalg.norm(vec - ref) <= FINGERPRINT_RTOL * np.linalg.norm(ref)
        ):
            bad.append(name)
    return bad


def _check_image(image, report, plan, expected_cost) -> Output:
    require(bool(np.all(np.isfinite(image.data))), "image has non-finite values")
    cost = cascade.compute_cost(plan)
    require(report.cost_units == cost == expected_cost,
            f"cost_units {report.cost_units!r}, compute_cost {cost!r}, "
            f"expected {expected_cost!r}")
    return Output(image.data.tobytes(), {"image": image_fingerprint(image.data)})


def _call_cascade(s: Setup, seed: int, out: str):
    return cascade.run_cascade(s.plan, s.codec, s.bank, CONDITION, seed)


def _call_direct(s: Setup, seed: int, out: str):
    return cascade.run_cascade(s.direct, s.codec, s.bank, CONDITION, seed)


def _check_cascade(s: Setup, result, out: str) -> Output:
    return _check_image(*result, s.plan, s.workload.cost_units)


def _check_direct(s: Setup, result, out: str) -> Output:
    return _check_image(*result, s.direct, s.workload.direct_cost)


def _call_cli(argv):
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects bad arguments this way
        rc = e.code
    return rc, log.getvalue()


def _read_csv(path: str, header: str) -> tuple:
    with open(path, "rb") as f:
        raw = f.read()
    lines = raw.decode().splitlines()
    require(bool(lines) and lines[0] == header, f"{path}: unexpected header")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    require(rows.ndim == 2 and bool(np.all(np.isfinite(rows))),
            f"{path}: missing or non-finite values")
    return raw, rows


def _require_exit_0(result):
    rc, log = result
    require(rc == 0, f"exit code {rc}: {log.strip()}")


def _call_ablate(s: Setup, seed: int, out: str):
    return _call_cli(["ablate", "--preset", "sd3-x4", "--param", "N",
                      "--values", "0,1,2,3", "--codec", "haar1",
                      "--bank-items", "32", "--seed", str(seed), "--out", out])


def _check_ablate(s: Setup, result, out: str) -> Output:
    _require_exit_0(result)
    raw, rows = _read_csv(os.path.join(out, "ablate_N.csv"), ABLATE_HEADER)
    require(rows.shape == (len(ABLATE_VALUES), 5), f"ablate CSV has shape {rows.shape}")
    require(tuple(rows[:, 0]) == ABLATE_VALUES, f"ablate values {rows[:, 0]}")
    costs = s.workload.cost_units
    require(tuple(rows[:, 1]) == costs,
            f"ablate cost_units {tuple(rows[:, 1])}, expected {costs}")
    fingerprint = {f"N={v:g}": row[2:] for v, row in zip(ABLATE_VALUES, rows)}
    return Output(raw, fingerprint)


def _call_psd(s: Setup, seed: int, out: str):
    return _call_cli(["psd", "--preset", "sdxl-x4", "--timesteps", "900,600,300,100",
                      "--seed", str(seed), "--out", out])


def _check_psd(s: Setup, result, out: str) -> Output:
    _require_exit_0(result)
    raws, fingerprint = [], {}
    n_bins = s.plan.stages[-1].resolution.side // 2
    for t in PSD_TIMESTEPS:
        raw, rows = _read_csv(os.path.join(out, f"psd_t{t}.csv"), PSD_HEADER)
        require(rows.shape == (n_bins, 5), f"psd_t{t}.csv has shape {rows.shape}")
        for j, column in enumerate(PSD_HEADER.split(",")[2:], start=2):
            fingerprint[f"t={t}:{column}"] = rows[:, j]
        raws.append(raw)
    raw, rows = _read_csv(os.path.join(out, "psd_summary.csv"), PSD_SUMMARY_HEADER)
    require(tuple(rows[:, 0]) == tuple(float(t) for t in PSD_TIMESTEPS),
            f"psd summary timesteps {rows[:, 0]}")
    fingerprint["summary"] = rows[:, 1:].ravel()
    raws.append(raw)
    return Output(b"".join(raws), fingerprint)


DIRECT = Op(_call_direct, _check_direct)

SDXL_X4 = Workload(
    name="sdxl-x4",
    cfg=config.RunConfig(),
    run=Op(_call_cascade, _check_cascade),
    cost_units=80.0,
    direct_cost=200.0,
)
ABLATE_SD3_HAAR = Workload(
    name="ablate-sd3-haar",
    cfg=config.RunConfig(preset="sd3-x4", codec="haar1", bank_items=32),
    run=Op(_call_ablate, _check_ablate),
    cost_units=(112.0, 52.0, 43.91015625, 42.7451171875),  # N = 0, 1, 2, 3
    direct_cost=112.0,
)
PSD_SDXL = Workload(
    name="psd-sdxl",
    cfg=config.RunConfig(),
    run=Op(_call_psd, _check_psd),
    cost_units=None,
    direct_cost=200.0,
)

WORKLOADS = {w.name: w for w in (SDXL_X4, ABLATE_SD3_HAAR, PSD_SDXL)}
