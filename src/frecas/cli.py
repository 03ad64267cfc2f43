"""Command-line surface: cascade runs, PSD curve extraction, parameter
ablations, the cost/latency bench, and the preset listing.

Exit codes: 0 success, 1 usage/config error, 2 runtime/domain error, 3 IO
error. Every command is fully reproducible for a fixed seed; outputs carry
no timestamps.
"""

import argparse
import os
import statistics
import sys
import time
from dataclasses import fields, replace

import numpy as np

from .bank import LatentBank, check_items
from .cascade import PRESETS, compute_cost, run_cascade, stage_costs
from .codec import decode
from .config import (
    ConfigError,
    RunConfig,
    _coerce,
    ablation_plan,
    build_bank,
    build_codec,
    build_direct_plan,
    build_plan,
    build_schedule,
    item_source,
    parse_config_file,
    target_side,
)
from .freq import PsdCurve, band_energy_fractions, psd_decomposition, radial_psd, write_psd_csv
from .grid import LatentGrid, Resolution, seeded_gaussian, subseed, write_grid
from .schedule import ScheduleKind

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

_SUBSEED_PSD_NOISE = 2


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def write_image(path, g: LatentGrid) -> str | None:
    """Write a portable graymap (1 channel) or pixmap (3 channels).

    Values are min-max normalized to [0, 255] per image; a constant image
    maps to 0. Returns the path, or None for unsupported channel counts.
    """
    if g.channels not in (1, 3):
        return None
    lo = float(g.data.min())
    hi = float(g.data.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    quant = np.clip(np.rint((g.data - lo) * scale), 0, 255).astype(np.uint8)
    magic = b"P5" if g.channels == 1 else b"P6"
    body = quant[0] if g.channels == 1 else np.transpose(quant, (1, 2, 0))
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (g.width, g.height))
        f.write(body.tobytes())
    return path


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_manifest(path, entries) -> None:
    with open(path, "w") as f:
        for key, value in entries:
            f.write(f"{key} = {_fmt(value)}\n")


def _manifest_entries(cfg: RunConfig, plan, cost, direct_cost, outputs):
    entries = [
        ("seed", cfg.seed),
        ("preset", cfg.preset if cfg.stages is None else "custom"),
        ("schedule", plan.schedule.kind.value),
        ("codec", cfg.codec),
        ("condition", cfg.condition),
        ("train_side", plan.train_side),
        ("cost_units", cost),
        ("direct_cost_units", direct_cost),
        ("proxy_speedup", direct_cost / cost),
        ("bank.kind", cfg.bank_kind if not cfg.bank_path else "path"),
        ("bank.path", cfg.bank_path or ""),
        ("bank.seed", cfg.bank_seed),
        ("bank.items", cfg.bank_items),
        ("bank.classes", cfg.bank_classes),
        ("bank.channels", cfg.bank_channels),
    ]
    stages = zip(plan.stages, plan.first_timesteps, stage_costs(plan))
    for i, (spec, first, cost) in enumerate(stages):
        entries.append((f"stage.{i}.resolution", spec.resolution.side))
        entries.append((f"stage.{i}.steps", spec.steps))
        entries.append((f"stage.{i}.first_timestep", first))
        entries.append((f"stage.{i}.last_timestep", spec.last_timestep))
        entries.append((f"stage.{i}.cost_units", cost))
    for key, value in outputs:
        entries.append((f"output.{key}", value))
    return entries


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_sample(cfg: RunConfig) -> int:
    sched = build_schedule(cfg)
    plan = build_plan(cfg, sched)
    codec = build_codec(cfg)
    bank = build_bank(cfg, plan, codec)

    # write_grid makes the out directory, at the first stage dump or once
    # the run has returned, so a failed run leaves none
    dumps = []

    def dump_stage(i, z):
        if cfg.dump_stages:
            name = f"stage_{i}.frcg"
            write_grid(os.path.join(cfg.out, name), z)
            dumps.append((f"stage_{i}", name))

    image, _ = run_cascade(
        plan, codec, bank, cfg.condition, cfg.seed, stage_callback=dump_stage,
    )
    cost, direct_cost = compute_cost(plan), compute_cost(build_direct_plan(cfg, plan, sched))

    # the grid goes first: it refuses a latent beyond the float32 range
    # before it makes the directory
    write_grid(os.path.join(cfg.out, "image.frcg"), image)
    img_name = "image.pgm" if image.channels == 1 else "image.ppm"
    outputs = [("image", img_name)] if write_image(os.path.join(cfg.out, img_name), image) else []
    outputs += [("grid", "image.frcg"), *dumps]
    write_manifest(
        os.path.join(cfg.out, "manifest.txt"),
        _manifest_entries(cfg, plan, cost, direct_cost, outputs),
    )
    print(f"cost_units = {_fmt(cost)}")
    print(f"proxy_speedup = {_fmt(direct_cost / cost)} "
          f"(direct {_fmt(direct_cost)} at target resolution)")
    print(f"wrote {cfg.out}/manifest.txt")
    return EXIT_OK


def cmd_psd(cfg: RunConfig, timesteps) -> int:
    sched = build_schedule(cfg)
    if sched.kind is not ScheduleKind.VARIANCE_PRESERVING:
        raise ConfigError("psd analysis requires a variance-preserving schedule")
    bad = [t for t in timesteps if not 0 <= t <= sched.T]
    if bad:
        raise ConfigError(f"--timesteps must lie in [0, {sched.T}], got {bad[0]:g}")
    names = [f"psd_t{t:g}.csv" for t in timesteps]
    clash = [name for i, name in enumerate(names) if name in names[:i]]
    if clash:
        raise ConfigError(f"--timesteps lists two timesteps written to {clash[0]}")
    side = target_side(cfg)
    source = item_source(cfg, side, build_codec(cfg))

    # per timestep, the three curves summed over the items in the order
    # given, the i-th with noise subseed i: each item is transformed as it
    # arrives and then dropped, so no bank is held
    sums = np.zeros((len(timesteps), 3, side // 2))
    for i, item in enumerate(check_items(source.items)):
        noise = seeded_gaussian(item.shape, subseed(cfg.seed, _SUBSEED_PSD_NOISE, i))
        sums += psd_decomposition(LatentGrid(item), noise, timesteps, sched)
    os.makedirs(cfg.out, exist_ok=True)
    summary = ["t,low_band_signal_fraction,high_band_signal_fraction"]
    for t, name, acc in zip(timesteps, names, sums):
        curves = [PsdCurve(a / len(source.class_ids), Resolution(side)) for a in acc]
        write_psd_csv(os.path.join(cfg.out, name), *curves)
        low, high = band_energy_fractions(curves[2])
        summary.append(f"{t:g},{low:.17g},{high:.17g}")
    with open(os.path.join(cfg.out, "psd_summary.csv"), "w") as f:
        f.write("\n".join(summary) + "\n")
    print(f"wrote {len(timesteps)} PSD curves and psd_summary.csv to {cfg.out}/")
    return EXIT_OK


def _bank_mean_psd(bank: LatentBank, codec) -> np.ndarray:
    curves = (radial_psd(decode(codec, bank.item(k))) for k in range(bank.size))
    return sum(c.power for c in curves) / bank.size


def cmd_ablate(cfg: RunConfig, param: str, values) -> int:
    sched = build_schedule(cfg)
    plans = [ablation_plan(cfg, param, v, sched) for v in values]
    base_plan = build_plan(cfg, sched)
    codec = build_codec(cfg)
    # every variant ends at the same target resolution, so one bank and one
    # reference spectrum serve the whole sweep. It is built for the
    # one-stage direct plan and keeps no stage bank: a variant resamples its
    # own, one at a time. Variants that agree on stage 0 (an N, w_h or w_c
    # sweep) share its run, its denoise and its decode through `shared`,
    # dropped with the sweep
    bank = build_bank(cfg, build_direct_plan(cfg, base_plan, sched), codec)
    bank_psd = _bank_mean_psd(bank, codec)
    shared = {}

    def one(plan):
        image, _ = run_cascade(plan, codec, bank, cfg.condition, cfg.seed, shared=shared)
        curve = radial_psd(image)
        cut = curve.low_bins
        low, high = curve.power[:cut].sum(), curve.power[cut:].sum()
        dist = float(np.sqrt(np.sum((curve.power - bank_psd) ** 2)))
        return compute_cost(plan), float(high), float(low), dist

    rows = [one(p) for p in plans]
    os.makedirs(cfg.out, exist_ok=True)
    lines = ["value,cost_units,high_band_energy,low_band_energy,bank_psd_distance"]
    for v, (cost, high, low, dist) in zip(values, rows):
        lines.append(f"{v:g},{cost:.17g},{high:.17g},{low:.17g},{dist:.17g}")
    path = os.path.join(cfg.out, f"ablate_{param}.csv")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    """One untimed (cascade, direct) pair warms the process and the bank's
    lazy Gram and patch norms (its stage banks are built with it), then
    five timed pairs alternate, so drift falls on both sides alike.
    The measured speedup is the median of the pairs' direct / cascade
    ratios, printed with their range."""
    sched = build_schedule(cfg)
    plan = build_plan(cfg, sched)
    direct = build_direct_plan(cfg, plan, sched)
    codec = build_codec(cfg)
    bank = build_bank(cfg, plan, codec)

    def seconds(p, i):
        start = time.perf_counter()
        run_cascade(p, codec, bank, cfg.condition, cfg.seed + i)
        return time.perf_counter() - start

    for p in (plan, direct):  # the untimed warm pair
        seconds(p, 0)
    pairs = [(seconds(plan, i), seconds(direct, i)) for i in range(5)]
    cost, direct_cost = compute_cost(plan), compute_cost(direct)
    for i, (secs, direct_secs) in enumerate(pairs):
        print(f"run {i}: wall_seconds = {secs:.3f} direct_wall_seconds = {direct_secs:.3f} "
              f"cost_units = {_fmt(cost)}")
    wall = statistics.median(secs for secs, _ in pairs)
    direct_wall = statistics.median(d for _, d in pairs)
    ratios = [d / secs for secs, d in pairs]
    print(f"bench: median_wall_seconds = {wall:.3f} "
          f"(direct {direct_wall:.3f} at target resolution)")
    print(f"bench: cost_units = {_fmt(cost)}")
    print(f"bench: proxy_speedup = {_fmt(direct_cost / cost)} "
          f"measured_speedup = {statistics.median(ratios):.3f} "
          f"(min {min(ratios):.3f}, max {max(ratios):.3f} over {len(pairs)} pairs)")
    return EXIT_OK


def cmd_presets(cfg: RunConfig) -> int:
    """The table of presets valid at cfg's T and base side. Each invalid
    preset gets its own config-error line and makes the exit code 1."""
    rows, invalid = [], 0
    for name in sorted(PRESETS):
        p = PRESETS[name]
        preset_cfg = RunConfig(preset=name, T=cfg.T, base_side=cfg.base_side)
        sched = build_schedule(preset_cfg)
        try:
            plan = build_plan(preset_cfg, sched)
        except ConfigError as e:
            print(f"frecas: config error: preset {name}: {e}", file=sys.stderr)
            invalid += 1
            continue
        direct = compute_cost(build_direct_plan(preset_cfg, plan, sched))
        sides = ",".join(str(s.resolution.side) for s in plan.stages)
        steps = ",".join(str(s) for s in p.steps)
        ls = ",".join(f"{v:g}" for v in p.last_timesteps)
        cost = compute_cost(plan)
        rows.append(f"{name:10s} {sched.kind.value:8s} {sides:14s} {steps:12s} "
                    f"{ls:10s} {p.gamma:<5g} {p.w_l:<5g} {p.w_h:<5g} {p.w_c:<4g} "
                    f"{cost:<6g} {direct / cost:<7.3g}")
    if rows:
        print(f"{'name':10s} {'schedule':8s} {'sides':14s} {'steps':12s} {'L':10s} "
              f"{'gamma':5s} {'w_l':5s} {'w_h':5s} {'w_c':4s} {'cost':6s} {'speedup':7s}")
        print("\n".join(rows))
    return EXIT_USAGE if invalid else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--config", help="config file (key = value lines)")
    for f in fields(RunConfig):
        # argparse only collects strings; config._coerce types them
        switch = {"action": "store_true", "default": None} if f.type is bool else {}
        default = "" if f.default is None else f" (default {f.default})"
        p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"] + default,
                       **switch)


def _build_parser():
    parser = _Parser(prog="frecas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("sample", "run the cascade and write image, dumps and manifest"),
        ("psd", "write radial PSD decompositions of bank latents at given timesteps"),
        ("ablate", "sweep one parameter and write a metrics CSV"),
        ("bench", "after one untimed pair, time five alternating cascade and direct runs; "
                  "report medians and the speedup's range over the pairs"),
        ("presets", "list the shipped cascade presets"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "psd":
            p.add_argument("--timesteps", default="900,600,300,0",
                           help="comma list of timesteps")
        if name == "ablate":
            p.add_argument("--param", required=True)
            p.add_argument("--values", required=True,
                           help="comma list of parameter values")
    return parser


def _float_list(flag: str, text: str) -> list:
    """The numbers of a comma-list flag; a bad or missing one is a config error."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"{flag}: {e}") from e
    if not values:
        raise ConfigError(f"{flag} must list at least one value")
    return values


def _config_from_args(args) -> RunConfig:
    """The defaults, overridden by the config file, overridden by the flags."""
    values = parse_config_file(args.config) if args.config else {}
    for name in RunConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value if value is True else _coerce(name, value)
    return replace(RunConfig(), **values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "sample":
            return cmd_sample(cfg)
        if args.command == "psd":
            return cmd_psd(cfg, _float_list("--timesteps", args.timesteps))
        if args.command == "ablate":
            return cmd_ablate(cfg, args.param, _float_list("--values", args.values))
        if args.command == "bench":
            return cmd_bench(cfg)
        if args.command == "presets":
            return cmd_presets(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"frecas: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"frecas: io error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, AssertionError, MemoryError) as e:
        print(f"frecas: error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
