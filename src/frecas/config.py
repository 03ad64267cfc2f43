"""Run configuration: a flat key/value text format plus the logic that turns
a config into a stage plan, codec, and latent bank.

The bank settings are read once, into an item source (`item_source`) that
makes every check of the settings before it yields the bank's items one at
a time. It has two consumers: `build_bank` blocks each item into a
`LatentBank`, and keeps that bank resampled to each earlier stage side of
the plan on it, and ``frecas psd`` transforms each item as it arrives and
holds no bank.

Config files hold one ``key = value`` pair per line; ``#`` starts a comment.
Dotted keys group related settings (``bank.kind = value_noise``). Command
line flags override file values, which override the defaults of `RunConfig`.

The fields of `RunConfig` are the only list of settings. A field's key is its
name in lower case with ``bank_`` written ``bank.``, its flag is ``--`` plus
the name with ``_`` written ``-`` (``bank.items`` is ``--bank-items``, ``T``
is ``--T``), and its annotation types the values of both routes.

Each field's ``help`` metadata describes its setting; ``frecas <command>
--help`` prints them with their defaults.
"""

from dataclasses import dataclass, field, fields, replace
from functools import wraps
from types import MappingProxyType
from typing import get_args

from .bank import ItemSource, LatentBank, bank_resample, procedural_items, saved_items
from .cascade import PRESETS, Preset, StagePlan, ladder, stage_timesteps
from .codec import LatentCodec
from .grid import Resolution
from .schedule import MAX_T, NoiseSchedule, flow_schedule, vp_default


class ConfigError(ValueError):
    pass


def _setting(default, text: str):
    return field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class RunConfig:
    preset: str | None = _setting("sdxl-x4", "a shipped cascade preset, listed by frecas presets")
    stages: str | None = _setting(None, "explicit plan: comma list of side:steps:L triples, "
                                        "the final L 0; overrides the preset ladder")
    base_side: int = _setting(32, "latent side of stage 0 when materializing a preset")
    schedule: str | None = _setting(None, "vp | flow; a preset picks its own, a stage list vp")
    T: int = _setting(1000, f"training timesteps of the schedule, 1 to {MAX_T}")
    gamma: float | None = _setting(None, "SNR exponent of VP transition shifts, no effect on "
                                         "flow; a preset sets its own")
    w_l: float | None = _setting(None, "low-band guidance strength; a preset sets its own")
    w_h: float | None = _setting(None, "high-band guidance strength; a preset sets its own")
    w_c: float | None = _setting(None, "attention-map fusion weight in [0, 1]; a preset sets "
                                       "its own")
    condition: int = _setting(0, "class id to condition on")
    codec: str = _setting("identity", "identity | haar1")
    seed: int = _setting(0, "run seed")
    out: str = _setting("out", "output directory")
    dump_stages: bool = _setting(False, "dump each stage's final latent")
    bank_path: str | None = _setting(None, "directory of a saved bank, used in place of a "
                                           "procedural one")
    bank_kind: str = _setting("value_noise", "procedural bank kind: value_noise | white")
    bank_seed: int = _setting(0, "procedural generator seed")
    bank_items: int = _setting(100, "procedural item count")
    bank_classes: int = _setting(4, "procedural class count, at most bank.items")
    bank_channels: int = _setting(3, "procedural image channels, 1 or 3")

    def __post_init__(self):
        for key, seed in (("seed", self.seed), ("bank.seed", self.bank_seed)):
            if seed < 0:
                raise ConfigError(f"{key} must be non-negative, got {seed}")


# config-file key -> field: the name in lower case, ``bank_*`` written ``bank.*``
_KEY_FIELDS = {f.name.lower().replace("bank_", "bank.", 1): f.name for f in fields(RunConfig)}
# The value type of each field: its annotation with None stripped.
_FIELD_TYPES = {
    f.name: next(t for t in get_args(f.type) or (f.type,) if t is not type(None))
    for f in fields(RunConfig)
}


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into a field dict."""
    values = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        fname = _KEY_FIELDS.get(key.lower())
        if fname is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[fname] = _coerce(fname, value)
    return values


def _coerce(fname: str, value: str):
    """Type a config-file or flag value as the field's annotation says."""
    kind = _FIELD_TYPES[fname]
    if kind is bool:
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{fname}: expected a boolean, got {value!r}")
    try:
        return kind(value)
    except ValueError as e:
        raise ConfigError(f"{fname}: {e}") from e


def _builder(build):
    """A public builder: a schedule or plan check's ValueError becomes a
    ConfigError with the same message, since the settings asked for it."""
    @wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(str(e)) from e
    return checked


@_builder
def build_schedule(cfg: RunConfig) -> NoiseSchedule:
    kind = cfg.schedule
    if kind is None:
        kind = _preset(cfg).schedule_kind.value if cfg.preset and cfg.stages is None else "vp"
    if kind == "vp":
        return vp_default(cfg.T)
    if kind == "flow":
        return flow_schedule(cfg.T)
    raise ConfigError(f"unknown schedule kind {kind!r}")


def _preset(cfg: RunConfig) -> Preset:
    if cfg.preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {cfg.preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[cfg.preset]


# gamma and the guidance weights of a stage list; a preset sets its own
_STAGE_LIST_SHARED = {"gamma": 2.0, "w_l": 7.5, "w_h": 35.0, "w_c": 0.6}


def _stage_triples(cfg: RunConfig) -> list:
    triples = []
    for part in cfg.stages.split(","):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ConfigError(f"stage {part!r}: expected side:steps:last_timestep")
        try:
            triples.append((int(bits[0]), int(bits[1]), float(bits[2])))
        except ValueError as e:
            raise ConfigError(f"stage {part!r}: {e}") from e
    return triples


def _read_ladder(cfg: RunConfig):
    """The unchecked ladder of a preset (sides: multipliers times base_side)
    or a stage list: (sides, steps, each L as written, the preset's schedule
    kind or None, {gamma, w_l, w_h, w_c} with each set field overriding)."""
    if cfg.stages is None:
        p = _preset(cfg)
        sides = [cfg.base_side * m for m in p.scale_per_stage]
        steps, lasts, kind = p.steps, (*p.last_timesteps, 0.0), p.schedule_kind
        shared = {name: getattr(p, name) for name in _STAGE_LIST_SHARED}
    else:
        sides, steps, lasts = zip(*_stage_triples(cfg))
        kind, shared = None, _STAGE_LIST_SHARED
    shared = {name: value if getattr(cfg, name) is None else getattr(cfg, name)
              for name, value in shared.items()}
    return sides, steps, lasts, kind, shared


@_builder
def build_plan(cfg: RunConfig, sched: NoiseSchedule) -> StagePlan:
    sides, steps, lasts, kind, shared = _read_ladder(cfg)
    if kind not in (None, sched.kind):
        raise ConfigError(f"preset {cfg.preset} needs a {kind.value} schedule")
    if lasts[-1] != 0:
        raise ConfigError("final stage must run to timestep 0")
    return ladder(sides, steps, stage_timesteps(lasts[:-1], sched), sched=sched, **shared)


def build_direct_plan(cfg: RunConfig, plan: StagePlan, sched: NoiseSchedule) -> StagePlan:
    """Single-stage baseline at the plan's target resolution: the plan's
    total steps and guidance weights, no attention fusion, and cost units
    relative to the plan's training side."""
    return ladder(
        [plan.stages[-1].resolution.side], [sum(s.steps for s in plan.stages)], [],
        w_l=plan.w_l, w_h=plan.w_h, w_c=0.0, gamma=plan.gamma,
        sched=sched, train_side=plan.train_side,
    )


@_builder
def ablation_plan(cfg: RunConfig, param: str, value: float, sched: NoiseSchedule) -> StagePlan:
    """The plan `frecas ablate` runs at one value of `param`, a transform of
    the settings' plan: a guidance weight (w_l, w_h, w_c) replaced, every
    non-final L replaced (read by `stage_timesteps`), or the ladder re-cut
    into N stages after stage 0 (N = 0 is the direct plan)."""
    plan = build_plan(cfg, sched)
    if param in ("w_l", "w_h", "w_c"):
        return replace(plan, **{param: value})
    if param == "L":
        *head, last = plan.stages
        L, = stage_timesteps([value], sched)
        return replace(plan, stages=(*(replace(s, last_timestep=L) for s in head), last))
    if param != "N":
        raise ConfigError(f"unknown ablation parameter {param!r}; "
                          "choose from w_h, w_l, w_c, N, L")
    if not (float(value).is_integer() and value >= 0):
        raise ConfigError(f"N must be a non-negative integer, got {value}")
    n = int(value)
    if n == 0:
        return build_direct_plan(cfg, plan, sched)
    # n more sides, geometric up to the target, split the later steps and stop at stage 0's L
    first, *later = plan.stages
    budget = sum(s.steps for s in later)
    if budget < n:
        raise ConfigError(f"later stages' step budget {budget} too small for N={n}")
    ratio = plan.stages[-1].resolution.side / first.resolution.side
    sides = [int(round(first.resolution.side * ratio ** (i / n))) for i in range(n + 1)]
    if any(b <= a for a, b in zip(sides, sides[1:])):
        raise ConfigError(f"N={n} collapses the resolution ladder {sides}")
    extra = [budget // n] * n
    for i in range(budget % n):
        extra[-1 - i] += 1
    return ladder(sides, [first.steps, *extra], [first.last_timestep] * n,
                  w_l=plan.w_l, w_h=plan.w_h, w_c=plan.w_c, gamma=plan.gamma, sched=sched,
                  train_side=plan.train_side)


def build_codec(cfg: RunConfig) -> LatentCodec:
    try:
        return LatentCodec(cfg.codec)
    except ValueError:
        raise ConfigError(f"unknown codec {cfg.codec!r}") from None


@_builder
def target_side(cfg: RunConfig) -> int:
    """The latent side of the plan's final stage, the last side of
    `_read_ladder`, without building (or checking) the whole plan."""
    return Resolution(_read_ladder(cfg)[0][-1]).side


def build_bank(cfg: RunConfig, plan: StagePlan, codec: LatentCodec) -> LatentBank:
    """Latent bank at the plan's highest stage resolution, which must hold
    items of the run's condition: its :func:`item_source`, built item by item.

    The bank is the model of every stage: it is resampled here, once, to
    each earlier stage side of the plan, and each stage bank, with its patch
    norms, is kept on it (`LatentBank.stage_banks`), so a run of the plan
    resamples nothing. The bank's own Gram and patch norms are built on
    first read."""
    bank = LatentBank(*item_source(cfg, plan.stages[-1].resolution.side, codec, cfg.condition))
    kept = {}
    for spec in plan.stages[:-1]:
        kept[spec.resolution.side] = stage_bank = bank_resample(bank, spec.resolution)
        stage_bank.patch_norms  # built at set-up, not in a run
    bank.stage_banks = MappingProxyType(kept)
    return bank


def _check_condition(condition: int | None, classes) -> None:
    if condition is not None and condition not in classes:
        raise ConfigError(f"condition {condition} is not a class of the bank; "
                          f"available: {', '.join(str(c) for c in classes)}")


def item_source(cfg: RunConfig, latent_side: int, codec: LatentCodec,
                condition: int | None = None) -> ItemSource:
    """The items of the settings' bank at one latent side, holding items of
    ``condition`` if given, in the order given.

    Every check of the settings and of a saved bank's manifest is made here,
    before an item is drawn or read. A saved bank's classes are its
    manifest's, and its first grid must have the latent side and a channel
    count the codec can decode, checked as it is read. Procedural banks hold
    the classes 0 .. bank.classes - 1 (item k has id k % bank.classes); they
    are drawn as image-space textures at the matching pixel resolution and
    encoded one at a time as they are asked for (`procedural_items`), so
    they are valid latents for any codec.
    """
    if cfg.bank_path:
        source = saved_items(cfg.bank_path)
        _check_condition(condition, sorted(set(source.class_ids.tolist())))
        return source._replace(items=_at_side(source.items, latent_side, codec))
    for key, count in (("bank.items", cfg.bank_items), ("bank.classes", cfg.bank_classes),
                       ("bank.channels", cfg.bank_channels)):
        if count < 1:
            raise ConfigError(f"{key} must be at least 1, got {count}")
    if cfg.bank_channels not in (1, 3):
        raise ConfigError(f"bank.channels must be 1 or 3, got {cfg.bank_channels}")
    if cfg.bank_classes > cfg.bank_items:
        raise ConfigError(f"bank.classes ({cfg.bank_classes}) exceeds bank.items "
                          f"({cfg.bank_items}): a class with no items is never a condition")
    _check_condition(condition, range(cfg.bank_classes))
    try:
        return procedural_items(
            cfg.bank_kind,
            latent_side * codec.spatial_factor,
            channels=cfg.bank_channels,
            n_items=cfg.bank_items,
            n_classes=cfg.bank_classes,
            seed=cfg.bank_seed,
            codec=codec,
        )
    except ValueError as e:  # an unknown bank.kind
        raise ConfigError(str(e)) from e


def _at_side(grids, latent_side: int, codec: LatentCodec):
    """Saved grids as they are read, the first checked against the latent
    side and the codec's channel factor."""
    grids = iter(grids)
    first = next(grids)
    channels, side, width = first.shape
    if side == width:  # a grid that is not square is refused by `check_items`, as in a bank
        if side != latent_side:
            raise ConfigError(f"bank resolution {side} does not match the "
                              f"plan's target side {latent_side}")
        if channels % codec.channel_factor:
            raise ConfigError(f"bank channels {channels} are not a multiple of the "
                              f"{codec.value} codec's {codec.channel_factor}")
    yield first
    yield from grids
