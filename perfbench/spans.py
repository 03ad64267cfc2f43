"""Span tracing from outside the frecas package.

`Tracer.install` swaps each traced function for a recording wrapper in every
loaded ``frecas`` module that holds it, so a function is traced where it is
imported as well as where it is defined (``frecas.cascade.predict`` is the
name the cascade calls, not ``frecas.bank.predict``). `Tracer.uninstall`
puts the originals back, so untraced operations run the unmodified program.

Spans live in memory as ``[name, start, end, parent, op, tags]`` lists and
are written once, by `Tracer.write`, when the run ends. Self time is derived
afterwards: a span's duration minus the durations of its direct children.
"""

import json
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

# Module -> functions traced in it. Span names are "<module>.<function>",
# with the private `_kernels` module named "kernels".
TARGETS = {
    "_kernels": ("bilinear_resample", "sq_dists", "patch_sq_dists", "patch_mix"),
    "bank": ("predict", "bank_resample"),
    "sampler": ("cfg_combine", "facfg_combine", "predict_z0", "ddim_step",
                "euler_flow_step"),
    "freq": ("band_split", "radial_psd", "psd_decomposition"),
    "codec": ("encode", "decode"),
    "grid": ("resample_bilinear", "resample_bilinear_rect", "seeded_gaussian"),
    "schedule": ("diffuse", "shift_timestep_vp", "shift_timestep_flow"),
    "cascade": ("run_cascade", "run_stage", "transition", "fuse_ca_maps",
                "average_ca_maps", "resample_ca_map"),
    "config": ("build_bank",),
    "cli": ("main",),
}

# Children of a transition span, by the transition sub-step they belong to.
TRANSITION_STEPS = {
    "bank.predict": "denoise",
    "sampler.predict_z0": "denoise",
    "codec.decode": "decode",
    "grid.resample_bilinear_rect": "interpolate",
    "codec.encode": "encode",
    "schedule.shift_timestep_vp": "diffuse",
    "schedule.shift_timestep_flow": "diffuse",
    "grid.seeded_gaussian": "diffuse",
    "schedule.diffuse": "diffuse",
}

CA_MAP_SPANS = ("cascade.fuse_ca_maps", "cascade.average_ca_maps",
                "cascade.resample_ca_map")


def span_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _kernel_bytes(args, kwargs, out):
    # computed, not measured: both operands read once, the result written once
    return {"bytes": args[0].nbytes + args[1].nbytes + out.nbytes}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._resampled = {}  # (id(bank), side) -> bank, for the current op
        self._patched = []

    # -- tags computed from a call's arguments and result -------------------

    def _predict_tags(self, args, kwargs, out):
        return {"mixture": kwargs.get("ca_mixture") is not None}

    def _resample_tags(self, args, kwargs, out):
        bank = _arg(args, kwargs, 0, "bank")
        side = _arg(args, kwargs, 1, "target").side
        key = (id(bank), side)
        repeat = key in self._resampled
        self._resampled[key] = bank  # keeps id(bank) unique within the op
        return {"side": side, "repeat": repeat}

    def _stage_tags(self, args, kwargs, out):
        spec = _arg(args, kwargs, 0, "spec")
        return {"side": spec.resolution.side, "steps": spec.steps}

    def _run_tags(self, args, kwargs, out):
        return {"stages": len(_arg(args, kwargs, 0, "plan").stages)}

    def _tagger(self, name):
        return {
            "kernels.patch_sq_dists": _kernel_bytes,
            "kernels.sq_dists": _kernel_bytes,
            "bank.predict": self._predict_tags,
            "bank.bank_resample": self._resample_tags,
            "cascade.run_stage": self._stage_tags,
            "cascade.run_cascade": self._run_tags,
        }.get(name)

    # -- installing and removing the wrappers -------------------------------

    def _wrap(self, name, fn):
        spans, stack, tagger = self.spans, self._stack, self._tagger(name)

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if tagger is not None:
                record[5] = tagger(args, kwargs, out)
            return out

        return traced

    def install(self):
        wrappers = {}
        for module, functions in TARGETS.items():
            mod = sys.modules[f"frecas.{module}"]
            for function in functions:
                fn = getattr(mod, function)
                wrappers[id(fn)] = (fn, self._wrap(span_name(module, function), fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "frecas" and not modname.startswith("frecas."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    def traced(self, op_id, call, *args):
        """Run call(*args) as operation op_id with every wrapper installed."""
        self._op = op_id
        self._resampled = {}
        self.install()
        try:
            return call(*args)
        finally:
            self.uninstall()
            self._op = None
            self._resampled = {}

    def write(self, path, origin):
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, tags) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op,
                    "tags": tags,
                }) + "\n")


# ---------------------------------------------------------------------------
# aggregation: spans -> per-operation totals -> per-layer metrics
# ---------------------------------------------------------------------------

@dataclass
class Total:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0
    tagged: list = field(default_factory=list)


@dataclass
class OpTotals:
    by_name: dict = field(default_factory=dict)
    transition: dict = field(default_factory=dict)  # sub-step -> seconds

    def get(self, name) -> Total:
        return self.by_name.get(name, Total())


def op_totals(spans) -> dict:
    """Per operation id: calls, inclusive and self seconds, computed bytes."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, tags in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, op, tags) in enumerate(spans):
        totals = out.setdefault(op, OpTotals())
        t = totals.by_name.setdefault(name, Total())
        dur = end - start
        t.calls += 1
        t.s += dur
        t.self_s += dur - child[i]
        if tags is not None:
            t.bytes += tags.get("bytes", 0)
            t.tagged.append((tags, dur))
        if parent >= 0 and spans[parent][0] == "cascade.transition":
            step = TRANSITION_STEPS.get(name)
            if step is not None:
                totals.transition[step] = totals.transition.get(step, 0.0) + dur
    return out


def layer_metrics(t: OpTotals) -> dict:
    """The per-layer metrics of one traced operation."""
    m = {}
    for kernel in ("patch_sq_dists", "sq_dists"):
        k = t.get(f"kernels.{kernel}")
        m[f"kernels.{kernel}.calls"] = k.calls
        m[f"kernels.{kernel}.s"] = k.s
        m[f"kernels.{kernel}.bytes"] = k.bytes

    predict = t.get("bank.predict")
    m["bank.predict.calls"] = predict.calls
    m["bank.predict.self_s"] = predict.self_s
    m["bank.predict.mixture_calls"] = sum(tags["mixture"] for tags, _ in predict.tagged)

    stage = t.get("cascade.run_stage")
    steps = sum(tags["steps"] for tags, _ in stage.tagged)
    passes = m["kernels.patch_sq_dists.calls"] + m["kernels.sq_dists.calls"]
    m["bank.dist_passes_per_step"] = passes / steps if steps else 0.0

    mix = t.get("kernels.patch_mix")
    m["kernels.patch_mix.calls"] = mix.calls
    m["kernels.patch_mix.s"] = mix.s
    m["cascade.ca_maps.s"] = sum(t.get(name).s for name in CA_MAP_SPANS)

    resample = t.get("bank.bank_resample")
    m["bank.bank_resample.calls"] = resample.calls
    m["bank.bank_resample.s"] = resample.s
    repeats = sum(tags["repeat"] for tags, _ in resample.tagged)
    m["bank.bank_resample.repeat_frac"] = repeats / resample.calls if resample.calls else 0.0

    m["cascade.run_stage.calls"] = stage.calls
    m["cascade.run_stage.self_s"] = stage.self_s
    m["cascade.steps"] = steps

    transition = t.get("cascade.transition")
    m["cascade.transition.calls"] = transition.calls
    m["cascade.transition.s"] = transition.s
    for step in ("denoise", "decode", "interpolate", "encode", "diffuse"):
        m[f"cascade.transition.{step}_s"] = t.transition.get(step, 0.0)

    split = t.get("freq.band_split")
    m["freq.band_split.calls"] = split.calls
    m["freq.band_split.s"] = split.s
    m["sampler.facfg_combine.self_s"] = t.get("sampler.facfg_combine").self_s
    m["sampler.cfg_combine.s"] = t.get("sampler.cfg_combine").s
    m["sampler.ddim_step.s"] = t.get("sampler.ddim_step").s
    m["sampler.euler_flow_step.s"] = t.get("sampler.euler_flow_step").s

    for fn in ("encode", "decode"):
        c = t.get(f"codec.{fn}")
        m[f"codec.{fn}.calls"] = c.calls
        m[f"codec.{fn}.s"] = c.s

    bilinear = t.get("kernels.bilinear_resample")
    m["kernels.bilinear_resample.calls"] = bilinear.calls
    m["kernels.bilinear_resample.s"] = bilinear.s
    for name in ("grid.resample_bilinear", "grid.resample_bilinear_rect",
                 "grid.seeded_gaussian", "schedule.diffuse"):
        m[f"{name}.s"] = t.get(name).s

    psd = t.get("freq.radial_psd")
    m["freq.radial_psd.calls"] = psd.calls
    m["freq.radial_psd.s"] = psd.s
    decomposition = t.get("freq.psd_decomposition")
    m["freq.psd_decomposition.calls"] = decomposition.calls
    m["freq.psd_decomposition.self_s"] = decomposition.self_s

    main = t.get("cli.main")
    m["cli.main.s"] = main.s
    m["cli.main.self_s"] = main.self_s
    return m


def median_metrics(per_op: list) -> dict:
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}


def step_seconds_by_side(per_op_totals) -> dict:
    """Median over operations of run_stage seconds per step, keyed by side."""
    by_side = {}
    for t in per_op_totals:
        acc = {}
        for tags, dur in t.get("cascade.run_stage").tagged:
            s, n = acc.get(tags["side"], (0.0, 0))
            acc[tags["side"]] = (s + dur, n + tags["steps"])
        for side, (s, n) in acc.items():
            by_side.setdefault(side, []).append(s / n)
    return {side: statistics.median(v) for side, v in sorted(by_side.items())}


def ladder_ratio(per_op_totals, num_stages: int, den_stages: int):
    """Median over operations of the wall ratio between the run_cascade call
    with num_stages stages and the one with den_stages stages."""
    ratios = []
    for t in per_op_totals:
        walls = {tags["stages"]: dur for tags, dur in t.get("cascade.run_cascade").tagged}
        if num_stages in walls and den_stages in walls:
            ratios.append(walls[num_stages] / walls[den_stages])
    return statistics.median(ratios) if ratios else None
