"""The benchmark's traced names stay live: every function that
``perfbench/spans.py`` TARGETS names exists in its frecas module, and a
cascade step calls the step functions under those names, so their spans
measure the step rather than reading 0."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import frecas.cli  # noqa: F401  TARGETS traces cli and config, which frecas does not import
from frecas.bank import make_bank
from frecas.cascade import ladder, run_stage
from frecas.grid import LatentGrid
from frecas.schedule import flow_schedule, vp_default


def _targets() -> dict:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = _targets()


def test_every_traced_name_resolves():
    missing = [f"{module}.{function}" for module, functions in TARGETS.items()
               for function in functions
               if not callable(getattr(importlib.import_module(f"frecas.{module}"),
                                       function, None))]
    assert missing == []


@pytest.fixture
def traced_calls(monkeypatch):
    """Calls by span name. As the benchmark's tracer does, each traced
    function is wrapped wherever a frecas module holds it, under the name
    it is imported as."""
    counts, wrappers = {}, {}
    for module, functions in TARGETS.items():
        mod = importlib.import_module(f"frecas.{module}")
        for function in functions:
            fn = getattr(mod, function)
            name = f"{module.lstrip('_')}.{function}"

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            wrappers[id(fn)] = (fn, counted)
    for modname, mod in list(sys.modules.items()):
        if modname == "frecas" or modname.startswith("frecas."):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(mod, attr, hit[1])
    return counts


def _one_step(sched, L, stage, rng):
    plan = ladder([8, 16], [1, 1], [L], w_l=7.5, w_h=35.0, w_c=0.6, gamma=1.5, sched=sched)
    spec = plan.stages[stage]
    bank = make_bank("value_noise", spec.resolution.side, n_items=4)
    z = LatentGrid(rng.standard_normal(bank.item_shape))
    run_stage(spec, z, bank, 1, plan)


def test_a_cut_stage_step_calls_the_traced_step_functions(traced_calls, rng):
    _one_step(vp_default(), 200.0, 1, rng)
    for name in ("sampler.facfg_combine", "sampler.cfg_combine", "freq.band_split",
                 "sampler.ddim_step"):
        assert traced_calls.get(name) == 1, name


def test_a_first_stage_step_takes_no_band_split(traced_calls, rng):
    _one_step(vp_default(), 200.0, 0, rng)
    assert traced_calls.get("sampler.facfg_combine") == 1
    assert traced_calls.get("sampler.cfg_combine") == 1
    assert "freq.band_split" not in traced_calls


def test_a_flow_step_calls_the_traced_euler_step(traced_calls, rng):
    _one_step(flow_schedule(), 0.3, 1, rng)
    assert traced_calls.get("sampler.euler_flow_step") == 1
    assert "sampler.ddim_step" not in traced_calls
