"""Benchmark of frecas, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sdxl-x4 --seed 1 --seconds 30 --trace 0

The benchmark imports frecas from ``src/`` of the checkout and drives it from
one process; it starts no threads or processes of its own. OpenBLAS keeps
its default thread count, which the report records.

A run builds the workload through ``frecas.config``, warms up with one
untimed operation, then repeats rounds of set-up and operations for
``--seconds`` seconds. The fixed check seeds come first and are compared
with ``fingerprints.json``; the later seeds derive from ``--seed``. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs each seed untraced and then traced and reports the
per-layer metrics. NOTES.md defines every metric.

Output: a readable report, then as the last line of standard output one
JSON object with the keys correct, attempted, failed and metrics. The full
result, and in traced runs every span, is written under ``.perfbench/`` in
the checkout.

Exit codes: 0 when every check passed, 1 when an operation failed or a
check did not hold (the result is printed if every metric could be
measured), 2 when frecas or
BENCHMARK.json cannot be loaded from the checkout (nothing is printed on
standard output).
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tracemalloc
import traceback
from functools import partial
from itertools import chain
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
MIN_ROUNDS = 3  # enough to reach both check seeds and one derived seed


def import_frecas():
    """Import frecas from this checkout's src/, or return an error message."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import frecas
    except ImportError as e:
        return None, f"cannot import frecas from {src}: {e}"
    if Path(frecas.__file__).resolve().parent.parent != src:
        return None, f"frecas was imported from {frecas.__file__}, not from {src}"
    return frecas, None


def blas_threads():
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def environment(frecas, seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "kernel_backend": frecas._kernels.backend(),
        "workload_seed": seed,
    }


def run_seeds(seed):
    """Endless run seeds derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def with_peak(peaks, fn, *args):
    """Call fn(*args) under tracemalloc and append the peak bytes it held."""
    tracemalloc.start()
    try:
        return fn(*args)
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "all": values}


class Run:
    """The operations of one benchmark run, with their output checks."""

    def __init__(self, wl, workload, fingerprints, tracer):
        self.wl = wl
        self.workload = workload
        self.recorded = fingerprints[workload.name]
        self.tracer = tracer
        self.out = WORK / "op-out"
        self.setup = None
        self.setup_s = []
        self.attempted = 0
        self.failures = []
        self.raw = {}  # (kind, seed) -> output bytes of its first run

    def fail(self, label, message):
        self.failures.append(f"{label}: {message}")
        print(f"FAILED {label}: {message}", file=sys.stderr)

    def set_up(self):
        start = perf_counter()
        if self.tracer is None:
            self.setup = self.wl.set_up(self.workload)
        else:
            label = f"setup{len(self.setup_s)}"
            self.setup = self.tracer.traced(label, self.wl.set_up, self.workload)
        self.setup_s.append(perf_counter() - start)

    def attempt(self, kind, op, seed, via=None):
        """One operation; returns its wall seconds, or None if it raised.

        Its outputs are checked afterwards: the workload's own checks, byte
        identity with an earlier run of the same seed, and the recorded
        fingerprints for a check seed. A failed check is counted, not fatal.
        """
        self.attempted += 1
        label = f"{kind} seed {seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        args = (self.setup, seed, str(self.out))
        try:
            start = perf_counter()
            result = via(op.call, *args) if via else op.call(*args)
            wall = perf_counter() - start
        except Exception:  # an operation that raises is counted, not fatal
            self.fail(label, traceback.format_exc())
            return None
        try:
            output = op.check(self.setup, result, str(self.out))
            first = self.raw.setdefault((kind, seed), output.raw)
            self.wl.require(first == output.raw,
                            "output differs from an earlier run of this seed")
            if seed in self.wl.CHECK_SEEDS:
                bad = self.wl.fingerprint_mismatches(
                    output.fingerprint, self.recorded[kind][str(seed)])
                self.wl.require(not bad, f"fingerprint mismatch in {', '.join(bad)}")
        except self.wl.CheckFailed as e:
            self.fail(label, str(e))
        return wall


def measure(run, seeds, seconds):
    """Round robin of set-up, run and direct operations for `seconds`.

    Set-ups are spread over the whole window, like the operations, because
    the speed of a shared host can drift over seconds."""
    wl, workload = run.wl, run.workload
    samples = {"run_s": [], "direct_s": []}
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        seed = next(seeds)
        run.set_up()
        for name, kind, op in (("run_s", "run", workload.run), ("direct_s", "direct", wl.DIRECT)):
            wall = run.attempt(kind, op, seed)
            if wall is not None:
                samples[name].append(wall)
        rounds += 1
    return samples


def measure_traced(run, seeds, seconds):
    """Round robin of a traced set-up and the same run operation untraced,
    then traced, for `seconds`; returns wall samples and traced op ids."""
    samples = {"untraced_op_s": [], "traced_op_s": []}
    op_ids = []
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        seed = next(seeds)
        run.set_up()
        wall = run.attempt("run", run.workload.run, seed)
        if wall is not None:
            samples["untraced_op_s"].append(wall)
        op_id = f"op{len(op_ids)}"
        wall = run.attempt("run", run.workload.run, seed, via=partial(run.tracer.traced, op_id))
        if wall is not None:
            samples["traced_op_s"].append(wall)
            op_ids.append(op_id)
        rounds += 1
    return samples, op_ids


def end_to_end_metrics(run, samples, peaks, info):
    metrics = {name: statistics.median(v) for name, v in samples.items() if v}
    if peaks:
        metrics["peak_alloc_mb"] = peaks[0] / 1e6
    workload = run.workload
    info["cost_units"] = workload.cost_units
    info["direct_cost_units"] = workload.direct_cost
    if isinstance(workload.cost_units, float):  # the run operation is one cascade
        info["proxy_speedup"] = workload.direct_cost / workload.cost_units
        if "run_s" in metrics and "direct_s" in metrics:
            info["measured_speedup"] = metrics["direct_s"] / metrics["run_s"]
    return metrics


def per_layer_metrics(run, samples, op_ids, info, spans):
    tracer = run.tracer
    totals = spans.op_totals(tracer.spans)
    traced_ops = [totals[o] for o in op_ids]
    if not (traced_ops and samples["untraced_op_s"]):
        return {}
    metrics = spans.median_metrics([spans.layer_metrics(t) for t in traced_ops])
    metrics["config.build_bank.s"] = statistics.median(
        end - start for name, start, end, *_ in tracer.spans if name == "config.build_bank")
    traced = metrics["trace.traced_op_s"] = statistics.median(samples["traced_op_s"])
    untraced = metrics["trace.untraced_op_s"] = statistics.median(samples["untraced_op_s"])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    info["step_s_by_side"] = spans.step_seconds_by_side(traced_ops)
    ratio = spans.ladder_ratio(traced_ops, 1, 2)
    if ratio is not None:
        info["n0_over_n1_wall_ratio"] = ratio
        costs = run.workload.cost_units
        info["n0_over_n1_proxy_ratio"] = costs[0] / costs[1]
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description="frecas benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    frecas, error = import_frecas()
    if error is None and not (ROOT / "BENCHMARK.json").is_file():
        error = f"missing {ROOT / 'BENCHMARK.json'}"
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import spans
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = wl.WORKLOADS[args.workload]
    fingerprints = json.loads((Path(__file__).parent / "fingerprints.json").read_text())
    WORK.mkdir(exist_ok=True)
    origin = perf_counter()
    env = environment(frecas, args.seed)
    run = Run(wl, workload, fingerprints, spans.Tracer() if args.trace else None)
    # the check seeds come first, then seeds derived from --seed
    seeds = chain(wl.CHECK_SEEDS, run_seeds(args.seed))

    # Untimed warm-up: the first operation of a process runs slower. Untraced,
    # it is also the tracemalloc pass; its seed is run again, timed, and the
    # two outputs must match byte for byte.
    run.set_up()
    peaks = []
    run.attempt("run", workload.run, wl.CHECK_SEEDS[0],
                via=None if args.trace else partial(with_peak, peaks))
    info = {}
    if args.trace:
        samples, op_ids = measure_traced(run, seeds, args.seconds)
        metrics = per_layer_metrics(run, samples, op_ids, info, spans)
        run.tracer.write(WORK / f"spans-{workload.name}-seed{args.seed}.jsonl", origin)
        samples["setup_s"] = run.setup_s
    else:
        samples = measure(run, seeds, args.seconds)
        samples["setup_s"] = run.setup_s
        metrics = end_to_end_metrics(run, samples, peaks, info)

    failed = len(run.failures)
    info["failed_frac"] = failed / run.attempted
    result = {
        "workload": workload.name, "trace": args.trace, "environment": env,
        "metrics": metrics, "info": info,
        "samples": {k: summary(v) for k, v in samples.items() if v},
        "attempted": run.attempted, "failed": failed, "failures": run.failures,
    }
    (WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")
    shutil.rmtree(run.out, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {wanted.get(name, '')}")
    for name, s in result["samples"].items():
        print(f"  {name}: median {s['median']:.6g} s, min {s['min']:.6g} s, "
              f"max {s['max']:.6g} s, n = {s['n']}")
    print(f"  failed_frac = {info['failed_frac']:.6g} ({failed} of {run.attempted} operations)")
    for name, value in info.items():
        if name != "failed_frac":
            print(f"  info: {name} = {value}")
    if set(metrics) != set(wanted):
        print(f"perfbench: no result; metrics {sorted(set(metrics) ^ set(wanted))} "
              "are missing or not declared in BENCHMARK.json", file=sys.stderr)
        return 1 if failed else 2
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
