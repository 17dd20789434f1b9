"""liestab benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--workload NAME|all] [--trace 0|1]

Run from anywhere; the library is imported from ``src/`` of the checkout
that holds this file, which must exist.  Workloads: builtins,
nilpotent-sweep, long-trajectory (see workloads.py and NOTES.md).

The load is a closed loop with one client: each operation starts when the
previous one has returned.  ``--trace 0`` repeats passes over the
workload's operations for ``--seconds``, with at least two passes and no
pass cut short, with tracing off, and reports each operation's median time
at the reference machine speed (gauge.py).  ``--trace 1`` traces one pass of
every workload, so that each traced run reports the full per-layer set, and
times the named workload's pass untraced as well, for the tracing overhead.
``--smoke`` runs each workload once at its smallest size and checks the
printed metric names and units against BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Outputs, the run manifest and the
span file go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("builtins", "nilpotent-sweep", "long-trajectory")
LAYERS = ("algebra", "quotient", "dynamics", "stability", "sampling", "scenarios", "cli")
SETUP_REPEATS = 7
# state rows the example-6.1 equilibrium search passes to evaluate_batch at CLI seed 0
EQUILIBRIUM_ROWS = 60000
MIN_PASSES = 2
# manifest entries written to the file but not printed
BULKY = ("setup_s", "operations_s", "intervals", "gauge_readings")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_info() -> tuple:
    """(OpenBLAS build strings, effective thread count) of the BLAS numpy and scipy load."""
    import ctypes

    import numpy
    import scipy
    configs, threads = [], []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if get_threads is None or get_config is None:
                        continue
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    threads.append(get_threads())
                    configs.append(get_config().decode())
    return configs, (max(threads) if threads else None)


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        return head.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds(module: str = "liestab") -> float:
    """Time of ``import <module>`` in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"import {module} failed in a fresh interpreter:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_pass(workload, tracer, gauge, intervals: dict, failures: dict) -> None:
    """One pass over the workload's operations.

    Appends each operation's (start, end) to ``intervals`` and runs its speed
    reference after it (see gauge.py).
    """
    from workloads import GateFailure
    for op in workload.ops:
        tracer.tag = op.tag
        start = time.perf_counter()
        try:
            with tracer.span(op.name):
                result = op.run(tracer)
            end = time.perf_counter()
            gauge.measure(op.reference)
            op.check(result)
        except Exception as exc:  # a failed operation is counted, never propagated
            failures[op.key] = failures.get(op.key, 0) + 1
            detail = exc if isinstance(exc, GateFailure) else traceback.format_exc(limit=4)
            print(f"bench: {op.key} failed: {detail}", file=sys.stderr)
            continue
        intervals.setdefault(op.key, []).append((start, end, op.reference))


def scaled_times(gauge, intervals: dict) -> dict:
    return {key: [gauge.scaled(*iv) for iv in ivs] for key, ivs in intervals.items()}


def end_to_end(workload, samples: dict, setup_s: float) -> dict:
    median = {key: statistics.median(v) for key, v in samples.items()}

    def seconds(kind=None) -> float:
        return sum(median.get(op.key, 0.0) for op in workload.ops
                   if kind is None or kind in op.kinds)

    stepping = [op for op in workload.ops if op.steps and op.key in median]
    steps_per_s = (sum(op.steps for op in stepping)
                   / sum(median[op.key] for op in stepping)) if stepping else 0.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": (setup_s, "s"),
            "wall_s": (seconds(), "s"),
            "check_s": (seconds("check"), "s"),
            "certify_s": (seconds("certify"), "s"),
            "build_s": (seconds("build"), "s"),
            "steps_per_s": (steps_per_s, "1/s"),
            "peak_rss_mb": (peak_mb, "MB")}


def layer_metric(spec, spans: list, scales: list, top: list) -> float:
    chosen = [(s, f) for s, f, t in zip(spans, scales, top)
              if t and s["name"] == spec.span and s["tag"] == spec.tag]
    busy = sum((s["end"] - s["start"]) * f for s, f in chosen)
    rows = sum(s["counts"].get("rows", 0) for s, _ in chosen)
    return {"ms": 1e3 * busy,
            "calls": float(len(chosen)),
            "rows": float(rows),
            "us_per_call": 1e6 * busy / len(chosen) if chosen else 0.0,
            "us_per_row": 1e6 * busy / rows if rows else 0.0}[spec.kind]


def traced_run(name: str, workloads: dict, gauge) -> tuple:
    """Per-layer metrics, attempted and failed counts, and the span record."""
    from tracing import NullTracer, Tracer, layer_summary, outermost, span_scales, wrap_layers
    attempted, failures, spans_by_workload = 0, {}, {}
    order = [w for w in WORKLOAD_NAMES if w != name] + [name]
    untraced, traced = {}, {}
    for wname in order:
        workload = workloads[wname]
        if wname == name:
            # a first untraced pass fills the caches, so that the two measured
            # passes differ only by the tracing
            run_pass(workload, NullTracer(), gauge, {}, failures)
            attempted += len(workload.ops)
        tracer = Tracer()
        wrap_layers(tracer)
        try:
            run_pass(workload, tracer, gauge, traced if wname == name else {}, failures)
        finally:
            tracer.restore()
        attempted += len(workload.ops)
        spans_by_workload[wname] = tracer.spans
    run_pass(workloads[name], NullTracer(), gauge, untraced, failures)
    attempted += len(workloads[name].ops)
    for wname, spans in spans_by_workload.items():
        references = {op.key: op.reference for op in workloads[wname].ops}
        for s in spans:
            if s["parent"] is None:
                kind = references[f"{s['name']}.{s['tag']}"]
                s["scale"] = gauge.scaled(s["start"], s["end"], kind) / (s["end"] - s["start"])

    def total(intervals: dict) -> float:
        return sum(sum(times) for times in scaled_times(gauge, intervals).values())

    overhead_ms = 1e3 * (total(traced) - total(untraced))
    metrics = {}
    for wname, workload in workloads.items():
        spans = spans_by_workload[wname]
        scales, top = span_scales(spans), outermost(spans)
        for spec in workload.layer_metrics:
            metrics[spec.name] = (layer_metric(spec, spans, scales, top), spec.unit)
    rows = metrics["dynamics.equilibrium_rows.example-6.1"][0]
    if rows != EQUILIBRIUM_ROWS:  # the traced check example-6.1 did the wrong work
        failures["cli.check.example-6.1"] = failures.get("cli.check.example-6.1", 0) + 1
        print(f"bench: cli.check.example-6.1 evaluated {rows:.0f} rows, "
              f"not {EQUILIBRIUM_ROWS}", file=sys.stderr)
    layers = {w: layer_summary(spans) for w, spans in spans_by_workload.items()}
    for layer in LAYERS:
        self_ms = sum(summary.get(layer, {}).get("self_ms", 0.0) for summary in layers.values())
        metrics[f"{layer}.self_ms"] = (self_ms, "ms")
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    record = {"layers": layers,
              "note": "wait_ms is None: one closed-loop client, nothing queues",
              "spans": spans_by_workload}
    return metrics, attempted, sum(failures.values()), record


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_names(metrics: dict, trace: bool, smoke: bool) -> None:
    """Metric names and units must be the ones BENCHMARK.json declares."""
    want = {m["name"]: m["unit"] for m in declared()["per_layer" if trace else "end_to_end"]}
    got = {k: unit for k, (_, unit) in metrics.items()}
    wrong = sorted(k for k, unit in got.items() if want.get(k) != unit)
    # a smoke run's sweep stops at its smallest size, so it has fewer per-layer metrics
    missing = [] if smoke and trace else sorted(set(want) - set(got))
    if wrong or missing:
        fail(f"metrics disagree with BENCHMARK.json: undeclared or wrong unit {wrong}, "
             f"missing {missing}", 1)


def run_one(args) -> int:
    sys.path.insert(0, str(BENCH))
    from gauge import REFERENCE_SECONDS, SpeedGauge
    from tracing import NullTracer
    from workloads import WORKLOADS

    cpus = nproc()
    names = WORKLOAD_NAMES if args.trace else (args.workload,)
    gauge = SpeedGauge()
    setup, raw_setup = [], []
    references = [import_seconds("numpy")]  # the "import" readings (gauge.py)
    for _ in range(1 if args.trace or args.smoke else SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        workloads = {w: WORKLOADS[w](args.seed, OUT / w, args.smoke) for w in names}
        raw_setup.append(imported + time.perf_counter() - start)
        references.append(import_seconds("numpy"))
        setup.append(raw_setup[-1] * REFERENCE_SECONDS["import"]
                     / statistics.mean(references[-2:]))
    configs, blas_threads = blas_info()
    manifest = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "smoke": args.smoke,
                "python": sys.version.split()[0],
                "numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__,
                "openblas": configs, "nproc": cpus, "blas_threads": blas_threads,
                "git_commit": git_commit(),
                "liestab": sys.modules["liestab"].__file__}
    if blas_threads is not None and blas_threads > cpus:
        fail(f"BLAS would use {blas_threads} threads on {cpus} CPUs")

    if args.trace:
        metrics, attempted, failed, record = traced_run(args.workload, workloads, gauge)
        manifest["passes"] = 1
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record))
    else:
        workload = workloads[args.workload]
        intervals, failures = {}, {}
        passes = 0
        start = time.perf_counter()
        min_passes = 1 if args.smoke else MIN_PASSES
        while passes < min_passes or (not args.smoke
                                      and time.perf_counter() - start < args.seconds):
            run_pass(workload, NullTracer(), gauge, intervals, failures)
            passes += 1
        times = scaled_times(gauge, intervals)
        raw_times = {key: [end - start for start, end, _ in ivs]
                     for key, ivs in intervals.items()}
        metrics = end_to_end(workload, times, statistics.median(setup))
        # the measured times, before scaling, so that the gauge's effect can be checked
        manifest["unscaled"] = {k: v for k, (v, _) in end_to_end(
            workload, raw_times, statistics.median(raw_setup)).items()}
        manifest["setup_s"] = {"scaled": setup, "unscaled": raw_setup,
                               "import_numpy": references}
        manifest["operations_s"] = {key: {"scaled": times[key], "unscaled": raw_times[key]}
                                    for key in times}
        manifest["intervals"] = intervals
        manifest["gauge_readings"] = gauge.readings
        attempted, failed = passes * len(workload.ops), sum(failures.values())
        manifest["passes"] = passes
    manifest["slowdown"] = gauge.slowdown()
    (OUT / f"manifest-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(manifest, indent=1))
    check_names(metrics, bool(args.trace), args.smoke)

    print("manifest: " + json.dumps({k: v for k, v in manifest.items() if k not in BULKY},
                                    sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{key:<56} {value:16.6f} {unit}")
    print(f"{'fail_ratio':<56} {failed / attempted:16.6f} 1 ({failed} of {attempted} failed)")
    print(f"correct: {failed == 0}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            code = 1
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=declared()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "liestab" / "__init__.py").is_file():
        fail(f"no liestab sources at {SRC}; run from a full checkout")
    if args.workload == "all":
        return run_all(args)
    # the matrices are small (at most 45 x 45), so a second BLAS thread buys nothing
    # and makes the times depend on whatever else the machine runs
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
