"""Benchmark for bitalloc: two workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload toy-oracle --seed 0 --seconds 58 --trace 0

Workloads: qgd-descent, toy-oracle (see
workloads.py for what each holds, why, and what the seed varies). The
program under test is the bitalloc package in src/ of the same
checkout, imported as is; run it elsewhere and it exits with status 1.

--trace 0 measures end-to-end metrics with tracing off:
  wall_s        median wall time of one pass over the workload's solves
  setup_s       median over fresh processes of: start, import bitalloc,
                build the problems, evaluate each at the uniform allocation
  peak_rss_mb   peak resident memory of this process
  solution_cost 1 + mean (cost - uniform) / |uniform| over engine solves
failed_frac and, on toy-oracle, oracle_gap are printed too. They are not
in the JSON metrics because they are 0 when all is well, and a bound
given as a share of the median cannot hold them; the JSON's failed and
attempted carry failed_frac.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of trace_layers.PER_LAYER: times are medians over traced passes,
counts must repeat exactly from pass to pass, and the traced answers must
equal the untraced ones. The spans of the last traced pass are written
to .perfbench/ at the checkout root.

Every answer is checked (workloads.check_engine and the workload
reviews); a solve that raises or fails a check counts as failed, and so
does one whose answer differs from the first pass's. The last line of
standard output is one JSON object with correct, attempted, failed and
metrics.

Runs should be long. On a shared 2-core Xeon VM the speed of the whole
machine drifts by up to 1.7x, in every kernel alike, over periods of
10 s to a few minutes. Over 12 minutes of back-to-back passes there,
the median pass of a window spread from window to window by 20% of
its value (interquartile range) for 25 s windows, 14% for 40 s and 11%
for 55 s.

BLAS is pinned to one thread in this process and in the setup
processes. On a shared 2-core machine one gcpso solve varied from 1.5 s
to 2.8 s with two OpenBLAS threads and from 1.5 s to 1.8 s with one,
so the pin buys steadiness; it measures the single-threaded kernels.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics in output order, with units. BENCHMARK.json lists
# the same names.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("solution_cost", "ratio"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="build the workload and exit (setup_s probe)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_program():
    """Put the checkout's src/ first on the path and import the benchmark modules."""
    src = ROOT / "src"
    if not (src / "bitalloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no bitalloc package at {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import bitalloc

    if Path(bitalloc.__file__).resolve().parent != (src / "bitalloc").resolve():
        raise SystemExit(f"error: imported bitalloc from {bitalloc.__file__}, not {src}")
    import trace_layers
    import workloads

    return trace_layers, workloads


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            names = (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
            cpu = next(names, cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_pinned": True,
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that only build the workload."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"error: setup process failed:\n{done.stderr}")
    return times


def timed_pass(workload, tracer):
    t0 = time.perf_counter()
    raw = workload.solve(tracer)
    return time.perf_counter() - t0, workload.review(raw)


def count_failures(review, reference) -> int:
    """Failed solves in a pass; answers differing from the reference fail too."""
    failed = 0
    for out, ref in zip(review.outcomes, reference.outcomes):
        if not out.failures and out.answer() != ref.answer():
            out.failures.append("answer differs from the first pass")
        if out.failures:
            failed += 1
            for text in out.failures:
                print(f"FAILED {out.label}: {text}", file=sys.stderr)
    return failed + max(0, len(reference.outcomes) - len(review.outcomes))


def run_untraced(args, wl_mod, tl):
    setup = measure_setup(args)
    workload = wl_mod.WORKLOADS[args.workload](args.seed)
    times, reviews = [], []
    t_start = time.perf_counter()
    while len(times) < MIN_PASSES or (
        time.perf_counter() - t_start + statistics.median(times) <= args.seconds
    ):
        dt, review = timed_pass(workload, tl.NullTracer())
        times.append(dt)
        reviews.append(review)
    attempted = sum(len(r.outcomes) for r in reviews)
    failed = sum(count_failures(r, reviews[0]) for r in reviews)
    first = reviews[0]
    values = {
        "wall_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solution_cost": wl_mod.solution_cost(first),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    extra = {
        "failed_frac": (failed / attempted, "ratio"),
        "passes": (len(times), "count"),
        "wall_s_min": (min(times), "s"),
        "wall_s_max": (max(times), "s"),
        "setup_s_samples": (len(setup), "count"),
    }
    if first.gaps:
        extra["oracle_gap"] = (sum(first.gaps) / len(first.gaps), "ratio")
    return metrics, extra, attempted, failed


def run_traced(args, wl_mod, tl):
    setup_tracer = tl.Tracer()
    setup_tracer.recording = True
    workload = wl_mod.WORKLOADS[args.workload](args.seed, setup_tracer)
    setup_tracer.recording = False
    plain_times, traced_times, reviews, per_pass = [], [], [], []
    t_start = time.perf_counter()
    while len(per_pass) < MIN_TRACED_PASSES or (
        time.perf_counter() - t_start
        + statistics.median(plain_times) + statistics.median(traced_times)
        <= args.seconds
    ):
        dt, review = timed_pass(workload, tl.NullTracer())
        plain_times.append(dt)
        reviews.append(review)
        tracer = tl.Tracer()
        with tl.instrumented(tracer):
            dt, review = timed_pass(workload, tracer)
        traced_times.append(dt)
        reviews.append(review)
        per_pass.append(tl.layer_metrics(tracer))
    attempted = sum(len(r.outcomes) for r in reviews)
    failed = sum(count_failures(r, reviews[0]) for r in reviews)
    metrics = {}
    for name, unit in tl.PER_LAYER:
        if name == "trace_overhead_frac":
            value = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        elif name == "receiver.setup_s":
            value = tl.layer_metrics(setup_tracer)[name]
        else:
            values = [m[name] for m in per_pass]
            if name in tl.COUNTS and len(set(values)) != 1:
                print(f"FAILED counter {name} differs across passes: {values}", file=sys.stderr)
                failed += 1
            value = statistics.median(values)
        metrics[name] = (int(value) if unit == "count" else value, unit)
    extra = {
        "traced_passes": (len(per_pass), "count"),
        "untraced_passes": (len(plain_times), "count"),
    }
    return metrics, extra, attempted, failed, tracer


def write_trace(args, tl, tracer, machine, metrics):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "fields": tl.FIELDS,
        "spans": tl.span_records(tracer),
    }
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy loads, here and in the setup processes that inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    tl, wl_mod = import_program()
    if args.workload not in wl_mod.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; use one of {', '.join(wl_mod.WORKLOADS)}"
        )
    if args.setup_only:
        wl_mod.WORKLOADS[args.workload](args.seed)
        return 0

    machine = machine_record()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if args.trace:
        metrics, extra, attempted, failed, last = run_traced(args, wl_mod, tl)
        print(f"trace written to {write_trace(args, tl, last, machine, metrics)}")
    else:
        metrics, extra, attempted, failed = run_untraced(args, wl_mod, tl)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  {'failed_solves':28s} {failed} of {attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
