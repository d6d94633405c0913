"""Checks on the benchmark itself: its counters and its metric names.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

tl, wl = run.import_program()

from bitalloc.fir import benchmark_spec, fir_problem, load_coefficients  # noqa: E402
from bitalloc.swarm import SwarmConfig, run_gcpso, run_ppso  # noqa: E402


def _objective_rows(engine, problem, config):
    tracer = tl.Tracer()
    with tl.instrumented(tracer):
        tracer.call("swarm.solve", engine, tracer.problem(problem), config, solve=True)
    return tl.layer_metrics(tracer)["problem.objective_rows"]


def test_a35_fixed_row_counts_reproduce_the_baseline():
    # a35.txt is a copy of the shipped a35 design.
    coeffs = load_coefficients(HERE / "fixtures" / "a35.txt")
    problem = fir_problem(benchmark_spec("a", 35), coeffs, "fixed", 8)
    config = SwarmConfig(n_pop=100, restarts=1, seed=0)
    assert _objective_rows(run_ppso, problem, config) == 10_100
    assert _objective_rows(run_gcpso, problem, config) == 215_228


def test_traced_counters_repeat_exactly_across_runs():
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", "qgd-descent",
        "--seed", "3", "--seconds", "0.1", "--trace", "1",
    ]
    procs = [
        subprocess.Popen(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True) for _ in range(2)
    ]
    outputs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    results = [json.loads(out.strip().splitlines()[-1]) for out in outputs]
    assert all(r["correct"] for r in results)
    counts = [{k: r["metrics"][k]["value"] for k in tl.COUNTS} for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["qgd.steps"] == 2 * wl.QGD_T_ITER


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tl.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
