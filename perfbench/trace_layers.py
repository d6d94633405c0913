"""Outside-in tracing of bitalloc's layers.

Nothing in the package is edited. The tracer swaps the module globals
that the package looks up at call time (the swarm's repair and step
functions, the quantizers that fir and qgd imported, and qgd's problem
builder and engines) and wraps each problem's batch callables through
dataclasses.replace. The benchmark's own top-level calls (engine
solves, oracle runs, descent runs, receiver builds) go through
Tracer.call.

Each span records its name, the application family it ran for, its
parent span, the solve it belongs to, its start and end, and a count
(rows or elements). Spans stay in memory and are written out once the
run ends. Self time is a span's duration minus its children's, which
is exact here because the program is single threaded and spans nest.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import bitalloc.fir
import bitalloc.qgd
import bitalloc.swarm

NAME, FAMILY, PARENT, SOLVE, START, END, COUNT = range(7)
FIELDS = ("name", "family", "parent", "solve", "start", "end", "count")

# Per-layer metrics in output order, with units. BENCHMARK.json lists
# the same names. Which end-to-end metric each should move, and where:
# * problem.objective_*, consumption_s: wall_s on every workload;
#   unique_row_frac: wall_s on toy-oracle (qgd-descent is the bypass case);
#   oracle_*: wall_s on toy-oracle.
# * swarm.solve_s, engine_self_s, step_*: wall_s on qgd-descent and
#   toy-oracle; swarm.repair_*: wall_s on qgd-descent and toy-oracle
#   (ppso solves bypass repair).
# * quantizers.*: wall_s on qgd-descent and toy-oracle (float FIR toys
#   cost more than fixed ones).
# * fir.* and receiver.*: wall_s on toy-oracle, whose toys are the only
#   FIR and receiver problems the benchmark runs; receiver.setup_s also
#   setup_s there. qgd.*: wall_s on qgd-descent.
PER_LAYER = (
    ("problem.objective_calls", "count"),
    ("problem.objective_rows", "count"),
    ("problem.objective_s", "s"),
    ("problem.consumption_s", "s"),
    ("problem.unique_row_frac", "ratio"),
    ("problem.oracle_s", "s"),
    ("problem.oracle_self_s", "s"),
    ("problem.oracle_candidates", "count"),
    ("swarm.solve_s", "s"),
    ("swarm.engine_self_s", "s"),
    ("swarm.step_s", "s"),
    ("swarm.step_calls", "count"),
    ("swarm.repair_s", "s"),
    ("swarm.repair_self_s", "s"),
    ("swarm.repair_calls", "count"),
    ("swarm.repair_passes", "count"),
    ("swarm.repair_rows", "count"),
    ("swarm.repair_row_frac", "ratio"),
    ("quantizers.s", "s"),
    ("quantizers.calls", "count"),
    ("quantizers.elements", "count"),
    ("fir.objective_s", "s"),
    ("fir.self_s", "s"),
    ("fir.us_per_row", "us/row"),
    ("receiver.setup_s", "s"),
    ("receiver.objective_s", "s"),
    ("receiver.us_per_row", "us/row"),
    ("qgd.problem_build_s", "s"),
    ("qgd.objective_s", "s"),
    ("qgd.us_per_row", "us/row"),
    ("qgd.steps", "count"),
    ("trace_overhead_frac", "ratio"),
)

# Metrics that count work. They must repeat exactly from pass to pass.
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count") + (
    "problem.unique_row_frac",
    "swarm.repair_row_frac",
)


class NullTracer:
    """Stand-in for untraced passes: every call goes straight through."""

    def call(self, name, fn, *args, family="", solve=False):
        return fn(*args)

    def problem(self, problem):
        return problem


class Tracer:
    """In-memory span recorder for one traced pass (or one setup)."""

    def __init__(self):
        self.spans: list[list] = []
        # swarm.solve span index -> the objective rows that solve evaluated
        self.rows: dict[int, list[np.ndarray]] = {}
        self.recording = False
        self._stack: list[int] = []

    def _open(self, name, family, solve):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if solve:
            solve_id = idx
        else:
            solve_id = self.spans[parent][SOLVE] if parent >= 0 else -1
        rec = [name, family, parent, solve_id, 0.0, 0.0, 0]
        self.spans.append(rec)
        self._stack.append(idx)
        if name == "swarm.solve":
            self.rows[idx] = []
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, family="", solve=False):
        return self.wrap(name, fn, family, solve)(*args)

    def wrap(self, name, fn, family="", solve=False, count=None):
        """fn behind a span; count(span, args, result) fills the span's count."""

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = self._open(name, family, solve)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[COUNT] = count(rec, args, out)
            return out

        return traced

    def problem(self, problem):
        """A copy of problem whose batch callables record spans.

        Objective rows are also kept per engine solve, in the narrowest
        integer type that holds the allowed values, so that the distinct
        share can be counted after the pass.
        """
        family = problem.name.split("-", 1)[0]
        lo, hi = min(problem.allowed_values), max(problem.allowed_values)
        row_type = np.int8 if -128 <= lo and hi <= 127 else np.int64

        def keep_rows(rec, args, out):
            kept = self.rows.get(rec[SOLVE])
            if kept is not None:
                kept.append(np.asarray(args[0]).astype(row_type))
            return len(args[0])

        return replace(
            problem,
            objective_batch=self.wrap(
                "problem.objective", problem.objective_batch, family, count=keep_rows
            ),
            consumption_batch=self.wrap(
                "problem.consumption", problem.consumption_batch, family, count=_rows
            ),
        )


def _rows(rec, args, out):
    return len(args[0])


def _elements(rec, args, out):
    return int(np.size(out[0] if isinstance(out, tuple) else out))


@contextmanager
def instrumented(tracer: Tracer):
    """Swap the traced module globals in, and start recording."""
    build = bitalloc.qgd.qgd_problem

    def qgd_problem(task, z):
        return tracer.problem(tracer.call("qgd.problem_build", build, task, z))

    patches = [
        (bitalloc.swarm, "greedy_repair_batch", "swarm.repair", "", False, None),
        (bitalloc.swarm, "step_swarm", "swarm.step", "", False, None),
        (bitalloc.fir, "quantize_fixed_bits", "quantizers", "fir", False, _elements),
        (bitalloc.fir, "quantize_float_bits", "quantizers", "fir", False, _elements),
        (bitalloc.qgd, "quantize_fixed_bits", "quantizers", "qgd", False, _elements),
        (bitalloc.qgd, "run_ppso", "swarm.solve", "qgd", True, None),
        (bitalloc.qgd, "run_gcpso", "swarm.solve", "qgd", True, None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in patches]
    saved.append((bitalloc.qgd, "qgd_problem", build))
    for module, attr, name, family, solve, count in patches:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), family, solve, count))
    bitalloc.qgd.qgd_problem = qgd_problem
    tracer.recording = True
    try:
        yield tracer
    finally:
        tracer.recording = False
        for module, attr, original in saved:
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass, every PER_LAYER name but the overhead."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    m: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name, family, count = s[NAME], s[FAMILY], s[COUNT]
        dur = s[END] - s[START]
        own = dur - child[i]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if name == "problem.objective":
            m["problem.objective_calls"] += 1
            m["problem.objective_rows"] += count
            m["problem.objective_s"] += dur
            m[f"{family}.objective_s"] += dur
            m[f"{family}.rows"] += count
            if family == "fir":
                m["fir.self_s"] += own
            if parent == "swarm.repair":
                m["swarm.repair_passes"] += 1
                m["swarm.repair_rows"] += count
        elif name == "problem.consumption":
            m["problem.consumption_s"] += dur
            if parent == "problem.oracle":
                m["problem.oracle_candidates"] += count
        elif name == "problem.oracle":
            m["problem.oracle_s"] += dur
            m["problem.oracle_self_s"] += own
        elif name == "swarm.solve":
            m["swarm.solve_s"] += dur
            m["swarm.engine_self_s"] += own
        elif name == "swarm.step":
            m["swarm.step_s"] += dur
            m["swarm.step_calls"] += 1
        elif name == "swarm.repair":
            m["swarm.repair_s"] += dur
            m["swarm.repair_self_s"] += own
            m["swarm.repair_calls"] += 1
        elif name == "quantizers":
            m["quantizers.s"] += dur
            m["quantizers.calls"] += 1
            m["quantizers.elements"] += count
        elif name == "qgd.problem_build":
            m["qgd.problem_build_s"] += dur
            m["qgd.steps"] += 1
        elif name == "receiver.setup":
            m["receiver.setup_s"] += dur
    distinct = engine_rows = 0
    for chunks in tracer.rows.values():
        if chunks:
            mat = np.ascontiguousarray(np.concatenate(chunks))
            keys = mat.view(np.dtype((np.void, mat.dtype.itemsize * mat.shape[1])))
            distinct += np.unique(keys).size
            engine_rows += mat.shape[0]
    m["problem.unique_row_frac"] = distinct / engine_rows if engine_rows else 0.0
    rows = m["problem.objective_rows"]
    m["swarm.repair_row_frac"] = m["swarm.repair_rows"] / rows if rows else 0.0
    for family in ("fir", "receiver", "qgd"):
        n = m[f"{family}.rows"]
        m[f"{family}.us_per_row"] = 1e6 * m[f"{family}.objective_s"] / n if n else 0.0
    return {name: float(m[name]) for name, _ in PER_LAYER if name != "trace_overhead_frac"}


def span_records(tracer: Tracer) -> list[list]:
    """Spans as plain lists in FIELDS order, times relative to the first start."""
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    return [
        [s[NAME], s[FAMILY], s[PARENT], s[SOLVE], s[START] - t0, s[END] - t0, s[COUNT]]
        for s in tracer.spans
    ]
