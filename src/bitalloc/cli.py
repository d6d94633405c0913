"""Command-line driver for allocation experiments.

Experiments are described by a small INI-style config file with an
[experiment] section naming the application and the strategies to run,
an optional [swarm] section sizing and seeding the engines, and one
application section ([fir], [receiver] or [qgd]) with the problem
parameters. [swarm] and the application section take the parameters of
the library code they feed, with that code's defaults. A key a section
does not take, [experiment] included, or any other section is a config
error. All randomness flows from the single seed in [experiment]; each
module derives its own substream, so reruns of the same config produce
byte-identical result files.

Each application yields its cases: a FIR filter, one receiver problem
per transmit power, or one quantized descent. One runner solves every
case with every strategy and writes the result files only once all are
solved, so a run that stops on an error (exit 2) writes nothing.

Subcommands:
  run <config>               execute the experiment, write CSV results
  check-convergence          print the stability report for (w, c1, c2)
"""

from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import fir, qgd, receiver
from .convergence import check_convergence_conditions, order2_stable_from
from .problem import (
    DEFAULT_ORACLE_CAP,
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    SearchSpaceTooLarge,
    brute_force_optimum,
    read_text,
)
from .swarm import SwarmConfig, run_gcpso, run_ppso

_EXPERIMENT_KEYS = (
    "application", "strategies", "seed", "output_dir", "json_summary", "oracle_cap"
)


class ConfigError(Exception):
    """Invalid experiment configuration; message names the field."""


def _fail(field: str, message: str) -> ConfigError:
    return ConfigError(f"{field}: {message}")


def _split_list(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


# How a value is parsed, by the type of its default.
_PARSERS = {
    bool: (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean"),
    int: (int, "an integer"),
    float: (float, "a number"),
    str: (str, "text"),
    list: (lambda raw: [float(tok) for tok in _split_list(raw)], "numbers"),
}


def _defaults(target, exclude: tuple[str, ...] = ()) -> dict:
    """The parameters of a function or dataclass that have defaults, less
    exclude, each mapped to its default."""
    return {
        p.name: p.default
        for p in inspect.signature(target).parameters.values()
        if p.default is not p.empty and p.name not in exclude
    }


class _Section:
    """Typed access to one config section with field-naming errors."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.parser = parser

    def has(self, key: str) -> bool:
        return self.parser.has_option(self.name, key)

    def raw(self, key: str) -> str:
        if not self.has(key):
            raise _fail(f"[{self.name}] {key}", "required key is missing")
        return self.parser.get(self.name, key).strip()

    def get(self, key: str, default):
        """The key's value parsed by the type of default, or default when unset."""
        if not self.has(key):
            return default
        parse, what = _PARSERS[type(default)]
        raw = self.raw(key)
        try:
            return parse(raw)
        except (KeyError, ValueError):
            raise _fail(f"[{self.name}] {key}", f"expected {what}, got {raw!r}") from None

    def keys_for(self, target) -> dict:
        """The values this section sets for target's defaulted parameters,
        each parsed by the type of its default; unset ones keep target's
        default. _Experiment has already rejected every other key."""
        return {k: self.get(k, d) for k, d in _defaults(target).items() if self.has(k)}

    def build(self, target, *args, **kwargs):
        """target(*args, **kwargs) plus the keys this section sets for it;
        a ContractViolation becomes a ConfigError naming the section."""
        try:
            return target(*args, **kwargs, **self.keys_for(target))
        except ContractViolation as exc:
            raise _fail(f"[{self.name}]", str(exc)) from None


def _load_parser(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(read_text(path), source=str(path))
    except FileNotFoundError:
        raise _fail("config", f"file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise _fail("config", f"cannot read {path}: {exc.strerror}") from None
    except ContractViolation as exc:
        raise _fail("config", str(exc)) from None
    except configparser.Error as exc:
        raise _fail("config", f"parse error: {exc}") from None
    return parser


def _write_csv(path: Path, seed: int, header: list[str], rows: list[list]) -> None:
    """Write one result file; its directory is made with the first file, so
    a config that fails before any result leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return repr(float(value))


# -- cases, one source per application ----------------------------------------------


@dataclass(frozen=True)
class _Case:
    """One problem an experiment solves, with the labels its outputs carry.

    solve(strategy) returns the allocation, the reported value, the
    consumption and the trace file's (header, rows), or None for a strategy
    that keeps no trace; it raises InfeasibleBudgetError or
    SearchSpaceTooLarge for a strategy that gives no allocation."""

    solve: Callable[[str], tuple]
    labels: dict = field(default_factory=dict)  # leading results.csv columns
    trace_suffix: str = ""
    key: str = ""  # the value's summary.json name, when not the results column


def _allocation_case(ex: _Experiment, problem: AllocationProblem, sign: float = 1.0,
                     lc: Optional[Callable[[], np.ndarray]] = None, **case) -> _Case:
    """A FIR or receiver case: naive, lc (the closed form), oracle or an
    engine allocates, and the reported value is sign * objective."""

    def solve(strategy: str) -> tuple:
        trace = None
        if strategy == "naive":
            bits = np.full(problem.dimension, problem.budget_bits, dtype=np.int64)
        elif strategy == "lc":
            bits = lc()
        elif strategy == "oracle":
            bits, _ = brute_force_optimum(problem, cap=ex.cap)
        else:
            engine = run_gcpso if strategy == "gcpso" else run_ppso
            result = engine(problem, ex.swarm or SwarmConfig(seed=ex.seed))
            bits = result.best
            trace = ["iteration", "best_cost"], [[it, _fmt(c)] for it, c in enumerate(result.trace)]
        cons = problem.evaluate_consumption(bits)
        return bits, sign * problem.evaluate_objective(bits), cons, trace

    return _Case(solve, **case)


def _fir_spec_from(section: _Section, n_taps: int) -> fir.FilterSpec:
    if section.has("benchmark"):
        return fir.benchmark_spec(section.raw("benchmark"), n_taps)
    for key in ("bands", "desired", "weights"):
        if not section.has(key):
            raise _fail(f"[fir] {key}", "required when no benchmark letter is given")
    band_edges = []
    for tok in _split_list(section.raw("bands")):
        lo, _, hi = tok.partition(":")
        try:
            band_edges.append((float(lo), float(hi)))
        except ValueError:
            raise _fail("[fir] bands", f"expected low:high pairs, got {tok!r}") from None
    desired, weights = section.get("desired", []), section.get("weights", [])
    try:
        return fir.FilterSpec.of_pi(band_edges, desired, weights, n_taps)
    except ContractViolation as exc:
        raise _fail("[fir]", str(exc)) from None


def _fir_keys(section: _Section) -> tuple[str, ...]:
    spec_keys = ("coefficients", "benchmark", "bands", "desired", "weights")
    return (*_defaults(fir.fir_problem), *spec_keys)


def _fir_cases(ex: _Experiment) -> Iterator[_Case]:
    coeff_path = ex.config_dir / ex.section.raw("coefficients")  # an absolute path stays as is
    if not coeff_path.is_file():
        raise _fail("[fir] coefficients", f"file not found: {coeff_path}")
    coeffs = fir.load_coefficients(coeff_path)
    spec = _fir_spec_from(ex.section, coeffs.n_taps)
    keys = {**_defaults(fir.fir_problem), **ex.section.keys_for(fir.fir_problem)}
    try:
        problem = fir.fir_problem(spec, coeffs, **keys)
    except ContractViolation as exc:
        raise _fail("[fir]", str(exc)) from None

    def lc() -> np.ndarray:
        budget_bits = keys["budget_bits"]
        if keys["kind"] == "fixed":
            return fir.lc_fixed_alloc(coeffs.n_taps, budget_bits)
        relaxed = fir.lc_float_alloc(coeffs.h, budget_bits)
        return fir.lc_float_map(relaxed, coeffs.h, budget_bits)

    yield _allocation_case(ex, problem, lc=lc)


def _receiver_keys(section: _Section) -> tuple[str, ...]:
    return (*_defaults(receiver.SystemConfig, ("p_u", "seed")), "p_u_db")


def _receiver_cases(ex: _Experiment) -> Iterator[_Case]:
    """One problem per transmit power in p_u_db, built when the sweep reaches it.
    Every power is checked before the first is built: its SystemConfig, and
    that no two powers would write the same trace file."""
    p_u_db_list = [p + 0.0 for p in ex.section.get("p_u_db", [0.0])]  # -0.0 becomes 0.0
    if not p_u_db_list:
        raise _fail("[receiver] p_u_db", "at least one power is required")
    suffixes = [f"_pu{p:g}dB".replace("-", "m").replace(".", "p") for p in p_u_db_list]
    clash = [repr(p) for p, suffix in zip(p_u_db_list, suffixes) if suffixes.count(suffix) > 1]
    if clash:
        raise _fail("[receiver] p_u_db", f"{', '.join(clash)} would share trace files; "
                    "list each power once")
    try:
        p_u_list = [10.0 ** (p / 10.0) for p in p_u_db_list]
    except OverflowError:
        raise _fail("[receiver] p_u_db", "powers above about 3082 dB overflow a float") from None
    for p_u_db, p_u in zip(p_u_db_list, p_u_list):
        if not 0 < p_u < np.inf:  # nan, +-inf, or below about -3236 dB, which underflows
            raise _fail("[receiver] p_u_db",
                        f"{p_u_db!r} dB is a linear power of {p_u!r}, not positive and finite")
    cfgs = [ex.section.build(receiver.SystemConfig, p_u=p_u, seed=ex.seed) for p_u in p_u_list]
    for cfg, p_u_db, suffix in zip(cfgs, p_u_db_list, suffixes):
        problem = receiver.receiver_problem(cfg)
        yield _allocation_case(ex, problem, -1.0, labels={"p_u_dB": p_u_db}, trace_suffix=suffix)


_QGD_TASKS = {"least_squares": qgd.gaussian_least_squares, "logistic": qgd.synthetic_classification}


def _qgd_builder(section: _Section) -> Callable[..., qgd.QgdTask]:
    """The task constructor that task selects."""
    task = section.get("task", "least_squares")
    if task not in _QGD_TASKS:
        raise _fail("[qgd] task", f"expected 'least_squares' or 'logistic', got {task!r}")
    return _QGD_TASKS[task]


def _qgd_keys(section: _Section) -> tuple[str, ...]:
    return ("task", *_defaults(_qgd_builder(section), ("seed",)))


def _qgd_cases(ex: _Experiment) -> Iterator[_Case]:
    """One case, which trains once per strategy; without [swarm] the engines
    use qgd's per-step default."""
    task = ex.section.build(_qgd_builder(ex.section), seed=ex.seed)
    metric = "error" if task.z_star is not None else "loss"

    def solve(strategy: str) -> tuple:
        result = qgd.train(task, "uniform" if strategy == "naive" else strategy, ex.swarm)
        bits = result.allocations[-1]
        trace = [[t, _fmt(value), int(result.allocations[t - 1].sum()) if t else 0]
                 for t, value in enumerate(result.metric_trace)]
        final = float(result.metric_trace[-1])
        return bits, final, float(bits.sum()), (["iteration", metric, "bits_used"], trace)

    yield _Case(solve, key=f"final_{metric}")


# -- the experiment and its runner --------------------------------------------------


class _Experiment:
    """A config checked section by section: every section and key,
    [experiment], [swarm], and the application's section."""

    def __init__(self, config_path: Path):
        parser = _load_parser(config_path)
        if not parser.has_section("experiment"):
            raise _fail("[experiment]", "section is missing")
        self.exp = _Section(parser, "experiment")
        application = self.exp.raw("application")
        if application not in _APPLICATIONS:
            raise _fail("[experiment] application", f"must be one of {', '.join(_APPLICATIONS)}")
        if not parser.has_section(application):
            raise _fail(f"[{application}]", "section is missing")
        self.app = _APPLICATIONS[application]
        self.section = _Section(parser, application)
        valid = {
            "experiment": _EXPERIMENT_KEYS,
            "swarm": _defaults(SwarmConfig, ("seed",)),
            application: self.app.keys(self.section),
        }
        for name in parser.sections():
            if name not in valid:
                raise _fail(f"[{name}]", f"unknown section; valid: {', '.join(valid)}")
            for key in parser.options(name):
                if key not in valid[name]:
                    raise _fail(f"[{name}] {key}", f"unknown key; valid: {', '.join(valid[name])}")
        self.seed = self.exp.get("seed", 0)
        if self.seed < 0:
            raise _fail("[experiment] seed", f"must be >= 0, got {self.seed}")
        self.cap = self.exp.get("oracle_cap", DEFAULT_ORACLE_CAP)
        self.swarm = None  # without [swarm] each application picks its engine config
        if parser.has_section("swarm"):
            self.swarm = _Section(parser, "swarm").build(SwarmConfig, seed=self.seed)
        self.config_dir = config_path.resolve().parent


def _run(ex: _Experiment, strategies: list, out_dir: Path) -> None:
    """Solve every case with every strategy, then write the results, the
    traces and the summary; a run that stops on an error writes nothing."""
    json_summary = ex.exp.get("json_summary", False)  # a bad value fails before any solve
    rows, traces, summary = [], {}, []
    for case in ex.app.cases(ex):
        labels = [_fmt(value) for value in case.labels.values()]
        for strategy in strategies:
            try:
                bits, value, cons, trace = case.solve(strategy)
            except (InfeasibleBudgetError, SearchSpaceTooLarge) as exc:
                at = "".join(f" at {name} = {v}" for name, v in case.labels.items())
                print(f"strategy {strategy}{at}: {exc}", file=sys.stderr)
                rows.append([*labels, strategy, "nan", "nan", ""])
                continue
            bits = [int(b) for b in bits]
            rows.append([*labels, strategy, _fmt(value), _fmt(cons), " ".join(map(str, bits))])
            entry = {"strategy": strategy, case.key or ex.app.value: value, "consumption": cons}
            summary.append({**case.labels, **entry, "bits": bits})
            if trace is not None:
                traces[f"trace_{strategy}{case.trace_suffix}.csv"] = trace
    header = [*case.labels, "strategy", ex.app.value, "consumption", "bits"]
    _write_csv(out_dir / "results.csv", ex.seed, header, rows)
    for name, (trace_header, trace_rows) in traces.items():
        _write_csv(out_dir / name, ex.seed, trace_header, trace_rows)
    if json_summary:
        payload = {"application": ex.section.name, "seed": ex.seed, "results": summary}
        (out_dir / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class _Application(NamedTuple):
    """How one application reads its section and yields its cases."""

    keys: Callable[[_Section], tuple[str, ...]]  # the keys its section may set
    strategies: tuple[str, ...]
    cases: Callable[[_Experiment], Iterator[_Case]]
    value: str  # results column of the reported value


_APPLICATIONS = {
    "fir": _Application(
        _fir_keys, ("naive", "lc", "ppso", "gcpso", "oracle"), _fir_cases, "minimax_error"
    ),
    "receiver": _Application(
        _receiver_keys, ("naive", "ppso", "gcpso", "oracle"), _receiver_cases, "sum_rate_bps_hz"
    ),
    "qgd": _Application(_qgd_keys, ("naive", "ppso", "gcpso"), _qgd_cases, "final_metric"),
}


def run_experiment(config_path) -> int:
    ex = _Experiment(Path(config_path))
    application = ex.section.name
    strategies = _split_list(ex.exp.raw("strategies"))
    for strategy in strategies:
        if strategy not in ex.app.strategies:
            raise _fail(
                "[experiment] strategies",
                f"strategy {strategy!r} is not valid for application {application!r}; "
                f"valid: {', '.join(ex.app.strategies)}",
            )
        if strategies.count(strategy) > 1:
            raise _fail("[experiment] strategies", f"strategy {strategy!r} is listed more than once")
    if not strategies:
        raise _fail("[experiment] strategies", "at least one strategy is required")
    out_dir = ex.config_dir / ex.exp.get("output_dir", "results")
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():  # checked before any strategy is solved
        raise _fail("[experiment] output_dir", f"{existing} exists and is not a directory")
    _run(ex, strategies, out_dir)
    return 0


def run_check_convergence(w: float, c1: float, c2: float) -> int:
    report = check_convergence_conditions(w, c1, c2)
    print(f"w = {report.w:g}")
    print(f"c = {report.c:g}  ((c1 + c2) / 2)")
    print(f"P = [[{report.P[0,0]:.6f}, {report.P[0,1]:.6f}], "
          f"[{report.P[1,0]:.6f}, {report.P[1,1]:.6f}]]")
    print(f"lambda_max(P) = {report.lambda_max_P:.6f}")
    print(f"threshold 1/(2 sqrt(c^2+w^2)) = {report.threshold:.6f}")
    print(f"condition 1 (0 < w < c+1): {report.condition_1}")
    print(f"condition 2 (lambda_max(P) < threshold): {report.condition_2}")
    print(f"guaranteed: {report.guaranteed}")
    i_iter = SwarmConfig.i_iter
    print(f"shipped schedule order-2 stable (c1 + c2 < 24(1 - w^2)/(7 - 5w), Poli 2009) "
          f"from iteration {order2_stable_from(i_iter)} of {i_iter}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bitalloc", description="Bit-allocation search experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to the experiment config file")
    p_conv = sub.add_parser("check-convergence", help="stability check for (w, c1, c2)")
    p_conv.add_argument("--w", type=float, required=True)
    p_conv.add_argument("--c1", type=float, required=True)
    p_conv.add_argument("--c2", type=float, required=True)
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run_experiment(args.config)
        return run_check_convergence(args.w, args.c1, args.c2)
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
