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


def _bits_str(bits) -> str:
    return " ".join(str(int(b)) for b in np.asarray(bits).ravel())


def _add_failed(rows: list, labels: dict, strategy, message) -> None:
    """Report a strategy that gave no allocation and append its nan row."""
    at = "".join(f" at {name} = {value}" for name, value in labels.items())
    print(f"strategy {strategy}{at}: {message}", file=sys.stderr)
    rows.append([*map(_fmt, labels.values()), strategy, "nan", "nan", ""])


def _add_result(rows: list, summary: list, labels: dict, strategy, key, value, cons, bits):
    """Append one results.csv row and its summary.json entry."""
    rows.append([*map(_fmt, labels.values()), strategy, _fmt(value), _fmt(cons), _bits_str(bits)])
    entry = {"strategy": strategy, key: value, "consumption": cons, "bits": [int(b) for b in bits]}
    summary.append({**labels, **entry})


# -- problem builders, one per application ------------------------------------------


@dataclass(frozen=True)
class _Case:
    """One problem an experiment solves, with the labels its outputs carry."""

    problem: AllocationProblem
    labels: dict = field(default_factory=dict)  # leading results.csv columns
    trace_suffix: str = ""
    lc: Optional[Callable[[], np.ndarray]] = None  # closed-form allocation, if any


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


def _fir_cases(section: _Section, seed: int, config_dir: Path) -> Iterator[_Case]:
    coeff_path = config_dir / section.raw("coefficients")  # an absolute path stays as is
    if not coeff_path.is_file():
        raise _fail("[fir] coefficients", f"file not found: {coeff_path}")
    coeffs = fir.load_coefficients(coeff_path)
    spec = _fir_spec_from(section, coeffs.n_taps)
    keys = {**_defaults(fir.fir_problem), **section.keys_for(fir.fir_problem)}
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

    yield _Case(problem, lc=lc)


def _receiver_keys(section: _Section) -> tuple[str, ...]:
    return (*_defaults(receiver.SystemConfig, ("p_u", "seed")), "p_u_db")


def _receiver_cases(section: _Section, seed: int, config_dir: Path) -> Iterator[_Case]:
    """One problem per transmit power in p_u_db, built when the sweep reaches it.
    Every power is checked before the first is built: its SystemConfig, and
    that no two powers would write the same trace file."""
    p_u_db_list = [p + 0.0 for p in section.get("p_u_db", [0.0])]  # -0.0 becomes 0.0
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
    cfgs = [section.build(receiver.SystemConfig, p_u=p_u, seed=seed) for p_u in p_u_list]
    for cfg, p_u_db, suffix in zip(cfgs, p_u_db_list, suffixes):
        yield _Case(receiver.receiver_problem(cfg), {"p_u_dB": p_u_db}, suffix)


_QGD_TASKS = {"least_squares": qgd.gaussian_least_squares, "logistic": qgd.synthetic_classification}


def _qgd_builder(section: _Section) -> Callable[..., qgd.QgdTask]:
    """The task constructor that task selects."""
    task = section.get("task", "least_squares")
    if task not in _QGD_TASKS:
        raise _fail("[qgd] task", f"expected 'least_squares' or 'logistic', got {task!r}")
    return _QGD_TASKS[task]


def _qgd_keys(section: _Section) -> tuple[str, ...]:
    return ("task", *_defaults(_qgd_builder(section), ("seed",)))


# -- runners ---------------------------------------------------------------------


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


def _run_allocations(ex: _Experiment, strategies, out_dir: Path) -> list:
    """Solve every case with every strategy and score each allocation."""
    swarm_cfg = ex.swarm or SwarmConfig(seed=ex.seed)
    rows, traces, summary = [], {}, []
    for case in ex.app.cases(ex.section, ex.seed, ex.config_dir):
        problem = case.problem
        for strategy in strategies:
            trace = None
            try:
                if strategy == "naive":
                    bits = np.full(problem.dimension, problem.budget_bits, dtype=np.int64)
                elif strategy == "lc":
                    bits = case.lc()
                elif strategy == "oracle":
                    bits, _ = brute_force_optimum(problem, cap=ex.cap)
                else:
                    result = (run_gcpso if strategy == "gcpso" else run_ppso)(problem, swarm_cfg)
                    bits, trace = result.best, result.trace
            except (InfeasibleBudgetError, SearchSpaceTooLarge) as exc:
                _add_failed(rows, case.labels, strategy, exc)
                continue
            cons = problem.evaluate_consumption(bits)
            if trace is not None:
                traces[f"trace_{strategy}{case.trace_suffix}.csv"] = [
                    [it, _fmt(cost)] for it, cost in enumerate(trace)
                ]
            value = ex.app.sign * problem.evaluate_objective(bits)
            _add_result(rows, summary, case.labels, strategy, ex.app.value, value, cons, bits)
    header = [*case.labels, "strategy", ex.app.value, "consumption", "bits"]
    _write_csv(out_dir / "results.csv", ex.seed, header, rows)
    for name, trace_rows in traces.items():
        _write_csv(out_dir / name, ex.seed, ["iteration", "best_cost"], trace_rows)
    return summary


def _run_qgd(ex: _Experiment, strategies, out_dir: Path) -> list:
    """Train once per strategy; without [swarm] the engines use qgd's per-step default."""
    task = ex.section.build(_qgd_builder(ex.section), seed=ex.seed)
    metric_name = "error" if task.z_star is not None else "loss"
    rows, summary = [], []
    for strategy in strategies:
        qgd_strategy = "uniform" if strategy == "naive" else strategy
        try:
            result = qgd.train(task, qgd_strategy, swarm_config=ex.swarm)
        except InfeasibleBudgetError as exc:
            _add_failed(rows, {}, strategy, exc)
            continue
        trace_rows = [
            [t, _fmt(value), int(result.allocations[t - 1].sum()) if t else 0]
            for t, value in enumerate(result.metric_trace)
        ]
        header = ["iteration", metric_name, "bits_used"]
        _write_csv(out_dir / f"trace_{strategy}.csv", ex.seed, header, trace_rows)
        final, bits = float(result.metric_trace[-1]), result.allocations[-1]
        key = f"final_{metric_name}"
        _add_result(rows, summary, {}, strategy, key, final, float(bits.sum()), bits)
    header = ["strategy", "final_metric", "consumption", "bits"]
    _write_csv(out_dir / "results.csv", ex.seed, header, rows)
    return summary


class _Application(NamedTuple):
    """How one application builds its problems and runs its strategies."""

    keys: Callable[[_Section], tuple[str, ...]]  # the keys its section may set
    strategies: tuple[str, ...]
    run: Callable[[_Experiment, list, Path], list]
    # The problems _run_allocations solves; qgd builds one per descent step.
    cases: Optional[Callable[[_Section, int, Path], Iterator[_Case]]] = None
    value: str = ""  # results column of the reported objective
    sign: float = 1.0  # the reported value is sign * objective


_APPLICATIONS = {
    "fir": _Application(
        _fir_keys, ("naive", "lc", "ppso", "gcpso", "oracle"), _run_allocations, _fir_cases,
        "minimax_error",
    ),
    "receiver": _Application(
        _receiver_keys, ("naive", "ppso", "gcpso", "oracle"), _run_allocations, _receiver_cases,
        "sum_rate_bps_hz", -1.0,
    ),
    "qgd": _Application(_qgd_keys, ("naive", "ppso", "gcpso"), _run_qgd),
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
    summary = ex.app.run(ex, strategies, out_dir)
    if ex.exp.get("json_summary", False):
        payload = {"application": application, "seed": ex.seed, "results": summary}
        (out_dir / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
