"""Command-line driver for allocation experiments.

Experiments are described by a small INI-style config file with an
[experiment] section naming the application and the strategies to run,
an optional [swarm] section overriding engine hyperparameters, and one
application section ([fir], [receiver] or [qgd]) with the problem
parameters. All randomness flows from the single seed in [experiment];
each module derives its own substream, so reruns of the same config
produce byte-identical result files.

Subcommands:
  run <config>               execute the experiment, write CSV results
  check-convergence          print the stability report for (w, c1, c2)
  oracle <config>            brute-force the configured problem
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import fir, qgd, receiver
from .convergence import check_convergence_conditions
from .problem import (
    DEFAULT_ORACLE_CAP,
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    SearchSpaceTooLarge,
    brute_force_optimum,
)
from .swarm import SwarmConfig, run_gcpso, run_ppso

_STRATEGIES = ("naive", "lc", "ppso", "gcpso", "oracle")


class ConfigError(Exception):
    """Invalid experiment configuration; message names the field."""


def _fail(field: str, message: str) -> ConfigError:
    return ConfigError(f"{field}: {message}")


def _split_list(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


def _floats(section: str, key: str, raw: str) -> list[float]:
    try:
        return [float(tok) for tok in _split_list(raw)]
    except ValueError:
        raise _fail(f"[{section}] {key}", f"expected numbers, got {raw!r}") from None


class _Section:
    """Typed access to one config section with field-naming errors."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.parser = parser

    def has(self, key: str) -> bool:
        return self.parser.has_option(self.name, key)

    def raw(self, key: str, default: str | None = None) -> str:
        if not self.has(key):
            if default is None:
                raise _fail(f"[{self.name}] {key}", "required key is missing")
            return default
        return self.parser.get(self.name, key).strip()

    def _parsed(self, key: str, default, parse: Callable, what: str):
        raw = self.raw(key, None if default is None else repr(default))
        try:
            return parse(raw)
        except ValueError:
            raise _fail(f"[{self.name}] {key}", f"expected {what}, got {raw!r}") from None

    def integer(self, key: str, default: int | None = None) -> int:
        return self._parsed(key, default, int, "an integer")

    def number(self, key: str, default: float | None = None) -> float:
        return self._parsed(key, default, float, "a number")

    def flag(self, key: str, default: bool) -> bool:
        raw = self.raw(key, str(default)).lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise _fail(f"[{self.name}] {key}", f"expected a boolean, got {raw!r}")


def _load_parser(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise _fail("config", f"file not found: {path}") from None
    except configparser.Error as exc:
        raise _fail("config", f"parse error: {exc}") from None
    return parser


def _keys_for(section: _Section, cls, exclude: tuple[str, ...]) -> dict:
    """Each field of dataclass cls not in exclude, read with its default's type."""
    readers = {bool: section.flag, int: section.integer, float: section.number}
    return {
        f.name: readers[type(f.default)](f.name, f.default)
        for f in fields(cls)
        if f.name not in exclude
    }


def _swarm_config(parser: configparser.ConfigParser, seed: int) -> Optional[SwarmConfig]:
    """SwarmConfig's defaults overridden by [swarm] and seeded from
    [experiment]; None when there is no [swarm]."""
    if not parser.has_section("swarm"):
        return None
    overrides = _keys_for(_Section(parser, "swarm"), SwarmConfig, ("seed",))
    try:
        return SwarmConfig(seed=seed, **overrides)
    except ContractViolation as exc:
        raise _fail("[swarm]", str(exc)) from None


def _write_csv(path: Path, seed: int, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return repr(float(value))


def _bits_str(bits) -> str:
    return " ".join(str(int(b)) for b in np.asarray(bits).ravel())


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
        if not hi:
            raise _fail("[fir] bands", f"expected low:high pairs, got {tok!r}")
        band_edges.append((float(lo), float(hi)))
    desired = _floats("fir", "desired", section.raw("desired"))
    weights = _floats("fir", "weights", section.raw("weights"))
    try:
        return fir.FilterSpec.of_pi(band_edges, desired, weights, n_taps)
    except ContractViolation as exc:
        raise _fail("[fir]", str(exc)) from None


def _fir_cases(section: _Section, seed: int, config_dir: Path) -> Iterator[_Case]:
    coeff_path = Path(section.raw("coefficients"))
    if not coeff_path.is_absolute():
        coeff_path = config_dir / coeff_path
    if not coeff_path.exists():
        raise _fail("[fir] coefficients", f"file not found: {coeff_path}")
    coeffs = fir.load_coefficients(coeff_path)
    spec = _fir_spec_from(section, coeffs.n_taps)
    kind = section.raw("kind", "fixed")
    if kind not in ("fixed", "float"):
        raise _fail("[fir] kind", f"expected 'fixed' or 'float', got {kind!r}")
    budget_bits = section.integer("budget_bits", 8)
    exp_bits = section.integer("exp_bits", fir.DEFAULT_EXP_BITS)
    points_per_tap = section.integer("points_per_tap", fir.DEFAULT_POINTS_PER_TAP)
    problem = fir.fir_problem(
        spec, coeffs, kind, budget_bits, exp_bits=exp_bits, points_per_tap=points_per_tap
    )

    def lc() -> np.ndarray:
        if kind == "fixed":
            return fir.lc_fixed_alloc(coeffs.n_taps, budget_bits)
        relaxed = fir.lc_float_alloc(coeffs, budget_bits, strict=False)
        return fir.lc_float_map(relaxed, coeffs, budget_bits)

    yield _Case(problem, lc=lc)


def _receiver_cases(section: _Section, seed: int, config_dir: Path) -> Iterator[_Case]:
    """One problem per transmit power in p_u_db, built when the sweep reaches it."""
    keys = _keys_for(section, receiver.SystemConfig, ("p_u", "seed"))
    p_u_db_list = _floats("receiver", "p_u_db", section.raw("p_u_db", "0"))
    if not p_u_db_list:
        raise _fail("[receiver] p_u_db", "at least one power is required")
    for p_u_db in p_u_db_list:
        try:
            cfg = receiver.SystemConfig(p_u=10.0 ** (p_u_db / 10.0), seed=seed, **keys)
        except ContractViolation as exc:
            raise _fail("[receiver]", str(exc)) from None
        suffix = f"_pu{p_u_db:g}dB".replace("-", "m").replace(".", "p")
        yield _Case(receiver.receiver_problem(cfg), {"p_u_dB": p_u_db}, suffix)


def _qgd_task(section: _Section, seed: int, config_dir: Path) -> qgd.QgdTask:
    kind = section.raw("task", "least_squares")
    eta = section.number("eta", 0.001)
    t_iter = section.integer("t_iter", 200)
    budget_bits = section.integer("budget_bits", 4)
    try:
        if kind == "least_squares":
            return qgd.gaussian_least_squares(
                n_rows=section.integer("n_rows", 200),
                n_cols=section.integer("n_cols", 20),
                eta=eta,
                t_iter=t_iter,
                budget_bits=budget_bits,
                seed=seed,
                noise_std=section.number("noise_std", 0.0),
            )
        if kind == "logistic":
            return qgd.synthetic_classification(
                n_samples=section.integer("n_samples", 400),
                n_features=section.integer("n_features", 30),
                eta=eta,
                t_iter=t_iter,
                budget_bits=budget_bits,
                seed=seed,
                separation=section.number("separation", 2.0),
            )
        path = Path(kind)
        if not path.is_absolute():
            path = config_dir / path
        if not path.exists():
            raise _fail(
                "[qgd] task",
                f"expected 'least_squares', 'logistic' or a dataset path; {path} not found",
            )
        return qgd.load_sparse_dataset(
            path, eta=eta, t_iter=t_iter, budget_bits=budget_bits, seed=seed
        )
    except ContractViolation as exc:
        raise _fail("[qgd]", str(exc)) from None


def _qgd_cases(section: _Section, seed: int, config_dir: Path) -> Iterator[_Case]:
    """The first descent step's allocation problem, at the zero start."""
    task = _qgd_task(section, seed, config_dir)
    yield _Case(qgd.qgd_problem(task, np.zeros(task.dimension)))


# -- runners ---------------------------------------------------------------------


class _Experiment:
    """A config checked as far as run and oracle share: [experiment] and the application."""

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
        self.seed = self.exp.integer("seed", 0)
        self.config_dir = config_path.resolve().parent

    def cases(self) -> Iterator[_Case]:
        return self.app.cases(self.section, self.seed, self.config_dir)


def _run_allocations(ex: _Experiment, strategies, swarm_cfg, out_dir: Path) -> list:
    """Solve every case with every strategy and score each allocation."""
    cap = ex.exp.integer("oracle_cap", DEFAULT_ORACLE_CAP)
    swarm_cfg = swarm_cfg or SwarmConfig(seed=ex.seed)
    rows, traces, summary = [], {}, []
    for case in ex.cases():
        problem = case.problem
        for strategy in strategies:
            try:
                if strategy == "naive":
                    bits = np.full(problem.dimension, problem.budget_bits, dtype=np.int64)
                elif strategy == "lc":
                    bits = case.lc()
                elif strategy == "oracle":
                    bits, _ = brute_force_optimum(problem, cap=cap)
                else:
                    result = (run_gcpso if strategy == "gcpso" else run_ppso)(problem, swarm_cfg)
                    bits = result.best
                    traces[f"trace_{strategy}{case.trace_suffix}.csv"] = [
                        [it, _fmt(cost)] for it, cost in enumerate(result.trace)
                    ]
            except (InfeasibleBudgetError, SearchSpaceTooLarge) as exc:
                at = "".join(f" at {name} = {value}" for name, value in case.labels.items())
                print(f"strategy {strategy}{at}: {exc}", file=sys.stderr)
                rows.append([*map(_fmt, case.labels.values()), strategy, "nan", "nan", ""])
                continue
            value = ex.app.sign * problem.evaluate_objective(bits)
            cons = problem.evaluate_consumption(bits)
            _add_result(rows, summary, case.labels, strategy, ex.app.value, value, cons, bits)
    header = [*case.labels, "strategy", ex.app.value, "consumption", "bits"]
    _write_csv(out_dir / "results.csv", ex.seed, header, rows)
    for name, trace_rows in traces.items():
        _write_csv(out_dir / name, ex.seed, ["iteration", "best_cost"], trace_rows)
    return summary


def _run_qgd(ex: _Experiment, strategies, swarm_cfg, out_dir: Path) -> list:
    """Train once per strategy; without [swarm] the engines use qgd's per-step default."""
    task = _qgd_task(ex.section, ex.seed, ex.config_dir)
    metric_name = "error" if task.z_star is not None else "loss"
    rows, summary = [], []
    for strategy in strategies:
        qgd_strategy = "uniform" if strategy == "naive" else strategy
        result = qgd.train(task, qgd_strategy, swarm_config=swarm_cfg)
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

    cases: Callable[[_Section, int, Path], Iterator[_Case]]  # the oracle solves the first
    strategies: tuple[str, ...]
    run: Callable[[_Experiment, list, Optional[SwarmConfig], Path], list]
    value: str = ""  # results column of the reported objective
    sign: float = 1.0  # the reported value is sign * objective


_APPLICATIONS = {
    "fir": _Application(
        _fir_cases, ("naive", "lc", "ppso", "gcpso", "oracle"), _run_allocations,
        "minimax_error",
    ),
    "receiver": _Application(
        _receiver_cases, ("naive", "ppso", "gcpso", "oracle"), _run_allocations,
        "sum_rate_bps_hz", -1.0,
    ),
    "qgd": _Application(_qgd_cases, ("naive", "ppso", "gcpso"), _run_qgd),
}


def run_experiment(config_path) -> int:
    ex = _Experiment(Path(config_path))
    application = ex.section.name
    strategies = _split_list(ex.exp.raw("strategies"))
    for strategy in strategies:
        if strategy not in _STRATEGIES:
            raise _fail(
                "[experiment] strategies",
                f"unknown strategy {strategy!r}; valid: {', '.join(_STRATEGIES)}",
            )
        if strategy not in ex.app.strategies:
            raise _fail(
                "[experiment] strategies",
                f"strategy {strategy!r} is not valid for application {application!r}",
            )
    if not strategies:
        raise _fail("[experiment] strategies", "at least one strategy is required")
    out_dir = Path(ex.exp.raw("output_dir", "results"))
    if not out_dir.is_absolute():
        out_dir = ex.config_dir / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    swarm_cfg = _swarm_config(ex.exp.parser, ex.seed)

    summary = ex.app.run(ex, strategies, swarm_cfg, out_dir)
    if ex.exp.flag("json_summary", False):
        payload = {"application": application, "seed": ex.seed, "results": summary}
        (out_dir / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def run_oracle(config_path) -> int:
    ex = _Experiment(Path(config_path))
    cap = ex.exp.integer("oracle_cap", DEFAULT_ORACLE_CAP)
    problem = next(ex.cases()).problem
    try:
        bits, value = brute_force_optimum(problem, cap=cap)
    except (SearchSpaceTooLarge, InfeasibleBudgetError) as exc:
        print(f"oracle refused: {exc}", file=sys.stderr)
        return 1
    print(f"problem: {problem.name or ex.section.name} (dimension {problem.dimension}, "
          f"{len(problem.allowed_values)} allowed values)")
    print(f"bits = {_bits_str(bits)}")
    print(f"objective = {_fmt(value)}")
    print(f"consumption = {_fmt(problem.evaluate_consumption(bits))} (budget {_fmt(problem.budget)})")
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
    p_oracle = sub.add_parser("oracle", help="brute-force the configured problem")
    p_oracle.add_argument("config", help="path to the experiment config file")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run_experiment(args.config)
        if args.command == "check-convergence":
            return run_check_convergence(args.w, args.c1, args.c2)
        return run_oracle(args.config)
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
