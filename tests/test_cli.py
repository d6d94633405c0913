"""Command-line interface: run and check-convergence."""

import configparser
import csv
import json
import re

import numpy as np
import pytest

from bitalloc import cli, qgd
from bitalloc.fir import FilterSpec, fir_problem, load_coefficients
from bitalloc.problem import brute_force_optimum
from bitalloc.qgd import synthetic_classification, train

from conftest import FIXTURE_DIR

TOY_COEFFS = FIXTURE_DIR / "toy7.txt"
CONFIG_DIR = FIXTURE_DIR.parent / "configs"

FIR_TOY_CONFIG = """\
[experiment]
application = fir
strategies = naive, lc, ppso, gcpso, oracle
seed = 7
output_dir = out
json_summary = true
oracle_cap = 100000

[fir]
coefficients = {coeffs}
bands = 0:0.4, 0.6:1
desired = 1, 0
weights = 1, 1
kind = fixed
budget_bits = 3

[swarm]
n_pop = 60
i_iter = 40
restarts = 3
"""


def write_config(tmp_path, text):
    path = tmp_path / "experiment.ini"
    path.write_text(text)
    return path


def read_results(out_dir, name="results.csv"):
    lines = (out_dir / name).read_text().splitlines()
    assert lines[0].startswith("# seed=")
    return lines[0], list(csv.DictReader(lines[1:]))


@pytest.fixture(scope="module")
def fir_toy_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fir_toy")
    config = write_config(tmp_path, FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS))
    code = cli.main(["run", str(config)])
    return code, config, tmp_path / "out"


class TestRunFir:
    def test_exit_code_and_output_location(self, fir_toy_run):
        code, config, out_dir = fir_toy_run
        assert code == 0
        # output_dir resolves relative to the config file.
        assert out_dir.parent == config.parent
        assert (out_dir / "results.csv").exists()

    def test_seed_comment_and_row_count(self, fir_toy_run):
        _, _, out_dir = fir_toy_run
        seed_line, rows = read_results(out_dir)
        assert seed_line == "# seed=7"
        assert [r["strategy"] for r in rows] == ["naive", "lc", "ppso", "gcpso", "oracle"]

    def test_naive_row_matches_direct_evaluation(self, fir_toy_run):
        _, _, out_dir = fir_toy_run
        _, rows = read_results(out_dir)
        spec = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], 7)
        coeffs = load_coefficients(TOY_COEFFS)
        expected = fir_problem(spec, coeffs, "fixed", 3).evaluate_objective(np.full(4, 3))
        naive = next(r for r in rows if r["strategy"] == "naive")
        assert float(naive["minimax_error"]) == expected
        assert float(naive["consumption"]) == 21.0
        assert naive["bits"] == "3 3 3 3"

    def test_oracle_row_is_the_exhaustive_optimum(self, fir_toy_run):
        _, _, out_dir = fir_toy_run
        _, rows = read_results(out_dir)
        spec = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], 7)
        coeffs = load_coefficients(TOY_COEFFS)
        problem = fir_problem(spec, coeffs, "fixed", budget_bits=3)
        bits, value = brute_force_optimum(problem, cap=100000)
        oracle = next(r for r in rows if r["strategy"] == "oracle")
        assert oracle["bits"] == " ".join(str(b) for b in bits)
        assert float(oracle["minimax_error"]) == pytest.approx(value, rel=1e-15)
        errors = {r["strategy"]: float(r["minimax_error"]) for r in rows}
        assert all(value <= err + 1e-15 for err in errors.values())
        # Both engines crack this toy instance exactly.
        assert errors["ppso"] == pytest.approx(value, rel=1e-12)
        assert errors["gcpso"] == pytest.approx(value, rel=1e-12)

    def test_trace_files_cover_every_iteration(self, fir_toy_run):
        _, _, out_dir = fir_toy_run
        for strategy in ("ppso", "gcpso"):
            seed_line, rows = read_results(out_dir, f"trace_{strategy}.csv")
            assert seed_line == "# seed=7"
            assert len(rows) == 41
            assert [int(r["iteration"]) for r in rows] == list(range(41))
            costs = [float(r["best_cost"]) for r in rows]
            assert (np.diff(costs) <= 0).all()

    def test_json_summary_is_sorted_and_complete(self, fir_toy_run):
        _, _, out_dir = fir_toy_run
        text = (out_dir / "summary.json").read_text()
        payload = json.loads(text)
        assert payload["application"] == "fir"
        assert payload["seed"] == 7
        assert [entry["strategy"] for entry in payload["results"]] == [
            "naive", "lc", "ppso", "gcpso", "oracle",
        ]
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_rerun_is_byte_identical(self, fir_toy_run, tmp_path):
        _, config, out_dir = fir_toy_run
        names = ["results.csv", "trace_ppso.csv", "trace_gcpso.csv", "summary.json"]
        before = {name: (out_dir / name).read_bytes() for name in names}
        assert cli.main(["run", str(config)]) == 0
        for name in names:
            assert (out_dir / name).read_bytes() == before[name]


@pytest.mark.parametrize("name", ["fir_toy_oracle", "qgd_least_squares"])
def test_shipped_toy_outputs_reproduce_byte_for_byte(tmp_path, name):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(CONFIG_DIR / f"{name}.ini")
    if parser.has_option("fir", "coefficients"):
        coefficients = (CONFIG_DIR / parser["fir"]["coefficients"]).resolve()
        parser["fir"]["coefficients"] = str(coefficients)
    parser["experiment"]["output_dir"] = str(tmp_path / "out")
    config = tmp_path / f"{name}.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    assert cli.main(["run", str(config)]) == 0
    shipped = CONFIG_DIR / "out" / name
    expected = {p.name: p.read_bytes() for p in shipped.iterdir()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == expected


class TestRunQgd:
    CONFIG = """\
[experiment]
application = qgd
strategies = naive
seed = 0
output_dir = out

[qgd]
task = least_squares
n_rows = 30
n_cols = 4
eta = 0.01
t_iter = 5
budget_bits = 3
"""

    def test_traces_report_cumulative_bits(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert cli.main(["run", str(config)]) == 0
        seed_line, rows = read_results(tmp_path / "out", "trace_naive.csv")
        assert seed_line == "# seed=0"
        assert len(rows) == 6
        assert rows[0]["bits_used"] == "0"
        # Uniform strategy spends 4 * 3 bits every step.
        assert all(r["bits_used"] == "12" for r in rows[1:])
        assert "error" in rows[0]
        errors = [float(r["error"]) for r in rows]
        assert errors[-1] < errors[0]

    def test_logistic_task_runs(self, tmp_path):
        text = """\
[experiment]
application = qgd
strategies = naive, ppso, gcpso
seed = 0
output_dir = out

[qgd]
task = logistic
n_samples = 200
n_features = 20
eta = 0.5
t_iter = 2
budget_bits = 4
"""
        config = write_config(tmp_path, text)
        assert cli.main(["run", str(config)]) == 0
        for strategy in ("naive", "ppso", "gcpso"):
            lines = (tmp_path / "out" / f"trace_{strategy}.csv").read_text().splitlines()
            assert lines[:2] == ["# seed=0", "iteration,loss,bits_used"]
            assert [line.split(",")[0] for line in lines[2:]] == ["0", "1", "2"]
        _, rows = read_results(tmp_path / "out")
        assert [r["strategy"] for r in rows] == ["naive", "ppso", "gcpso"]

    def test_logistic_defaults_are_the_library_defaults(self, tmp_path):
        text = """\
[experiment]
application = qgd
strategies = naive
output_dir = out

[qgd]
task = logistic
n_samples = 40
n_features = 5
budget_bits = 2
"""
        config = write_config(tmp_path, text)
        assert cli.main(["run", str(config)]) == 0
        _, rows = read_results(tmp_path / "out", "trace_naive.csv")
        # No eta or t_iter in [qgd]: synthetic_classification's own defaults apply.
        task = synthetic_classification(n_samples=40, n_features=5, budget_bits=2)
        expected = train(task, "uniform").metric_trace
        assert len(rows) == task.t_iter + 1
        assert [float(r["loss"]) for r in rows] == expected.tolist()

    def test_results_hold_final_metric(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert cli.main(["run", str(config)]) == 0
        _, rows = read_results(tmp_path / "out")
        assert rows[0]["strategy"] == "naive"
        assert rows[0]["bits"] == "3 3 3 3"
        assert float(rows[0]["consumption"]) == 12.0


RECEIVER_CONFIG = """\
[experiment]
application = receiver
strategies = naive

[receiver]
m_antennas = 4
k_users = 2
mc_channels = 2
"""

BASE_CONFIGS = {
    "fir": FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS),
    "receiver": RECEIVER_CONFIG,
    "qgd": TestRunQgd.CONFIG,
}


def listing(text, strategies):
    """text with its strategies line set to strategies, or as written."""
    if strategies == "as listed":
        return text
    new = re.sub(r"^strategies = .*$", f"strategies = {strategies}", text, flags=re.M)
    assert new != text
    return new


# A config is checked in full before any strategy runs, also when the
# brute force is the only strategy listed.
AS_LISTED_OR_ORACLE = pytest.mark.parametrize("strategies", ["as listed", "oracle"])
ORACLE_TOO = {"fir": ("as listed", "oracle"), "receiver": ("as listed", "oracle"),
              "qgd": ("as listed",)}  # qgd has no oracle strategy


UNKNOWN_KEYS = [
    ("fir", "experiment", "seeed = 3"),
    ("fir", "fir", "budget_bitz = 5"),
    ("receiver", "receiver", "m_antenna = 8"),
    ("qgd", "qgd", "n_row = 30"),
    ("qgd", "qgd", "n_samples = 30"),  # a logistic key under task = least_squares
    ("qgd", "qgd", "noise_std = 0.5"),
    # model constants, not options
    ("fir", "fir", "points_per_tap = 8"),
    ("receiver", "receiver", "cell_radius = 500"),
    ("receiver", "receiver", "r_min = 50"),
    ("receiver", "receiver", "path_loss_exponent = 3"),
    ("receiver", "receiver", "shadowing_db = 6"),
    ("receiver", "receiver", "redraw_large_scale = false"),
]


class TestRunValidation:
    def run_expecting_config_error(self, tmp_path, text, fragment, capsys,
                                   strategies="as listed"):
        config = write_config(tmp_path, listing(text, strategies))
        assert cli.main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert fragment in err
        return err

    def test_unknown_strategy_named(self, tmp_path, capsys):
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace(
            "naive, lc, ppso, gcpso, oracle", "naive, simulated_annealing"
        )
        err = self.run_expecting_config_error(
            tmp_path, text, "[experiment] strategies", capsys
        )
        assert ("strategy 'simulated_annealing' is not valid for application 'fir'; "
                "valid: naive, lc, ppso, gcpso, oracle") in err

    def test_repeated_strategy_named(self, tmp_path, capsys):
        # Each listed strategy writes its own results row and trace file.
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace(
            "naive, lc, ppso, gcpso, oracle", "naive, ppso, ppso"
        )
        err = self.run_expecting_config_error(tmp_path, text, "[experiment] strategies", capsys)
        assert "'ppso' is listed more than once" in err
        assert not (tmp_path / "out").exists()

    @AS_LISTED_OR_ORACLE
    @pytest.mark.parametrize("powers", ["10, 10.0", "0, 1.0000001, 1.0000002", "0, -0"])
    def test_powers_sharing_a_trace_file_named(self, tmp_path, capsys, powers, strategies):
        # Powers that format alike would write one trace_*_pu<p>dB.csv.
        text = RECEIVER_CONFIG.replace("strategies = naive", "strategies = naive, ppso")
        text += f"p_u_db = {powers}\n"
        err = self.run_expecting_config_error(
            tmp_path, text, "[receiver] p_u_db", capsys, strategies
        )
        assert "would share trace files" in err
        assert not (tmp_path / "results").exists()

    @AS_LISTED_OR_ORACLE
    def test_infinite_power_rejected(self, tmp_path, capsys, strategies):
        # An infinite p_u made every SINR NaN, which the rate read as 0, and
        # 4000 dB overflowed on the way to a linear power. -inf dB and
        # -4000 dB, a linear power of 0.0, were refused as "[receiver]: p_u
        # must be positive and finite, got 0.0", naming neither the key nor
        # the power given. Every power is checked before the first is solved.
        for powers, message in [
            ("0, inf", "[receiver] p_u_db: inf dB is a linear power of inf, not positive and finite"),
            ("0, 4000", "[receiver] p_u_db: powers above about 3082 dB overflow a float"),
            ("-inf", "[receiver] p_u_db: -inf dB is a linear power of 0.0, not positive"),
            ("0, -4000", "[receiver] p_u_db: -4000.0 dB is a linear power of 0.0, not positive"),
            ("nan", "[receiver] p_u_db: nan dB is a linear power of nan, not positive"),
        ]:
            text = RECEIVER_CONFIG + f"p_u_db = {powers}\n"
            self.run_expecting_config_error(tmp_path, text, message, capsys, strategies)
            assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    @pytest.mark.parametrize("output_dir", ["out", "out/sub"])
    def test_output_dir_naming_a_file_rejected(self, tmp_path, capsys, output_dir):
        # Rejected before any strategy is solved, not when the results are written.
        (tmp_path / "out").write_text("a file\n")
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace(
            "output_dir = out", f"output_dir = {output_dir}"
        )
        err = self.run_expecting_config_error(tmp_path, text, "[experiment] output_dir", capsys)
        assert f"{tmp_path / 'out'} exists and is not a directory" in err
        assert "strategy" not in err
        assert (tmp_path / "out").read_text() == "a file\n"

    def test_strategy_application_mismatch(self, tmp_path, capsys):
        text = """\
[experiment]
application = receiver
strategies = lc

[receiver]
m_antennas = 4
k_users = 2
"""
        err = self.run_expecting_config_error(
            tmp_path, text, "[experiment] strategies", capsys
        )
        assert "not valid for application" in err

    def test_missing_section_named(self, tmp_path, capsys):
        self.run_expecting_config_error(
            tmp_path, "[fir]\nbudget_bits = 3\n", "[experiment]", capsys
        )

    def test_missing_required_key_named(self, tmp_path, capsys):
        text = """\
[experiment]
application = fir
strategies = naive

[fir]
benchmark = a
"""
        self.run_expecting_config_error(
            tmp_path, text, "[fir] coefficients", capsys
        )

    @AS_LISTED_OR_ORACLE
    def test_missing_coefficient_file_reported(self, tmp_path, capsys, strategies):
        # A directory used to raise IsADirectoryError.
        for coeffs in ("no_such_file.txt", tmp_path):
            text = FIR_TOY_CONFIG.format(coeffs=coeffs)
            self.run_expecting_config_error(
                tmp_path, text, "[fir] coefficients: file not found", capsys, strategies
            )

    @AS_LISTED_OR_ORACLE
    def test_coefficients_that_are_not_utf8_reported(self, tmp_path, capsys, strategies):
        # They used to raise UnicodeDecodeError.
        path = tmp_path / "h.txt"
        path.write_bytes(TOY_COEFFS.read_bytes() + b"\xff\n")
        text = FIR_TOY_CONFIG.format(coeffs=path)
        self.run_expecting_config_error(
            tmp_path, text, f"{path}: not UTF-8 text", capsys, strategies
        )
        assert not (tmp_path / "out").exists()

    def test_unknown_qgd_task_named(self, tmp_path, capsys):
        # A name other than the two tasks used to be read as a dataset path.
        text = TestRunQgd.CONFIG.replace("task = least_squares", "task = data")
        err = self.run_expecting_config_error(tmp_path, text, "[qgd] task", capsys)
        assert "expected 'least_squares' or 'logistic', got 'data'" in err
        assert not (tmp_path / "out").exists()

    def test_qgd_task_naming_a_file_is_not_read(self, tmp_path, capsys):
        # A dataset file beside the config used to be loaded as the task.
        (tmp_path / "data.txt").write_text("1 1:0.5\n-1 2:1.0\n")
        text = TestRunQgd.CONFIG.replace("task = least_squares", "task = data.txt")
        err = self.run_expecting_config_error(tmp_path, text, "[qgd] task", capsys)
        assert "expected 'least_squares' or 'logistic', got 'data.txt'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt", "experiment.ini"]

    def test_missing_application_section_named(self, tmp_path, capsys):
        text = "[experiment]\napplication = fir\nstrategies = naive\n"
        self.run_expecting_config_error(tmp_path, text, "[fir]: section is missing", capsys)

    def test_invalid_swarm_setting_rejected(self, tmp_path, capsys):
        base = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS)
        # An infinite penalty weight made the penalized fitness NaN at every feasible row.
        for text in [base.replace("n_pop = 60", "n_pop = 0"), base + "penalty_weight = inf\n"]:
            self.run_expecting_config_error(tmp_path, text, "[swarm]", capsys)

    @pytest.mark.parametrize(
        "line", ["n_popp = 5", "restart = 99", "seed = 3", "w_min = 0.5", "v_max = 2"]
    )
    def test_unknown_swarm_key_named(self, tmp_path, capsys, line):
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS) + line + "\n"
        key = line.split()[0]
        err = self.run_expecting_config_error(tmp_path, text, f"[swarm] {key}", capsys)
        assert "unknown key" in err

    @pytest.mark.parametrize(
        "base, section, line, strategies",
        [(*case, s) for case in UNKNOWN_KEYS for s in ORACLE_TOO[case[0]]],
    )
    def test_unknown_key_named(self, tmp_path, capsys, base, section, line, strategies):
        text = BASE_CONFIGS[base].replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        key = line.split()[0]
        err = self.run_expecting_config_error(
            tmp_path, text, f"[{section}] {key}", capsys, strategies
        )
        assert "unknown key; valid:" in err

    @pytest.mark.parametrize(
        "base, strategies", [(base, s) for base in BASE_CONFIGS for s in ORACLE_TOO[base]]
    )
    def test_negative_seed_named(self, tmp_path, capsys, base, strategies):
        text = re.sub(r"^seed = .*\n", "", BASE_CONFIGS[base], flags=re.M)
        text = text.replace("[experiment]\n", "[experiment]\nseed = -1\n")
        err = self.run_expecting_config_error(
            tmp_path, text, "[experiment] seed", capsys, strategies
        )
        assert "must be >= 0, got -1" in err
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    @AS_LISTED_OR_ORACLE
    def test_unknown_section_named(self, tmp_path, capsys, strategies):
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS) + "\n[swarms]\nn_pop = 5\n"
        err = self.run_expecting_config_error(tmp_path, text, "[swarms]", capsys, strategies)
        assert "unknown section" in err

    def test_impossible_exponent_width_rejected(self, tmp_path, capsys):
        # 2000 exponent bits overflowed a float inside the quantizer: a
        # traceback with exit 1.
        for width in (0, 2000):
            text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace(
                "kind = fixed", f"kind = float\nexp_bits = {width}"
            )
            message = f"[fir]: exp_bits must be >= 1 and <= 11, got {width}"
            self.run_expecting_config_error(tmp_path, text, message, capsys)
            assert not (tmp_path / "out").exists()

    @AS_LISTED_OR_ORACLE
    def test_budget_beyond_the_quantizers_named(self, tmp_path, capsys, strategies):
        # 1100 bits made the uniform start a NaN objective, after
        # RuntimeWarnings, with nothing naming budget_bits.
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace(
            "budget_bits = 3", "budget_bits = 1100"
        )
        message = "[fir]: budget_bits must be >= 1 and <= 511, got 1100"
        self.run_expecting_config_error(tmp_path, text, message, capsys, strategies)
        assert not (tmp_path / "out").exists()

    def test_infinite_step_size_rejected(self, tmp_path, capsys):
        # eta = inf wrote final_metric = nan for naive and failed a swarm
        # step on a NaN objective that did not name eta.
        text = TestRunQgd.CONFIG.replace("eta = 0.01", "eta = inf")
        message = "[qgd]: eta must be positive and finite, got inf"
        self.run_expecting_config_error(tmp_path, text, message, capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    @pytest.mark.parametrize("strategies", ["naive", "naive, gcpso"])
    def test_overflowing_step_size_named(self, tmp_path, capsys, strategies):
        # eta = 1e308 is finite, but the first step overflows. naive
        # exited 0 with final_metric = nan; naive, gcpso wrote naive's
        # trace of inf and nan, then failed gcpso on a NaN objective.
        text = TestRunQgd.CONFIG.replace("eta = 0.01", "eta = 1e308")
        text = text.replace("strategies = naive", f"strategies = {strategies}")
        message = "error: eta = 1e+308 overflowed descent step 1"
        self.run_expecting_config_error(tmp_path, text, message, capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    @pytest.mark.parametrize("task", ["least_squares", "logistic"])
    @pytest.mark.parametrize("strategies", ["gcpso, naive", "ppso"])
    def test_overflowing_step_objective_named(self, tmp_path, capsys, task, strategies):
        # With a swarm first, the first step's objective overflowed:
        # two RuntimeWarnings, then a NaN objective that did not name eta.
        text = TestRunQgd.CONFIG.replace("eta = 0.01", "eta = 1e308")
        text = text.replace("strategies = naive", f"strategies = {strategies}")
        text = text.replace("task = least_squares", f"task = {task}")
        if task == "logistic":
            text = text.replace("n_rows", "n_samples").replace("n_cols", "n_features")
        message = "error: eta = 1e+308 overflowed the step objective"
        self.run_expecting_config_error(tmp_path, text, message, capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    def test_run_stopped_at_its_second_strategy_writes_nothing(self, tmp_path, capsys):
        # naive's one step is finite, then gcpso's step objective overflows.
        # naive's trace was written as soon as naive finished, so the run
        # exited 2 and left out/trace_naive.csv behind.
        text = """\
[experiment]
application = qgd
strategies = naive, gcpso
seed = 0
output_dir = out

[qgd]
task = least_squares
n_rows = 20
n_cols = 3
eta = 3e152
t_iter = 1
budget_bits = 2
"""
        message = "error: eta = 3e+152 overflowed the step objective"
        self.run_expecting_config_error(tmp_path, text, message, capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    def test_qgd_budget_beyond_the_quantizer_named(self, tmp_path, capsys):
        # 600 bits exited 0, as the swarm never moved a width past 1023;
        # a width of 1100 valued as "eta = 0.01 overflowed the step
        # objective".
        text = TestRunQgd.CONFIG.replace("budget_bits = 3", "budget_bits = 600")
        text = text.replace("strategies = naive", "strategies = naive, gcpso")
        message = "error: [qgd]: budget_bits must be >= 1 and <= 511, got 600"
        self.run_expecting_config_error(tmp_path, text, message, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "base, old, new, fragment",
        [
            ("fir", "seed = 7", "seed = 1.5",
             "[experiment] seed: expected an integer, got '1.5'"),
            ("fir", "[swarm]\n", "[swarm]\nn_pop\n", "config: parse error"),
            ("fir", "bands = 0:0.4, 0.6:1\n", "",
             "[fir] bands: required when no benchmark letter is given"),
            ("fir", "bands = 0:0.4, 0.6:1", "bands = 0:0.6, 0.4:1",
             "[fir]: bands must be ascending and disjoint"),
            # An empty list was refused as "at least one band is required".
            ("fir", "bands = 0:0.4, 0.6:1", "bands =", "[fir]: bands must hold at least one band"),
            # An infinite weight exited 0 with every error inf.
            ("fir", "weights = 1, 1", "weights = 1, inf",
             "[fir]: weights must be positive and finite"),
            # A NaN desired value exited 2 blaming the objective.
            ("fir", "desired = 1, 0", "desired = 1, nan", "[fir]: desired must be finite"),
            ("receiver", "mc_channels = 2\n", "mc_channels = 2\np_u_db =\n",
             "[receiver] p_u_db: at least one power is required"),
            ("receiver", "application = receiver", "application = radar",
             "[experiment] application: must be one of"),
            ("fir", "strategies = naive, lc, ppso, gcpso, oracle", "strategies =",
             "[experiment] strategies: at least one strategy is required"),
        ],
        ids=["seed", "ini", "bands", "spec", "no bands", "weights", "desired", "powers", "application",
             "strategies"],
    )
    def test_bad_config_value_named(self, tmp_path, capsys, base, old, new, fragment):
        text = BASE_CONFIGS[base].replace(old, new)
        assert text != BASE_CONFIGS[base]
        self.run_expecting_config_error(tmp_path, text, fragment, capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    @AS_LISTED_OR_ORACLE
    def test_non_numeric_band_edge_named(self, tmp_path, capsys, strategies):
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace("0:0.4,", "0:x,")
        self.run_expecting_config_error(
            tmp_path, text, "[fir] bands: expected low:high pairs, got '0:x'", capsys, strategies
        )
        assert not (tmp_path / "out").exists()

    def test_config_file_must_exist(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.ini")]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_config_that_is_not_a_text_file_reported(self, tmp_path, capsys):
        # A directory raised IsADirectoryError, and bytes that are not
        # UTF-8 raised UnicodeDecodeError.
        (tmp_path / "dir.ini").mkdir()
        (tmp_path / "bytes.ini").write_bytes(RECEIVER_CONFIG.encode() + b"# \xff\n")
        for name, fragment in (("dir.ini", "cannot read {}"), ("bytes.ini", "{}: not UTF-8 text")):
            path = tmp_path / name
            assert cli.main(["run", str(path)]) == 2
            assert f"error: config: {fragment.format(path)}" in capsys.readouterr().err

    @AS_LISTED_OR_ORACLE
    def test_receiver_budget_overflowing_a_float_rejected(self, tmp_path, capsys, strategies):
        # float(m_antennas * 2**budget_bits) raised OverflowError.
        text = RECEIVER_CONFIG + "budget_bits = 1100\n"
        self.run_expecting_config_error(
            tmp_path, text, "[receiver]: budget_bits = 1100 gives a budget", capsys, strategies
        )
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    @pytest.mark.parametrize(
        "task, key, size",
        [
            ("logistic", "n_samples", 0),
            ("logistic", "n_samples", -1),
            ("logistic", "n_features", 0),
            ("logistic", "n_features", -1),
            ("least_squares", "n_rows", 0),
            ("least_squares", "n_rows", -1),
            ("least_squares", "n_cols", 0),
            ("least_squares", "n_cols", -1),
        ],
    )
    def test_qgd_size_below_one_named(self, tmp_path, capsys, task, key, size):
        # -1 failed inside numpy's draw with "negative dimensions are not
        # allowed", and 0 was named only as the shape of the features.
        text = re.sub(r"^(n_rows|n_cols) = .*\n", "", TestRunQgd.CONFIG, flags=re.M)
        text = text.replace("task = least_squares", f"task = {task}\n{key} = {size}")
        message = f"error: [qgd]: {key} must be >= 1, got {size}"
        self.run_expecting_config_error(tmp_path, text, message, capsys)
        assert not (tmp_path / "out").exists()


class TestCheckConvergence:
    def test_reference_point_report(self, capsys):
        assert cli.main(["check-convergence", "--w", "0.6", "--c1", "1", "--c2", "1"]) == 0
        out = capsys.readouterr().out
        assert "lambda_max(P) = 1.080911" in out
        assert "threshold 1/(2 sqrt(c^2+w^2)) = 0.428746" in out
        assert "condition 1 (0 < w < c+1): True" in out
        assert "condition 2 (lambda_max(P) < threshold): False" in out
        assert "guaranteed: False" in out

    def test_reports_where_the_shipped_schedule_turns_order2_stable(self, capsys):
        assert cli.main(["check-convergence", "--w", "0.6", "--c1", "1", "--c2", "1"]) == 0
        out = capsys.readouterr().out
        assert "c1 + c2 < 24(1 - w^2)/(7 - 5w)" in out
        assert "from iteration 24 of 100" in out

    def test_runaway_inertia_fails_condition_1(self, capsys):
        assert cli.main(["check-convergence", "--w", "2.5", "--c1", "1", "--c2", "1"]) == 0
        out = capsys.readouterr().out
        assert "condition 1 (0 < w < c+1): False" in out

    def test_invalid_parameters_exit_2(self, capsys):
        assert cli.main(["check-convergence", "--w", "0.6", "--c1", "0", "--c2", "0"]) == 2
        assert "error:" in capsys.readouterr().err


def test_over_budget_penalized_answer_is_a_failed_row(tmp_path, capsys):
    # A penalty this weak lets the penalized search settle over budget.
    text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace(
        "n_pop = 60\ni_iter = 40\nrestarts = 3",
        "n_pop = 20\ni_iter = 10\nrestarts = 1\npenalty_weight = 1e-9",
    )
    config = write_config(tmp_path, text)
    assert cli.main(["run", str(config)]) == 0
    assert ("strategy ppso: allocation [4, 1, 5, 2] consumes 22.0, over the budget of 21.0: "
            "penalty_weight 1e-09 is too weak") in capsys.readouterr().err
    _, rows = read_results(tmp_path / "out")
    by_strategy = {r["strategy"]: r for r in rows}
    assert by_strategy["ppso"] == {
        "strategy": "ppso", "minimax_error": "nan", "consumption": "nan", "bits": ""
    }
    assert float(by_strategy["gcpso"]["consumption"]) <= 21.0
    assert not (tmp_path / "out" / "trace_ppso.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "ppso" not in [entry["strategy"] for entry in summary["results"]]


def test_penalty_weight_near_the_float_range_runs_clean(tmp_path, capsys):
    # 1e308 times an excess overflowed with a RuntimeWarning, which
    # -W error::RuntimeWarning turned into exit 1.
    text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS) + "penalty_weight = 1e308\n"
    config = write_config(tmp_path, text)
    assert cli.main(["run", str(config)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_results(tmp_path / "out")
    error = {r["strategy"]: r["minimax_error"] for r in rows}
    assert error["ppso"] == error["gcpso"] == error["oracle"]


def test_over_budget_qgd_step_is_a_failed_row(tmp_path, capsys):
    # As above: the weak penalty lets step 0's allocation spend 7 of 5 bits.
    text = """\
[experiment]
application = qgd
strategies = naive, ppso
seed = 0
output_dir = out

[qgd]
task = least_squares
n_rows = 50
n_cols = 5
eta = 0.01
t_iter = 6
budget_bits = 1

[swarm]
n_pop = 20
i_iter = 10
restarts = 1
penalty_weight = 1e-9
"""
    config = write_config(tmp_path, text)
    assert cli.main(["run", str(config)]) == 0
    assert ("strategy ppso: allocation [1, 1, 1, 3, 1] consumes 7.0, over the budget of 5.0: "
            "penalty_weight 1e-09 is too weak") in capsys.readouterr().err
    _, rows = read_results(tmp_path / "out")
    assert rows[1] == {"strategy": "ppso", "final_metric": "nan", "consumption": "nan", "bits": ""}
    assert rows[0]["strategy"] == "naive"
    assert not (tmp_path / "out" / "trace_ppso.csv").exists()


class _Handed(Exception):
    """Stops a search at its start, carrying the problem it was handed."""


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem)
def test_shipped_config_builds(config, monkeypatch):
    ex = cli._Experiment(config)  # checks every section and key
    strategies = cli._split_list(ex.exp.raw("strategies"))
    assert strategies and set(strategies) <= set(ex.app.strategies)
    assert (ex.swarm is not None) == ex.exp.parser.has_section("swarm")

    def handed(problem, config):
        raise _Handed(problem)

    # The first case's ppso problem: FIR and receiver search the case's own
    # problem, qgd the first descent step's, at the zero start.
    monkeypatch.setattr(cli, "run_ppso", handed)
    monkeypatch.setattr(qgd, "run_ppso", handed)
    with pytest.raises(_Handed) as caught:
        next(ex.app.cases(ex)).solve("ppso")
    problem = caught.value.args[0]
    assert problem.dimension > 0
    uniform = np.full((1, problem.dimension), problem.budget_bits)
    assert problem.is_feasible(uniform[0])
    # The repair's step-down values, with or without the problem's hook.
    values = problem.evaluate_step_down_batch(uniform)
    assert values.shape == uniform.shape and np.isfinite(values).all()


class TestOracleStrategy:
    def test_oversized_search_space_is_a_failed_row(self, tmp_path, capsys):
        text = """\
[experiment]
application = receiver
strategies = naive, oracle
output_dir = out
oracle_cap = 1000

[receiver]
m_antennas = 16
k_users = 4
mc_channels = 2
"""
        config = write_config(tmp_path, text)
        assert cli.main(["run", str(config)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("strategy oracle at p_u_dB = 0.0: ")
        assert "exceeds the cap of 1000" in err
        _, rows = read_results(tmp_path / "out")
        assert [r["strategy"] for r in rows] == ["naive", "oracle"]
        assert rows[1] == {
            "p_u_dB": "0.0", "strategy": "oracle", "sum_rate_bps_hz": "nan", "consumption": "nan",
            "bits": "",
        }

    def test_lattice_beyond_numpy_index_refused_whatever_the_cap(self, tmp_path, capsys):
        # 17^18 points: enumerating them raised "dimensions are too large".
        text = f"""\
[experiment]
application = fir
strategies = oracle
output_dir = out
oracle_cap = 100000000000000000000000000

[fir]
coefficients = {FIXTURE_DIR / "a35.txt"}
benchmark = a
kind = float
budget_bits = 8
"""
        config = write_config(tmp_path, text)
        assert cli.main(["run", str(config)]) == 0
        err = capsys.readouterr().err
        assert "17^18 = 14063084452067724991009 candidates are more than numpy can index" in err
        assert read_results(tmp_path / "out")[1] == [
            {"strategy": "oracle", "minimax_error": "nan", "consumption": "nan", "bits": ""}
        ]

    def test_oracle_is_not_a_subcommand(self, capsys):
        # The oracle runs as a strategy of run, for every case.
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "experiment.ini"])
        assert exc.value.code == 2
        assert "invalid choice: 'oracle'" in capsys.readouterr().err
