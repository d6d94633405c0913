"""Command-line interface: run, oracle and check-convergence."""

import configparser
import csv
import json
import re

import numpy as np
import pytest

from bitalloc import cli
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


class TestRunValidation:
    def run_expecting_config_error(self, tmp_path, text, fragment, capsys, command="run"):
        config = write_config(tmp_path, text)
        assert cli.main([command, str(config)]) == 2
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

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize("powers", ["10, 10.0", "0, 1.0000001, 1.0000002", "0, -0"])
    def test_powers_sharing_a_trace_file_named(self, tmp_path, capsys, command, powers):
        # Powers that format alike would write one trace_*_pu<p>dB.csv.
        text = RECEIVER_CONFIG.replace("strategies = naive", "strategies = naive, ppso")
        text += f"p_u_db = {powers}\n"
        err = self.run_expecting_config_error(
            tmp_path, text, "[receiver] p_u_db", capsys, command
        )
        assert "would share trace files" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_infinite_power_rejected(self, tmp_path, capsys, command):
        # An infinite p_u made every SINR NaN, which the rate read as 0, and
        # 4000 dB overflowed on the way to a linear power.
        # The oracle solves only the first power, so every power is checked first.
        for powers, message in [
            ("0, inf", "[receiver]: p_u must be positive and finite, got inf"),
            ("0, 4000", "[receiver] p_u_db: powers above about 3082 dB overflow a float"),
        ]:
            text = RECEIVER_CONFIG + f"p_u_db = {powers}\n"
            self.run_expecting_config_error(tmp_path, text, message, capsys, command)
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

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_missing_coefficient_file_reported(self, tmp_path, capsys, command):
        # A directory used to raise IsADirectoryError.
        for coeffs in ("no_such_file.txt", tmp_path):
            text = FIR_TOY_CONFIG.format(coeffs=coeffs)
            self.run_expecting_config_error(
                tmp_path, text, "[fir] coefficients: file not found", capsys, command
            )

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_coefficients_that_are_not_utf8_reported(self, tmp_path, capsys, command):
        # They used to raise UnicodeDecodeError.
        path = tmp_path / "h.txt"
        path.write_bytes(TOY_COEFFS.read_bytes() + b"\xff\n")
        text = FIR_TOY_CONFIG.format(coeffs=path)
        self.run_expecting_config_error(tmp_path, text, f"{path}: not UTF-8 text", capsys, command)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_qgd_dataset_that_is_not_a_text_file_reported(self, tmp_path, capsys, command):
        # A directory raised IsADirectoryError, and bytes that are not
        # UTF-8 raised UnicodeDecodeError.
        (tmp_path / "data").mkdir()
        (tmp_path / "data.txt").write_bytes(b"1 1:1.0\n\xfe-1 1:2.0\n")
        for task, fragment in (
            ("data", "[qgd] task: expected 'least_squares', 'logistic' or a dataset file"),
            ("data.txt", "data.txt: not UTF-8 text"),
        ):
            text = TestRunQgd.CONFIG.replace("task = least_squares", f"task = {task}")
            text = re.sub(r"^(n_rows|n_cols) = .*\n", "", text, flags=re.M)
            self.run_expecting_config_error(tmp_path, text, fragment, capsys, command)

    def test_oracle_reports_missing_application_section(self, tmp_path, capsys):
        text = "[experiment]\napplication = fir\nstrategies = naive\n"
        self.run_expecting_config_error(
            tmp_path, text, "[fir]: section is missing", capsys, "oracle"
        )

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

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize(
        "base, section, line",
        [
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
        ],
    )
    def test_unknown_key_named(self, tmp_path, capsys, command, base, section, line):
        text = BASE_CONFIGS[base].replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        key = line.split()[0]
        err = self.run_expecting_config_error(
            tmp_path, text, f"[{section}] {key}", capsys, command
        )
        assert "unknown key; valid:" in err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize("base", ["fir", "receiver", "qgd"])
    def test_negative_seed_named(self, tmp_path, capsys, base, command):
        text = re.sub(r"^seed = .*\n", "", BASE_CONFIGS[base], flags=re.M)
        text = text.replace("[experiment]\n", "[experiment]\nseed = -1\n")
        err = self.run_expecting_config_error(
            tmp_path, text, "[experiment] seed", capsys, command
        )
        assert "must be >= 0, got -1" in err
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.ini"]

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_unknown_section_named(self, tmp_path, capsys, command):
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS) + "\n[swarms]\nn_pop = 5\n"
        err = self.run_expecting_config_error(tmp_path, text, "[swarms]", capsys, command)
        assert "unknown section" in err

    def test_impossible_exponent_width_rejected(self, tmp_path, capsys):
        # 2000 exponent bits overflowed a float inside the quantizer: a
        # traceback with exit 1.
        for command in ("run", "oracle"):
            for width in (0, 2000):
                text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace(
                    "kind = fixed", f"kind = float\nexp_bits = {width}"
                )
                message = f"[fir]: exp_bits must be >= 1 and <= 11, got {width}"
                self.run_expecting_config_error(tmp_path, text, message, capsys, command)
                assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_infinite_step_size_rejected(self, tmp_path, capsys, command):
        # eta = inf wrote final_metric = nan for naive and failed a swarm
        # step on a NaN objective that did not name eta.
        text = TestRunQgd.CONFIG.replace("eta = 0.01", "eta = inf")
        message = "[qgd]: step size must be positive and finite, got inf"
        self.run_expecting_config_error(tmp_path, text, message, capsys, command)
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

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_non_numeric_band_edge_named(self, tmp_path, capsys, command):
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace("0:0.4,", "0:x,")
        self.run_expecting_config_error(
            tmp_path, text, "[fir] bands: expected low:high pairs, got '0:x'", capsys, command
        )
        assert not (tmp_path / "out").exists()

    def test_config_file_must_exist(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.ini")]) == 2
        assert "file not found" in capsys.readouterr().err


class TestCheckConvergence:
    def test_reference_point_report(self, capsys):
        assert cli.main(["check-convergence", "--w", "0.6", "--c1", "1", "--c2", "1"]) == 0
        out = capsys.readouterr().out
        assert "lambda_max(P) = 1.080911" in out
        assert "threshold 1/(2 sqrt(c^2+w^2)) = 0.428746" in out
        assert "condition 1 (0 < w < c+1): True" in out
        assert "condition 2 (lambda_max(P) < threshold): False" in out
        assert "guaranteed: False" in out

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


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem)
def test_shipped_config_builds(config):
    ex = cli._Experiment(config)  # checks every section and key
    strategies = cli._split_list(ex.exp.raw("strategies"))
    assert strategies and set(strategies) <= set(ex.app.strategies)
    assert (ex.swarm is not None) == ex.exp.parser.has_section("swarm")
    problem = next(ex.cases()).problem
    assert problem.dimension > 0
    assert problem.is_feasible(np.full(problem.dimension, problem.budget_bits))


class TestOracleCommand:
    def test_fir_toy_matches_direct_brute_force(self, tmp_path, capsys):
        config = write_config(tmp_path, FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS))
        assert cli.main(["oracle", str(config)]) == 0
        out = capsys.readouterr().out
        spec = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], 7)
        problem = fir_problem(spec, load_coefficients(TOY_COEFFS), "fixed", budget_bits=3)
        bits, value = brute_force_optimum(problem, cap=100000)
        assert f"bits = {' '.join(str(b) for b in bits)}" in out
        assert f"objective = {value!r}" in out

    def test_oversized_search_space_refused(self, tmp_path, capsys):
        text = """\
[experiment]
application = receiver
strategies = naive
oracle_cap = 1000

[receiver]
m_antennas = 16
k_users = 4
mc_channels = 2
"""
        config = write_config(tmp_path, text)
        assert cli.main(["oracle", str(config)]) == 1
        assert "oracle refused" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_lattice_beyond_numpy_index_refused_whatever_the_cap(self, tmp_path, capsys, command):
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
        assert cli.main([command, str(config)]) == (1 if command == "oracle" else 0)
        err = capsys.readouterr().err
        assert "17^18 = 14063084452067724991009 candidates are more than numpy can index" in err
        if command == "oracle":
            assert err.startswith("oracle refused: ")
        else:
            assert read_results(tmp_path / "out")[1] == [
                {"strategy": "oracle", "minimax_error": "nan", "consumption": "nan", "bits": ""}
            ]
