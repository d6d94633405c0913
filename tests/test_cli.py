"""Command-line interface: run, oracle and check-convergence."""

import configparser
import csv
import json

import numpy as np
import pytest

from bitalloc import cli
from bitalloc.fir import FilterSpec, fir_problem, load_coefficients, minimax_error
from bitalloc.problem import brute_force_optimum

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
        expected = minimax_error(spec, coeffs, np.full(4, 3), "fixed")
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


def test_shipped_toy_outputs_reproduce_byte_for_byte(tmp_path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(CONFIG_DIR / "fir_toy_oracle.ini")
    parser["fir"]["coefficients"] = str((CONFIG_DIR / parser["fir"]["coefficients"]).resolve())
    parser["experiment"]["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "fir_toy_oracle.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    assert cli.main(["run", str(config)]) == 0
    shipped = CONFIG_DIR / "out" / "fir_toy_oracle"
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

    def test_results_hold_final_metric(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert cli.main(["run", str(config)]) == 0
        _, rows = read_results(tmp_path / "out")
        assert rows[0]["strategy"] == "naive"
        assert rows[0]["bits"] == "3 3 3 3"
        assert float(rows[0]["consumption"]) == 12.0


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
        self.run_expecting_config_error(
            tmp_path, text, "[experiment] strategies", capsys
        )

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
        text = FIR_TOY_CONFIG.format(coeffs="no_such_file.txt")
        self.run_expecting_config_error(
            tmp_path, text, "[fir] coefficients: file not found", capsys, command
        )

    def test_oracle_reports_missing_application_section(self, tmp_path, capsys):
        text = "[experiment]\napplication = fir\nstrategies = naive\n"
        self.run_expecting_config_error(
            tmp_path, text, "[fir]: section is missing", capsys, "oracle"
        )

    def test_invalid_swarm_setting_rejected(self, tmp_path, capsys):
        text = FIR_TOY_CONFIG.format(coeffs=TOY_COEFFS).replace(
            "n_pop = 60", "n_pop = 0"
        )
        self.run_expecting_config_error(tmp_path, text, "[swarm]", capsys)

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
