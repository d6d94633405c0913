"""Every config key meets hostile values: a run exits 0, or exits 2 with a
message naming the key and writes nothing.

One toy config per application runs with one key at a time set to each
hostile value. The keys are every key its [experiment], [swarm] and
application sections accept, those the toy leaves unset included. A
warning is an error under the suite's filterwarnings, so a run that warns
fails too. Sizes skip 1000000, which asks for a long run or a large array
rather than a refusal.
"""

import configparser
import re

import pytest

from bitalloc import cli
from bitalloc.swarm import SwarmConfig

from conftest import FIXTURE_DIR

SWARM = """
[swarm]
n_pop = 6
i_iter = 3
restarts = 1
"""

CONFIGS = {
    "fir": f"""\
[experiment]
application = fir
strategies = naive, lc, ppso, gcpso, oracle
output_dir = out
json_summary = true

[fir]
coefficients = {FIXTURE_DIR / "toy7.txt"}
bands = 0:0.4, 0.6:1
desired = 1, 0
weights = 1, 1
kind = float
budget_bits = 3
""" + SWARM,
    "receiver": """\
[experiment]
application = receiver
strategies = naive, ppso, gcpso, oracle
output_dir = out
json_summary = true

[receiver]
m_antennas = 3
k_users = 1
mc_channels = 2
""" + SWARM,
    "qgd": """\
[experiment]
application = qgd
strategies = naive, ppso, gcpso
output_dir = out
json_summary = true

[qgd]
task = least_squares
n_rows = 20
n_cols = 3
eta = 0.01
t_iter = 2
budget_bits = 2
""" + SWARM,
}

HOSTILE = ["0", "-1", "1e308", "nan", "inf", "-inf", "", "2.5", "-0", "1e-320"]
SIZES = {"n_pop", "i_iter", "restarts", "m_antennas", "k_users", "mc_channels", "n_rows",
         "n_cols", "t_iter"}


def parse(application) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(CONFIGS[application])
    return parser


def accepted_keys(application) -> list[tuple[str, str]]:
    """(section, key) for every key the application's config accepts."""
    section = cli._Section(parse(application), application)
    sections = {
        "experiment": cli._EXPERIMENT_KEYS,
        "swarm": cli._defaults(SwarmConfig, ("seed",)),
        application: cli._APPLICATIONS[application].keys(section),
    }
    return [(name, key) for name, keys in sections.items() for key in keys]


CASES = [(app, section, key) for app in CONFIGS for section, key in accepted_keys(app)]


@pytest.mark.parametrize(
    "application, section, key", CASES, ids=[f"{a}-{s}-{k}" for a, s, k in CASES]
)
def test_hostile_value_runs_or_is_refused_by_name(tmp_path, capsys, application, section, key):
    values = HOSTILE if key in SIZES else [*HOSTILE, "1000000"]
    faults = []
    for i, value in enumerate(values):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        parser = parse(application)
        parser.set(section, key, value)
        config = run_dir / "experiment.ini"
        with open(config, "w") as fh:
            parser.write(fh)
        code = cli.main(["run", str(config)])
        err = capsys.readouterr().err
        left = sorted(p.name for p in run_dir.iterdir())
        if code not in (0, 2):
            faults.append(f"{value!r}: exit {code}")
        elif code == 2 and not re.search(rf"\b{key}\b", err):
            faults.append(f"{value!r}: exit 2 without naming {key}: {err.strip()}")
        elif code == 2 and left != ["experiment.ini"]:
            faults.append(f"{value!r}: exit 2 left {left}")
    assert not faults, f"[{section}] {key}:\n" + "\n".join(faults)
