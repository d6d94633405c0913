"""README.md names only what the package has."""

import importlib
import re
from pathlib import Path

import pytest

from bitalloc import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def resolves(dotted: str) -> bool:
    """Whether dotted is a module, or a module followed by attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_every_package_name_in_the_readme_resolves():
    names = set(re.findall(r"\bbitalloc(?:\.\w+)+", README))
    code = "\n".join(re.findall(r"```\w*\n(.*?)```", README, re.S))
    imports = re.findall(r"^from (bitalloc[\w.]*) import (\([^)]*\)|.+)$", code, re.M)
    for module, imported in imports:
        names.update(f"{module}.{name}" for name in re.findall(r"\w+", imported))
    # The scan sees both a package-level and a module-level import.
    assert {"bitalloc.SwarmConfig", "bitalloc.fir.fir_problem"} <= names
    assert sorted(name for name in names if not resolves(name)) == []


def subcommands_named() -> set[str]:
    """The word after `bitalloc` in every command line of the README's code
    blocks and backticked spans, and of the shipped configs' comments."""
    code = "\n".join(re.findall(r"```\w*\n(.*?)```", README, re.S))
    words = set(re.findall(r"^\s*bitalloc ([\w-]+)", code, re.M))
    words.update(re.findall(r"`bitalloc ([\w-]+)", README))
    for config in (ROOT / "configs").glob("*.ini"):
        words.update(re.findall(r"^#\s*bitalloc ([\w-]+)", config.read_text(), re.M))
    return words


def test_subcommand_scan_skips_imports():
    # The README imports the package as `from bitalloc import ...`; only
    # command lines count.
    assert "from bitalloc import" in README
    assert "import" not in subcommands_named()


def test_every_subcommand_named_exists(capsys):
    words = subcommands_named()
    assert {"run", "check-convergence"} <= words  # the scan finds the README's commands
    for word in sorted(words):
        with pytest.raises(SystemExit) as exc:
            cli.main([word, "--help"])
        assert exc.value.code == 0, f"bitalloc {word}: {capsys.readouterr().err}"


def test_readme_states_the_shipped_schedule():
    from bitalloc import swarm

    text = " ".join(README.split())
    for start, end in (swarm.W_SCHEDULE, swarm.C1_SCHEDULE, swarm.C2_SCHEDULE):
        assert f"from {start} to {end}" in text
    assert f"clamped to ±{swarm.V_MAX:g}" in text


def test_readme_states_the_cell_geometry():
    from bitalloc import receiver

    text = " ".join(README.split())
    assert f"a {receiver.CELL_RADIUS:g} m hexagon with a {receiver.R_MIN:g} m exclusion" in text
    exponent, shadowing = receiver.PATH_LOSS_EXPONENT, receiver.SHADOWING_DB
    assert f"path-loss exponent {exponent:g} and {shadowing:g} dB" in text
