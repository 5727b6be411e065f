"""Start-up pays only for what a command runs: the variants, the process
pool and argparse load on first use, and a call main leaves to argparse
registers only the subcommand that its first word names, with help, usage
and error text unchanged."""

import argparse
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from devilsmenu import cli
from devilsmenu.model import MAX_SEED

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package exported when it imported the variants eagerly;
# the README's "Library surface" list is a subset.
EXPORTED = (
    "DeltaBelowThreshold", "DistrictSpec", "MenuVariant", "ProfileError",
    "ScanCapExceeded", "Scenario", "ScenarioFormatError", "brute_force_cost",
    "format_rational", "make_scenario", "parse_rational", "scenario_warnings",
    "validate_budget", "validate_scenario",
    "CountProfile", "budget_bound", "classify", "execute", "minimal_delta",
    "price_for", "select_districts", "sell_decision",
    "strong4_expenditure_bound", "strong6_expenditure_bound",
    "deviation_payoff", "enumerate_equilibria", "expected_expenditure",
    "expected_payoff", "is_nash", "tie_payoff_gap_holds", "verify_sabotage_bound",
    "CommitmentGame", "CommitmentProfile", "run_commitment", "run_lemons",
    "run_sequential", "verify_commitment_equilibrium",
    "verify_subgame_perfect", "__version__",
)

PROBE = f"""
import sys
import devilsmenu, devilsmenu.cli
print(sorted(m for m in ("devilsmenu.variants", "concurrent.futures", "dataclasses",
                          "argparse") if m in sys.modules))
from devilsmenu import {", ".join(EXPORTED)}
from devilsmenu import variants
print(run_lemons is variants.run_lemons)
try:
    devilsmenu.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_import_leaves_variants_and_the_pool_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        "[]", "True", "module 'devilsmenu' has no attribute 'no_such_name'"]


# One valid argv per subcommand, without --out.
VALID = {
    "run": ["run", "--scenario", "s.json"],
    "enumerate": ["enumerate", "--scenario", "s.json"],
    "verify": ["verify", "--claim", "thm1"],
    "sequential": ["sequential", "--scenario", "s.json"],
    "commitment": ["commitment", "--scenario", "s.json"],
    "lemons": ["lemons", "--good", "3", "--bad", "5"],
    "sweep": ["sweep", "--scenario", "s.json", "--param", "q", "--from", "1",
              "--to", "2", "--steps", "2"],
}


def _parse(parse, argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    *([name, "--help"] for name in VALID),
    *(argv + ["--bogus", "1"] for argv in VALID.values()),
    *([name] for name in VALID),
    ["--bogus-first"] + VALID["run"],
    ["bogus"], [], ["--help"], ["-h", "run"],
])
def test_main_parses_as_the_fully_configured_parser(argv):
    # main reaches no handler here: each argv asks for help or is refused.
    full = _parse(cli.build_parser().parse_args, argv)
    assert full[0] in (0, 2)
    assert _parse(cli.main, argv) == full


def test_main_configures_only_the_invoked_subcommand(monkeypatch):
    built, real = [], cli.build_parser

    def spy(command=None):
        built.append(real(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    for name in VALID:
        _parse(cli.main, [name, "--help"])
        sub = next(a for a in built[-1]._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [name]
        assert len(sub.choices[name]._actions) > 1


@pytest.mark.parametrize("refused, rule", [
    (["--mc", "-1"], "at least 0"),
    (["--workers", "0"], "at least 1"),
    (["--seed", "-1"], f"in 0..{MAX_SEED}"),
])
def test_main_refusals_print_the_full_usage_line(refused, rule):
    # main's own checks refuse after parsing, with the usage line of a
    # parser that registered only "run"; it still lists every subcommand.
    code, out, err = _parse(cli.main, VALID["run"] + refused)
    assert (code, out) == (2, "")
    assert err == (cli.build_parser().format_usage()
                   + f"devils-menu: error: argument {refused[0]}: must be {rule}\n")
