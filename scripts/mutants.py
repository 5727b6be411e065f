"""Recorded mutants, each of which its tests must kill.

    python3 scripts/mutants.py

Each entry names a file, the exact text to replace (it must occur exactly
once), the replacement and the tests that kill the mutant. For each entry
the script copies src/, tests/, scenarios/ and pyproject.toml to a
temporary directory, applies the edit there and runs only the named tests
with `python -m pytest -x`. A mutant is killed when pytest reports a failed
test (exit code 1). The script exits 1 if a mutant survives, if its old
text is missing or ambiguous, or if pytest ends any other way (a test id
that does not exist is not a kill).

The list only grows. Removing or editing an entry is a test change, to be
made only with its reason stated in CHANGES.md. (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 1978.)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CLAIMS, CLI, INIT = ("src/devilsmenu/claims.py", "src/devilsmenu/cli.py",
                     "src/devilsmenu/__init__.py")
MECHANISM, EQUILIBRIUM = "src/devilsmenu/mechanism.py", "src/devilsmenu/equilibrium.py"
T_MECH, T_EQ, T_PROP = "tests/test_mechanism.py", "tests/test_equilibrium.py", "tests/test_properties.py"
COMMITMENT_CHECK = """\
    deviators = args.decoys_to_slot1
    if not args.verify and not 0 <= deviators <= s.total_decoy:
        raise ScenarioFormatError("--decoys-to-slot1 outside 0..total decoys")
"""
COMMITMENT_HEADER = """\
    seed = _resolve_seed(args, s)
    game = CommitmentGame(s.total_real, s.menu.target, s.real_value, s.epsilon)
    _print_scenario_header(s, "commitment", seed)
"""

MUTANTS = [
    Mutant("family floors numbered from q = 0", CLAIMS,
           "for q in range(1, k)]", "for q in range(k - 1)]",
           (f"{T_MECH}::test_menu_family_equals_scenarios_built_from_raw_values",)),
    Mutant("commitment range check after the header", CLI,
           COMMITMENT_CHECK + COMMITMENT_HEADER, COMMITMENT_HEADER + COMMITMENT_CHECK,
           ("tests/test_cli.py::test_cli_commitment_refuses_a_bad_decoy_count_before_printing",)),
    Mutant("parser configures a subcommand other than the one invoked", CLI,
           "(a for a in argv if not", "(a for a in argv[1:] if not",
           ("tests/test_startup.py::test_main_parses_as_the_fully_configured_parser",)),
    Mutant("parser configures every subcommand", CLI,
           "return p if command in (None, name) else None", "return p",
           ("tests/test_startup.py::test_main_configures_only_the_invoked_subcommand",)),
    Mutant("package imports the variants eagerly", INIT,
           '__version__ = "0.1.0"', 'from . import variants\n__version__ = "0.1.0"',
           ("tests/test_startup.py::test_import_leaves_variants_and_the_pool_unloaded",)),
    Mutant("Monte Carlo reseeds with seed + i", MECHANISM,
           "reseed(seed ^ i)", "reseed(seed + i)",
           (f"{T_MECH}::test_fair_draw_counts_tallies_fair_draw",)),
    Mutant("Monte Carlo index bits taken from n - 1", MECHANISM,
           "(len(pool) - j).bit_length()", "(len(pool) - j - 1).bit_length()",
           (f"{T_MECH}::test_fair_draw_counts_tallies_fair_draw",
            f"{T_PROP}::test_mc_tally_replays_execute_and_the_fair_draw")),
    Mutant("Monte Carlo runs counted from 0 instead of lo", MECHANISM,
           "for i in range(lo, hi):", "for i in range(hi - lo):",
           (f"{T_MECH}::test_fair_draw_counts_tallies_fair_draw",)),
    Mutant("Monte Carlo counts the swapped-out entry", MECHANISM,
           "counts[items[j]] += 1", "counts[items[r]] += 1",
           (f"{T_MECH}::test_fair_draw_counts_tallies_fair_draw",)),
    Mutant("degenerate draw priced as drawn", MECHANISM,
           "if interim == BELOW or (interim == TIED and q - c == t):",
           "if interim == BELOW:",
           (f"{T_MECH}::test_execute_prices_a_degenerate_draw_as_outright",)),
    Mutant("threshold clamp ignores y", EQUILIBRIUM,
           "tau = lo if y < lo else (hi if y > hi else y)", "tau = lo if y < lo else hi",
           (f"{T_PROP}::test_threshold_summary_meets_its_edge_cases",
            f"{T_PROP}::test_threshold_summary_moves_equal_partition_of_moved_vector")),
    Mutant("threshold bound of a moving tied key ignores c", EQUILIBRIUM,
           "(below if c == q - 1 else tau, above)", "(tau, above)",
           (f"{T_PROP}::test_threshold_summary_meets_its_edge_cases",
            f"{T_PROP}::test_threshold_summary_moves_equal_partition_of_moved_vector")),
    Mutant("expanded equilibria left unsorted", EQUILIBRIUM,
           "    found.sort()\n", "",
           (f"{T_EQ}::test_orbit_scan_expands_every_arrangement_in_order",)),
    Mutant("spend denominator over one status row only", EQUILIBRIUM,
           "d = lcm(*(f.denominator for row in per_voter for f in row))",
           "d = lcm(*(f.denominator for f in per_voter[0]))",
           (f"{T_EQ}::test_sabotage_bound_symmetric_example",
            f"{T_PROP}::test_strong6_tied_expected_spend_matches_oracle")),
    Mutant("is_nash drops the dominance screen", EQUILIBRIUM,
           "if filter_dominated and any(", "if False and any(",
           (f"{T_EQ}::test_filtered_game_excludes_profiles_off_the_dominance_screen",)),
    Mutant("moves of empty classes are checked", EQUILIBRIUM,
           "for mv, idx, dm in moves if row[idx])", "for mv, idx, dm in moves)",
           ("tests/test_variants.py::test_subgame_perfect_small_instances",
            f"{T_PROP}::test_orbit_scan_matches_per_citizen_oracle")),
    Mutant("expansion without place", EQUILIBRIUM,
           "found.append(tuple(flat[i] for i in place))", "found.append(flat)",
           (f"{T_EQ}::test_expanded_equilibria_match_per_citizen_oracle",)),
    Mutant("expansion with unreversed rows", EQUILIBRIUM,
           "rows = [tuple(option[2] for option in reversed(orbit)) for orbit in rep]",
           "rows = [tuple(option[2] for option in orbit) for orbit in rep]",
           (f"{T_EQ}::test_expanded_equilibria_match_per_citizen_oracle",)),
    Mutant("interim lookup without the count range check", EQUILIBRIUM,
           "0 <= mk <= n + d for mk", "True for mk",
           (f"{T_EQ}::test_interim_rank_lookup_rejects_unreachable_counts",)),
    Mutant("an assert in model.py", "src/devilsmenu/model.py",
           "    out: list[str] = []\n", "    out: list[str] = []\n    assert s.districts\n",
           ("tests/test_source.py::test_src_has_no_assert_statements",)),
]


def check(mutant: Mutant) -> str:
    """'killed', or why the mutant does not count as killed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            (shutil.copytree if src.is_dir() else shutil.copy2)(src, work / name)
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"ERROR: old text found {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    tail = "\n".join(done.stdout.strip().splitlines()[-5:])
    return f"ERROR: pytest exited {done.returncode}\n{tail}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = check(mutant)
        print(f"{time.perf_counter() - start:5.1f}s  {mutant.name}: {verdict}", flush=True)
        bad += verdict != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
