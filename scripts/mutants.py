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

Before any mutant, every named test runs once on an unmutated copy, and the
script exits 1 unless they all pass: a test that fails anyway would read as
a kill.

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
VARIANTS, MODEL = "src/devilsmenu/variants.py", "src/devilsmenu/model.py"
MECHANISM, EQUILIBRIUM = "src/devilsmenu/mechanism.py", "src/devilsmenu/equilibrium.py"
T_MECH, T_EQ, T_PROP = "tests/test_mechanism.py", "tests/test_equilibrium.py", "tests/test_properties.py"
T_CLI = "tests/test_cli.py::test_cli_refuses_before_printing"
T_RECORDS = "tests/test_records.py"
T_PARITY = "tests/test_startup.py::test_main_parses_as_the_fully_configured_parser"
T_READER = "tests/test_cli_reader.py"
T_AGREES = f"{T_READER}::test_reader_agrees_with_argparse_whenever_it_reads"
T_HASH = "tests/test_cli.py::test_profile_parse_error_names_the_first_bad_field_whatever_the_hash_seed"
T_LONE = ("tests/test_equilibrium.py::test_lone_deviation_spends_match_oracle_on_small_family",
          "tests/test_properties.py::test_lone_deviation_spends_match_oracle")
T_ROUNDS = ("tests/test_variants.py::test_subgame_check_scans_each_residual_multiset_once",
            "tests/test_variants.py::test_subgame_check_fails_when_any_round_fails",
            "tests/test_variants.py::test_cli_sequential_claim_fails_when_a_round_fails")
COMMITMENT_CHECK = """\
    deviators = args.decoys_to_slot1
    if not args.verify and not 0 <= deviators <= s.total_decoy:
        raise ScenarioFormatError("--decoys-to-slot1 outside 0..total decoys")
"""
COMMITMENT_SEED = "    seed = _resolve_seed(args, s)\n"
COMMITMENT_HEADER = '    _print_scenario_header(s, "commitment", seed)\n'
COMMITMENT_VERIFY = "        report = verify_commitment_equilibrium(game, s.total_decoy)\n"
VERDICT = "after * weight > before * weight2"
BLOCK_CHECK = "            bottom = bottom_of(head_keys + low_keys, q)\n"
HOT_KEY = "option[0] if any(mv in hot for mv, _ in option[1]) else -1"
BIT_IDS = f"""\
    bits, hot = count(), ctx.tables.hot
    compiled = [(ks, [(*option, 1 << next(bits),
                       {HOT_KEY})
                      for option in options])
                for ks, options in compiled]
    judged = [option for _, options in compiled for option in options]
"""
TIE_WORTH = """\
        return (drawn * self.settled[SELECTED_BY_DRAW][i]
                + (t - drawn) * self.settled[NOT_SELECTED][i], t)
"""
PREMISE_S2 = """\
    if max(worth[_R2] for worth in worths) > min(worth[_R1] for worth in worths):
        return "slot two is not dominated for a real voter"
"""
T_BLOCKS = (f"{T_PROP}::test_block_scan_equals_orbit_scan_reference",
            f"{T_EQ}::test_block_scan_equals_orbit_scan_reference_on_full_family")
T_SETTLED = f"{T_PROP}::test_realized_payments_equal_citizen_by_citizen_settlement"
T_VERDICTS = (f"{T_PROP}::test_verdicts_equal_the_fraction_comparison_of_expected_payoffs",)
T_HOT = (f"{T_EQ}::test_expanded_equilibria_match_per_citizen_oracle", *T_BLOCKS)
SEQUENTIAL_RUN = "    outcomes = run_sequential(s, random.Random(seed))\n"
SEQUENTIAL_HEADER = '    _print_scenario_header(s, "sequential", seed)\n'
STATUS_ODDS_CODES = """\
    if interim == 0 or (interim == {tied} and q - c == t):
        return ((SELECTED_OUTRIGHT, Fraction(1)),)
    if interim == {above}:
"""

MUTANTS = [
    Mutant("family floors numbered from q = 0", CLAIMS,
           "for q in range(1, k)]", "for q in range(k - 1)]",
           (f"{T_MECH}::test_menu_family_equals_scenarios_built_from_raw_values",)),
    Mutant("commitment range check after the header", CLI,
           COMMITMENT_CHECK + COMMITMENT_SEED, COMMITMENT_SEED + COMMITMENT_HEADER + COMMITMENT_CHECK,
           ("tests/test_cli.py::test_cli_commitment_refuses_a_bad_decoy_count_before_printing",)),
    Mutant("sequential runs after the header", CLI,
           SEQUENTIAL_RUN + SEQUENTIAL_HEADER, SEQUENTIAL_HEADER + SEQUENTIAL_RUN,
           (f"{T_CLI}[sequential-below-floor]", f"{T_CLI}[sequential-strong6]")),
    Mutant("sweep scans after the header", CLI,
           "    rows = []\n    for value in values:\n",
           '    _print_scenario_header(s, "sweep", _resolve_seed(args, s))\n'
           "    rows = []\n    for value in values:\n",
           (f"{T_CLI}[sweep-scan-cap]",)),
    Mutant("commitment verifies after the header", CLI,
           COMMITMENT_VERIFY + "    " + COMMITMENT_HEADER,
           "    " + COMMITMENT_HEADER + COMMITMENT_VERIFY,
           (f"{T_CLI}[commitment-verify-scan-cap]",)),
    Mutant("run classifies and executes after the header", CLI,
           "    cl = classify(s, profile)\n",
           '    _print_scenario_header(s, "run", seed)\n    cl = classify(s, profile)\n',
           (f"{T_CLI}[run-commitment-menu]",)),
    Mutant("parser configures a subcommand other than the one invoked", CLI,
           "build_parser(argv[0] if argv", "build_parser(next(iter(_COMMANDS)) if argv",
           (T_PARITY,)),
    Mutant("parser configures every subcommand", CLI,
           "        if command not in (None, name):\n            continue\n", "",
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
           "if interim == 0 or (interim == 1 and q - c == t):",
           "if interim == 0:",
           (f"{T_MECH}::test_execute_prices_a_degenerate_draw_as_outright",)),
    Mutant("threshold clamp ignores y", MECHANISM,
           "tau = lo if y < lo else (hi if y > hi else y)", "tau = lo if y < lo else hi",
           (f"{T_PROP}::test_threshold_summary_meets_its_edge_cases",
            f"{T_PROP}::test_threshold_summary_moves_equal_partition_of_moved_vector")),
    Mutant("threshold bound of a moving tied key ignores c", MECHANISM,
           "(below if c == q - 1 else tau, above)", "(tau, above)",
           (f"{T_PROP}::test_threshold_summary_meets_its_edge_cases",
            f"{T_PROP}::test_threshold_summary_moves_equal_partition_of_moved_vector")),
    Mutant("expanded equilibria left unsorted", EQUILIBRIUM,
           "    found.sort()\n", "",
           (f"{T_EQ}::test_orbit_scan_expands_every_arrangement_in_order",)),
    Mutant("spend denominator over one status row only", MECHANISM,
           "return self.scale * t, tuple(paid)", "return self.scale, tuple(paid)",
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
    Mutant("expansion with unsorted rows", EQUILIBRIUM,
           "rows = [tuple(sorted(option[2] for option in orbit_options))",
           "rows = [tuple(option[2] for option in orbit_options)",
           (f"{T_EQ}::test_expanded_equilibria_match_per_citizen_oracle",)),
    Mutant("deviation payoff without the occupied-class refusal", EQUILIBRIUM,
           "if p.as_counts()[who.district][CLASS_SLOTS[(who.voter_type, who.action)]] == 0:",
           "if False:",
           (f"{T_EQ}::test_deviation_requires_occupied_class",)),
    Mutant("classify keys without the L / r step", MECHANISM,
           "return scale, tuple(scale // d.real_count for d in s.districts)",
           "return scale, (1,) * len(s.districts)",
           (f"{T_PROP}::test_classify_equals_oracle_partition",)),
    Mutant("classify threshold without / L", MECHANISM,
           "Fraction(summary.tau, scale)", "Fraction(summary.tau)",
           (f"{T_PROP}::test_classify_equals_oracle_partition",)),
    Mutant("tied and above swapped where status_odds reads the code", MECHANISM,
           STATUS_ODDS_CODES.format(tied=1, above=2), STATUS_ODDS_CODES.format(tied=2, above=1),
           (f"{T_MECH}::test_selection_odds_per_interim_status", T_SETTLED)),
    Mutant("lone-defector spend prices the unmoved districts at the mover's status", EQUILIBRIUM,
           "rest = paid[0 if c > (st == 0) else (1 if t > (st == 1) else 2)]", "rest = paid[st]",
           (f"{T_EQ}::test_lone_deviation_spends_match_oracle_on_small_family",
            f"{T_PROP}::test_lone_deviation_spends_match_oracle")),
    Mutant("bound denominator taken from delta alone", MECHANISM,
           "den = lcm(*(x.denominator for x in prices))", "den = s.delta.denominator",
           (f"{T_PROP}::test_budget_bound_matches_subset_oracle_on_fractional_prices",)),
    Mutant("gap check strict at the floor", EQUILIBRIUM,
           "return s.delta >= floor", "return s.delta > floor",
           (f"{T_EQ}::test_tie_payoff_gap_holds_on_family_members",
            f"{T_PROP}::test_tie_payoff_gap_matches_its_term_by_term_oracle")),
    Mutant("a missing verdict read as no gain", MECHANISM,
           f"        return {VERDICT}\n", "        return False\n",
           (f"{T_EQ}::test_expanded_equilibria_match_per_citizen_oracle",)),
    Mutant("verify checks a scenario of another menu", CLAIMS,
           "if scenario.menu != menu:", "if False:",
           (f"{T_CLI}[verify-strong6-on-weak4]", f"{T_CLI}[verify-strong4-on-weak4]",
            f"{T_CLI}[verify-weak4-on-strong6]")),
    Mutant("an assert in model.py", "src/devilsmenu/model.py",
           "    out: list[str] = []\n", "    out: list[str] = []\n    assert s.districts\n",
           ("tests/test_source.py::test_src_has_no_assert_statements",)),
    Mutant("abstainer payoff read as 0 in rows", MECHANISM,
           "pay, value = 0, valuation(voter_type, v)", "pay, value = 0, 0",
           (f"{T_EQ}::test_pricing_tables_are_keyed_by_every_pricing_field",
            f"{T_EQ}::test_pricing_tables_fill_each_entry_once")),
    Mutant("Threshold.status ignores its tau", MECHANISM,
           "tau = self.tau if tau is None else tau", "tau = self.tau",
           (f"{T_PROP}::test_threshold_summary_moves_equal_partition_of_moved_vector",
            f"{T_PROP}::test_lone_deviation_spends_match_oracle")),
    Mutant("__missing__ does not record", MECHANISM,
           "got = self[key] = self.fill(key)", "got = self.fill(key)",
           (f"{T_EQ}::test_pricing_tables_fill_each_entry_once",)),
    Mutant("the pool takes as many workers as asked", CLAIMS,
           "return min(workers, calls, os.cpu_count() or 1)", "return workers",
           ("tests/test_cli.py::test_cli_pool_never_outnumbers_the_cpus",)),
    Mutant("profile fields read in set order", CLI,
           "for key in ActionCount._fields]", "for key in set(ActionCount._fields)]",
           (f"{T_HASH}[0]", f"{T_HASH}[1]")),
    Mutant("CLASS_SLOTS built in reversed field order", MECHANISM,
           "enumerate(ActionCount._fields)}", "enumerate(reversed(ActionCount._fields))}",
           (f"{T_MECH}::test_action_count_accessors",)),
    Mutant("tie_price_floor lets a non-weak4 menu run sequentially", MECHANISM,
           '        if menu.tag != "weak4":\n            raise ValueError("sequential',
           '        if False:\n            raise ValueError("sequential',
           (f"{T_CLI}[sequential-strong6]",)),
    Mutant("district dropped from a parse error", CLI,
           'key, f"{path}: district {i}", default=0)', "key, path, default=0)",
           (f"{T_HASH}[0]", f"{T_HASH}[1]")),
    Mutant("unmoved sigma-star status ignores the mover in c", EQUILIBRIUM,
           "0 if c > (st == 0) else", "0 if c > 0 else", T_LONE),
    Mutant("unmoved sigma-star status ignores the mover in t", EQUILIBRIUM,
           "(1 if t > (st == 1) else 2)", "(1 if t > 0 else 2)", T_LONE),
    Mutant("deviation payoff ignores the move's key change", EQUILIBRIUM,
           "y = x + ((new_action == S1) - (who.action == S1)) * ctx.steps[who.district]", "y = x",
           (f"{T_PROP}::test_deviation_payoff_equals_oracle_of_the_moved_profile",)),
    Mutant("a residual round left out", VARIANTS,
           "range(k, k - s.target_count, -1)", "range(k, k - s.target_count + 1, -1)", T_ROUNDS),
    Mutant("residuals scanned per index subset", VARIANTS,
           "dict.fromkeys(itertools.combinations(districts, size))",
           "itertools.combinations(districts, size)", T_ROUNDS),
    Mutant("subgame check ignores a failing round", VARIANTS,
           "            if not report.sigma_star_unique:\n                return False\n", "",
           T_ROUNDS),
    Mutant("tie weights swapped in an expected worth", MECHANISM, TIE_WORTH,
           TIE_WORTH.replace("(drawn * self", "((t - drawn) * self")
           .replace("+ (t - drawn) * self", "+ drawn * self"), T_VERDICTS),
    Mutant("a degenerate tie's worth read as a draw", MECHANISM,
           "if st == 0 or drawn == t:", "if st == 0:", T_VERDICTS),
    Mutant("verdict drops the weights from the cross-multiplication", MECHANISM,
           VERDICT, "after > before", T_VERDICTS),
    Mutant("subparser metavar dropped", CLI,
           "required=True, metavar=metavar)", "required=True)",
           (T_PARITY, "tests/test_startup.py::test_main_refusals_print_the_full_usage_line")),
    Mutant("subcommand read from the first non-option word", CLI,
           "build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)",
           'build_parser(next((a for a in argv if not a.startswith("-")), None))',
           (T_PARITY,)),
    Mutant("payoffs skip the district range check", EQUILIBRIUM,
           "if not 0 <= who.district < s.num_districts:", "if False:",
           (f"{T_EQ}::test_payoffs_refuse_a_class_outside_the_scenario",)),
    Mutant("payoffs skip the voter-class check", EQUILIBRIUM,
           "if (who.voter_type, action) not in CLASS_SLOTS:", "if False:",
           (f"{T_EQ}::test_payoffs_refuse_a_class_outside_the_scenario",)),
    Mutant("MenuVariant accepts an unknown tag", MODEL,
           '        if tag not in ("weak4", "strong4", "strong6", "commitment"):\n'
           '            raise ScenarioFormatError(f"unknown menu variant {tag!r}")\n', "",
           (f"{T_RECORDS}::test_menu_variant_refuses_bad_fields",
            f"{T_RECORDS}::test_menu_variant_parse_refuses_bad_text")),
    Mutant("CommitmentGame accepts a target above its real ballots", VARIANTS,
           "if not (1 <= purchase_target <= total_real):", "if not 1 <= purchase_target:",
           (f"{T_RECORDS}::test_commitment_game_refuses_bad_fields",
            "tests/test_variants.py::test_commitment_game_validation")),
    Mutant("with_districts keeps the old target count", MODEL,
           "districts=tuple(districts), target_count=target_count)",
           "districts=tuple(districts))",
           ("tests/test_model.py::test_with_districts_keeps_the_pricing_and_takes_the_new_target",
            *T_ROUNDS)),
    Mutant("pool handed one call per task", CLAIMS,
           "chunksize=-(-len(calls) // (4 * workers))", "chunksize=1",
           ("tests/test_cli.py::test_cli_pool_never_outnumbers_the_cpus",)),
    Mutant("bottom cut before the copies of the (q+1)-th smallest key", MECHANISM,
           "bisect_right(ranked, ranked[q])", "bisect_left(ranked, ranked[q])",
           (f"{T_PROP}::test_threshold_of_the_bottom_equals_threshold_of_all_keys",)),
    Mutant("district verdict memoized by its key, not its option", EQUILIBRIUM, BIT_IDS,
           "    hot = ctx.tables.hot\n"
           f"    compiled = [(ks, [(*option, 1 << option[0], {HOT_KEY}) for option in options])"
           " for ks, options in compiled]\n"
           "    judged = {option[0]: option for _, options in compiled for option in options}\n",
           (f"{T_EQ}::test_expanded_equilibria_match_per_citizen_oracle",
            f"{T_PROP}::test_orbit_scan_matches_per_citizen_oracle")),
    Mutant("a key equal to the head's cut counted as high", EQUILIBRIUM,
           "bisect_left(drops, -ranked[rank])", "bisect_left(drops, 1 - ranked[rank])",
           T_BLOCKS),
    Mutant("a hot option tied with the head's q-th key skips the head part", EQUILIBRIUM,
           "if head_hot > ranked[q - 1]:", "if head_hot >= ranked[q - 1]:", T_HOT),
    Mutant("a move hot when its best final status beats staying", MECHANISM,
           "if min(w[6 + CLASS_SLOTS[(voter_type, alt)]]", "if max(w[6 + CLASS_SLOTS[(voter_type, alt)]]",
           T_HOT),
    Mutant("a move hot when it only ties staying", MECHANISM,
           "> self.settled[NOT_SELECTED][6 + idx])", ">= self.settled[NOT_SELECTED][6 + idx])", T_HOT),
    Mutant("classify builds its Threshold from unsorted keys", MECHANISM,
           "Threshold(sorted(keys), s.target_count)", "Threshold(keys, s.target_count)",
           (f"{T_PROP}::test_classify_equals_oracle_partition",)),
    Mutant("is_nash builds its Threshold from unsorted keys", EQUILIBRIUM,
           "Threshold(sorted(ctx.keys(counts)), ctx.tables.q)", "Threshold(ctx.keys(counts), ctx.tables.q)",
           (f"{T_PROP}::test_orbit_scan_equals_full_scan",)),
    Mutant("a payoff's Threshold built from unsorted keys", EQUILIBRIUM,
           "Threshold(sorted(keys), ctx.tables.q)", "Threshold(keys, ctx.tables.q)",
           (f"{T_PROP}::test_deviation_payoff_equals_oracle_of_the_moved_profile",)),
    Mutant("high districts recorded without their check", EQUILIBRIUM,
           "[o for o in last[:h] if not _judge(verdicts, entry, o[3], judged)]", "last[:h]",
           T_BLOCKS),
    Mutant("block bottom taken from the head's keys alone", EQUILIBRIUM, BLOCK_CHECK,
           "            bottom = bottom_of(head_keys if h else head_keys + low_keys, q)\n", T_BLOCKS),
    Mutant("a gaining option marked known but not failed", EQUILIBRIUM,
           "            fails |= bit\n            break\n", "            break\n",
           (f"{T_EQ}::test_expanded_equilibria_match_per_citizen_oracle",
            f"{T_PROP}::test_orbit_scan_matches_per_citizen_oracle")),
    Mutant("fail mask not read before judging", EQUILIBRIUM,
           "if mask & entry[2] or mask & ~entry[1] and", "if mask & ~entry[1] and", T_BLOCKS),
    Mutant("option ids assigned before the group reorder", EQUILIBRIUM, BIT_IDS,
           "    bits, hot = count(), ctx.tables.hot\n"
           "    bit = {id(o): 1 << next(bits) for _, options in sorted(compiled) for o in options}\n"
           f"    compiled = [(ks, [(*option, bit[id(option)], {HOT_KEY}) for option in options])"
           " for ks, options in compiled]\n"
           "    judged = sorted((option for _, options in compiled for option in options), key=itemgetter(3))\n",
           (f"{T_EQ}::test_nash_memo_builds_one_threshold_per_bottom",)),
    Mutant("premise check drops a condition", EQUILIBRIUM, PREMISE_S2, "",
           (f"{T_EQ}::test_premise_refuses_a_strong6_tie_price_above_v",
            f"{T_PROP}::test_filter_premise_never_passes_where_a_dropped_action_pays_more")),
    Mutant("premise read over every final status at q = k", EQUILIBRIUM,
           "for final in (STATUSES if tables.q < k else (SELECTED_OUTRIGHT,))]",
           "for final in STATUSES]",
           (f"{T_EQ}::test_premise_reads_only_the_statuses_q_and_k_allow",
            "tests/test_cli.py::test_cli_enumerate_filters_where_q_equals_k")),
    Mutant("a drawn district paid at the not-selected row", MECHANISM,
           "else SELECTED_BY_DRAW if k in selected else NOT_SELECTED)", "else NOT_SELECTED)",
           (T_SETTLED,)),
    Mutant("expenditure numerator read over the wrong denominator", MECHANISM,
           "Fraction(total, tables.scale)", "Fraction(total, s.real_value.denominator)",
           (T_SETTLED,)),
    Mutant("class payment read over the wrong denominator", MECHANISM,
           "Fraction(paid * count, tables.scale)", "Fraction(paid * count, s.real_value.denominator)",
           (T_SETTLED,)),
    Mutant("offer read at another status than its payment", MECHANISM,
           "tables.offers[status])", "tables.offers[SELECTED_OUTRIGHT])",
           (T_SETTLED,)),
    Mutant("run classifies again for the expected spend", CLI,
           "spend = expected_spend(s, profile, cl)",
           "spend = expected_spend(s, profile, classify(s, profile))",
           ("tests/test_cli.py::test_cli_run_builds_one_threshold",)),
    Mutant("_FILTERED_MOVES widened with no change to the check", EQUILIBRIUM,
           "if voter_type == DECOY and ABSTAIN not in (action, alt))", "if ABSTAIN not in (action, alt))",
           (f"{T_EQ}::test_filtered_moves_are_the_moves_between_kept_actions",)),
    Mutant("reader skips the choices check", CLI,
           "if option.choices is not None and value not in option.choices:", "if False:",
           (f"{T_READER}::test_reader_leaves_other_calls_to_argparse", T_AGREES)),
    Mutant("reader accepts a value starting with -", CLI,
           'if value is None or value.startswith("-"):', "if value is None:",
           (f"{T_READER}::test_reader_leaves_other_calls_to_argparse",
            f"{T_READER}::test_malformed_values_are_refused_by_argparse", T_AGREES)),
    Mutant("reader skips the required check", CLI,
           "if any(o.required and o.dest not in given for o in spec.options):", "if False:",
           (f"{T_READER}::test_reader_leaves_other_calls_to_argparse", T_AGREES)),
    Mutant("reader calls int() without the digit guard", CLI,
           "            if not (value.isascii() and value.isdigit()):\n                return None\n",
           "",
           (f"{T_READER}::test_reader_takes_only_ascii_digits_that_int_reads",)),
]


def run_tests(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int | None, str]:
    """(pytest's exit code, the last lines of its output) for tests run on
    a fresh copy of the project, with mutant applied if given; no exit code
    when the mutant's old text is missing or ambiguous."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            (shutil.copytree if src.is_dir() else shutil.copy2)(src, work / name)
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return None, f"old text found {text.count(mutant.old)} times in {mutant.path}"
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, text=True)
    return done.returncode, "\n".join(done.stdout.strip().splitlines()[-5:])


def check(mutant: Mutant) -> str:
    """'killed', or why the mutant does not count as killed."""
    code, tail = run_tests(mutant.tests, mutant)
    if code == 1:
        return "killed"
    if code == 0:
        return "SURVIVED"
    if code is None:
        return f"ERROR: {tail}"
    return f"ERROR: pytest exited {code}\n{tail}"


def main() -> int:
    named = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    code, tail = run_tests(named)
    if code != 0:
        print(f"the named tests do not all pass unmutated (pytest exited {code}):\n{tail}")
        return 1
    print(f"{len(named)} named tests pass unmutated", flush=True)
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
