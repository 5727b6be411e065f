"""Command-line surface: scenario files, subcommand dispatch, reports, CSV.

Exit codes: 0 success, 1 a verified claim failed, 2 usage or validation
error. Identical invocations (same file, flags, seed) produce identical
stdout and CSV bytes; wall time goes to stderr only.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from . import claims as claims_mod
from .equilibrium import (
    DEFAULT_SCAN_CAP,
    enumerate_equilibria,
    expected_expenditure,
    real_deviation_expenditures,
)
from .mechanism import (
    ActionCount,
    Classification,
    CountProfile,
    budget_bound,
    classify,
    execute_classified,
    expected_spend,
    fair_draw_counts,
    minimal_delta,
    selection_odds,
)
from .model import (
    MAX_SEED,
    DeltaBelowThreshold,
    DistrictSpec,
    MenuVariant,
    PremiseFails,
    ProfileError,
    ScanCapExceeded,
    Scenario,
    ScenarioFormatError,
    approx,
    format_rational,
    parse_rational,
    scenario_warnings,
    validate_scenario,
)

if TYPE_CHECKING:
    import argparse

SCENARIO_KEYS = {"districts", "V", "epsilon", "delta", "q", "budget", "menu", "seed"}
DISTRICT_KEYS = {"real", "decoy"}


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _require_int(doc: dict, key: str, where: str, default=None) -> int:
    """doc[key] as an int, or default when it is absent; errors start with where."""
    if key not in doc:
        if default is None:
            raise ScenarioFormatError(f"{where}: missing required field {key!r}")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{where}: field {key!r} must be an integer")
    return value


def parse_scenario_file(path: str) -> Scenario:
    """Parse and validate a scenario file; every violation is reported at once."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    unknown = sorted(set(doc) - SCENARIO_KEYS)
    if unknown:
        raise ScenarioFormatError(f"{path}: unknown key(s): {', '.join(unknown)}")
    for key in ("districts", "V", "epsilon", "delta", "q", "menu"):
        if key not in doc:
            raise ScenarioFormatError(f"{path}: missing required field {key!r}")
    raw_districts = doc["districts"]
    if not isinstance(raw_districts, list) or not raw_districts:
        raise ScenarioFormatError(f"{path}: 'districts' must be a nonempty list")
    districts = []
    for i, entry in enumerate(raw_districts):
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{path}: district {i} must be an object")
        unknown = sorted(set(entry) - DISTRICT_KEYS)
        if unknown:
            raise ScenarioFormatError(
                f"{path}: district {i}: unknown key(s): {', '.join(unknown)}"
            )
        districts.append(DistrictSpec(
            _require_int(entry, "real", f"{path}: district {i}"),
            _require_int(entry, "decoy", f"{path}: district {i}"),
        ))
    if not isinstance(doc["menu"], str):
        raise ScenarioFormatError(f"{path}: 'menu' must be a string")
    try:
        scenario = Scenario(
            districts=tuple(districts),
            real_value=parse_rational(doc["V"]),
            epsilon=parse_rational(doc["epsilon"]),
            delta=parse_rational(doc["delta"]),
            target_count=_require_int(doc, "q", path),
            budget=parse_rational(doc.get("budget", 0)),
            menu=MenuVariant.parse(doc["menu"]),
            seed=_require_int(doc, "seed", path, default=0),
        )
    except ScenarioFormatError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from None
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioFormatError(
            f"{path}: invalid scenario:\n  " + "\n  ".join(violations)
        )
    return scenario


def parse_profile_file(path: str, scenario: Scenario) -> CountProfile:
    doc = _load_json(path)
    if not isinstance(doc, dict) or set(doc) != {"districts"}:
        raise ScenarioFormatError(f"{path}: profile file must be an object with 'districts'")
    rows = doc["districts"]
    if not isinstance(rows, list):
        raise ScenarioFormatError(f"{path}: 'districts' must be a list")
    per_district = []
    for i, entry in enumerate(rows):
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{path}: district {i} must be an object")
        unknown = sorted(set(entry).difference(ActionCount._fields))
        if unknown:
            raise ScenarioFormatError(
                f"{path}: district {i}: unknown key(s): {', '.join(unknown)}"
            )
        per_district.append(
            [_require_int(entry, key, f"{path}: district {i}", default=0)
             for key in ActionCount._fields])
    profile = CountProfile.from_counts(per_district)
    profile.check_against(scenario)  # raises ProfileError with context
    return profile


def scenario_echo(s: Scenario) -> str:
    doc = {
        "districts": [{"real": d.real_count, "decoy": d.decoy_count} for d in s.districts],
        "V": format_rational(s.real_value),
        "epsilon": format_rational(s.epsilon),
        "delta": format_rational(s.delta),
        "q": s.target_count,
        "budget": format_rational(s.budget),
        "menu": str(s.menu),
        "seed": s.seed,
    }
    return json.dumps(doc, separators=(", ", ": "))


def _table(rows: Sequence[Sequence[str]], header: Sequence[str]) -> str:
    all_rows = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in all_rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in all_rows]
    return "\n".join(lines)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
               scenario: Optional[Scenario] = None) -> None:
    lines = []
    if scenario is not None:
        lines.append("# scenario: " + scenario_echo(scenario))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt_set(indices: Iterable[int]) -> str:
    got = sorted(indices)
    return ",".join(str(i) for i in got) if got else "-"


def _print_scenario_header(s: Scenario, command: str, seed: int) -> None:
    print(f"scenario: {scenario_echo(s)}")
    print(f"command: {command}")
    print(f"seed: {seed}")
    for warning in scenario_warnings(s):
        print(f"note: {warning}")


def _resolve_seed(args, s: Scenario) -> int:
    return s.seed if args.seed is None else args.seed


# ---------------------------------------------------------------- subcommands


def _cmd_run(args) -> int:
    s = parse_scenario_file(args.scenario)
    seed = _resolve_seed(args, s)
    profile = (CountProfile.sigma_star(s) if args.profile == "sigma-star"
               else parse_profile_file(args.profile, s))
    cl = classify(s, profile)
    outcome = execute_classified(s, profile, cl, random.Random(seed))
    spend = expected_spend(s, profile, cl)
    if args.mc:
        rows = _mc_rows(cl, s.target_count,
                        _mc_counts(cl, s.target_count, seed, args.mc, args.workers), args.mc)
    _print_scenario_header(s, "run", seed)
    print(f"profile: {args.profile}")
    print("ratios: " + ", ".join(format_rational(r) for r in cl.ratios))
    print(f"threshold: {format_rational(cl.threshold)}")
    print(f"below: {_fmt_set(cl.below)}   tied: {_fmt_set(cl.tied)}   above: {_fmt_set(cl.above)}")
    drawn = _fmt_set(outcome.drawn_from_tie)
    print(f"selected: {_fmt_set(outcome.selected)} (drawn from tie: {drawn})")

    payments = sorted(outcome.prices_paid.items())
    pay_rows = [(str(k), vtype, slot, str(pay.count), format_rational(pay.price),
                 "yes" if pay.sells else "no", format_rational(pay.paid))
                for (k, vtype, slot), pay in payments]
    print("class payments:")
    print(_table(pay_rows, ("district", "type", "slot", "count", "price", "sells", "paid")))
    print(f"expenditure: {format_rational(outcome.expenditure)}"
          f" (~{approx(outcome.expenditure)})")
    acquired = " ".join(f"{k}:{n}" for k, n in enumerate(outcome.acquired_real_ballots))
    print(f"acquired real ballots: {acquired} (total {outcome.total_acquired})")
    print(f"expected expenditure over the draw: {format_rational(spend)}")
    if s.menu.tag == "weak4":
        print(f"expenditure bound: {format_rational(budget_bound(s))}")
        floor = minimal_delta(s)
        above = "yes" if s.delta >= floor else "no"
        print(f"tie price floor for a unique target equilibrium: "
              f"{format_rational(floor)} (delta at or above: {above})")

    if args.mc:
        print(f"selection frequencies over {args.mc} runs:")
        print(_table([(str(k), str(n), f"{n / args.mc:.6f}", format_rational(p), ok)
                      for (k, n, p, ok) in rows],
                     ("district", "selections", "frequency", "expected", "within_3sigma")))
        if args.out:
            _write_csv(args.out,
                       ("district", "selections", "runs", "frequency",
                        "expected", "expected_approx", "within_3sigma"),
                       [(k, n, args.mc, f"{n / args.mc:.6f}", format_rational(p), approx(p), ok)
                        for (k, n, p, ok) in rows],
                       scenario=s)
    elif args.out:
        _write_csv(args.out,
                   ("district", "type", "slot", "count", "price", "price_approx",
                    "sells", "paid", "paid_approx"),
                   [(*row[:5], approx(pay.price), *row[5:], approx(pay.paid))
                    for row, (_, pay) in zip(pay_rows, payments)],
                   scenario=s)
    return 0


def _mc_batch(cl: Classification, q: int, seed: int, lo: int, hi: int) -> list[int]:
    """Selection counts over runs lo..hi-1, equal to select_districts with
    Random(seed ^ i) for each run i. Only the draw differs between runs, so
    below districts are counted once and fair_draw_counts tallies the draws."""
    counts = [0] * len(cl.ratios)
    for k in cl.below:
        counts[k] = hi - lo
    fair_draw_counts(sorted(cl.tied), cl.draw_size(q), seed, lo, hi, counts)
    return counts


def _mc_counts(cl: Classification, q: int, seed: int, runs: int, workers: int) -> list[int]:
    """Selection counts over runs 0..runs-1, one contiguous batch of runs
    per process of the pool that ordered_map starts for workers."""
    chunk = -(-runs // claims_mod.pool_size(workers, runs))
    batches = [(cl, q, seed, lo, min(lo + chunk, runs)) for lo in range(0, runs, chunk)]
    return [sum(col) for col in zip(*claims_mod.ordered_map(_mc_batch, batches, workers))]


def _mc_rows(cl: Classification, q: int, counts: list[int], runs: int):
    """Per district: (k, selections, odds of selection, within 3 sigma). The
    odds are selection_odds', so a below or degenerately tied district
    expects every run, an above one none, and a tied one (q - c) / t; sigma
    is the binomial sigma at those odds."""
    rows = []
    for k, (n, p) in enumerate(zip(counts, selection_odds(cl, q))):
        sigma = math.sqrt(runs * float(p) * (1 - float(p)))
        ok = abs(n - runs * float(p)) <= 3 * sigma
        rows.append((k, n, p, "yes" if ok else "NO"))
    return rows


def _cmd_enumerate(args) -> int:
    s = parse_scenario_file(args.scenario)
    filtered = args.filter_dominated == "on"
    report = enumerate_equilibria(s, filter_dominated=filtered, scan_cap=args.scan_cap)
    _print_scenario_header(s, "enumerate", _resolve_seed(args, s))
    print(f"dominance filter: {args.filter_dominated}")
    print(f"profiles scanned: {report.profiles_scanned}")
    print(f"equilibria found: {len(report.equilibria)}")
    print(f"sigma-star present: {'yes' if report.sigma_star_present else 'no'}")
    print(f"sigma-star unique: {'yes' if report.sigma_star_unique else 'no'}")
    for idx, eq in enumerate(report.equilibria, 1):
        print(f"equilibrium {idx}:")
        rows = [(str(k),) + tuple(map(str, ac)) for k, ac in enumerate(eq.per_district)]
        print(_table(rows, ("district",) + ActionCount._fields))
    if args.out:
        _write_csv(args.out, ("equilibrium", "district") + ActionCount._fields,
                   [(idx, k) + ac
                    for idx, eq in enumerate(report.equilibria, 1)
                    for k, ac in enumerate(eq.per_district)],
                   scenario=s)
    return 0


def _cmd_verify(args) -> int:
    claim = claims_mod.resolve_claim(args.claim)
    scenario = parse_scenario_file(args.scenario) if args.scenario else None
    suite = claims_mod.run_claim(claim, family=args.family, scenario=scenario,
                                 workers=args.workers)
    if scenario is not None:
        print(f"scenario: {scenario_echo(scenario)}")
    print("command: verify")
    print(f"claim: {suite.claim} ({'scenario' if args.scenario else 'family=' + args.family})")
    rows = [("PASS" if r.passed else "FAIL", r.label, r.detail) for r in suite.results]
    print(_table(rows, ("result", "instance", "detail")))
    if scenario is not None and claim == "sabotage-bound":
        # Out of the bound claim's scope, shown for interest only.
        extra = real_deviation_expenditures(scenario)
        for k in sorted(extra):
            print(f"informational: real voter leaving slot one in district {k} "
                  f"-> expected spending {format_rational(extra[k])}")
    passed = sum(r.passed for r in suite.results)
    verdict = "PASS" if suite.all_passed else "FAIL"
    print(f"claim {suite.claim}: {verdict} ({passed}/{len(suite.results)} instances)")
    if args.out:
        _write_csv(args.out, ("result", "instance", "detail"),
                   [(("PASS" if r.passed else "FAIL"), f'"{r.label}"', f'"{r.detail}"')
                    for r in suite.results])
    return 0 if suite.all_passed else 1


def _cmd_sequential(args) -> int:
    from .variants import run_sequential
    s = parse_scenario_file(args.scenario)
    seed = _resolve_seed(args, s)
    outcomes = run_sequential(s, random.Random(seed))
    _print_scenario_header(s, "sequential", seed)
    total = Fraction(0)
    rows = []
    for rnd, outcome in enumerate(outcomes, 1):
        total += outcome.expenditure
        rows.append((str(rnd), _fmt_set(outcome.selected),
                     format_rational(outcome.expenditure), str(outcome.total_acquired)))
    print(_table(rows, ("round", "bought", "expenditure", "real_ballots")))
    print(f"total expenditure: {format_rational(total)} (~{approx(total)})")
    print(f"total real ballots: {sum(o.total_acquired for o in outcomes)}")
    if args.out:
        _write_csv(args.out,
                   ("round", "bought", "expenditure", "expenditure_approx", "real_ballots"),
                   [(rnd, _fmt_set(o.selected), format_rational(o.expenditure),
                     approx(o.expenditure), o.total_acquired)
                    for rnd, o in enumerate(outcomes, 1)],
                   scenario=s)
    return 0


def _cmd_commitment(args) -> int:
    from .variants import (CommitmentGame, CommitmentProfile, run_commitment,
                           verify_commitment_equilibrium)
    s = parse_scenario_file(args.scenario)
    if s.menu.tag != "commitment":
        raise ScenarioFormatError("the commitment subcommand needs menu \"commitment:<target>\"")
    deviators = args.decoys_to_slot1
    if not args.verify and not 0 <= deviators <= s.total_decoy:
        raise ScenarioFormatError("--decoys-to-slot1 outside 0..total decoys")
    seed = _resolve_seed(args, s)
    game = CommitmentGame(s.total_real, s.menu.target, s.real_value, s.epsilon)
    if args.verify:
        report = verify_commitment_equilibrium(game, s.total_decoy)
        _print_scenario_header(s, "commitment", seed)
        print(f"profiles scanned: {report.profiles_scanned}")
        print(f"equilibria found: {len(report.equilibria)}")
        for eq in report.equilibria:
            print(f"  real_s1={eq.real_s1} real_s2={eq.real_s2} "
                  f"decoy_s1={eq.decoy_s1} decoy_s2={eq.decoy_s2}")
        print(f"sigma-star unique: {'yes' if report.sigma_star_unique else 'no'}")
        return 0 if report.sigma_star_unique else 1
    profile = CommitmentProfile(s.total_real, 0, deviators, s.total_decoy - deviators)
    outcome = run_commitment(game, profile, random.Random(seed))
    _print_scenario_header(s, "commitment", seed)
    print(f"slot-one applicants: {profile.slot1_total} (cap {game.total_real})")
    print(f"overflow: {'yes' if outcome.overflow else 'no'}")
    print(f"winners: {outcome.winners_real} real, {outcome.winners_decoy} decoy")
    print(f"acquired real ballots: {outcome.acquired_real_ballots}")
    print(f"expenditure: {format_rational(outcome.expenditure)}"
          f" (~{approx(outcome.expenditure)})")
    return 0


def _cmd_lemons(args) -> int:
    from .variants import run_lemons
    v = parse_rational(args.v)
    eps = parse_rational(args.epsilon)
    outcome = run_lemons(args.good, args.bad, v, eps,
                         random.Random(args.seed or 0), bad_in_slot1=args.bad_to_slot1)
    print("command: lemons")
    print(f"good sellers: {args.good}  bad sellers: {args.bad}  "
          f"bad in slot one: {args.bad_to_slot1}")
    print(f"seed: {args.seed or 0}")
    if outcome.purchased:
        quality = "good" if outcome.purchased_good else "bad"
        print(f"purchased: yes ({quality} car at {format_rational(outcome.price)})")
    else:
        print("purchased: no (slot one overflowed; all slot-one offers were zero)")
    print(f"bad sellers paid {format_rational(eps)} each: {outcome.bad_sellers_paid}")
    print(f"expenditure: {format_rational(outcome.expenditure)}")
    return 0


def _sweep_values(args) -> list[Fraction]:
    """The grid, checked whole: a q grid must hold integers only."""
    start = parse_rational(args.start)
    stop = parse_rational(args.stop)
    if args.steps < 1:
        raise ScenarioFormatError("--steps must be at least 1")
    step = (stop - start) / (args.steps - 1) if args.steps > 1 else 0
    values = [start + i * step for i in range(args.steps)]
    if args.param == "q":
        for value in values:
            if value.denominator != 1:
                raise ScenarioFormatError(f"q must be an integer, got {value}")
    return values


def _cmd_sweep(args) -> int:
    s = parse_scenario_file(args.scenario)
    filtered = args.filter_dominated == "on"
    values = _sweep_values(args)
    rows = []
    for value in values:
        if args.param == "delta":
            inst = s._replace(delta=value)
        else:
            inst = s._replace(target_count=int(value))
        violations = validate_scenario(inst)
        if violations:
            rows.append((format_rational(value), approx(value), "no", "", "", "", ""))
            continue
        spend = expected_expenditure(inst, CountProfile.sigma_star(inst))
        try:
            report = enumerate_equilibria(inst, filter_dominated=filtered,
                                          scan_cap=args.scan_cap)
            found = (str(len(report.equilibria)), "yes" if report.sigma_star_present else "no")
        except PremiseFails:  # no filtered game at this pricing to count
            found = ("premise fails", "")
        rows.append((format_rational(value), approx(value), "yes", *found,
                     format_rational(spend), approx(spend)))
    header = (args.param, f"{args.param}_approx", "valid", "equilibria",
              "sigma_star_present", "sigma_star_expenditure",
              "sigma_star_expenditure_approx")
    _print_scenario_header(s, "sweep", _resolve_seed(args, s))
    print(f"parameter: {args.param}")
    print(_table([tuple(r) for r in rows], header))
    if args.out:
        _write_csv(args.out, header, rows, scenario=s)
    return 0


# ------------------------------------------------------------------- parser


class _Option(NamedTuple):
    """One long option of a subcommand. Its type is str or int for an
    option that takes a value, or bool for a store-true flag that takes none."""

    flag: str
    dest: str
    type: type
    default: object
    choices: Optional[tuple[str, ...]]
    required: bool
    help: Optional[str]


def _option(flag: str, type: type = str, default: object = None, *, dest: Optional[str] = None,
            choices: Optional[tuple[str, ...]] = None, required: bool = False,
            help: Optional[str] = None) -> _Option:
    return _Option(flag, dest or flag[2:].replace("-", "_"), type, default, choices,
                   required, help)


class _Command(NamedTuple):
    help: str
    handler: Callable
    options: tuple[_Option, ...]


_SCENARIO = _option("--scenario", required=True, help="scenario JSON file")
_SEED = _option("--seed", int, help="override the scenario seed")
_OUT = _option("--out", help="write a CSV report here")
_WORKERS = _option("--workers", int, 1, help="worker processes for parallelizable loads")
_SCAN = (_option("--filter-dominated", default="on", choices=("on", "off")),
         _option("--scan-cap", int, DEFAULT_SCAN_CAP))

# Every subcommand, in the order the usage line lists them: its help text,
# its handler and its options in the order the help lists them. Both
# readers of a call read this table: build_parser registers it with
# argparse, and _read_args reads a well-formed call without a parser.
_COMMANDS = {
    "run": _Command("execute one mechanism run", _cmd_run, (
        _SCENARIO, _SEED, _OUT, _WORKERS,
        _option("--profile", default="sigma-star", help="'sigma-star' or a profile JSON file"),
        _option("--mc", int, 0,
                help="also tally selection frequencies over this many seeded runs"))),
    "enumerate": _Command("exhaustively enumerate pure equilibria", _cmd_enumerate,
                          (_SCENARIO, _SEED, _OUT) + _SCAN),
    "verify": _Command("run a claim suite; exit 1 if it fails", _cmd_verify, (
        _OUT, _WORKERS,
        _option("--scenario", help="check a single scenario instead of a family"),
        _option("--claim", required=True,
                help="weak4-unique|strong6-unique|strong4-sigma-star|"
                     "sabotage-bound|sequential-spe (short aliases: "
                     "thm1|thm2|prop2|cor1|prop1)"),
        _option("--family", default="small", choices=("small", "full")))),
    "sequential": _Command("buy one district per date", _cmd_sequential,
                           (_SCENARIO, _SEED, _OUT)),
    "commitment": _Command("run the all-or-nothing districtless variant", _cmd_commitment, (
        _SCENARIO, _SEED,
        _option("--decoys-to-slot1", int, 0,
                help="move this many decoys into slot one (sabotage probe)"),
        _option("--verify", bool, False, help="enumerate equilibria instead of running once"))),
    "lemons": _Command("buy one good used car from sellers of hidden quality", _cmd_lemons, (
        _option("--good", int, required=True),
        _option("--bad", int, required=True),
        _option("--v", default="100", help="good-car valuation (rational)"),
        _option("--epsilon", default="1", help="price unit (rational)"),
        _option("--bad-to-slot1", int, 0, help="bad sellers defecting into slot one"),
        _option("--seed", int, 0))),
    "sweep": _Command("vary delta or q over a grid and tabulate", _cmd_sweep, (
        _SCENARIO, _SEED, _OUT,
        _option("--param", choices=("delta", "q"), required=True),
        _option("--from", dest="start", required=True, help="grid start (rational)"),
        _option("--to", dest="stop", required=True, help="grid end (rational)"),
        _option("--steps", int, required=True, help="number of grid points")) + _SCAN),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or only `command`, since a call
    that names its subcommand parses that one alone."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="devils-menu",
        description="Run price-menu vote-buying mechanisms and verify their "
                    "equilibrium and budget properties on small instances.",
    )
    # With one subcommand registered, the metavar keeps every command in
    # the usage line. The full parser leaves it unset: its missing-command
    # error names the dest, "command", where a metavar would replace it.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, spec in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=spec.help)
        for o in spec.options:
            kind = ({"action": "store_true"} if o.type is bool else
                    {"type": None if o.type is str else o.type, "default": o.default,
                     "choices": o.choices, "required": o.required})
            p.add_argument(o.flag, dest=o.dest, help=o.help, **kind)
        p.set_defaults(func=spec.handler)
    return parser


def _read_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would return for argv, read from _COMMANDS
    alone when argv is a subcommand followed by its own long options, each
    at most once and each as `--name value` (a store-true flag alone): no
    value starts with "-", an int value is ASCII digits that int() reads,
    a choice is one of its choices and every required option is given.
    None for anything else (help, abbreviations, `--name=value`, repeats,
    refusals), which argparse reads, answers or refuses in its own words."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    options = {o.flag: o for o in spec.options}
    given = {}
    words = iter(argv[1:])
    for word in words:
        option = options.get(word)
        if option is None or option.dest in given:
            return None
        if option.type is bool:
            given[option.dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        if option.type is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts
                return None
        if option.choices is not None and value not in option.choices:
            return None
        given[option.dest] = value
    if any(o.required and o.dest not in given for o in spec.options):
        return None
    return SimpleNamespace(command=argv[0], func=spec.handler,
                           **{o.dest: given.get(o.dest, o.default) for o in spec.options})


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv)
    if args is None:
        # Only a first word that names a subcommand builds a parser for it
        # alone; any other argv (help, a bad option or command, none) gets
        # the full parser, whose help and errors list every subcommand.
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    # Range refusals build the invoked subcommand's parser only to print
    # its usage line and error.
    for flag, low in (("mc", 0), ("workers", 1)):
        if getattr(args, flag, low) < low:
            build_parser(args.command).error(f"argument --{flag}: must be at least {low}")
    if getattr(args, "seed", None) is not None and not 0 <= args.seed <= MAX_SEED:
        build_parser(args.command).error(f"argument --seed: must be in 0..{MAX_SEED}")
    started = time.perf_counter()
    try:
        code = args.func(args)
    except (ScenarioFormatError, ProfileError, DeltaBelowThreshold,
            ScanCapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
