"""Command-line surface: scenario files, subcommand dispatch, reports, CSV.

Exit codes: 0 success, 1 a verified claim failed, 2 usage or validation
error. Identical invocations (same file, flags, seed) produce identical
stdout and CSV bytes; wall time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
    execute,
    minimal_delta,
    select_districts,
)
from .model import (
    DeltaBelowThreshold,
    DistrictSpec,
    MenuVariant,
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
from .variants import (
    CommitmentGame,
    CommitmentProfile,
    run_commitment,
    run_lemons,
    run_sequential,
    verify_commitment_equilibrium,
)

SCENARIO_KEYS = {"districts", "V", "epsilon", "delta", "q", "budget", "menu", "seed"}
DISTRICT_KEYS = {"real", "decoy"}
PROFILE_DISTRICT_KEYS = {"real_s1", "real_s2", "real_abstain",
                         "decoy_s1", "decoy_s2", "decoy_abstain"}


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


def _require_int(doc: dict, key: str, path: str, default=None) -> int:
    if key not in doc:
        if default is None:
            raise ScenarioFormatError(f"{path}: missing required field {key!r}")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{path}: field {key!r} must be an integer")
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
            _require_int(entry, "real", path),
            _require_int(entry, "decoy", path),
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
        unknown = sorted(set(entry) - PROFILE_DISTRICT_KEYS)
        if unknown:
            raise ScenarioFormatError(
                f"{path}: district {i}: unknown key(s): {', '.join(unknown)}"
            )
        per_district.append(ActionCount(**{
            key: _require_int(entry, key, path, default=0)
            for key in PROFILE_DISTRICT_KEYS
        }))
    profile = CountProfile(tuple(per_district))
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
    if args.profile == "sigma-star":
        profile = CountProfile.sigma_star(s)
    else:
        profile = parse_profile_file(args.profile, s)
    _print_scenario_header(s, "run", seed)
    print(f"profile: {args.profile}")

    cl = classify(s, profile)
    print("ratios: " + ", ".join(format_rational(r) for r in cl.ratios))
    print(f"threshold: {format_rational(cl.threshold)}")
    print(f"below: {_fmt_set(cl.below)}   tied: {_fmt_set(cl.tied)}   above: {_fmt_set(cl.above)}")

    outcome = execute(s, profile, random.Random(seed))
    drawn = _fmt_set(outcome.drawn_from_tie)
    print(f"selected: {_fmt_set(outcome.selected)} (drawn from tie: {drawn})")

    pay_rows = []
    for (k, vtype, slot) in sorted(outcome.prices_paid):
        pay = outcome.prices_paid[(k, vtype, slot)]
        pay_rows.append((str(k), vtype, slot, str(pay.count),
                         format_rational(pay.price), "yes" if pay.sells else "no",
                         format_rational(pay.paid)))
    print("class payments:")
    print(_table(pay_rows, ("district", "type", "slot", "count", "price", "sells", "paid")))
    print(f"expenditure: {format_rational(outcome.expenditure)}"
          f" (~{approx(outcome.expenditure)})")
    acquired = " ".join(f"{k}:{n}" for k, n in enumerate(outcome.acquired_real_ballots))
    print(f"acquired real ballots: {acquired} (total {outcome.total_acquired})")
    print(f"expected expenditure over the draw: "
          f"{format_rational(expected_expenditure(s, profile))}")
    if s.menu.tag == "weak4":
        print(f"expenditure bound: {format_rational(budget_bound(s))}")
        floor = minimal_delta(s)
        above = "yes" if s.delta >= floor else "no"
        print(f"tie price floor for a unique target equilibrium: "
              f"{format_rational(floor)} (delta at or above: {above})")

    if args.mc:
        counts = _mc_counts(cl, s.target_count, seed, args.mc, args.workers)
        rows = _mc_rows(s, counts, args.mc)
        print(f"selection frequencies over {args.mc} runs:")
        print(_table([tuple(map(str, r)) for r in rows],
                     ("district", "selections", "frequency", "expected", "within_3sigma")))
        if args.out:
            _write_csv(args.out,
                       ("district", "selections", "runs", "frequency",
                        "expected", "expected_approx", "within_3sigma"),
                       [(k, n, args.mc, f"{n / args.mc:.6f}",
                         format_rational(Fraction(s.target_count, s.num_districts)),
                         approx(Fraction(s.target_count, s.num_districts)), ok)
                        for (k, n, _freq, _exp, ok) in rows],
                       scenario=s)
    elif args.out:
        _write_csv(args.out,
                   ("district", "type", "slot", "count", "price", "price_approx",
                    "sells", "paid", "paid_approx"),
                   [(k, vtype, slot, pay.count, format_rational(pay.price),
                     approx(pay.price), "yes" if pay.sells else "no",
                     format_rational(pay.paid), approx(pay.paid))
                    for (k, vtype, slot), pay in sorted(outcome.prices_paid.items())],
                   scenario=s)
    return 0


def _mc_batch(cl: Classification, q: int, seed: int, lo: int, hi: int) -> list[int]:
    """Selection counts over runs lo..hi-1. Only the draw differs between runs,
    so the classification is reused and run i redraws from Random(seed ^ i)."""
    counts = [0] * len(cl.ratios)
    for i in range(lo, hi):
        selected, _ = select_districts(cl, q, random.Random(seed ^ i))
        for k in selected:
            counts[k] += 1
    return counts


def _mc_counts(cl: Classification, q: int, seed: int, runs: int, workers: int) -> list[int]:
    chunk = -(-runs // workers)
    batches = [(cl, q, seed, lo, min(lo + chunk, runs)) for lo in range(0, runs, chunk)]
    return [sum(col) for col in zip(*claims_mod.ordered_map(_mc_batch, batches, workers))]


def _mc_rows(s: Scenario, counts: list[int], runs: int):
    p = Fraction(s.target_count, s.num_districts)
    sigma = math.sqrt(runs * float(p) * (1 - float(p)))
    rows = []
    for k, n in enumerate(counts):
        ok = abs(n - runs * float(p)) <= 3 * sigma
        rows.append((k, n, f"{n / runs:.6f}", format_rational(p), "yes" if ok else "NO"))
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
        rows = [(str(k),) + tuple(str(x) for x in ac.as_tuple())
                for k, ac in enumerate(eq.per_district)]
        print(_table(rows, ("district", "real_s1", "real_s2", "real_abstain",
                            "decoy_s1", "decoy_s2", "decoy_abstain")))
    if args.out:
        _write_csv(args.out,
                   ("equilibrium", "district", "real_s1", "real_s2", "real_abstain",
                    "decoy_s1", "decoy_s2", "decoy_abstain"),
                   [(idx, k) + ac.as_tuple()
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
    s = parse_scenario_file(args.scenario)
    seed = _resolve_seed(args, s)
    _print_scenario_header(s, "sequential", seed)
    outcomes = run_sequential(s, random.Random(seed))
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
    s = parse_scenario_file(args.scenario)
    if s.menu.tag != "commitment":
        raise ScenarioFormatError("the commitment subcommand needs menu \"commitment:<target>\"")
    seed = _resolve_seed(args, s)
    game = CommitmentGame(s.total_real, s.menu.target, s.real_value, s.epsilon)
    _print_scenario_header(s, "commitment", seed)
    if args.verify:
        report = verify_commitment_equilibrium(game, s.total_decoy)
        print(f"profiles scanned: {report.profiles_scanned}")
        print(f"equilibria found: {len(report.equilibria)}")
        for eq in report.equilibria:
            print(f"  real_s1={eq.real_s1} real_s2={eq.real_s2} "
                  f"decoy_s1={eq.decoy_s1} decoy_s2={eq.decoy_s2}")
        print(f"sigma-star unique: {'yes' if report.sigma_star_unique else 'no'}")
        return 0 if report.sigma_star_unique else 1
    deviators = args.decoys_to_slot1
    if not (0 <= deviators <= s.total_decoy):
        raise ScenarioFormatError("--decoys-to-slot1 outside 0..total decoys")
    profile = CommitmentProfile(s.total_real, 0, deviators, s.total_decoy - deviators)
    outcome = run_commitment(game, profile, random.Random(seed))
    print(f"slot-one applicants: {profile.slot1_total} (cap {game.total_real})")
    print(f"overflow: {'yes' if outcome.overflow else 'no'}")
    print(f"winners: {outcome.winners_real} real, {outcome.winners_decoy} decoy")
    print(f"acquired real ballots: {outcome.acquired_real_ballots}")
    print(f"expenditure: {format_rational(outcome.expenditure)}"
          f" (~{approx(outcome.expenditure)})")
    return 0


def _cmd_lemons(args) -> int:
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
    start = parse_rational(args.start)
    stop = parse_rational(args.stop)
    if args.steps < 1:
        raise ScenarioFormatError("--steps must be at least 1")
    if args.steps == 1:
        return [start]
    step = (stop - start) / (args.steps - 1)
    return [start + i * step for i in range(args.steps)]


def _cmd_sweep(args) -> int:
    s = parse_scenario_file(args.scenario)
    filtered = args.filter_dominated == "on"
    _print_scenario_header(s, "sweep", _resolve_seed(args, s))
    print(f"parameter: {args.param}")
    rows = []
    for value in _sweep_values(args):
        if args.param == "delta":
            inst = replace(s, delta=value)
        else:
            if value.denominator != 1:
                raise ScenarioFormatError(f"q must be an integer, got {value}")
            inst = replace(s, target_count=int(value))
        violations = validate_scenario(inst)
        if violations:
            rows.append((format_rational(value), approx(value), "no", "", "", "", ""))
            continue
        report = enumerate_equilibria(inst, filter_dominated=filtered,
                                      scan_cap=args.scan_cap)
        spend = expected_expenditure(inst, CountProfile.sigma_star(inst))
        rows.append((format_rational(value), approx(value), "yes",
                     str(len(report.equilibria)),
                     "yes" if report.sigma_star_present else "no",
                     format_rational(spend), approx(spend)))
    header = (args.param, f"{args.param}_approx", "valid", "equilibria",
              "sigma_star_present", "sigma_star_expenditure",
              "sigma_star_expenditure_approx")
    print(_table([tuple(r) for r in rows], header))
    if args.out:
        _write_csv(args.out, header, rows, scenario=s)
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devils-menu",
        description="Run price-menu vote-buying mechanisms and verify their "
                    "equilibrium and budget properties on small instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True, out=True, workers=False):
        """The shared options a subcommand's handler reads."""
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
        if out:
            p.add_argument("--out", default=None, help="write a CSV report here")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes for parallelizable loads")

    p = sub.add_parser("run", help="execute one mechanism run")
    common(p, workers=True)
    p.add_argument("--profile", default="sigma-star",
                   help="'sigma-star' or a profile JSON file")
    p.add_argument("--mc", type=int, default=0,
                   help="also tally selection frequencies over this many seeded runs")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("enumerate", help="exhaustively enumerate pure equilibria")
    common(p)
    p.add_argument("--filter-dominated", choices=("on", "off"), default="on")
    p.add_argument("--scan-cap", type=int, default=DEFAULT_SCAN_CAP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a claim suite; exit 1 if it fails")
    common(p, scenario=False, workers=True)
    p.add_argument("--scenario", default=None,
                   help="check a single scenario instead of a family")
    p.add_argument("--claim", required=True,
                   help="weak4-unique|strong6-unique|strong4-sigma-star|"
                        "sabotage-bound|sequential-spe (short aliases: "
                        "thm1|thm2|prop2|cor1|prop1)")
    p.add_argument("--family", choices=("small", "full"), default="small")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sequential", help="buy one district per date")
    common(p)
    p.set_defaults(func=_cmd_sequential)

    p = sub.add_parser("commitment", help="run the all-or-nothing districtless variant")
    common(p, out=False)
    p.add_argument("--decoys-to-slot1", type=int, default=0,
                   help="move this many decoys into slot one (sabotage probe)")
    p.add_argument("--verify", action="store_true",
                   help="enumerate equilibria instead of running once")
    p.set_defaults(func=_cmd_commitment)

    p = sub.add_parser("lemons", help="buy one good used car from sellers of hidden quality")
    p.add_argument("--good", type=int, required=True)
    p.add_argument("--bad", type=int, required=True)
    p.add_argument("--v", default="100", help="good-car valuation (rational)")
    p.add_argument("--epsilon", default="1", help="price unit (rational)")
    p.add_argument("--bad-to-slot1", type=int, default=0,
                   help="bad sellers defecting into slot one")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lemons)

    p = sub.add_parser("sweep", help="vary delta or q over a grid and tabulate")
    common(p)
    p.add_argument("--param", choices=("delta", "q"), required=True)
    p.add_argument("--from", dest="start", required=True, help="grid start (rational)")
    p.add_argument("--to", dest="stop", required=True, help="grid end (rational)")
    p.add_argument("--steps", type=int, required=True, help="number of grid points")
    p.add_argument("--filter-dominated", choices=("on", "off"), default="on")
    p.add_argument("--scan-cap", type=int, default=DEFAULT_SCAN_CAP)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, low in (("mc", 0), ("workers", 1)):
        if getattr(args, flag, low) < low:
            parser.error(f"argument --{flag}: must be at least {low}")
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
