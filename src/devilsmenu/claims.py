"""Verification suites: generated scenario families and per-claim checks.

Each claim has a canonical behavioral name plus a short alias; both are
accepted by the CLI. A suite runs its claim over a generated family (or a
single scenario) and reports one pass/fail row per instance.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .equilibrium import enumerate_equilibria, tie_payoff_gap_holds, verify_sabotage_bound
from .mechanism import minimal_delta, require_delta_at_least, tie_price_floor
from .model import DistrictSpec, MenuVariant, Scenario

V_DEFAULT = Fraction(100)
EPS_DEFAULT = Fraction(1)

ALIASES = {
    "thm1": "weak4-unique",
    "thm2": "strong6-unique",
    "prop2": "strong4-sigma-star",
    "cor1": "sabotage-bound",
    "prop1": "sequential-spe",
}


def resolve_claim(name: str) -> str:
    name = name.strip().lower()
    name = ALIASES.get(name, name)
    if name not in CANONICAL:
        options = ", ".join(CANONICAL + tuple(ALIASES))
        raise ValueError(f"unknown claim {name!r}; choose one of: {options}")
    return name


class ClaimResult(NamedTuple):
    label: str
    passed: bool
    detail: str


class ClaimSuite(NamedTuple):
    claim: str
    results: tuple[ClaimResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _floors(menu: MenuVariant, k: int, sequential: bool = False) -> list[tuple[int, Fraction]]:
    """(q, the menu's minimum tie price) for every q below k: each family
    member with k districts takes one of these pricings."""
    return [(q, tie_price_floor(menu, k, q, V_DEFAULT, EPS_DEFAULT, sequential))
            for q in range(1, k)]


def menu_family(
    menu: MenuVariant,
    kbar_values: tuple[int, ...] = (2, 3, 4),
    counts: tuple[int, ...] = (1, 2, 3),
) -> Iterator[Scenario]:
    """Every district-count multiset over counts x counts, every q below k.

    District order is irrelevant (classification is permutation-equivariant),
    so multisets avoid rescanning permuted copies. Each scenario gets the
    menu's minimum tie price for its (k, q).
    """
    specs = tuple(DistrictSpec(r, d) for r, d in itertools.product(counts, counts))
    for k in kbar_values:
        floors = _floors(menu, k)
        for districts in itertools.combinations_with_replacement(specs, k):
            for q, delta in floors:
                yield Scenario(districts, V_DEFAULT, EPS_DEFAULT, delta, q, menu=menu)


def sequential_family() -> Iterator[Scenario]:
    """Symmetric-district instances for the sequential subgame check: 2 or 3
    identical districts of 1 or 2 real and 1 or 2 decoy ballots, each q below k."""
    for k in (2, 3):
        floors = _floors(MenuVariant.WEAK4, k, sequential=True)
        for r, d in itertools.product((1, 2), (1, 2)):
            districts = (DistrictSpec(r, d),) * k
            for q, delta in floors:
                yield Scenario(districts, V_DEFAULT, EPS_DEFAULT, delta, q)


def _label(s: Scenario) -> str:
    districts = ",".join(f"({d.real_count},{d.decoy_count})" for d in s.districts)
    return f"k={s.num_districts} q={s.target_count} districts=[{districts}]"


def _check_weak4_unique(s: Scenario) -> ClaimResult:
    report = enumerate_equilibria(s, filter_dominated=True)
    gap = tie_payoff_gap_holds(s)
    passed = report.sigma_star_unique and gap
    detail = (f"equilibria={len(report.equilibria)} "
              f"sigma_star={'yes' if report.sigma_star_present else 'no'} "
              f"gap_check={'ok' if gap else 'FAIL'} "
              f"scanned={report.profiles_scanned}")
    return ClaimResult(_label(s), passed, detail)


def _check_strong6_unique(s: Scenario) -> ClaimResult:
    report = enumerate_equilibria(s, filter_dominated=True)
    detail = (f"equilibria={len(report.equilibria)} "
              f"sigma_star={'yes' if report.sigma_star_present else 'no'} "
              f"scanned={report.profiles_scanned}")
    return ClaimResult(_label(s), report.sigma_star_unique, detail)


def _check_strong4_sigma_star(s: Scenario) -> ClaimResult:
    # Only sigma-star membership is asserted; extra equilibria are recorded,
    # never counted against the claim.
    report = enumerate_equilibria(s, filter_dominated=True)
    sigma_ok = report.sigma_star_present
    extras = len(report.equilibria) - (1 if sigma_ok else 0)
    detail = f"sigma_star_nash={'yes' if sigma_ok else 'no'} extra_equilibria={extras}"
    return ClaimResult(_label(s), sigma_ok, detail)


def _check_sabotage_bound(s: Scenario) -> ClaimResult:
    report = verify_sabotage_bound(s)
    worst = "n/a" if report.worst is None else str(report.worst)
    detail = f"worst_expenditure={worst} bound={report.bound}"
    return ClaimResult(_label(s), report.holds, detail)


def _check_sequential_spe(s: Scenario) -> ClaimResult:
    from .variants import verify_subgame_perfect
    ok = verify_subgame_perfect(s)
    return ClaimResult(_label(s), ok, "all residual rounds unique" if ok else "a round failed")


# Each claim's menu, which its family and every scenario it checks run, and its check.
_CLAIMS: dict[str, tuple[MenuVariant, Callable[[Scenario], ClaimResult]]] = {
    "weak4-unique": (MenuVariant.WEAK4, _check_weak4_unique),
    "strong6-unique": (MenuVariant.STRONG6, _check_strong6_unique),
    "strong4-sigma-star": (MenuVariant.STRONG4, _check_strong4_sigma_star),
    "sabotage-bound": (MenuVariant.WEAK4, _check_sabotage_bound),
    "sequential-spe": (MenuVariant.WEAK4, _check_sequential_spe),
}
CANONICAL = tuple(_CLAIMS)

_SMALL = dict(kbar_values=(2, 3), counts=(1, 2))


def check_instance(claim: str, scenario: Scenario) -> ClaimResult:
    """Run one claim check on one scenario (no preconditions applied)."""
    return _CLAIMS[resolve_claim(claim)][1](scenario)


def family_for(claim: str, family: str) -> Iterator[Scenario]:
    if family not in ("small", "full"):
        raise ValueError(f"unknown family {family!r}; choose small or full")
    claim = resolve_claim(claim)
    if claim == "sequential-spe":
        return sequential_family()  # already desk scale
    return menu_family(_CLAIMS[claim][0], **(_SMALL if family == "small" else {}))


def pool_size(workers: int, calls: int) -> int:
    """The number of processes ordered_map runs that many calls on: workers,
    but never more than the calls or the CPUs."""
    return min(workers, calls, os.cpu_count() or 1)


def ordered_map(fn: Callable, calls: Sequence[tuple], workers: int) -> list:
    """fn(*args) for each args in calls, results in call order: in a pool of
    pool_size(workers, len(calls)) processes when that is more than one,
    each task a contiguous block of about a quarter of a worker's share of
    the calls; in this process otherwise."""
    workers = pool_size(workers, len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*calls), chunksize=-(-len(calls) // (4 * workers))))


def run_claim(
    claim: str,
    family: str = "small",
    scenario: Optional[Scenario] = None,
    workers: int = 1,
) -> ClaimSuite:
    """Run one claim over a family or a single scenario, on `workers` processes.
    A scenario that does not run the claim's menu is refused."""
    claim = resolve_claim(claim)
    if scenario is not None:
        menu = _CLAIMS[claim][0]
        if scenario.menu != menu:
            raise ValueError(f"claim {claim} is about the {menu.tag} menu, "
                             f"but the scenario runs the {scenario.menu.tag} menu")
        if claim in ("weak4-unique", "strong6-unique"):
            # The uniqueness claims presume the tie price is at its minimum
            # or above; below that the check is vacuous, refuse upfront.
            require_delta_at_least(scenario, minimal_delta(scenario))
        instances = [scenario]
    else:
        instances = family_for(claim, family)
    results = ordered_map(check_instance, [(claim, s) for s in instances], workers)
    return ClaimSuite(claim, tuple(results))
