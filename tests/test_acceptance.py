"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
Criteria families are generated, never sampled; all equality and ordering
assertions are exact rationals unless a criterion is explicitly statistical
(the fair-randomization band).
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from conftest import scenario_for, sym
from devilsmenu import (
    MenuVariant,
    brute_force_cost,
    budget_bound,
    classify,
    enumerate_equilibria,
    execute,
    strong4_expenditure_bound,
    strong6_expenditure_bound,
    verify_sabotage_bound,
)
from devilsmenu.claims import menu_family, run_claim
from devilsmenu.mechanism import CountProfile, payments_for_selection
from devilsmenu.variants import (
    CommitmentGame,
    run_lemons,
    verify_commitment_equilibrium,
)
from oracles import per_citizen_equilibria

V = Fraction(100)
EPS = Fraction(1)


def _announce(num, label):
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_weak_menu_uniqueness_family():
    suite = run_claim("weak4-unique", family="full")
    failures = [r for r in suite.results if not r.passed]
    assert len(suite.results) == 1860
    assert not failures, failures[:5]
    _announce(1, f"four-price uniqueness on {len(suite.results)} instances")


def test_criterion_2_six_price_uniqueness_family():
    suite = run_claim("strong6-unique", family="full")
    failures = [r for r in suite.results if not r.passed]
    assert len(suite.results) == 1860
    assert not failures, failures[:5]
    _announce(2, f"six-price uniqueness on {len(suite.results)} instances")


def test_criterion_3_pinned_menu_sigma_star_family():
    suite = run_claim("strong4-sigma-star", family="full")
    failures = [r for r in suite.results if not r.passed]
    assert not failures, failures[:5]
    with_extras = sum("extra_equilibria=0" not in r.detail for r in suite.results)
    _announce(3, f"pinned-menu target profile is an equilibrium on "
                 f"{len(suite.results)} instances; {with_extras} report extra "
                 f"equilibria (recorded, not asserted)")


def test_criterion_4_sequential_subgame_family():
    suite = run_claim("sequential-spe", family="full")
    assert len(suite.results) == 12
    assert suite.all_passed, [r for r in suite.results if not r.passed]
    _announce(4, f"sequential subgame uniqueness on {len(suite.results)} instances")


def test_criterion_5_lone_defector_expenditure_bound():
    checked = 0
    for s in menu_family(MenuVariant.WEAK4):
        report = verify_sabotage_bound(s)
        assert report.holds, s
        # every district choice of the defector, not just the worst
        assert all(v <= report.bound for v in report.per_district.values())
        checked += 1
    assert checked == 1860
    _announce(5, f"lone-defector spending within bound on {checked} instances")


def test_criterion_6_budget_accounting():
    # Four-price menu: every realization within the bound, equality exactly
    # when the realized selection attains the subset maximum.
    for districts, q in ((((2, 2),) * 3, 1), (((1, 3), (3, 1), (2, 2)), 1),
                         (((1, 3), (3, 1), (2, 2)), 2), (((1, 1), (2, 3)), 1)):
        s = scenario_for(list(districts), q, delta=Fraction(36))
        p = CountProfile.sigma_star(s)
        cl = classify(s, p)
        bound = budget_bound(s)
        selections = [cl.below | frozenset(drawn)
                      for drawn in combinations(sorted(cl.tied), q - cl.c)]
        subset_value = {}
        for selected in selections:
            inside_r = sum(s.districts[k].real_count for k in selected)
            inside_d = sum(s.districts[k].decoy_count for k in selected)
            subset_value[selected] = ((V + EPS) * inside_r + s.delta * inside_d
                                      + 2 * EPS * (s.total_decoy - inside_d))
        assert bound == max(subset_value.values())
        for selected in selections:
            _, spend, _ = payments_for_selection(s, p, cl, selected)
            assert spend <= bound
            assert (spend == bound) == (subset_value[selected] == bound)

    # Pinned strong menu on symmetric instances: exact equality.
    for k, r, d, q in ((3, 2, 2, 1), (4, 1, 3, 2), (2, 3, 1, 1)):
        s = sym(k, r, d, q, menu=MenuVariant.STRONG4)
        out = execute(s, CountProfile.sigma_star(s), random.Random(9))
        assert out.expenditure == strong4_expenditure_bound(s)

    # Six-price menu at its minimum tie price: exact comparison against the
    # displayed bound, which charges every decoy the tie price, so realized
    # spending decomposes exactly and never exceeds it.
    for k, r, d, q in ((3, 2, 2, 1), (4, 1, 3, 2), (2, 3, 1, 1)):
        s = sym(k, r, d, q, menu=MenuVariant.STRONG6)  # delta = 3*eps
        out = execute(s, CountProfile.sigma_star(s), random.Random(9))
        inside_r = sum(s.districts[k_].real_count for k_ in out.selected)
        inside_d = sum(s.districts[k_].decoy_count for k_ in out.selected)
        assert out.expenditure == ((V + EPS) * inside_r + 3 * EPS * inside_d
                                   + 2 * EPS * (s.total_decoy - inside_d))
        assert out.expenditure <= strong6_expenditure_bound(s)
    _announce(6, "budget accounting exact across the three menus")


def test_criterion_7_savings_ordering():
    brute = brute_force_cost(sym(3, 2, 2, 1, delta=Fraction(36)))
    assert brute == 404

    weak = sym(3, 2, 2, 1)  # delta = minimum = 106/3
    weak_out = execute(weak, CountProfile.sigma_star(weak), random.Random(0))
    golden_weak = 2 * Fraction(101) + 2 * Fraction(106, 3) + 4 * Fraction(2)
    assert weak_out.expenditure == golden_weak == Fraction(842, 3)

    strong = sym(3, 2, 2, 1, menu=MenuVariant.STRONG6)  # delta = 3
    strong_out = execute(strong, CountProfile.sigma_star(strong), random.Random(0))
    golden_strong = 2 * Fraction(101) + 2 * Fraction(3) + 4 * Fraction(2)
    assert strong_out.expenditure == golden_strong == 216

    assert strong_out.expenditure < weak_out.expenditure < brute
    _announce(7, "cost ordering six-price 216 < four-price 842/3 < brute force 404")


def test_criterion_8_per_citizen_oracle_equivalence():
    # Every four-price family member with at most eight voters, checked
    # against the per-citizen scan in the dominance-reduced game; smaller
    # instances and the other menus also checked without the filter.
    filtered_instances = [
        s for s in menu_family(MenuVariant.WEAK4)
        if s.total_real + s.total_decoy <= 8
    ]
    assert len(filtered_instances) >= 20
    for s in filtered_instances:
        mine = {e.as_counts() for e in enumerate_equilibria(s).equilibria}
        assert mine == per_citizen_equilibria(s, True), s
    for menu in (MenuVariant.STRONG4, MenuVariant.STRONG6):
        for districts, q in ((((1, 1),) * 2, 1), (((2, 1), (1, 2)), 1),
                             (((1, 1),) * 3, 2)):
            s = scenario_for(list(districts), q, menu=menu)
            mine = {e.as_counts() for e in enumerate_equilibria(s).equilibria}
            assert mine == per_citizen_equilibria(s, True), s

    unfiltered_instances = [
        scenario_for([(1, 1)] * 2, 1),
        scenario_for([(1, 2), (1, 1)], 1),
        scenario_for([(2, 1), (1, 1)], 1),
        scenario_for([(1, 1)] * 3, 1),
        scenario_for([(1, 1)] * 3, 2),
        scenario_for([(1, 1)] * 2, 1, menu=MenuVariant.STRONG6),
        scenario_for([(1, 1)] * 2, 1, menu=MenuVariant.STRONG4),
    ]
    for s in unfiltered_instances:
        mine = {e.as_counts()
                for e in enumerate_equilibria(s, filter_dominated=False).equilibria}
        assert mine == per_citizen_equilibria(s, False), s
    _announce(8, f"per-citizen scans match on {len(filtered_instances)} filtered "
                 f"and {len(unfiltered_instances)} unfiltered instances")


def test_criterion_9_fair_randomization_frequencies():
    runs = 10_000
    for s in (sym(3, 2, 2, 1, delta=Fraction(36), seed=7),
              scenario_for([(1, 3), (3, 1), (2, 2)], 2, delta=Fraction(36), seed=11),
              sym(4, 1, 1, 3, delta=Fraction(77), seed=3)):
        p = CountProfile.sigma_star(s)
        counts = [0] * s.num_districts
        for i in range(runs):
            out = execute(s, p, random.Random(s.seed ^ i))
            for k in out.selected:
                counts[k] += 1
        prob = s.target_count / s.num_districts
        sd = math.sqrt(runs * prob * (1 - prob))
        for k, n in enumerate(counts):
            assert abs(n - runs * prob) <= 3 * sd, (s, k, n)
    _announce(9, f"selection frequencies within three standard deviations "
                 f"over {runs} runs per instance")


def test_criterion_10_commitment_and_lemons():
    checked = 0
    for total_real in range(1, 5):
        for target in range(1, total_real + 1):
            for n_decoy in range(0, 5):
                game = CommitmentGame(total_real, target, V, EPS)
                report = verify_commitment_equilibrium(game, n_decoy)
                assert report.sigma_star_unique, (total_real, target, n_decoy)
                checked += 1

    for good in (1, 2, 3):
        for bad in (0, 2, 4):
            for seed in range(25):
                out = run_lemons(good, bad, V, EPS, random.Random(seed))
                assert out.purchased and out.purchased_good is True
            if bad:
                out = run_lemons(good, bad, V, EPS, random.Random(0), bad_in_slot1=1)
                assert not out.purchased
    _announce(10, f"all-or-nothing menu unique on {checked} instances; "
                  f"the used-car screen never buys a bad car in equilibrium")
