import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import replay_fair_draw, scenario_for, sym
from devilsmenu import (
    MenuVariant,
    ProfileError,
    brute_force_cost,
    budget_bound,
    classify,
    execute,
    expected_expenditure,
    minimal_delta,
    price_for,
    select_districts,
    sell_decision,
    strong4_expenditure_bound,
    strong6_expenditure_bound,
)
from devilsmenu.claims import CANONICAL, family_for
from devilsmenu.mechanism import (
    DECOY,
    NOT_SELECTED,
    REAL,
    S1,
    S2,
    SELECTED_BY_DRAW,
    SELECTED_OUTRIGHT,
    ActionCount,
    Classification,
    CountProfile,
)

V = Fraction(100)
EPS = Fraction(1)
DELTA = Fraction(36)


def with_decoy_moved(profile: CountProfile, district: int) -> CountProfile:
    rows = [list(ac.as_tuple()) for ac in profile.per_district]
    rows[district][4] -= 1
    rows[district][3] += 1
    return CountProfile.from_counts(tuple(tuple(r) for r in rows))


# ------------------------------------------------------------ classification


def test_classify_sigma_star_all_tied():
    s = sym(3, 2, 2, 1, delta=DELTA)
    cl = classify(s, CountProfile.sigma_star(s))
    assert cl.ratios == (Fraction(1), Fraction(1), Fraction(1))
    assert cl.threshold == 1
    assert (sorted(cl.below), sorted(cl.tied), sorted(cl.above)) == ([], [0, 1, 2], [])


def test_classify_one_decoy_deviates():
    s = sym(3, 2, 2, 1, delta=DELTA)
    p = with_decoy_moved(CountProfile.sigma_star(s), 0)
    cl = classify(s, p)
    assert cl.ratios == (Fraction(3, 2), Fraction(1), Fraction(1))
    assert cl.threshold == 1  # q=1: the smallest ratio
    assert sorted(cl.below) == []
    assert sorted(cl.tied) == [1, 2]
    assert sorted(cl.above) == [0]


def test_classify_second_smallest_threshold():
    # ratios (1/2, 1, 1) with q=2: threshold is the second smallest, 1.
    s = scenario_for([(2, 2), (2, 2), (2, 2)], 2, delta=DELTA)
    p = CountProfile.from_counts((
        (1, 1, 0, 0, 2, 0),   # one real applies: ratio 1/2
        (2, 0, 0, 0, 2, 0),
        (2, 0, 0, 0, 2, 0),
    ))
    cl = classify(s, p)
    assert cl.ratios[0] == Fraction(1, 2)
    assert cl.threshold == 1
    assert sorted(cl.below) == [0]
    assert sorted(cl.tied) == [1, 2]
    assert cl.t >= max(1, s.target_count - cl.c)


def test_classify_rejects_inconsistent_profile():
    s = sym(3, 2, 2, 1, delta=DELTA)
    bad = CountProfile.from_counts(((2, 0, 0, 0, 1, 0),) * 3)  # decoys sum to 1, not 2
    with pytest.raises(ProfileError):
        classify(s, bad)


# ---------------------------------------------------------------- selection


def test_select_districts_draw_is_fair_and_seeded():
    s = sym(3, 2, 2, 2, delta=DELTA)
    p = CountProfile.from_counts((
        (1, 1, 0, 0, 2, 0),
        (2, 0, 0, 0, 2, 0),
        (2, 0, 0, 0, 2, 0),
    ))
    cl = classify(s, p)  # below {0}, tied {1, 2}, need one more
    runs = 10_000
    hits = {frozenset({0, 1}): 0, frozenset({0, 2}): 0}
    for i in range(runs):
        selected, drawn = select_districts(cl, 2, random.Random(i))
        assert selected in hits
        assert drawn == selected - {0}
        hits[selected] += 1
    # fair draw: each two-set at ~1/2, allow three binomial standard deviations
    sd = (runs * 0.25) ** 0.5
    assert abs(hits[frozenset({0, 1})] - runs / 2) <= 3 * sd
    # same seed, same draw
    a = select_districts(cl, 2, random.Random(99))
    b = select_districts(cl, 2, random.Random(99))
    assert a == b


def test_select_districts_no_draw_needed():
    # Hand-built partition with c = q: the draw is empty. classify itself
    # can never produce c = q (the q-th smallest ratio is always tied), so
    # this exercises select_districts on an ad hoc valid Classification.
    cl = Classification(
        ratios=(Fraction(1, 2), Fraction(3, 4), Fraction(1)),
        threshold=Fraction(1),
        below=frozenset({0, 1}), tied=frozenset({2}), above=frozenset(),
    )
    selected, drawn = select_districts(cl, 2, random.Random(0))
    assert selected == frozenset({0, 1})
    assert drawn == frozenset()


def test_select_districts_degenerate_draw():
    # Two districts tied at the threshold with q=2: the whole tie set goes
    # through and the draw is degenerate.
    s = sym(3, 2, 2, 2, delta=DELTA)
    p = CountProfile.from_counts((
        (1, 1, 0, 0, 2, 0),
        (1, 1, 0, 0, 2, 0),
        (2, 0, 0, 0, 2, 0),
    ))
    cl = classify(s, p)  # ratios (1/2, 1/2, 1): threshold 1/2, tied {0, 1}
    assert sorted(cl.tied) == [0, 1] and sorted(cl.above) == [2]
    selected, drawn = select_districts(cl, 2, random.Random(0))
    assert selected == frozenset({0, 1})
    assert drawn == frozenset({0, 1})


def test_select_districts_whole_tie_set():
    s = sym(3, 2, 2, 3, delta=DELTA)
    cl = classify(s, CountProfile.sigma_star(s))
    selected, drawn = select_districts(cl, 3, random.Random(0))
    assert selected == frozenset({0, 1, 2})
    assert drawn == selected


def test_select_districts_replays_the_fair_draw():
    # Below and tie sets of every shape up to seven districts; the districts
    # drawn must be the replayed draw's, over the tie set in ascending order.
    for seed in range(200):
        layout = random.Random(10_000 + seed)
        k = layout.randint(2, 7)
        tied = sorted(layout.sample(range(k), layout.randint(1, k)))
        below = frozenset(layout.sample([i for i in range(k) if i not in tied],
                                        layout.randint(0, k - len(tied))))
        q = len(below) + layout.randint(0, len(tied))
        cl = Classification(ratios=(Fraction(1),) * k, threshold=Fraction(1), below=below,
                            tied=frozenset(tied),
                            above=frozenset(range(k)) - below - frozenset(tied))
        selected, drawn = select_districts(cl, q, random.Random(seed))
        assert drawn == frozenset(replay_fair_draw(seed, tied, q - len(below))), seed
        assert selected == below | drawn


# ------------------------------------------------------------------- prices


@pytest.mark.parametrize("menu,slot,status,expected", [
    (MenuVariant.WEAK4, S1, SELECTED_BY_DRAW, V + EPS),
    (MenuVariant.WEAK4, S1, SELECTED_OUTRIGHT, V + EPS),
    (MenuVariant.WEAK4, S2, SELECTED_BY_DRAW, DELTA),
    (MenuVariant.WEAK4, S1, NOT_SELECTED, EPS),
    (MenuVariant.WEAK4, S2, NOT_SELECTED, 2 * EPS),
    (MenuVariant.STRONG4, S1, SELECTED_BY_DRAW, V + EPS),
    (MenuVariant.STRONG4, S2, SELECTED_BY_DRAW, 2 * EPS),
    (MenuVariant.STRONG4, S2, NOT_SELECTED, 2 * EPS),
    (MenuVariant.STRONG6, S2, SELECTED_OUTRIGHT, V - EPS),
    (MenuVariant.STRONG6, S2, SELECTED_BY_DRAW, DELTA),
    (MenuVariant.STRONG6, S2, NOT_SELECTED, 2 * EPS),
    (MenuVariant.STRONG6, S1, SELECTED_OUTRIGHT, V + EPS),
    (MenuVariant.STRONG6, S1, NOT_SELECTED, EPS),
])
def test_price_table(menu, slot, status, expected):
    assert price_for(menu, slot, status, V, EPS, DELTA) == expected


def test_price_for_rejects_commitment_menu():
    with pytest.raises(ValueError):
        price_for(MenuVariant.commitment(1), S1, NOT_SELECTED, V, EPS, DELTA)


def test_sell_decision_tie_break():
    assert sell_decision(REAL, V + EPS, V)
    assert not sell_decision(REAL, V, V)       # indifferent: keeps the ballot
    assert sell_decision(DECOY, 2 * EPS, V)
    assert not sell_decision(DECOY, Fraction(0), V)


# ------------------------------------------------------------------ execute


def test_execute_prices_a_degenerate_draw_as_outright():
    # Six-price menu, q = 2, districts 0 and 1 tied at ratio 1/2: the whole
    # tie set goes through, so their slot-two applicants get V - eps, not delta.
    s = sym(3, 2, 2, 2, menu=MenuVariant.STRONG6, delta=DELTA)
    p = CountProfile.from_counts((
        (1, 1, 0, 0, 2, 0),
        (1, 1, 0, 0, 2, 0),
        (2, 0, 0, 0, 2, 0),
    ))
    out = execute(s, p, random.Random(0))
    assert out.selected == {0, 1}
    assert out.prices_paid[(0, DECOY, S2)].price == V - EPS
    assert out.expenditure == expected_expenditure(s, p)


def test_execute_sigma_star_costs_282():
    s = sym(3, 2, 2, 1, delta=DELTA, seed=5)
    out = execute(s, CountProfile.sigma_star(s), random.Random(s.seed))
    # Direct class sum: 2 real at 101, 2 decoys at 36, 4 outside decoys at 2.
    assert out.expenditure == 2 * 101 + 2 * 36 + 4 * 2 == 282
    assert len(out.selected) == 1
    (winner,) = out.selected
    assert out.acquired_real_ballots[winner] == 2
    assert out.total_acquired == 2
    # Brute force on the same instance: 101 * 4 = 404 for any district.
    assert brute_force_cost(s) == 404
    assert brute_force_cost(s) - out.expenditure == 122


def test_execute_outside_reals_never_sell():
    s = sym(3, 2, 2, 1, delta=DELTA)
    out = execute(s, CountProfile.sigma_star(s), random.Random(0))
    for (k, voter_type, slot), pay in out.prices_paid.items():
        if voter_type == REAL and k not in out.selected:
            assert not pay.sells and pay.paid == 0


def test_execute_deviator_lands_above_and_gets_epsilon():
    s = sym(3, 2, 2, 1, delta=DELTA)
    p = with_decoy_moved(CountProfile.sigma_star(s), 0)
    out = execute(s, p, random.Random(3))
    assert out.selected <= {1, 2}
    pay = out.prices_paid[(0, DECOY, S1)]
    assert pay.price == EPS and pay.sells and pay.paid == EPS
    assert out.acquired_real_ballots[0] == 0


def test_execute_abstainers_get_no_offer():
    s = sym(2, 2, 2, 1, delta=DELTA)
    p = CountProfile.from_counts((
        (2, 0, 0, 1, 0, 1),  # one decoy abstains
        (2, 0, 0, 0, 2, 0),
    ))
    out = execute(s, p, random.Random(0))
    assert (0, DECOY, "abstain") not in out.prices_paid
    touched = {key for key in out.prices_paid if key[0] == 0}
    assert touched == {(0, REAL, S1), (0, DECOY, S1)}


# -------------------------------------------------------------------- bounds


def test_budget_bound_symmetric():
    s = sym(3, 2, 2, 1, delta=DELTA)
    assert budget_bound(s) == 101 * 2 + 36 * 2 + 2 * 4 == 282


def test_budget_bound_asymmetric_subsets():
    # Enumerate both singletons by hand: {0}: 101+108+2 = 211, {1}: 303+36+6 = 345.
    s = scenario_for([(1, 3), (3, 1)], 1, delta=DELTA)
    assert budget_bound(s) == 345


def test_budget_bound_maximizer_need_not_be_largest_district():
    # District 0 has more ballots (4 vs 3) and dominates the brute-force
    # cost, but real and decoy counts carry different weights in the bound,
    # so the smaller, real-heavy district 1 attains the maximum.
    s = scenario_for([(1, 3), (2, 1)], 1, delta=DELTA)
    assert brute_force_cost(s) == 101 * 4          # subset {0}
    by_subset = {0: 101 * 1 + 36 * 3 + 2 * 1, 1: 101 * 2 + 36 * 1 + 2 * 3}
    assert budget_bound(s) == by_subset[1] == 244
    assert by_subset[1] > by_subset[0]


def test_budget_bound_all_districts():
    s = sym(3, 2, 2, 3, delta=DELTA)
    assert budget_bound(s) == 101 * 6 + 36 * 6  # complement empty


def test_budget_bound_requires_weak4():
    s = sym(3, 2, 2, 1, menu=MenuVariant.STRONG6)
    with pytest.raises(ValueError):
        budget_bound(s)


def test_strong_bounds():
    s4 = sym(3, 2, 2, 1, menu=MenuVariant.STRONG4)
    assert strong4_expenditure_bound(s4) == 101 * 2 + 2 * 6
    s6 = sym(3, 2, 2, 1, menu=MenuVariant.STRONG6)
    assert strong6_expenditure_bound(s6) == 101 * 2 + 3 * 6


def test_minimal_delta_values():
    assert minimal_delta(sym(3, 2, 2, 1)) == Fraction(106, 3)
    assert minimal_delta(sym(3, 2, 2, 2), sequential=True) == 52
    assert minimal_delta(sym(3, 2, 2, 1, menu=MenuVariant.STRONG6)) == 3
    assert minimal_delta(sym(3, 2, 2, 1, menu=MenuVariant.STRONG4)) == 2


@pytest.mark.parametrize("claim", CANONICAL)
def test_every_family_member_sits_at_its_minimal_delta(claim):
    sequential = claim == "sequential-spe"
    members = list(family_for(claim, "full"))
    assert members
    for s in members:
        assert s.delta == minimal_delta(s, sequential=sequential), s


def test_expenditure_within_bound_over_all_draws():
    # Asymmetric instance: every realization stays within the bound and the
    # bound is attained exactly by the maximizing subset.
    s = scenario_for([(1, 3), (3, 1), (2, 2)], 1, delta=DELTA)
    p = CountProfile.sigma_star(s)
    cl = classify(s, p)
    bound = budget_bound(s)
    from devilsmenu.mechanism import payments_for_selection
    seen = []
    for drawn in combinations(sorted(cl.tied), s.target_count - cl.c):
        _, spend, _ = payments_for_selection(s, p, cl, cl.below | frozenset(drawn))
        assert spend <= bound
        seen.append(spend)
    assert max(seen) == bound


def test_select_districts_rejects_inconsistent_classification():
    # Two districts below the threshold cannot fit q = 1. The check must be
    # a real error: a draw over an empty range would return both districts.
    cl = Classification((Fraction(0), Fraction(0), Fraction(1)), Fraction(1),
                        frozenset({0, 1}), frozenset({2}), frozenset())
    with pytest.raises(ValueError):
        select_districts(cl, 1, random.Random(0))


def test_action_count_accessors():
    ac = ActionCount(2, 1, 0, 1, 2, 0)
    assert ac.real_total == 3 and ac.decoy_total == 3
    assert ac.slot1_applicants == 3
    assert ac.count(DECOY, S2) == 2
    assert ActionCount.from_tuple(ac.as_tuple()) == ac
