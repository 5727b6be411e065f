"""Property-based checks of the library's structural invariants."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from devilsmenu import (
    MenuVariant,
    PremiseFails,
    brute_force_cost,
    budget_bound,
    classify,
    deviation_payoff,
    execute,
    expected_expenditure,
    expected_payoff,
    is_nash,
    make_scenario,
    strong4_expenditure_bound,
    strong6_expenditure_bound,
    tie_payoff_gap_holds,
    validate_budget,
    validate_scenario,
    verify_sabotage_bound,
)
from devilsmenu import equilibrium, mechanism
from devilsmenu.claims import family_for
from devilsmenu.cli import _mc_batch
from devilsmenu.equilibrium import (
    VoterClass, _Ctx, enumerate_equilibria, real_deviation_expenditures,
    single_deviation_profile,
)
from devilsmenu.mechanism import (
    ABSTAIN, CLASS_SLOTS, DECOY, REAL, S1, S2, Classification, CountProfile, Threshold, _PricingTables,
    payments_for_selection, price_table, settle, status_odds, tie_price_floor, valuation,
    voter_payoff,
)
from devilsmenu.model import MAX_SEED
from conftest import KEPT, full_scan, orbit_scan_reference, replay_fair_draw
import oracles
from oracles import (
    ABOVE, BELOW, TIED, oracle_expected_expenditure, oracle_expected_payoff,
    oracle_expenditure_bound, oracle_partition, oracle_settlement, oracle_tie_payoff_gap,
    per_citizen_equilibria,
)

MENUS = (MenuVariant.WEAK4, MenuVariant.STRONG4, MenuVariant.STRONG6)


@st.composite
def scenario_and_profile(draw, with_abstain=True):
    k = draw(st.integers(2, 4))
    districts = tuple(
        (draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(k)
    )
    q = draw(st.integers(1, k - 1))
    menu = draw(st.sampled_from(MENUS))
    if menu.tag == "weak4":
        delta = draw(st.fractions(min_value=3, max_value=99, max_denominator=8))
    else:
        delta = draw(st.fractions(min_value=Fraction(1, 2), max_value=10,
                                  max_denominator=8))
    s = make_scenario(districts, 100, 1, delta, q, menu=menu)
    assert validate_scenario(s) == []
    counts = []
    for real, decoy in districts:
        row = []
        for n in (real, decoy):
            in_s1 = draw(st.integers(0, n))
            rest = n - in_s1
            in_abstain = draw(st.integers(0, rest)) if with_abstain else 0
            row.extend((in_s1, rest - in_abstain, in_abstain))
        counts.append(tuple(row))
    return s, CountProfile.from_counts(tuple(counts))


@given(scenario_and_profile(), st.permutations(range(4)))
@settings(max_examples=80, deadline=None)
def test_classify_is_permutation_equivariant(sp, perm16):
    s, p = sp
    k = s.num_districts
    perm = [i for i in perm16 if i < k]
    ps = make_scenario([(s.districts[i].real_count, s.districts[i].decoy_count)
                        for i in perm],
                       s.real_value, s.epsilon, s.delta, s.target_count, menu=s.menu)
    pp = CountProfile.from_counts(tuple(p.as_counts()[i] for i in perm))
    cl = classify(s, p)
    pcl = classify(ps, pp)
    assert pcl.threshold == cl.threshold
    assert pcl.ratios == tuple(cl.ratios[i] for i in perm)
    where = {orig: new for new, orig in enumerate(perm)}
    assert pcl.below == frozenset(where[i] for i in cl.below)
    assert pcl.tied == frozenset(where[i] for i in cl.tied)
    assert pcl.above == frozenset(where[i] for i in cl.above)


@given(scenario_and_profile())
@settings(max_examples=60, deadline=None)
def test_partition_counts_and_selection_shape(sp):
    s, p = sp
    cl = classify(s, p)
    assert cl.c + cl.t + cl.o == s.num_districts
    assert cl.t >= max(1, s.target_count - cl.c)
    out = execute(s, p, random.Random(7))
    assert len(out.selected) == s.target_count
    assert cl.below <= out.selected
    assert out.drawn_from_tie <= cl.tied
    assert out.selected - cl.below == out.drawn_from_tie


@given(scenario_and_profile())
@settings(max_examples=60, deadline=None)
def test_expenditure_is_sum_of_accepted_sales(sp):
    s, p = sp
    out = execute(s, p, random.Random(3))
    assert out.expenditure == sum(
        (pay.paid for pay in out.prices_paid.values()), Fraction(0)
    )
    for (k, voter_type, slot), pay in out.prices_paid.items():
        assert pay.count == p.as_counts()[k][CLASS_SLOTS[(voter_type, slot)]]
        assert pay.paid == (pay.price * pay.count if pay.sells else 0)
    for k, got in enumerate(out.acquired_real_ballots):
        expect = sum(
            pay.count
            for (kk, voter_type, slot), pay in out.prices_paid.items()
            if kk == k and voter_type == REAL and pay.sells
        )
        assert got == expect


@given(scenario_and_profile())
@settings(max_examples=50, deadline=None)
def test_expected_payoff_matches_draw_enumeration(sp):
    s, p = sp
    counts = p.as_counts()
    for k in range(s.num_districts):
        for voter_type in (REAL, DECOY):
            for action in (S1, S2, ABSTAIN):
                assert expected_payoff(s, p, VoterClass(k, voter_type, action)) == \
                    oracle_expected_payoff(s, counts, k, voter_type, action)


@given(scenario_and_profile())
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_enumeration(sp):
    s, p = sp
    assert expected_expenditure(s, p) == oracle_expected_expenditure(s, p.as_counts())
    eps = s.epsilon
    assert strong4_expenditure_bound(s) == oracle_expenditure_bound(s, 2 * eps, 2 * eps)
    assert strong6_expenditure_bound(s) == oracle_expenditure_bound(s, 3 * eps, 3 * eps)
    if s.menu.tag == "weak4":
        assert budget_bound(s) == oracle_expenditure_bound(s, s.delta, 2 * eps)


@given(scenario_and_profile())
@settings(max_examples=60, deadline=None)
def test_realized_spend_averages_to_expected_spend(sp):
    # A run's settlement and the expected spend must price each final status
    # alike: over every equally likely draw, realized spend averages out to
    # the expected spend.
    s, p = sp
    cl = classify(s, p)
    draws = list(combinations(sorted(cl.tied), s.target_count - cl.c))
    spends = [payments_for_selection(s, p, cl, cl.below | frozenset(d))[1] for d in draws]
    assert sum(spends) / len(draws) == expected_expenditure(s, p)


@st.composite
def settlement_cases(draw):
    """2 to 4 districts of 1 to 3 real and 0 to 3 decoy ballots, any q, one
    of the three menus, rational V, eps and delta (delta up to 2V), and a
    profile whose voters of each type split over both slots and abstention."""
    k = draw(st.integers(2, 4))
    districts = [(draw(st.integers(1, 3)), draw(st.integers(0, 3))) for _ in range(k)]
    v = draw(st.fractions(min_value=1, max_value=200, max_denominator=6))
    eps = draw(st.fractions(min_value=Fraction(1, 6), max_value=v, max_denominator=6))
    delta = draw(st.fractions(min_value=Fraction(1, 6), max_value=2 * v, max_denominator=6))
    s = make_scenario(districts, v, eps, delta, draw(st.integers(1, k)),
                      menu=draw(st.sampled_from(MENUS)))
    counts = []
    for n_real, n_decoy in districts:
        row = []
        for n in (n_real, n_decoy):
            a = draw(st.integers(0, n))
            b = draw(st.integers(0, n - a))
            row += [a, b, n - a - b]
        counts.append(tuple(row))
    return s, tuple(counts)


def test_realized_payments_equal_citizen_by_citizen_settlement():
    # Every draw of the fair draw, each settled by payments_for_selection
    # and by the oracle citizen by citizen with transcribed prices: class
    # payments, expenditure and acquired real ballots agree, and so does a
    # seeded execute on the draw it makes. The sample holds abstainers,
    # real voters on slot two, and districts drawn from a real draw.
    seen = Counter()

    @given(settlement_cases(), st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def agrees(case, seed):
        s, counts = case
        p = CountProfile.from_counts(counts)
        cl = classify(s, p)
        below, tied = oracles._classify([c[0] + c[3] for c in counts],
                                        [d.real_count for d in s.districts], s.target_count)
        combos, _, certain = oracles._draws(below, tied, s.target_count)
        for drawn in combos:
            paid, spend, acquired = payments_for_selection(
                s, p, cl, frozenset(below) | frozenset(drawn))
            assert ({key: tuple(pay) for key, pay in paid.items()}, spend, acquired) == \
                oracle_settlement(s, counts, below, drawn, certain), (s, counts, drawn)
        out = execute(s, p, random.Random(seed))
        drawn = tuple(sorted(out.drawn_from_tie))
        assert drawn in combos
        assert ({key: tuple(pay) for key, pay in out.prices_paid.items()}, out.expenditure,
                out.acquired_real_ballots) == oracle_settlement(s, counts, below, drawn, certain)
        seen["abstainers"] += any(c[2] or c[5] for c in counts)
        seen["real on slot two"] += any(c[1] for c in counts)
        seen["drawn"] += bool(drawn) and not certain

    agrees()
    assert min(seen[key] for key in ("abstainers", "real on slot two", "drawn")) > 0, seen


@given(scenario_and_profile())
@settings(max_examples=50, deadline=None)
def test_unfiltered_nash_agrees_with_deviation_payoffs(sp):
    s, p = sp
    counts = p.as_counts()
    verdict = True
    for k, cnt in enumerate(counts):
        for voter_type, base in ((REAL, 0), (DECOY, 3)):
            for idx, action in enumerate((S1, S2, ABSTAIN)):
                if cnt[base + idx] == 0:
                    continue
                who = VoterClass(k, voter_type, action)
                cur = expected_payoff(s, p, who)
                for alt in (S1, S2, ABSTAIN):
                    if alt != action and deviation_payoff(s, p, who, alt) > cur:
                        verdict = False
    assert is_nash(s, p, filter_dominated=False) == verdict


@given(scenario_and_profile())
@settings(max_examples=50, deadline=None)
def test_deviation_payoff_equals_oracle_of_the_moved_profile(sp):
    # deviation_payoff and the Nash check both read Threshold.after; the
    # oracle classifies the profile with the voter moved from scratch.
    s, p = sp
    counts = p.as_counts()
    for k, row in enumerate(counts):
        for (voter_type, action), idx in CLASS_SLOTS.items():
            if not row[idx]:
                continue
            for alt in (S1, S2, ABSTAIN):
                if alt == action:
                    continue
                moved = list(row)
                moved[idx] -= 1
                moved[CLASS_SLOTS[(voter_type, alt)]] += 1
                profile = counts[:k] + (tuple(moved),) + counts[k + 1:]
                assert deviation_payoff(s, p, VoterClass(k, voter_type, action), alt) == \
                    oracle_expected_payoff(s, profile, k, voter_type, alt)


@given(scenario_and_profile())
@settings(max_examples=60, deadline=None)
def test_dominance_facts(sp):
    s, p = sp
    if s.delta > s.real_value - s.epsilon:
        return  # ordering below presumes the cushion price stays under V
    for k in range(s.num_districts):
        real_s1 = expected_payoff(s, p, VoterClass(k, REAL, S1))
        real_s2 = expected_payoff(s, p, VoterClass(k, REAL, S2))
        real_out = expected_payoff(s, p, VoterClass(k, REAL, ABSTAIN))
        assert real_s1 >= real_s2 >= real_out == s.real_value
        decoy_s2 = expected_payoff(s, p, VoterClass(k, DECOY, S2))
        decoy_out = expected_payoff(s, p, VoterClass(k, DECOY, ABSTAIN))
        assert decoy_s2 > decoy_out == 0


def test_real_slot_one_strictly_better_somewhere():
    # Weak dominance needs one profile with a strict gap; sigma-star is one.
    s = make_scenario([(2, 2)] * 3, 100, 1, 36, 1)
    p = CountProfile.sigma_star(s)
    assert expected_payoff(s, p, VoterClass(0, REAL, S1)) > \
        expected_payoff(s, p, VoterClass(0, REAL, S2))


@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), min_size=2, max_size=5),
    st.integers(1, 4),
    st.fractions(min_value=0, max_value=900, max_denominator=4),
)
@settings(max_examples=80, deadline=None)
def test_budget_check_monotone_and_exhaustive(districts, q, budget):
    districts = [(r, max(d, 2 - r + 0)) if r + d < 2 else (r, d) for r, d in districts]
    q = min(q, len(districts))
    s = make_scenario(districts, 100, 1, 36, q, budget=budget)
    # the q-largest shortcut equals the exhaustive subset maximum
    exhaustive = max(
        Fraction(101) * sum(r + d for r, d in (districts[i] for i in subset))
        for subset in combinations(range(len(districts)), q)
    )
    assert brute_force_cost(s) == exhaustive
    assert validate_budget(s) == (budget >= exhaustive)
    richer = make_scenario(districts, 100, 1, 36, q, budget=budget + 1)
    if validate_budget(s):
        assert validate_budget(richer)


@st.composite
def fractional_scenarios(draw, max_real, max_k):
    """A weak four-price scenario of 1 to max_k districts, some possibly with
    no decoy, q from 1 to k, and V, eps and delta with denominators up to 9,
    delta anywhere from eps to V."""
    districts = draw(st.lists(st.tuples(st.integers(1, max_real), st.integers(0, 3)),
                              min_size=1, max_size=max_k))
    q = draw(st.integers(1, len(districts)))
    v = draw(st.fractions(min_value=10, max_value=200, max_denominator=9))
    eps = draw(st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9))
    delta = draw(st.fractions(min_value=eps, max_value=v, max_denominator=9))
    return make_scenario(districts, v, eps, delta, q)


@given(fractional_scenarios(max_real=4, max_k=5))
@example(make_scenario([(2, 0), (1, 2), (3, 1)], Fraction(201, 2), Fraction(1, 3),
                       Fraction(90, 7), 3))
@settings(max_examples=80, deadline=None)
def test_budget_bound_matches_subset_oracle_on_fractional_prices(s):
    # The bound's integer numerators share the lcm of all three price
    # denominators.
    assert budget_bound(s) == oracle_expenditure_bound(s, s.delta, 2 * s.epsilon)


@given(fractional_scenarios(max_real=3, max_k=4))
@example(make_scenario([(1, 2)], Fraction(201, 2), Fraction(1, 3), Fraction(90, 7), 1))
@example(make_scenario([(2, 0), (1, 2), (3, 1)], 100, 1, 90, 3))
@settings(max_examples=80, deadline=None)
def test_lone_deviation_spends_match_oracle(s):
    # Both voter types; k = 1, q = k and districts with no decoy (where no
    # decoy can defect) included.
    report = verify_sabotage_bound(s)
    for voter_type, new_action, got in ((DECOY, S1, report.per_district),
                                        (REAL, S2, real_deviation_expenditures(s))):
        movers = {k for k, d in enumerate(s.districts)
                  if (d.real_count if voter_type == REAL else d.decoy_count)}
        assert set(got) == movers
        for k, spend in got.items():
            counts = single_deviation_profile(s, k, voter_type, new_action).as_counts()
            assert spend == oracle_expected_expenditure(s, counts), (k, voter_type)
    assert report.worst == max(report.per_district.values(), default=None)
    assert report.holds == all(x <= report.bound for x in report.per_district.values())


@st.composite
def pricings(draw):
    """A menu, k districts, q from 1 to k, and non-integer V, eps and delta."""
    def non_integer(low, high):
        return draw(st.fractions(min_value=low, max_value=high, max_denominator=9)
                    .filter(lambda f: f.denominator > 1))
    k = draw(st.integers(1, 8))
    return (draw(st.sampled_from(MENUS)), k, draw(st.integers(1, k)), non_integer(10, 200),
            non_integer(Fraction(1, 9), 5), non_integer(Fraction(1, 9), 200))


@given(pricings())
@settings(max_examples=80, deadline=None)
def test_pricing_rows_equal_their_fraction_reference(pricing):
    # Every row a (c, t) of k districts can reach, c below q and c + t at
    # least q, holds each class's expected payment over the draw as integer
    # numerators over its one denominator, and _worth gives his expected
    # payoff there.
    menu, k, q, v, eps, delta = pricing
    tables = _PricingTables(menu, q, v, eps, delta)
    prices = price_table(menu, v, eps, delta)
    for c in range(q):
        for t in range(q - c, k - c + 1):
            d, paid = tables.rows[c, t]
            for code in (0, 1, 2):
                odds = status_odds(code, c, t, q)
                for (voter_type, action), i in CLASS_SLOTS.items():
                    if action == ABSTAIN:
                        want = (0, valuation(voter_type, v))
                    else:
                        offers = [(prob, prices[(action, final)]) for final, prob in odds]
                        want = (sum(prob * settle(voter_type, price, 1, v).paid
                                    for prob, price in offers),
                                sum(prob * voter_payoff(voter_type, price, v)
                                    for prob, price in offers))
                    worth, weight = tables._worth(code, c, t, 6 + i)
                    assert (Fraction(paid[code][i], d), Fraction(worth, tables.scale * weight)) == want


@st.composite
def free_pricings(draw):
    """Pricings as premise_scenarios draws them: one of the three menus, k
    up to 5 districts, any q, and rational V, eps and delta, delta up to
    2V."""
    k = draw(st.integers(1, 5))
    v = draw(st.fractions(min_value=1, max_value=200, max_denominator=4))
    eps = draw(st.fractions(min_value=Fraction(1, 4), max_value=v, max_denominator=4))
    delta = draw(st.fractions(min_value=Fraction(1, 4), max_value=2 * v, max_denominator=4))
    return draw(st.sampled_from(MENUS)), k, draw(st.integers(1, k)), v, eps, delta


@given(free_pricings())
@example((MenuVariant.STRONG6, 3, 2, Fraction(100), Fraction(1), Fraction(3)))
@example((MenuVariant.WEAK4, 4, 2, Fraction(201, 2), Fraction(3, 4), Fraction(105, 2)))
@settings(max_examples=60, deadline=None)
def test_verdicts_equal_the_fraction_comparison_of_expected_payoffs(pricing):
    # Every verdict a district of k can reach, c < q <= c + t before and
    # after the move, is the exact comparison of the two expected payoffs
    # over the draw, each summed in Fractions from status_odds, the menu's
    # prices and voter_payoff. The tables fill verdicts and rows with no
    # Fraction and no status_odds.
    menu, k, q, v, eps, delta = pricing
    prices = price_table(menu, v, eps, delta)

    def payoff(st_, c, t, voter_type, action):
        if action == ABSTAIN:
            return valuation(voter_type, v)
        return sum(prob * voter_payoff(voter_type, prices[(action, final)], v)
                   for final, prob in status_odds(st_, c, t, q))

    # A district is below only when c > 0 and above only when c + t < k.
    standings = [(st_, c, t) for c in range(q) for t in range(q - c, k - c + 1)
                 for st_ in (0, 1, 2) if (st_ != 0 or c) and (st_ != 2 or c + t < k)]
    want = {(*standing, voter_type, action): payoff(*standing, voter_type, action)
            for standing in standings for voter_type, action in CLASS_SLOTS}
    keys = [(*before, *after, mv) for before in standings for after in standings
            for mv in range(len(mechanism._MOVES))]
    tables = _PricingTables(menu, q, v, eps, delta)
    with patch.object(mechanism, "Fraction", None), patch.object(mechanism, "status_odds", None):
        got = [tables.verdicts[key] for key in keys]
        for c, t in {(c, t) for _, c, t in standings}:
            tables.rows[c, t]
    for key, gains in zip(keys, got):
        _, voter_type, action, alt, _ = mechanism._MOVES[key[-1]]
        assert gains == (want[(*key[3:6], voter_type, alt)] > want[(*key[:3], voter_type, action)]), \
            (pricing, key)


@st.composite
def gap_scenarios(draw):
    """A valid weak four-price scenario with fractional V, eps and delta, q
    from 1 to k, and delta below, at or above the floor (q/k) V + 2 eps."""
    k = draw(st.integers(2, 5))
    q = draw(st.integers(1, k))
    v = draw(st.fractions(min_value=10, max_value=200, max_denominator=9))
    eps = draw(st.fractions(min_value=Fraction(1, 9), max_value=Fraction(1, 2), max_denominator=9))
    floor, top = Fraction(q, k) * v + 2 * eps, v - eps  # valid: 2 eps < delta <= top
    side = draw(st.sampled_from(("below", "at", "above") if floor <= top else ("below",)))
    share = draw(st.fractions(min_value=0, max_value=1, max_denominator=9))
    if side == "below":
        delta = 2 * eps + share * (min(floor, top) - 2 * eps)
        assume(2 * eps < delta < floor)
    else:
        delta = floor + (share * (top - floor) if side == "above" else 0)
    districts = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                              min_size=k, max_size=k))
    s = make_scenario(districts, v, eps, delta, q)
    assume(validate_scenario(s) == [])
    return s, side


@given(gap_scenarios())
@settings(max_examples=100, deadline=None)
def test_tie_payoff_gap_matches_its_term_by_term_oracle(ss):
    s, side = ss
    assert tie_payoff_gap_holds(s) == oracle_tie_payoff_gap(s) == (side != "below")


@st.composite
def repeated_districts(draw):
    """A scenario whose districts repeat one or two (real, decoy) types, and a
    filter mode. Unfiltered instances stay small enough for a full scan."""
    filtered = draw(st.booleans())
    if filtered:
        k, kind = draw(st.integers(2, 4)), st.tuples(st.integers(1, 3), st.integers(1, 2))
    else:
        k, kind = draw(st.integers(2, 3)), st.sampled_from([(1, 1), (1, 2), (2, 1)])
    types = draw(st.lists(kind, min_size=1, max_size=2))
    districts = [draw(st.sampled_from(types)) for _ in range(k)]
    menu = draw(st.sampled_from(MENUS))
    top = 99 if menu.tag == "weak4" else 10
    delta = draw(st.fractions(min_value=Fraction(1, 2), max_value=top, max_denominator=8))
    s = make_scenario(districts, 100, 1, delta, draw(st.integers(1, k)), menu=menu)
    return s, filtered


@given(repeated_districts())
@settings(max_examples=40, deadline=None)
def test_orbit_scan_equals_full_scan(sf):
    s, filtered = sf
    report = enumerate_equilibria(s, filter_dominated=filtered)
    assert tuple(e.as_counts() for e in report.equilibria) == full_scan(s, filtered)


@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=2, max_size=4)
    .filter(lambda districts: len({r for r, _ in districts}) > 1),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_classify_equals_oracle_partition(districts, data):
    # Unequal real counts, so the lcm keying of the slot-one ratios is
    # exercised. Every slot-one vector is reached, real voters first.
    q = data.draw(st.integers(1, len(districts)))
    s = make_scenario(districts, 100, 1, 36, q)
    for m in product(*(range(r + d + 1) for r, d in districts)):
        p = CountProfile.from_counts(
            (min(mk, r), r - min(mk, r), 0, mk - min(mk, r), d - mk + min(mk, r), 0)
            for mk, (r, d) in zip(m, districts))
        ratios = tuple(Fraction(mk, r) for mk, (r, _) in zip(m, districts))
        threshold, statuses = oracle_partition(ratios, q)
        cl = classify(s, p)
        assert all(type(x) is Fraction for x in (*cl.ratios, cl.threshold))
        assert (cl.ratios, cl.threshold) == (ratios, threshold)
        assert (cl.below, cl.tied, cl.above) == tuple(
            frozenset(k for k, got in enumerate(statuses) if got == which)
            for which in (BELOW, TIED, ABOVE))
        assert [cl.interim(k) for k in range(len(districts))] == [
            STATUS_CODE[status] for status in statuses]


@given(
    st.lists(st.tuples(st.integers(1, 2), st.integers(0, 2)), min_size=2, max_size=3),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_strong6_tied_expected_spend_matches_oracle(districts, data):
    # Under the six-price menu a tied district's slot-two price is delta when
    # drawn and an outright one's is V - eps, so a spend's one denominator
    # must cover both. Every filtered profile with a real draw (q - c < t)
    # is checked against the draw-enumerating oracle.
    q = data.draw(st.integers(1, len(districts) - 1))
    delta = data.draw(st.fractions(min_value=3, max_value=10, max_denominator=7))
    s = make_scenario(districts, 100, 1, delta, q, menu=MenuVariant.STRONG6)
    options = [[(a, r - a, 0, b, d - b, 0) for a in range(r + 1) for b in range(d + 1)]
               for r, d in districts]
    drawn = 0
    for counts in product(*options):
        _, statuses = oracle_partition(
            [Fraction(c[0] + c[3], r) for c, (r, _) in zip(counts, districts)], q)
        if q - statuses.count(BELOW) < statuses.count(TIED):
            drawn += 1
            p = CountProfile.from_counts(counts)
            assert expected_expenditure(s, p) == oracle_expected_expenditure(s, counts), counts
    assert drawn


STATUS_CODE = {BELOW: 0, TIED: 1, ABOVE: 2}


def check_summary_moves(districts, q) -> set:
    """Check the threshold summary of every reachable slot-one vector, and
    the status, c and t it gives each move by -1, 0 or +1 step, against the
    oracle partition of the vector and of the moved vector. Return the edge
    cases met."""
    k = len(districts)
    steps = _Ctx(make_scenario(districts, 100, 1, 36, q)).steps
    seen = set()
    for m in product(*(range(r + d + 1) for r, d in districts)):
        keys = [mk * step for mk, step in zip(m, steps)]
        summary = Threshold(sorted(keys), q)
        tau, statuses = oracle_partition(keys, q)
        assert (summary.tau, summary.c, summary.t) == \
            (tau, statuses.count(BELOW), statuses.count(TIED))
        assert [summary.status(x) for x in keys] == [STATUS_CODE[st] for st in statuses]
        for j, (r, d) in enumerate(districts):
            for dm in (-1, 0, 1):
                if not 0 <= m[j] + dm <= r + d:
                    continue
                x, y = keys[j], keys[j] + dm * steps[j]
                tau2, moved = oracle_partition(keys[:j] + [y] + keys[j + 1:], q)
                want = (STATUS_CODE[moved[j]], moved.count(BELOW), moved.count(TIED))
                assert summary.after(x, y) == want, (districts, q, m, j, dm)
                seen |= {name for name, hit in (
                    ("q = k", q == k),
                    ("t = 1", summary.t == 1),
                    ("no key above tau", summary.c + summary.t == k),
                    ("no key below tau", summary.c == 0),
                    ("tau' = y", tau2 == y != tau),
                ) if hit}
    return seen


@st.composite
def small_district_sets(draw):
    # Every reachable slot-one vector is checked, so the vectors are kept
    # to a few hundred: r + d shrinks as k grows.
    k = draw(st.integers(1, 6))
    top = {1: 7, 2: 7, 3: 5, 4: 3, 5: 2, 6: 2}[k]
    districts = []
    for _ in range(k):
        r = draw(st.integers(1, min(3, top)))
        districts.append((r, draw(st.integers(0, top - r))))
    return districts


@given(small_district_sets())
@settings(max_examples=30, deadline=None)
def test_threshold_summary_moves_equal_partition_of_moved_vector(districts):
    for q in range(1, len(districts) + 1):
        check_summary_moves(districts, q)


def test_threshold_summary_meets_its_edge_cases():
    seen = set()
    for districts in ([(1, 2), (2, 1), (2, 2)], [(1, 1)] * 3, [(3, 1), (1, 2)]):
        for q in range(1, len(districts) + 1):
            seen |= check_summary_moves(districts, q)
    assert seen == {"q = k", "t = 1", "no key above tau", "no key below tau", "tau' = y"}


@given(st.lists(st.integers(0, 4), min_size=1, max_size=9), st.data())
@settings(max_examples=200, deadline=None)
def test_threshold_of_the_bottom_equals_threshold_of_all_keys(keys, data):
    # The Nash check memoizes verdicts per bottom, so the summary of the
    # bottom must agree with the summary of every key, at every key and
    # at every move near it. Keys from 0..4 tie often.
    q = data.draw(st.integers(1, len(keys)))
    bottom = Threshold.bottom(keys, q)
    assert bottom == tuple(sorted(keys))[:len(bottom)]
    full, cut = Threshold(sorted(keys), q), Threshold(bottom, q)
    assert (cut.tau, cut.c, cut.t, cut.bounds) == (full.tau, full.c, full.t, full.bounds)
    for x in set(keys):
        assert cut.status(x) == full.status(x)
        for y in range(x - 2, x + 3):
            assert cut.after(x, y) == full.after(x, y), (keys, q, x, y)


@given(repeated_districts(), st.data())
@settings(max_examples=40, deadline=None)
def test_shuffling_districts_permutes_the_equilibria(sf, data):
    # The scan checks each representative in group order whatever the
    # district order, so shuffling the districts may only permute every
    # equilibrium's rows and must leave the checks and sigma-star alone.
    s, filtered = sf
    perm = data.draw(st.permutations(range(s.num_districts)))
    shuffled = s.with_districts([s.districts[j] for j in perm], s.target_count)
    report = enumerate_equilibria(s, filter_dominated=filtered)
    moved = enumerate_equilibria(shuffled, filter_dominated=filtered)
    want = sorted(tuple(e.as_counts()[j] for j in perm) for e in report.equilibria)
    assert [e.as_counts() for e in moved.equilibria] == want
    assert (moved.candidates_checked, moved.sigma_star_present, moved.sigma_star_unique) == \
        (report.candidates_checked, report.sigma_star_present, report.sigma_star_unique)


@st.composite
def tiny_repeated_below_floor(draw):
    """A tiny scenario in one of the three menus, with a repeated district
    type, its districts shuffled, and delta below the menu's tie-price floor,
    where several equilibria can appear. A filtered game holds at most 8
    voters and an unfiltered one at most 5, so the per-citizen oracle can
    scan it."""
    filtered = draw(st.booleans())
    voters = 8 if filtered else 5
    kinds = st.tuples(st.integers(1, 2), st.integers(0, 2))
    first = draw(kinds.filter(lambda kind: 2 * sum(kind) <= voters))
    districts = [first, first]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from([first, draw(kinds)]))
        if sum(map(sum, districts)) + sum(kind) <= voters:
            districts.append(kind)
    districts = draw(st.permutations(districts))
    q = draw(st.integers(1, len(districts)))
    menu = draw(st.sampled_from(MENUS))
    floor = tie_price_floor(menu, len(districts), q, 100, 1)
    delta = draw(st.fractions(min_value=Fraction(1, 2), max_value=floor, max_denominator=8)
                 .filter(lambda x: x < floor))
    return make_scenario(districts, 100, 1, delta, q, menu=menu), filtered


@given(tiny_repeated_below_floor())
@settings(max_examples=60, deadline=None)
def test_orbit_scan_matches_per_citizen_oracle(sf):
    s, filtered = sf
    tables = mechanism._pricing_tables(s.menu, s.target_count, s.real_value, s.epsilon, s.delta)
    if filtered and equilibrium.filter_premise(tables, s.num_districts):
        # weak4 with delta above V (q < k) or above V + eps (q = k): a real
        # voter gains by slot two, so there is no filtered game to compare.
        with pytest.raises(PremiseFails):
            enumerate_equilibria(s)
        return
    got = {e.as_counts() for e in enumerate_equilibria(s, filter_dominated=filtered).equilibria}
    assert got == per_citizen_equilibria(s, filtered)


@st.composite
def two_or_three_district_types(draw):
    """A scenario of two or three (real, decoy) types in one of the three
    menus, its districts shuffled, delta at most the menu's tie-price floor,
    and a filter mode: up to 7 districts filtered, up to 5 unfiltered."""
    filtered = draw(st.booleans())
    if filtered:
        k, kind = draw(st.integers(3, 7)), st.tuples(st.integers(1, 3), st.integers(1, 3))
    else:
        k, kind = draw(st.integers(3, 5)), st.sampled_from([(1, 1), (1, 2), (2, 1)])
    types = draw(st.lists(kind, min_size=2, max_size=3, unique=True))
    districts = draw(st.permutations(types + [draw(st.sampled_from(types))
                                              for _ in range(k - len(types))]))
    q = draw(st.integers(1, k))
    menu = draw(st.sampled_from(MENUS))
    floor = tie_price_floor(menu, k, q, 100, 1)
    delta = draw(st.fractions(min_value=Fraction(1, 2), max_value=floor, max_denominator=8))
    return make_scenario(districts, 100, 1, delta, q, menu=menu), filtered


def test_block_scan_equals_orbit_scan_reference(monkeypatch):
    # The block scan lists the equilibria of the per-representative scan,
    # in its order, and across the sample some of them are recorded through
    # high options. A check's mask holds the districts of its bottom, so a
    # judge call on one option whose key lies above its entry's bottom is a
    # high option's, made only for j > 0, and one that passes completes at
    # least one equilibrium. The second example holds a last-group key tied
    # with its head part's cut, which is low, not high.
    passed, judge = [], equilibrium._judge

    def counted_judge(verdicts, entry, mask, judged):
        got = judge(verdicts, entry, mask, judged)
        lone = mask & (mask - 1) == 0
        if lone and not got and judged[mask.bit_length() - 1][0] > entry[0].ranked[-1]:
            passed.append(mask)
        return got

    monkeypatch.setattr(equilibrium, "_judge", counted_judge)

    @given(two_or_three_district_types())
    @example((make_scenario([(1, 1)] * 3 + [(1, 2)] * 2, 100, 1, 36, 2), False))
    @example((make_scenario([(1, 1), (1, 2), (1, 1), (1, 1), (1, 1)], 100, 1, Fraction(1, 2), 3), True))
    @settings(max_examples=40, deadline=None)
    def agrees(sf):
        s, filtered = sf
        report = enumerate_equilibria(s, filter_dominated=filtered)
        assert tuple(e.as_counts() for e in report.equilibria) == orbit_scan_reference(s, filtered)

    agrees()
    assert any(passed)


@st.composite
def cut_scenarios(draw):
    """A scenario whose scan cuts every head part, and a filter mode: two
    or three (real, decoy) types, shuffled, with q below the number of
    districts outside the largest group, so the head holds more than q
    keys whichever group goes last; one of the three menus at a free
    pricing (as premise_scenarios draws V, eps and delta) where the
    dominance filter's premise holds. Up to 5 districts filtered, 4
    unfiltered."""
    filtered = draw(st.booleans())
    kinds = ((1, 1), (1, 2), (2, 1), (2, 2)) if filtered else ((1, 0), (1, 1), (2, 0))
    types = draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=3, unique=True))
    k = draw(st.integers(len(types) + 1, 5 if filtered else 4))
    districts = draw(st.permutations(types + [draw(st.sampled_from(types))
                                              for _ in range(k - len(types))]))
    outside = k - max(map(districts.count, types))
    assume(outside > 1)
    v = draw(st.fractions(min_value=1, max_value=200, max_denominator=4))
    eps = draw(st.fractions(min_value=Fraction(1, 4), max_value=v, max_denominator=4))
    delta = draw(st.fractions(min_value=Fraction(1, 4), max_value=2 * v, max_denominator=4))
    s = make_scenario(districts, v, eps, delta, draw(st.integers(1, outside - 1)),
                      menu=draw(st.sampled_from(MENUS)))
    assume(equilibrium.filter_premise(mechanism._tables_for(s), k) is None)
    return s, filtered


def test_last_group_bound_keeps_the_equilibria(monkeypatch):
    # tau is at most a head part's q-th key, so the scan drops the last
    # group's options hot above that key before it builds the part's
    # blocks. Where every head part is cut, the scan still lists the
    # equilibria of the per-representative scan and of the full scan, and
    # in at least a fifth of the examples the bound drops an option. In the
    # fixed example the last group's (1, 2) districts have an option with a
    # decoy on slot one, a hot move, keyed 2 as the head's q-th key is: tied
    # at tau, not above it, so it is kept, and all four districts tied at 2
    # is an equilibrium.
    examples, dropped, kept_of = [], [], equilibrium._kept

    def counted_kept(options, bound):
        kept = kept_of(options, bound)
        if len(kept[0]) < len(options):
            dropped.append(len(examples))
        return kept

    monkeypatch.setattr(equilibrium, "_kept", counted_kept)
    tied = make_scenario([(1, 2), (1, 1)] * 2, 100, 1, Fraction(15, 4), 1)

    @given(cut_scenarios())
    @example((tied, True))
    @settings(max_examples=60, deadline=None)
    def agrees(sf):
        s, filtered = sf
        examples.append(s)
        got = tuple(e.as_counts() for e in enumerate_equilibria(s, filter_dominated=filtered).equilibria)
        assert got == orbit_scan_reference(s, filtered) == full_scan(s, filtered)
        if s is tied:
            assert ((1, 0, 0, 1, 1, 0), (1, 0, 0, 1, 0, 0)) * 2 in got

    agrees()
    assert 5 * len(set(dropped)) >= len(examples)


@st.composite
def premise_scenarios(draw, ks=(2, 3), kinds=((1, 1), (1, 2), (2, 0), (2, 1), (2, 2))):
    """2 or 3 districts (ks) of 1 or 2 real and 0 to 2 decoy ballots (kinds),
    any q, one of the three menus, and rational V, eps and delta, delta up
    to 2V."""
    k = draw(st.integers(*ks))
    districts = draw(st.lists(st.sampled_from(kinds), min_size=k, max_size=k))
    v = draw(st.fractions(min_value=1, max_value=200, max_denominator=4))
    eps = draw(st.fractions(min_value=Fraction(1, 4), max_value=v, max_denominator=4))
    delta = draw(st.fractions(min_value=Fraction(1, 4), max_value=2 * v, max_denominator=4))
    menu = draw(st.sampled_from(MENUS))
    return make_scenario(districts, v, eps, delta, draw(st.integers(1, k)), menu=menu)


def dropped_action_pays_more(s):
    """Whether some unfiltered profile of s has a voter on a kept action whose
    move to a dropped one pays strictly more, by the oracle's draw
    enumeration. A payoff reads only the districts' slot-one counts, so of
    each district's rows one is taken per (slot-one count, kept classes
    occupied): the profiles left differ in nothing a payoff reads."""
    def splits(n):
        return [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]

    kept = [(voter_type, action) for voter_type in KEPT for action in KEPT[voter_type]]
    options = []
    for d in s.districts:
        rows = {}
        for row in (rc + dc for rc in splits(d.real_count) for dc in splits(d.decoy_count)):
            rows.setdefault((row[0] + row[3], tuple(row[CLASS_SLOTS[c]] > 0 for c in kept)), row)
        options.append(list(rows.values()))
    paid = {}

    def pay(counts, k, voter_type, action):
        key = (tuple(c[0] + c[3] for c in counts), k, voter_type, action)
        if key not in paid:
            paid[key] = oracle_expected_payoff(s, counts, k, voter_type, action)
        return paid[key]

    for counts in product(*options):
        for k, row in enumerate(counts):
            for voter_type, action in kept:
                idx = CLASS_SLOTS[voter_type, action]
                if not row[idx]:
                    continue
                stay = pay(counts, k, voter_type, action)
                for alt in (S1, S2, ABSTAIN):
                    if alt in KEPT[voter_type]:
                        continue
                    moved = list(row)
                    moved[idx] -= 1
                    moved[CLASS_SLOTS[voter_type, alt]] += 1
                    after = counts[:k] + (tuple(moved),) + counts[k + 1:]
                    if pay(after, k, voter_type, alt) > stay:
                        return True
    return False


def test_filter_premise_never_passes_where_a_dropped_action_pays_more():
    # The premise check is sound: wherever a brute force over the unfiltered
    # profiles finds a voter gaining strictly by a dropped action, the
    # check fails. Across the sample the brute force does find some.
    found = []

    @given(premise_scenarios())
    @example(make_scenario([(1, 1)] * 3, 100, 1, 150, 1, menu=MenuVariant.STRONG6))
    @settings(max_examples=80, deadline=None)
    def sound(s):
        tables = mechanism._pricing_tables(s.menu, s.target_count, s.real_value, s.epsilon,
                                           s.delta)
        gains = dropped_action_pays_more(s)
        found.append(gains)
        assert not gains or equilibrium.filter_premise(tables, s.num_districts) is not None, s

    sound()
    assert any(found)


@pytest.mark.parametrize("claim", ["weak4-unique", "strong6-unique", "strong4-sigma-star"])
def test_no_dropped_action_pays_more_at_the_full_families_pricings(claim):
    # Every pricing of the three full families passes the premise check,
    # and the brute force agrees on k districts of (1, 1) ballots each.
    pricings = {(s.menu, s.num_districts, s.target_count, s.real_value, s.epsilon, s.delta)
                for s in family_for(claim, "full")}
    for menu, k, q, v, eps, delta in pricings:
        s = make_scenario([(1, 1)] * k, v, eps, delta, q, menu=menu)
        assert not dropped_action_pays_more(s)


def test_abstention_is_dominated_at_every_pricing():
    # filter_premise checks only real voters' slot two: in every final
    # status a settled worth is the price or the valuation, whichever is
    # more, so slot one leaves a real voter at least V, what abstaining
    # gives, and slot two leaves a decoy at least 0, what abstaining gives.
    real_s1, real_abstain, decoy_s2, decoy_abstain = (
        6 + CLASS_SLOTS[c] for c in ((REAL, S1), (REAL, ABSTAIN), (DECOY, S2), (DECOY, ABSTAIN)))

    def dominated(tables):
        return all(worth[real_s1] >= worth[real_abstain] and worth[decoy_s2] >= worth[decoy_abstain] == 0
                   for worth in tables.settled.values())

    for claim in ("weak4-unique", "strong6-unique", "strong4-sigma-star"):
        assert all(dominated(mechanism._tables_for(s)) for s in family_for(claim, "full"))

    @given(premise_scenarios())
    @settings(max_examples=200, deadline=None)
    def free(s):
        assert dominated(mechanism._tables_for(s)), s

    free()


@st.composite
def premise_profiles(draw):
    """A premise_scenarios draw and an unfiltered profile of it."""
    s = draw(premise_scenarios())
    counts = []
    for d in s.districts:
        row = ()
        for n in (d.real_count, d.decoy_count):
            a = draw(st.integers(0, n))
            b = draw(st.integers(0, n - a))
            row += (a, b, n - a - b)
        counts.append(row)
    return s, tuple(counts)


def test_hot_moves_gain_above_tau_by_the_oracle():
    # The scan skips a head part that holds an occupied hot move
    # (_PricingTables.hot) above every threshold it allows. So wherever a
    # district lies strictly above tau with a class that has a hot move,
    # the move must pay strictly more by the oracle's draw enumeration,
    # whatever the others play. Across the sample such moves occur.
    met = set()

    @given(premise_profiles())
    @settings(max_examples=150, deadline=None)
    def gains(sp):
        s, counts = sp
        ratios = [Fraction(row[0] + row[3], d.real_count) for row, d in zip(counts, s.districts)]
        _, statuses = oracle_partition(ratios, s.target_count)
        for k, (row, status) in enumerate(zip(counts, statuses)):
            for mv in mechanism._tables_for(s).hot if status == ABOVE else ():
                idx, voter_type, action, alt, _ = mechanism._MOVES[mv]
                if not row[idx]:
                    continue
                moved = list(row)
                moved[idx] -= 1
                moved[CLASS_SLOTS[voter_type, alt]] += 1
                after = counts[:k] + (tuple(moved),) + counts[k + 1:]
                assert oracle_expected_payoff(s, after, k, voter_type, alt) > \
                    oracle_expected_payoff(s, counts, k, voter_type, action), (s, counts, k, mv)
                met.add((voter_type, action, alt))

    gains()
    assert met


@given(st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_scan_equals_full_scan_at_free_pricings(filtered, data):
    # At premise_scenarios' pricings more moves can be hot than at the
    # family floors, and the premise can fail. Filtered, 3 or 4 districts
    # of up to 9 rows each; unfiltered, 3 districts of up to 18.
    if filtered:
        s = data.draw(premise_scenarios((3, 4), ((1, 1), (1, 2), (2, 1), (2, 2))))
        if equilibrium.filter_premise(mechanism._tables_for(s), s.num_districts):
            with pytest.raises(PremiseFails):
                enumerate_equilibria(s)
            return
    else:
        s = data.draw(premise_scenarios((3, 3), ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1))))
    report = enumerate_equilibria(s, filter_dominated=filtered)
    assert tuple(e.as_counts() for e in report.equilibria) == full_scan(s, filtered)


# Counts rows of (2, 2) districts whose slot-one ratio is 0, 1 or 2.
MC_ROWS = {BELOW: (0, 2, 0, 0, 2, 0), TIED: (2, 0, 0, 0, 2, 0), ABOVE: (2, 0, 0, 2, 0, 0)}


@given(
    statuses=st.lists(st.sampled_from((BELOW, TIED, ABOVE)), min_size=1, max_size=7)
    .filter(lambda xs: TIED in xs),
    edge=st.sampled_from(("zero", "one", "t-1", "t")),
    seed=st.sampled_from((0, 2**32 - 1, 2**32 + 5, MAX_SEED)) | st.integers(0, MAX_SEED),
    lo=st.integers(0, 40),
    runs=st.integers(0, 25),
)
@settings(max_examples=60, deadline=None)
def test_mc_tally_replays_execute_and_the_fair_draw(statuses, edge, seed, lo, runs):
    # The Monte Carlo tally over runs lo..hi-1 must count what full runs of
    # the mechanism select with run i seeded by seed XOR i, and what the
    # randrange-based replay of the fair draw selects.
    below = [k for k, st_ in enumerate(statuses) if st_ == BELOW]
    tied = [k for k, st_ in enumerate(statuses) if st_ == TIED]
    t = len(tied)
    need = {"zero": 0, "one": 1, "t-1": max(t - 1, 0), "t": t}[edge]
    q, hi = len(below) + need, lo + runs
    replayed = [0] * len(statuses)
    for i in range(lo, hi):
        for k in below + replay_fair_draw(seed ^ i, tied, need):
            replayed[k] += 1
    if need == 0:
        # classify never leaves q = c; the tally must still draw nothing.
        cl = Classification(ratios=(Fraction(1),) * len(statuses), threshold=Fraction(1),
                            below=frozenset(below), tied=frozenset(tied),
                            above=frozenset(k for k, st_ in enumerate(statuses)
                                            if st_ == ABOVE))
        assert _mc_batch(cl, q, seed, lo, hi) == replayed
        return
    s = make_scenario([(2, 2)] * len(statuses), 100, 1, 50, q)
    p = CountProfile.from_counts(MC_ROWS[st_] for st_ in statuses)
    cl = classify(s, p)
    assert (sorted(cl.below), sorted(cl.tied)) == (below, tied)
    executed = [0] * len(statuses)
    for i in range(lo, hi):
        for k in execute(s, p, random.Random(seed ^ i)).selected:
            executed[k] += 1
    assert _mc_batch(cl, q, seed, lo, hi) == executed == replayed
