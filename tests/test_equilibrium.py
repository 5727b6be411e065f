import gc
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest

from conftest import KEPT, full_scan, orbit_scan_reference, scenario_for, sym
from devilsmenu import (
    MenuVariant,
    PremiseFails,
    ProfileError,
    ScanCapExceeded,
    budget_bound,
    classify,
    deviation_payoff,
    enumerate_equilibria,
    expected_expenditure,
    expected_payoff,
    is_nash,
    make_scenario,
    tie_payoff_gap_holds,
    verify_sabotage_bound,
)
from devilsmenu import equilibrium
from devilsmenu.claims import check_instance, family_for, run_claim
from devilsmenu.equilibrium import (
    VoterClass,
    _FILTERED_MOVES,
    _distinct_permutations,
    filter_premise,
    real_deviation_expenditures,
    single_deviation_profile,
)
from devilsmenu.mechanism import (
    _MOVES, DECOY, REAL, S1, S2, ABSTAIN, CLASS_SLOTS, CountProfile, Threshold, _PricingTables,
    _pricing_tables, price_table, settle, status_odds, voter_payoff,
)
from oracles import oracle_expected_expenditure, oracle_expected_payoff, per_citizen_equilibria

V = Fraction(100)
EPS = Fraction(1)


def all_decoys_gambling(s) -> CountProfile:
    return CountProfile.from_counts(tuple(
        (d.real_count, 0, 0, d.decoy_count, 0, 0) for d in s.districts
    ))


# ------------------------------------------------------------------ payoffs


def test_decoy_tie_slot1_payoff_matches_published_cell():
    # c=0, t=3, q=1: (1/3)*101 + (2/3)*1 = 103/3.
    s = sym(3, 2, 2, 1, delta=Fraction(36))
    p = all_decoys_gambling(s)  # every district tied at ratio 2
    got = expected_payoff(s, p, VoterClass(0, DECOY, S1))
    assert got == Fraction(103, 3)


def test_real_slot2_payoff_is_valuation():
    s = sym(3, 2, 2, 1, delta=Fraction(36))
    p = CountProfile.from_counts((
        (1, 1, 0, 0, 2, 0),
        (2, 0, 0, 0, 2, 0),
        (2, 0, 0, 0, 2, 0),
    ))
    for k in range(3):
        assert expected_payoff(s, p, VoterClass(k, REAL, S2)) == V


def test_decoy_above_slot2_payoff_is_two_epsilon():
    s = sym(3, 2, 2, 1, delta=Fraction(36))
    p = CountProfile.from_counts((
        (2, 0, 0, 1, 1, 0),  # ratio 3/2: above the threshold
        (2, 0, 0, 0, 2, 0),
        (2, 0, 0, 0, 2, 0),
    ))
    assert expected_payoff(s, p, VoterClass(0, DECOY, S2)) == 2 * EPS


def test_sigma_star_decoy_payoff():
    s = sym(3, 2, 2, 1, delta=Fraction(36))
    p = CountProfile.sigma_star(s)
    got = expected_payoff(s, p, VoterClass(0, DECOY, S2))
    assert got == Fraction(1, 3) * 36 + Fraction(2, 3) * 2


def test_abstain_payoffs():
    s = sym(2, 2, 2, 1, delta=Fraction(36))
    p = CountProfile.from_counts((
        (2, 0, 0, 1, 0, 1),
        (2, 0, 0, 0, 2, 0),
    ))
    assert expected_payoff(s, p, VoterClass(0, DECOY, ABSTAIN)) == 0
    assert expected_payoff(s, p, VoterClass(0, REAL, ABSTAIN)) == V


@pytest.mark.parametrize("menu", [MenuVariant.WEAK4, MenuVariant.STRONG4, MenuVariant.STRONG6])
def test_expected_payoff_matches_draw_enumeration_oracle(menu):
    # The library uses draw marginals; the oracle enumerates every draw.
    s = sym(3, 2, 2, 2, menu=menu)
    profiles = [
        CountProfile.sigma_star(s).as_counts(),
        ((2, 0, 0, 1, 1, 0), (2, 0, 0, 0, 2, 0), (2, 0, 0, 1, 1, 0)),
        ((1, 1, 0, 2, 0, 0), (2, 0, 0, 0, 2, 0), (2, 0, 0, 0, 1, 1)),
        ((2, 0, 0, 2, 0, 0), (2, 0, 0, 2, 0, 0), (2, 0, 0, 2, 0, 0)),
    ]
    for counts in profiles:
        p = CountProfile.from_counts(counts)
        for k in range(3):
            for vtype in (REAL, DECOY):
                for action in (S1, S2, ABSTAIN):
                    got = expected_payoff(s, p, VoterClass(k, vtype, action))
                    want = oracle_expected_payoff(s, counts, k, vtype, action)
                    assert got == want, (counts, k, vtype, action)


# ---------------------------------------------------------------- deviations


def test_deviation_sigma_star_decoy_to_slot1_gets_epsilon():
    s = sym(3, 2, 2, 1)
    p = CountProfile.sigma_star(s)
    got = deviation_payoff(s, p, VoterClass(0, DECOY, S2), S1)
    assert got == EPS  # the district lands above the threshold


def test_deviation_gambling_decoy_rescues_district():
    for menu, expected in ((MenuVariant.WEAK4, None), (MenuVariant.STRONG6, V - EPS)):
        s = sym(3, 2, 2, 1, menu=menu)
        expected = s.delta if expected is None else expected
        p = all_decoys_gambling(s)
        got = deviation_payoff(s, p, VoterClass(0, DECOY, S1), S2)
        assert got == expected


def test_deviation_real_to_slot2_keeps_valuation():
    s = sym(3, 2, 2, 1)
    p = CountProfile.sigma_star(s)
    assert deviation_payoff(s, p, VoterClass(0, REAL, S1), S2) == V


def test_deviation_requires_occupied_class():
    s = sym(3, 2, 2, 1)
    p = CountProfile.sigma_star(s)
    with pytest.raises(ProfileError):
        deviation_payoff(s, p, VoterClass(0, DECOY, S1), S2)


def test_payoffs_refuse_a_class_outside_the_scenario():
    # District -1 used to answer for the last district (a real voter on
    # slot one got its 201/2), district 2 raised IndexError and an unknown
    # type or action KeyError.
    s = scenario_for([(1, 1), (2, 2)], 1, delta=52)
    p = CountProfile.sigma_star(s)
    for who in (VoterClass(-1, REAL, S1), VoterClass(2, REAL, S1), VoterClass(-1, DECOY, S2),
                VoterClass(0, "ghost", S1), VoterClass(0, REAL, "s3")):
        with pytest.raises(ProfileError):
            expected_payoff(s, p, who)
        with pytest.raises(ProfileError):
            deviation_payoff(s, p, who, S2 if who.action == S1 else S1)
    with pytest.raises(ProfileError, match="'s3'"):
        deviation_payoff(s, p, VoterClass(0, REAL, S1), "s3")


# -------------------------------------------------------------------- nash


def test_sigma_star_is_nash_at_minimum_tie_price():
    s = sym(3, 2, 2, 1)  # delta = 106/3
    assert is_nash(s, CountProfile.sigma_star(s))


def test_single_gambler_is_not_nash():
    s = sym(3, 2, 2, 1)
    p = single_deviation_profile(s, 0, DECOY, S1)
    assert not is_nash(s, p)


def test_sigma_star_is_nash_for_pinned_strong_menu():
    s = sym(3, 2, 2, 1, menu=MenuVariant.STRONG4)
    assert is_nash(s, CountProfile.sigma_star(s))


def test_filtered_game_excludes_profiles_off_the_dominance_screen():
    s = sym(2, 1, 1, 1)
    everyone_slot2 = CountProfile.from_counts(((0, 1, 0, 0, 1, 0),) * 2)
    # No strict improvement exists, but real voters off slot one are not
    # part of the dominance-reduced game.
    assert not is_nash(s, everyone_slot2, filter_dominated=True)
    assert is_nash(s, everyone_slot2, filter_dominated=False)


def test_nash_matches_deviation_payoffs_definitionally():
    s = sym(3, 2, 2, 2)
    for counts in [
        CountProfile.sigma_star(s).as_counts(),
        ((2, 0, 0, 1, 1, 0), (2, 0, 0, 0, 2, 0), (2, 0, 0, 0, 2, 0)),
        ((2, 0, 0, 2, 0, 0), (2, 0, 0, 2, 0, 0), (2, 0, 0, 2, 0, 0)),
    ]:
        p = CountProfile.from_counts(counts)
        verdict = True
        for k, cnt in enumerate(counts):
            for vtype, base in ((REAL, 0), (DECOY, 3)):
                for idx, action in enumerate((S1, S2, ABSTAIN)):
                    if cnt[base + idx] == 0:
                        continue
                    if vtype == REAL:
                        continue  # pinned to slot one in the filtered game
                    cur = expected_payoff(s, p, VoterClass(k, vtype, action))
                    for alt in (S1, S2):
                        if alt == action:
                            continue
                        if deviation_payoff(s, p, VoterClass(k, vtype, action), alt) > cur:
                            verdict = False
        has_abstain = any(cnt[2] or cnt[5] for cnt in counts)
        off_screen = any(cnt[1] for cnt in counts) or has_abstain
        assert is_nash(s, p) == (verdict and not off_screen)


# -------------------------------------------------------------- enumeration


def test_enumerate_weak4_unique_sigma_star():
    s = sym(3, 2, 2, 1)  # delta at the minimum 106/3
    report = enumerate_equilibria(s)
    assert report.profiles_scanned == 3**3 * 3**3 == 729
    assert report.sigma_star_unique
    assert report.equilibria[0].as_counts() == CountProfile.sigma_star(s).as_counts()


def test_enumerate_strong6_unique_sigma_star():
    s = sym(3, 2, 2, 1, menu=MenuVariant.STRONG6)  # delta = 3*eps
    report = enumerate_equilibria(s)
    assert report.sigma_star_unique


def test_enumerate_strong4_records_extras_without_asserting():
    s = sym(3, 2, 2, 1, menu=MenuVariant.STRONG4)
    report = enumerate_equilibria(s)
    assert report.sigma_star_present
    # The pinned menu may keep gambling equilibria alive; record only.
    extras = [e for e in report.equilibria
              if e.as_counts() != CountProfile.sigma_star(s).as_counts()]
    assert report.sigma_star_unique == (not extras)


def test_enumerate_scan_cap():
    # The filtered scan checks only decoy splits: 3 per district, 27 in all.
    s = sym(3, 2, 2, 1)
    with pytest.raises(ScanCapExceeded) as err:
        enumerate_equilibria(s, scan_cap=10)
    assert err.value.required == 27
    assert "27 candidates" in str(err.value)


def test_enumerate_scan_cap_refuses_before_building_splits():
    # The cap is checked on counts alone: a district of 10**7 decoys is
    # refused without building its 10**7 + 1 decoy splits, filtered or not.
    s = scenario_for([(2, 10 ** 7)], 1)
    for filtered, required in ((True, 10 ** 7 + 1), (False, 6 * comb(10 ** 7 + 2, 2))):
        tracemalloc.start()
        try:
            with pytest.raises(ScanCapExceeded) as err:
                enumerate_equilibria(s, filter_dominated=filtered, scan_cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.required == required
        assert peak < 1_000_000


def test_enumerate_cap_counts_candidates_not_profiles():
    # 6 x (3,3) spans 4^12 = 16777216 profiles but only 4^6 = 4096 decoy
    # splits are checked, well under the default cap.
    report = enumerate_equilibria(sym(6, 3, 3, 3))
    assert report.sigma_star_unique
    assert report.profiles_scanned == 4 ** 12


def test_enumerate_unfiltered_has_more_equilibria():
    s = sym(2, 1, 1, 1)
    filtered = enumerate_equilibria(s, filter_dominated=True)
    unfiltered = enumerate_equilibria(s, filter_dominated=False)
    assert filtered.sigma_star_unique
    assert unfiltered.sigma_star_present
    assert len(unfiltered.equilibria) > 1  # e.g. everyone on slot two survives
    # per district and type: three ways to place one voter over three actions
    assert unfiltered.profiles_scanned == (3 * 3) ** 2


def test_enumeration_matches_per_citizen_oracle_small():
    s = sym(2, 1, 1, 1)
    for filtered in (True, False):
        mine = {e.as_counts() for e in enumerate_equilibria(s, filter_dominated=filtered).equilibria}
        oracle = per_citizen_equilibria(s, filtered)
        assert mine == oracle


def test_candidates_checked_counts_orbit_representatives():
    # One representative per multiset of decoy splits over identical districts:
    # C(5+3-1, 3) * C(6+2-1, 2) * C(4+2-1, 2) = 35 * 21 * 10 of 72,000 splits.
    wide = scenario_for([(3, 4)] * 3 + [(2, 5)] * 2 + [(4, 3)] * 2, 3)
    report = enumerate_equilibria(wide)
    assert report.candidates_checked == 7350
    assert report.profiles_scanned == (4 * 5) ** 3 * (3 * 6) ** 2 * (5 * 4) ** 2
    assert report.sigma_star_unique
    assert enumerate_equilibria(sym(6, 3, 3, 3)).candidates_checked == 84  # C(9, 6)
    assert enumerate_equilibria(sym(3, 2, 2, 1)).candidates_checked == 10  # C(5, 3)


def test_orbit_scan_on_ten_identical_districts():
    report = enumerate_equilibria(sym(10, 3, 3, 5))
    assert report.sigma_star_unique
    assert report.candidates_checked == 286  # C(13, 10) of 4^10 splits
    assert report.profiles_scanned == 4 ** 20


@pytest.mark.parametrize("claim", ["weak4-unique", "strong6-unique", "strong4-sigma-star"])
def test_orbit_scan_equals_full_scan_on_small_family(claim):
    for s in family_for(claim, "small"):
        got = tuple(e.as_counts() for e in enumerate_equilibria(s).equilibria)
        assert got == full_scan(s, True), s


def test_orbit_scan_expands_every_arrangement_in_order():
    # Unfiltered, identical districts hold equilibria that differ between
    # districts; each orbit must come back as every arrangement, in the
    # full scan's order.
    for s in (scenario_for([(1, 1)] * 3, 1), scenario_for([(1, 2), (1, 1), (1, 2)], 1)):
        report = enumerate_equilibria(s, filter_dominated=False)
        got = tuple(e.as_counts() for e in report.equilibria)
        assert any(c[0] != c[2] for c in got)
        assert got == full_scan(s, False)
        assert report.candidates_checked < report.profiles_scanned


@pytest.mark.parametrize("menu, districts, q, delta, filtered", [
    (MenuVariant.WEAK4, [(1, 1), (1, 0), (1, 1)], 1, Fraction(5, 2), False),
    (MenuVariant.STRONG4, [(1, 1), (1, 0), (1, 1)], 1, Fraction(5, 2), False),
    (MenuVariant.STRONG6, [(1, 1), (1, 0), (1, 1)], 1, Fraction(5, 2), False),
    (MenuVariant.STRONG6, [(2, 1), (1, 1), (2, 1)], 2, Fraction(1, 2), True),
])
def test_expanded_equilibria_match_per_citizen_oracle(menu, districts, q, delta, filtered):
    # Below the tie-price floor the two identical districts, apart in
    # district order, hold equilibria that differ between them, so the scan
    # expands orbits and puts them back in district order.
    s = make_scenario(districts, 100, 1, delta, q, menu=menu)
    got = [e.as_counts() for e in enumerate_equilibria(s, filter_dominated=filtered).equilibria]
    assert any(c[0] != c[2] for c in got)
    assert set(got) == per_citizen_equilibria(s, filtered)


@pytest.mark.parametrize("items", [(), (1,), (1, 1, 1), (0, 1, 1, 2), (0, 0, 1, 1, 3)])
def test_distinct_permutations_lists_each_ordering_once(items):
    assert list(_distinct_permutations(items)) == sorted(set(permutations(items)))


def test_interim_partition_rejects_q_outside_one_to_k():
    # Unchecked, q = 0 reads the largest ratio as the threshold (sigma-star
    # "unique", expected spend 14) and q = k + 1 indexes past the ratios.
    for q in (0, 4):
        s = make_scenario([(2, 2), (2, 2), (1, 3)], 100, 1, 50, q)
        with pytest.raises(ValueError, match="outside 1..3"):
            enumerate_equilibria(s)
        with pytest.raises(ValueError, match="outside 1..3"):
            expected_expenditure(s, CountProfile.sigma_star(s))
        with pytest.raises(ValueError, match="outside 1..3"):
            classify(s, CountProfile.sigma_star(s))


def test_pricing_tables_are_keyed_by_every_pricing_field():
    # One district set under a base pricing and five pricings that each change
    # one field of the shared tables' key: menu, q, V, eps or delta. The checks
    # interleave the pricings, so tables shared across a changed field would
    # hand one pricing another's verdicts, payoffs or spends. The oracles
    # share nothing between scenarios.
    districts = [(1, 1), (1, 1), (1, 2)]
    base = dict(menu=MenuVariant.WEAK4, q=1, v=100, eps=1, delta=36)
    changed = dict(menu=MenuVariant.STRONG6, q=2, v=60, eps=2, delta=5)
    pricings = [base] + [dict(base, **{field: value}) for field, value in changed.items()]
    scenarios = [make_scenario(districts, x["v"], x["eps"], x["delta"], x["q"], menu=x["menu"])
                 for x in pricings]
    for filtered in (True, False):
        for s in scenarios:
            got = {e.as_counts() for e in enumerate_equilibria(s, filter_dominated=filtered).equilibria}
            assert got == per_citizen_equilibria(s, filtered), (s, filtered)
    splits = [[(a, n - a, 0) for a in range(n + 1)] for n in (1, 2)]  # both slots, no abstention
    options = [[rc + dc for rc in splits[0] for dc in splits[d - 1]] for _, d in districts]
    for counts in product(*options):
        p = CountProfile.from_counts(counts)
        for s in scenarios:
            assert expected_expenditure(s, p) == oracle_expected_expenditure(s, counts), (s, counts)
            for k in range(len(districts)):
                for vtype in (REAL, DECOY):
                    for action in (S1, S2, ABSTAIN):
                        got = expected_payoff(s, p, VoterClass(k, vtype, action))
                        assert got == oracle_expected_payoff(s, counts, k, vtype, action), \
                            (s, counts, k, vtype, action)


def test_pricing_tables_fill_each_entry_once(monkeypatch):
    # Rows and verdicts are filled on first lookup and recorded. A scan
    # fills verdicts only, and a second scan of the same scenario fills
    # nothing; expected spends fill rows only, each once. Every recorded
    # verdict is a fresh exact comparison of the two payoffs it names, and
    # every filled row pays each class its expected payment over the draw.
    fills = Counter()
    for name in ("_row", "_verdict"):
        def counted(tables, key, name=name, fill=getattr(_PricingTables, name)):
            fills[name, key] += 1
            return fill(tables, key)
        monkeypatch.setattr(_PricingTables, name, counted)
    s = scenario_for([(1, 2), (2, 1), (2, 2), (1, 1)], 2)
    prices = price_table(s.menu, s.real_value, s.epsilon, s.delta)

    def expected(of, st, c, t, voter_type, action):
        return sum(prob * of(voter_type, prices[(action, final)], s.real_value)
                   for final, prob in status_odds(st, c, t, s.target_count))

    def payoff(st, c, t, voter_type, action):
        if action == ABSTAIN:
            return s.real_value if voter_type == REAL else 0
        return expected(voter_payoff, st, c, t, voter_type, action)

    def paid(st, c, t, voter_type, action):
        if action == ABSTAIN:
            return 0
        return expected(lambda vt, price, v: settle(vt, price, 1, v).paid,
                        st, c, t, voter_type, action)

    _pricing_tables.cache_clear()
    profiles = []
    for filtered in (True, False):
        first = enumerate_equilibria(s, filter_dominated=filtered)
        filled = fills.copy()
        assert enumerate_equilibria(s, filter_dominated=filtered) == first
        assert fills == filled
        profiles += first.equilibria
    assert {name for name, _ in fills} == {"_verdict"}
    profiles += [all_decoys_gambling(s), CountProfile.sigma_star(s)]
    scanned = fills.copy()
    spends = [expected_expenditure(s, p) for p in profiles]
    filled = fills.copy()
    assert [expected_expenditure(s, p) for p in profiles] == spends
    assert fills == filled
    assert {name for name, _ in fills - scanned} == {"_row"}
    assert set(fills.values()) == {1}
    tables = _pricing_tables(s.menu, s.target_count, s.real_value, s.epsilon, s.delta)
    verdicts = tables.verdicts
    assert len(verdicts) == sum(name == "_verdict" for name, _ in fills)
    assert len(tables.rows) == sum(name == "_row" for name, _ in fills) > 1
    for (c, t), (d, paid_rows, worth_rows) in tables.rows.items():
        for st, (row, worth) in enumerate(zip(paid_rows, worth_rows)):
            assert [Fraction(x, d) for x in row] == [paid(st, c, t, *cls) for cls in CLASS_SLOTS]
            assert [Fraction(x, d) for x in worth] == [payoff(st, c, t, *cls) for cls in CLASS_SLOTS]
    for (st, c, t, st2, c2, t2, mv), gains in verdicts.items():
        _, voter_type, action, alt, _ = _MOVES[mv]
        assert gains == (payoff(st2, c2, t2, voter_type, alt) > payoff(st, c, t, voter_type, action))
    _pricing_tables.cache_clear()  # drop tables that hold the counting fills


def test_nash_memo_builds_one_threshold_per_bottom(monkeypatch):
    # One scan builds one Threshold per distinct bottom of its
    # representatives' keys and evaluates one district verdict per
    # distinct (bottom, option) it reaches, high options included; the
    # memo ends with the scan, so a second scan builds them all again.
    # At q = 3 its blocks take 248 Nash checks to cover the 7350
    # representatives. A check is one cut of a profile's keys to their
    # bottom. Of the 350 head parts, 320 hold a district above every
    # threshold they allow with a decoy on slot one, which gains by moving
    # to slot two, so only 30 are cut to find their high options. At q = 4
    # the skip leaves 130 head parts, where the order in which a check
    # judges its districts shows in the verdicts.
    builds, gains, checks = Counter(), Counter(), Counter()
    build, cut, high = Threshold.__init__, Threshold.bottom, equilibrium.bisect_left

    def counted_build(summary, keys, q):
        builds[tuple(keys)] += 1
        build(summary, keys, q)

    def counted_gains(verdicts, summary, x, moves, gains_of=equilibrium._gains):
        gains[tuple(summary.ranked), x, moves] += 1
        return gains_of(verdicts, summary, x, moves)

    def counted_cut(keys, q):
        checks["nash"] += 1
        return cut(keys, q)

    def counted_high(drops, key):
        checks["head"] += 1
        return high(drops, key)

    monkeypatch.setattr(Threshold, "__init__", counted_build)
    monkeypatch.setattr(equilibrium, "bisect_left", counted_high)
    monkeypatch.setattr(equilibrium, "_gains", counted_gains)
    monkeypatch.setattr(Threshold, "bottom", staticmethod(counted_cut))
    for q, nash, heads, thresholds, verdicts in ((3, 248, 30, 170, 222), (4, 1116, 130, 706, 967)):
        wide = scenario_for([(3, 4)] * 3 + [(2, 5)] * 2 + [(4, 3)] * 2, q)
        for _ in range(2):
            builds.clear()
            gains.clear()
            checks.clear()
            report = enumerate_equilibria(wide)
            assert report.candidates_checked == 7350 and report.sigma_star_unique
            assert checks["nash"] == nash < 7350
            assert checks["head"] == heads < 350
            assert len(builds) == sum(builds.values()) == thresholds
            assert len(gains) == sum(gains.values()) == verdicts


@pytest.mark.parametrize("claim", ["weak4-unique", "strong6-unique", "strong4-sigma-star"])
def test_block_scan_equals_orbit_scan_reference_on_full_family(claim):
    for s in family_for(claim, "full"):
        got = tuple(e.as_counts() for e in enumerate_equilibria(s).equilibria)
        assert got == orbit_scan_reference(s, True), s


def test_no_scenario_state_outlives_the_families():
    # Only the per-pricing tables may outlive a call, and they grow with the
    # pricings (six here), not with the 3720 scenarios checked.
    _pricing_tables.cache_clear()
    run_claim("weak4-unique", "small")
    gc.collect()
    before = sys.getallocatedblocks()
    for claim in ("weak4-unique", "sabotage-bound"):
        assert run_claim(claim, "full").all_passed
    gc.collect()
    assert sys.getallocatedblocks() - before < 5_000
    assert _pricing_tables.cache_info().currsize == 6


# ------------------------------------------------------------------ premise

def test_premise_refuses_a_strong6_tie_price_above_v():
    # At delta = 150 > V a real voter tied on slot two sells at delta if
    # drawn, so slot two is not dominated for him; the filtered verdicts
    # (sigma-star unique) would rest on a false premise. Unfiltered, the
    # scenario has two equilibria. At delta = 3 the premise holds.
    s = make_scenario([(1, 1)] * 3, 100, 1, 150, 1, menu=MenuVariant.STRONG6)
    message = ("the dominance filter's premise fails at these prices: "
               "slot two is not dominated for a real voter")
    for refused in (lambda: enumerate_equilibria(s), lambda: check_instance("thm2", s),
                    lambda: run_claim("thm2", scenario=s)):
        with pytest.raises(PremiseFails) as err:
            refused()
        assert str(err.value) == message
    assert len(enumerate_equilibria(s, filter_dominated=False).equilibria) == 2
    moved = CountProfile.from_counts(((1, 0, 0, 0, 1, 0),) + ((0, 1, 0, 0, 1, 0),) * 2)
    assert deviation_payoff(s, moved, VoterClass(0, REAL, S1), S2) == Fraction(350, 3) > V
    assert filter_premise(_pricing_tables(s.menu, 1, V, EPS, Fraction(3)), 3) is None


def test_premise_reads_only_the_statuses_q_and_k_allow():
    # With q = k every district is selected outright, so only that row of
    # the table is ever paid. The strong6 pricing refused at q = 1 passes
    # at q = k = 3, and the filtered scan finds the unfiltered scan's only
    # equilibrium, every voter on slot one, sigma-star absent.
    s = make_scenario([(1, 1)] * 3, 100, 1, 150, 3, menu=MenuVariant.STRONG6)
    filtered, unfiltered = (enumerate_equilibria(s, filter_dominated=f) for f in (True, False))
    every_s1 = CountProfile.from_counts(((1, 0, 0, 1, 0, 0),) * 3)
    assert filtered.equilibria == unfiltered.equilibria == (every_s1,)
    assert not filtered.sigma_star_present
    assert not check_instance("thm2", s).passed  # a verdict, not a refusal
    # weak4 at k = q = 2 pays delta = 209 > V on slot two, but a real voter
    # selected outright gets V + eps = 895/4 on slot one; with a third
    # district he may end not selected on slot one and keep only V.
    tables = _pricing_tables(MenuVariant.WEAK4, 2, Fraction(475, 4), Fraction(209, 2),
                             Fraction(209))
    assert filter_premise(tables, 2) is None
    assert filter_premise(tables, 3) == "slot two is not dominated for a real voter"


@pytest.mark.parametrize("claim", ["weak4-unique", "strong6-unique", "strong4-sigma-star"])
def test_every_full_family_member_passes_the_premise(claim):
    pricings = {(s.num_districts, (s.menu, s.target_count, s.real_value, s.epsilon, s.delta))
                for s in family_for(claim, "full")}
    assert pricings and all(filter_premise(_pricing_tables(*p), k) is None for k, p in pricings)


@pytest.mark.parametrize("claim", ["weak4-unique", "strong6-unique", "strong4-sigma-star"])
def test_hot_moves_at_the_full_families_pricings(claim):
    # Above tau a decoy gets eps on slot one and 0 abstaining; after a move
    # he gets at least 2 eps on slot two and eps on slot one, whatever the
    # draw. Not selected, a real voter keeps V on every action at these
    # prices, so none of his moves pays in every final status.
    hot = {(DECOY, S1, S2), (DECOY, ABSTAIN, S1), (DECOY, ABSTAIN, S2)}
    pricings = {(s.menu, s.target_count, s.real_value, s.epsilon, s.delta)
                for s in family_for(claim, "full")}
    for pricing in pricings:
        assert {_MOVES[mv][1:4] for mv in _pricing_tables(*pricing).hot} == hot, pricing


def test_filtered_moves_are_the_moves_between_kept_actions():
    # The filtered game and its premise are one decision: its deviations
    # are exactly the moves between the actions filter_premise keeps.
    got = {(_MOVES[mv][1], _MOVES[mv][2], _MOVES[mv][3]) for mv, _, _ in _FILTERED_MOVES}
    assert got == {(voter_type, a, b) for voter_type, kept in KEPT.items()
                   for a in kept for b in kept if a != b}


# ----------------------------------------------------------------- sabotage


def test_sabotage_bound_symmetric_example():
    s = sym(3, 2, 2, 1, delta=Fraction(36))
    report = verify_sabotage_bound(s)
    # Oracle: the defector's district lands above; the two tied districts
    # are equally likely. Either way the class sum is
    # (2*101 + 2*36) + (2*2) + (1*2 + 1*1) = 281.
    realization = 2 * 101 + 2 * 36 + 2 * 2 + (2 + 1)
    assert realization == 281
    for k in range(3):
        assert report.per_district[k] == 281
    assert report.worst == 281
    assert report.bound == 282
    assert report.holds


def test_sabotage_expected_expenditure_matches_oracle():
    s = scenario_for([(1, 3), (3, 1), (2, 2)], 2, delta=Fraction(36))
    report = verify_sabotage_bound(s)
    for k in range(3):
        counts = single_deviation_profile(s, k, DECOY, S1).as_counts()
        assert report.per_district[k] == oracle_expected_expenditure(s, counts)
    assert report.holds


def test_lone_deviation_spends_match_oracle_on_small_family():
    # The spends are integer numerators over one denominator per (c, t);
    # the oracle enumerates every draw in Fractions.
    for s in family_for("sabotage-bound", "small"):
        for voter_type, new_action, got in (
                (DECOY, S1, verify_sabotage_bound(s).per_district),
                (REAL, S2, real_deviation_expenditures(s))):
            assert set(got) == set(range(s.num_districts))
            for k, spend in got.items():
                counts = single_deviation_profile(s, k, voter_type, new_action).as_counts()
                assert spend == oracle_expected_expenditure(s, counts), (s, k, voter_type)


def test_sabotage_bound_near_full_target():
    s = sym(3, 2, 2, 2, delta=Fraction(70))  # q = k-1
    assert verify_sabotage_bound(s).holds


def test_sabotage_bound_fails_at_q_equal_k_by_v_plus_eps_less_delta():
    # With q = k every district is selected outright at sigma-star. A decoy
    # defector's district ties alone above the rest and is still selected
    # outright, so the defector is paid V + eps where the bound prices a
    # decoy at delta. This is why the sabotage family keeps q < k.
    s = make_scenario([(2, 0), (1, 2), (3, 1)], V, EPS, 90, 3)
    report = verify_sabotage_bound(s)
    assert report.per_district == {1: 887, 2: 887}
    assert report.bound == 876
    assert report.worst - report.bound == V + EPS - s.delta
    assert not report.holds
    result = check_instance("sabotage-bound", s)
    assert not result.passed and result.detail == "worst_expenditure=887 bound=876"


def test_real_deviation_reported_without_claim():
    s = sym(3, 2, 2, 1, delta=Fraction(36))
    got = real_deviation_expenditures(s)
    assert set(got) == {0, 1, 2}
    counts = single_deviation_profile(s, 0, REAL, S2).as_counts()
    assert got[0] == oracle_expected_expenditure(s, counts)


def test_expected_expenditure_sigma_star_within_bound():
    s = scenario_for([(1, 3), (3, 1), (2, 2)], 1, delta=Fraction(36))
    spend = expected_expenditure(s, CountProfile.sigma_star(s))
    assert spend <= budget_bound(s)
    assert spend == oracle_expected_expenditure(s, CountProfile.sigma_star(s).as_counts())


# ------------------------------------------------------------------- margin


def test_tie_payoff_gap_holds_on_family_members():
    assert tie_payoff_gap_holds(sym(3, 2, 2, 1))
    assert tie_payoff_gap_holds(sym(4, 3, 3, 3))
    low = sym(3, 2, 2, 1, delta=Fraction(34))  # below (q/k)V + 2eps = 106/3
    assert not tie_payoff_gap_holds(low)
