"""Exact expected payoffs, best responses, and pure-equilibrium enumeration.

Payoffs are computed analytically over the fair randomization: a voter's
expected payoff depends only on his own action, his district's interim
status, and the draw odds (q - c) / t, never on sampling. All comparisons
are exact rationals, so equilibrium checks cannot be corrupted by float
ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product
from math import lcm, prod
from typing import Iterator, Optional

from .mechanism import (
    ABSTAIN,
    ACTIONS,
    BELOW,
    DECOY,
    REAL,
    S1,
    S2,
    TIED,
    CountProfile,
    budget_bound,
    interim_partition,
    price_table,
    settle,
    status_odds,
    valuation,
    voter_payoff,
)
from .model import MenuVariant, ProfileError, ScanCapExceeded, Scenario

DEFAULT_SCAN_CAP = 5_000_000


@dataclass(frozen=True)
class VoterClass:
    """Representative-agent handle: one voter of (district, type) playing action."""

    district: int
    voter_type: str
    action: str


@dataclass(frozen=True)
class EquilibriumReport:
    """Result of an exhaustive pure-equilibrium scan."""

    equilibria: tuple
    sigma_star_present: bool
    sigma_star_unique: bool
    dominance_filtered: bool
    profiles_scanned: int
    candidates_checked: int


class _PricingTables:
    """The exact tables of one pricing (menu, q, V, eps, delta), which every
    scenario with that pricing shares: expected payoffs by (status, c, t,
    type, action), deviation verdicts by (interim key before, interim key
    after, type, action, alternative), and per-voter expected spends by
    (status, c, t), where an interim key is (status, c, t). None of them
    depends on the districts. _Ctx fills and reads them.
    """

    def __init__(self, menu: MenuVariant, q: int, v: Fraction, epsilon: Fraction,
                 delta: Fraction):
        self.q, self.v = q, v
        self.prices = price_table(menu, v, epsilon, delta)
        self.payoffs: dict[tuple, Fraction] = {}
        self.verdicts: dict[tuple, bool] = {}
        self.spends: dict[tuple, tuple[Fraction, ...]] = {}


@lru_cache(maxsize=32)
def _pricing_tables(menu: MenuVariant, q: int, v: Fraction, epsilon: Fraction,
                    delta: Fraction) -> _PricingTables:
    return _PricingTables(menu, q, v, epsilon, delta)


class _Ctx:
    """Caches for the enumeration hot path.

    Per scenario: the interim dict, keyed by the slot-one applicant vector m
    and holding (status per district, c, t). Per pricing: the payoff,
    verdict and spend dicts of the scenario's _PricingTables, keyed by
    interim keys (status, c, t), so every scenario with the same menu, q,
    V, eps and delta reuses them. Every verdict comes from an exact
    Fraction comparison; the tables only remember results.

    The interim partition compares exact integer slot-one keys instead of
    ratios: with L the lcm of the real counts, district k's ratio m / real_k
    is keyed m * (L / real_k), which orders and equates like the ratio.
    """

    def __init__(self, s: Scenario):
        self.n_real = tuple(d.real_count for d in s.districts)
        self.n_decoy = tuple(d.decoy_count for d in s.districts)
        tables = _pricing_tables(s.menu, s.target_count, s.real_value, s.epsilon, s.delta)
        self.q, self.v, self.prices = tables.q, tables.v, tables.prices
        self._payoff, self._verdict, self._spend = tables.payoffs, tables.verdicts, tables.spends
        scale = lcm(*self.n_real)
        self._slot1_keys = tuple(range(0, (n + d) * (scale // n) + 1, scale // n)
                                 for n, d in zip(self.n_real, self.n_decoy))
        self._interim: dict[tuple[int, ...], tuple[tuple[str, ...], int, int]] = {}

    def interim(self, m: tuple[int, ...]) -> tuple[tuple[str, ...], int, int]:
        """(status per district, c, t) for slot-one applicant counts m."""
        got = self._interim.get(m)
        if got is None:
            _, statuses = interim_partition(self._slot1_keys_of(m), self.q)
            got = (statuses, statuses.count(BELOW), statuses.count(TIED))
            self._interim[m] = got
        return got

    def _slot1_keys_of(self, m: tuple[int, ...]) -> list[int]:
        """The integer key of each district's slot-one ratio m_k / real_k."""
        if len(m) == len(self._slot1_keys) and min(m, default=0) >= 0:
            try:
                return [keys[mk] for mk, keys in zip(m, self._slot1_keys)]
            except IndexError:
                pass
        raise ProfileError(f"slot-one counts {m} are outside 0..real+decoy "
                           f"for districts {tuple(zip(self.n_real, self.n_decoy))}")

    def payoff(self, status: str, c: int, t: int, voter_type: str, action: str) -> Fraction:
        """Expected payoff of one voter given his district's interim status."""
        key = (status, c, t, voter_type, action)
        got = self._payoff.get(key)
        if got is None:
            if action == ABSTAIN:
                got = valuation(voter_type, self.v)
            else:
                got = sum(prob * voter_payoff(voter_type, self.prices[(action, final)], self.v)
                          for final, prob in status_odds(status, c, t, self.q))
            self._payoff[key] = got
        return got

    def gains(self, here: tuple[str, int, int], there: tuple[str, int, int],
              voter_type: str, action: str, alt: str) -> bool:
        """Whether a voter playing action at interim key here strictly gains by
        playing alt, which leaves his district at interim key there."""
        key = (here, there, voter_type, action, alt)
        got = self._verdict.get(key)
        if got is None:
            got = self.payoff(*there, voter_type, alt) > self.payoff(*here, voter_type, action)
            self._verdict[key] = got
        return got

    def spend(self, status: str, c: int, t: int) -> tuple[Fraction, ...]:
        """Expected payment to one voter of each (type, action) class, in the
        order of a counts tuple; abstainers receive no offer."""
        key = (status, c, t)
        got = self._spend.get(key)
        if got is None:
            odds = status_odds(status, c, t, self.q)
            got = tuple(
                Fraction(0) if action == ABSTAIN else
                sum(prob * settle(voter_type, self.prices[(action, final)], 1, self.v).paid
                    for final, prob in odds)
                for voter_type, action in _CLASS_SLOTS)
            self._spend[key] = got
        return got


@lru_cache(maxsize=32)
def _ctx_for(s: Scenario) -> _Ctx:
    return _Ctx(s)


def _slot1_vector(counts) -> tuple[int, ...]:
    return tuple(c[0] + c[3] for c in counts)


_CLASS_SLOTS = {  # index of each (type, action) inside a counts tuple, in that order
    (REAL, S1): 0, (REAL, S2): 1, (REAL, ABSTAIN): 2,
    (DECOY, S1): 3, (DECOY, S2): 4, (DECOY, ABSTAIN): 5,
}


def _payoff_in(ctx: _Ctx, m: tuple[int, ...], k: int, voter_type: str, action: str) -> Fraction:
    statuses, c, t = ctx.interim(m)
    return ctx.payoff(statuses[k], c, t, voter_type, action)


def expected_payoff(s: Scenario, p: CountProfile, who: VoterClass) -> Fraction:
    """Exact expected payoff of one voter of who's class under profile p.

    The class may be empty: the value is what such a voter would get, which
    is what deviation checks evaluate after moving a voter in.
    """
    p.check_against(s)
    ctx = _ctx_for(s)
    m = _slot1_vector(p.as_counts())
    return _payoff_in(ctx, m, who.district, who.voter_type, who.action)


def deviation_payoff(s: Scenario, p: CountProfile, who: VoterClass, new_action: str) -> Fraction:
    """Payoff of one who-class voter after he alone switches to new_action.

    The whole profile is reclassified from scratch: a single move can push
    the district across the below/tied/above boundary.
    """
    p.check_against(s)
    counts = p.as_counts()
    idx = _CLASS_SLOTS[(who.voter_type, who.action)]
    if counts[who.district][idx] == 0:
        raise ProfileError(
            f"district {who.district} has no {who.voter_type} voter playing {who.action}"
        )
    ctx = _ctx_for(s)
    m = list(_slot1_vector(counts))
    m[who.district] += (new_action == S1) - (who.action == S1)
    return _payoff_in(ctx, tuple(m), who.district, who.voter_type, new_action)


# Every unilateral move of an occupied class: (index in a counts tuple,
# type, action, alternative, change in the district's slot-one count).
_MOVES = tuple((idx, voter_type, action, alt, (alt == S1) - (action == S1))
               for (voter_type, action), idx in _CLASS_SLOTS.items()
               for alt in ACTIONS if alt != action)
# The filtered game keeps only undominated actions: nobody abstains and real
# voters sit on slot one, so only decoys move, between the two slots.
_FILTERED_MOVES = tuple(mv for mv in _MOVES
                        if mv[1] == DECOY and ABSTAIN not in (mv[2], mv[3]))


def _is_nash_counts(ctx: _Ctx, counts, filtered: bool) -> bool:
    if filtered:
        # Profiles off the dominance screen are not part of the filtered
        # game and cannot be equilibria of it.
        for cnt in counts:
            if cnt[1] or cnt[2] or cnt[5]:
                return False
    moves = _FILTERED_MOVES if filtered else _MOVES
    m = _slot1_vector(counts)
    statuses, c, t = ctx.interim(m)
    for k, cnt in enumerate(counts):
        here = (statuses[k], c, t)
        for idx, voter_type, action, alt, dm in moves:
            if not cnt[idx]:
                continue
            if dm:
                st2, c2, t2 = ctx.interim(m[:k] + (m[k] + dm,) + m[k + 1:])
                there = (st2[k], c2, t2)
            else:
                there = here
            if ctx.gains(here, there, voter_type, action, alt):
                return False
    return True


def is_nash(s: Scenario, p: CountProfile, filter_dominated: bool = True) -> bool:
    """True iff no occupied class has a strictly profitable unilateral move.

    With filter_dominated the game is the dominance-reduced one: abstention
    is out for everyone, real voters are pinned to slot one, and profiles
    outside that space are not equilibria of it. Without it, every voter may
    move across both slots and abstention.
    """
    p.check_against(s)
    return _is_nash_counts(_ctx_for(s), p.as_counts(), filter_dominated)


def _compositions3(n: int) -> list[tuple[int, int, int]]:
    return [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]


def _distinct_permutations(items: tuple) -> Iterator[tuple]:
    """Every distinct ordering of the ascending tuple items, once each, in
    lexicographic order (the next-permutation step)."""
    a = list(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _orbit_scan(ctx: _Ctx, options: list[list[tuple]], filtered: bool) -> tuple[list, int]:
    """The equilibria among product(*options), in product order, and the
    number of Nash checks run.

    Districts with the same (real, decoy) counts have the same options and
    commute: permuting their choices permutes the statuses and keeps the
    verdict. So one representative per multiset of their choices is
    checked, and only equilibria are expanded to every distinct arrangement.
    Each options list is ascending, so product order is the sorted order of
    the count tuples.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for k, key in enumerate(zip(ctx.n_real, ctx.n_decoy)):
        groups.setdefault(key, []).append(k)
    order = [k for ks in groups.values() for k in ks]
    place = sorted(range(len(order)), key=order.__getitem__)  # district -> flat position
    orbits = [list(combinations_with_replacement(options[ks[0]], len(ks)))
              for ks in groups.values()]
    found = []
    for rep in product(*orbits):
        flat = tuple(chain.from_iterable(rep))
        if _is_nash_counts(ctx, tuple(flat[i] for i in place), filtered):
            for arrangement in product(*map(_distinct_permutations, rep)):
                flat = tuple(chain.from_iterable(arrangement))
                found.append(tuple(flat[i] for i in place))
    found.sort()
    return found, prod(map(len, orbits))


def enumerate_equilibria(
    s: Scenario,
    filter_dominated: bool = True,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> EquilibriumReport:
    """Exhaustively scan symmetry-reduced profiles and collect the equilibria.

    Filtered scan space: both slots per voter, per district (real+1)*(decoy+1)
    count profiles. Profiles with any real voter on slot two fail the
    dominance screen regardless of decoy placement, so they are rejected
    wholesale and only the decoy splits, (decoy+1) candidates per district,
    are candidates. The scan cap bounds the candidates; profiles_scanned
    reports the full space. Unfiltered scan space: all three-action count
    splits per type, every one a candidate. Either way one candidate per
    orbit of identical districts runs the deviation checks, and
    candidates_checked counts those.
    """
    ctx = _ctx_for(s)
    if filter_dominated:
        space = candidates = 1
        for r, d in zip(ctx.n_real, ctx.n_decoy):
            space *= (r + 1) * (d + 1)
            candidates *= d + 1
        options = [
            [(r, 0, 0, d1, d - d1, 0) for d1 in range(d + 1)]
            for r, d in zip(ctx.n_real, ctx.n_decoy)
        ]
    else:
        space = candidates = prod(len(_compositions3(r)) * len(_compositions3(d))
                                  for r, d in zip(ctx.n_real, ctx.n_decoy))
        options = [
            [rc + dc for rc in _compositions3(r) for dc in _compositions3(d)]
            for r, d in zip(ctx.n_real, ctx.n_decoy)
        ]
    if candidates > scan_cap:
        raise ScanCapExceeded(candidates, scan_cap)
    found, checked = _orbit_scan(ctx, options, filter_dominated)
    present = CountProfile.sigma_star(s).as_counts() in found
    return EquilibriumReport(
        equilibria=tuple(CountProfile.from_counts(counts) for counts in found),
        sigma_star_present=present,
        sigma_star_unique=present and len(found) == 1,
        dominance_filtered=filter_dominated,
        profiles_scanned=space,
        candidates_checked=checked,
    )


def expected_expenditure(s: Scenario, p: CountProfile) -> Fraction:
    """Expected total payment under p, exact over the fair draw.

    A voter's payment depends only on his class and his district's final
    status, so the total is each class's count times its per-voter expected
    spend over the status odds; no draw is enumerated.
    """
    p.check_against(s)
    return _expected_spend(_ctx_for(s), p.as_counts())


def _expected_spend(ctx: _Ctx, counts) -> Fraction:
    statuses, c, t = ctx.interim(_slot1_vector(counts))
    total = Fraction(0)
    for cnt, status in zip(counts, statuses):
        for n, per_voter in zip(cnt, ctx.spend(status, c, t)):
            if n:
                total += n * per_voter
    return total


def single_deviation_profile(
    s: Scenario, district: int, voter_type: str, new_action: str
) -> CountProfile:
    """Sigma-star with one voter of (district, voter_type) moved to new_action."""
    base = [list(ac.as_tuple()) for ac in CountProfile.sigma_star(s).per_district]
    from_action = S1 if voter_type == REAL else S2
    src = _CLASS_SLOTS[(voter_type, from_action)]
    dst = _CLASS_SLOTS[(voter_type, new_action)]
    if base[district][src] == 0:
        raise ProfileError(f"district {district} has no {voter_type} voter to move")
    base[district][src] -= 1
    base[district][dst] += 1
    return CountProfile.from_counts(tuple(tuple(row) for row in base))


@dataclass(frozen=True)
class SabotageReport:
    """Worst-case cost of a lone decoy defecting to slot one, against the bound."""

    per_district: dict[int, Fraction]
    worst: Optional[Fraction]
    bound: Fraction
    holds: bool


def verify_sabotage_bound(s: Scenario) -> SabotageReport:
    """Check that one decoy defecting to slot one cannot push spending past the bound.

    Every district with a decoy is tried as the defector's home; expected
    expenditure is exact over the draw. holds is True iff all of them stay
    within the four-price expenditure bound.
    """
    bound = budget_bound(s)
    per = _lone_deviation_spends(s, DECOY, S1)
    worst = max(per.values()) if per else None
    holds = all(v <= bound for v in per.values())
    return SabotageReport(per_district=per, worst=worst, bound=bound, holds=holds)


def real_deviation_expenditures(s: Scenario) -> dict[int, Fraction]:
    """Expected spending after a lone real voter leaves slot one (informational only;
    the sabotage bound makes no claim about real-voter deviations)."""
    return _lone_deviation_spends(s, REAL, S2)


def _lone_deviation_spends(s: Scenario, voter_type: str, new_action: str) -> dict[int, Fraction]:
    """Expected spend, per district k with a voter_type voter, after one of them
    leaves sigma-star for new_action."""
    ctx = _ctx_for(s)
    sizes = ctx.n_real if voter_type == REAL else ctx.n_decoy
    spends = {}
    for k, n in enumerate(sizes):
        if n:
            moved = single_deviation_profile(s, k, voter_type, new_action)
            spends[k] = _expected_spend(ctx, moved.as_counts())
    return spends


def tie_payoff_gap_holds(s: Scenario) -> bool:
    """Per-instance check of the uniqueness margin for the four-price menu.

    For every count c of outright-selected districts up to q - 1, the best
    tie-set gamble (q-c)/(k-c) * V + eps must fall strictly below delta
    whenever delta is at least (q/k) * V + 2*eps. Exact arithmetic.
    """
    k, q = s.num_districts, s.target_count
    v, eps, delta = s.real_value, s.epsilon, s.delta
    if delta < Fraction(q, k) * v + 2 * eps:
        return False
    for c in range(q):
        gamble = Fraction(q - c, k - c) * v + eps
        if not (gamble <= Fraction(q, k) * v + eps < delta):
            return False
    return True
