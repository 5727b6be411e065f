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
from math import prod
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
    district_payments,
    interim_partition,
    price_table,
    status_odds,
    valuation,
    voter_payoff,
)
from .model import ProfileError, ScanCapExceeded, Scenario

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


class _Ctx:
    """Per-scenario caches for the enumeration hot path.

    interim classifications are keyed by the slot-one applicant vector, and
    expected payoffs by (own interim status, c, t, type, action); both spaces
    are tiny at desk scale, so repeated deviation checks reduce to dict hits.
    Prices come from the scenario's mechanism.price_table.

    The interim partition compares integer ranks instead of ratios: every
    slot-one ratio m / real_k a district can reach (m in 0..real_k+decoy_k)
    is sorted once, and equal ratios share a rank, so the partition over the
    ranks is exactly the partition over the ratios.
    """

    def __init__(self, s: Scenario):
        self.s = s
        self.q = s.target_count
        self.n_real = tuple(d.real_count for d in s.districts)
        self.n_decoy = tuple(d.decoy_count for d in s.districts)
        self.prices = price_table(s)
        reachable = [[Fraction(m, n) for m in range(n + d + 1)]
                     for n, d in zip(self.n_real, self.n_decoy)]
        rank = {r: i for i, r in enumerate(sorted(set(chain.from_iterable(reachable))))}
        self._ranks = tuple(tuple(rank[r] for r in rs) for rs in reachable)
        self._interim: dict[tuple[int, ...], tuple[tuple[str, ...], int, int]] = {}
        self._payoff: dict[tuple, Fraction] = {}

    def interim(self, m: tuple[int, ...]) -> tuple[tuple[str, ...], int, int]:
        """(status per district, c, t) for slot-one applicant counts m."""
        got = self._interim.get(m)
        if got is None:
            _, statuses = interim_partition(self._rank_keys(m), self.q)
            got = (statuses, statuses.count(BELOW), statuses.count(TIED))
            self._interim[m] = got
        return got

    def _rank_keys(self, m: tuple[int, ...]) -> list[int]:
        """The rank of each district's slot-one ratio m_k / real_k."""
        if len(m) == len(self._ranks) and min(m, default=0) >= 0:
            try:
                return [rk[mk] for mk, rk in zip(m, self._ranks)]
            except IndexError:
                pass
        raise ProfileError(f"slot-one counts {m} are outside 0..real+decoy "
                           f"for districts {tuple(zip(self.n_real, self.n_decoy))}")

    def payoff(self, status: str, c: int, t: int, voter_type: str, action: str) -> Fraction:
        """Expected payoff of one voter given his district's interim status."""
        key = (status, c, t, voter_type, action)
        got = self._payoff.get(key)
        if got is None:
            v = self.s.real_value
            if action == ABSTAIN:
                got = valuation(voter_type, v)
            else:
                got = sum(prob * voter_payoff(voter_type, self.prices[(action, final)], v)
                          for final, prob in status_odds(status, c, t, self.q))
            self._payoff[key] = got
        return got


@lru_cache(maxsize=32)
def _ctx_for(s: Scenario) -> _Ctx:
    return _Ctx(s)


def _slot1_vector(counts) -> tuple[int, ...]:
    return tuple(c[0] + c[3] for c in counts)


_CLASS_SLOTS = {  # index of each (type, action) inside a counts tuple
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


def _is_nash_counts(ctx: _Ctx, counts, filtered: bool) -> bool:
    if filtered:
        # The filtered game keeps only undominated actions: nobody abstains
        # and real voters sit on slot one. Other profiles are not part of the
        # game and cannot be equilibria of it.
        for cnt in counts:
            if cnt[1] or cnt[2] or cnt[5]:
                return False
    m = _slot1_vector(counts)
    statuses, c, t = ctx.interim(m)
    for k, cnt in enumerate(counts):
        status = statuses[k]
        if filtered:
            # Only decoys move, between the two slots.
            if cnt[3]:
                cur = ctx.payoff(status, c, t, DECOY, S1)
                m2 = m[:k] + (m[k] - 1,) + m[k + 1:]
                st2, c2, t2 = ctx.interim(m2)
                if ctx.payoff(st2[k], c2, t2, DECOY, S2) > cur:
                    return False
            if cnt[4]:
                cur = ctx.payoff(status, c, t, DECOY, S2)
                m2 = m[:k] + (m[k] + 1,) + m[k + 1:]
                st2, c2, t2 = ctx.interim(m2)
                if ctx.payoff(st2[k], c2, t2, DECOY, S1) > cur:
                    return False
            continue
        for voter_type in (REAL, DECOY):
            for action in ACTIONS:
                if cnt[_CLASS_SLOTS[(voter_type, action)]] == 0:
                    continue
                cur = ctx.payoff(status, c, t, voter_type, action)
                for alt in ACTIONS:
                    if alt == action:
                        continue
                    dm = (alt == S1) - (action == S1)
                    if dm == 0:
                        st2, c2, t2 = statuses, c, t
                    else:
                        m2 = m[:k] + (m[k] + dm,) + m[k + 1:]
                        st2, c2, t2 = ctx.interim(m2)
                    if ctx.payoff(st2[k], c2, t2, voter_type, alt) > cur:
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

    A district's payments depend only on its own final status, so each
    district's class payments are weighted by the odds of its final
    statuses; no draw is enumerated.
    """
    p.check_against(s)
    ctx = _ctx_for(s)
    statuses, c, t = ctx.interim(_slot1_vector(p.as_counts()))
    total = Fraction(0)
    for ac, interim in zip(p.per_district, statuses):
        for final, prob in status_odds(interim, c, t, ctx.q):
            paid = sum(pay.paid for _, _, pay in
                       district_payments(ctx.prices, s.real_value, ac, final))
            total += prob * paid
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
    sizes = (d.real_count if voter_type == REAL else d.decoy_count for d in s.districts)
    return {k: expected_expenditure(s, single_deviation_profile(s, k, voter_type, new_action))
            for k, n in enumerate(sizes) if n}


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
