"""One run of a price-menu mechanism.

Ratio computation, district classification, fair randomization, price
assignment, sell decisions, and payment accounting. Everything works on
class counts: voters of the same (district, ballot type, action) are
interchangeable, so payments are computed per class and multiplied out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .model import (
    DeltaBelowThreshold,
    MenuVariant,
    ProfileError,
    RationalLike,
    Scenario,
    parse_rational,
    top_q_sum,
)

# Actions a citizen can take in step two.
S1 = "s1"
S2 = "s2"
ABSTAIN = "abstain"
ACTIONS = (S1, S2, ABSTAIN)
SLOTS = (S1, S2)

# Ballot types.
REAL = "real"
DECOY = "decoy"

# Interim district status, from the slot-one ratios alone.
BELOW, TIED, ABOVE = "below", "tied", "above"

# Final district status. The six-price menu prices slot-two applicants of
# outright-selected districts differently from draw-selected ones; the
# four-price menus collapse the two selected statuses.
SELECTED_OUTRIGHT = "selected_outright"
SELECTED_BY_DRAW = "selected_by_draw"
NOT_SELECTED = "not_selected"
STATUSES = (SELECTED_OUTRIGHT, SELECTED_BY_DRAW, NOT_SELECTED)


@dataclass(frozen=True)
class ActionCount:
    """How many voters of each type in one district chose each action."""

    real_s1: int
    real_s2: int
    real_abstain: int
    decoy_s1: int
    decoy_s2: int
    decoy_abstain: int

    @property
    def real_total(self) -> int:
        return self.real_s1 + self.real_s2 + self.real_abstain

    @property
    def decoy_total(self) -> int:
        return self.decoy_s1 + self.decoy_s2 + self.decoy_abstain

    @property
    def slot1_applicants(self) -> int:
        return self.real_s1 + self.decoy_s1

    def count(self, voter_type: str, action: str) -> int:
        return getattr(self, f"{voter_type}_{action}")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.real_s1, self.real_s2, self.real_abstain,
                self.decoy_s1, self.decoy_s2, self.decoy_abstain)

    @classmethod
    def from_tuple(cls, t: tuple[int, int, int, int, int, int]) -> "ActionCount":
        return cls(*t)


@dataclass(frozen=True)
class CountProfile:
    """Symmetry-reduced strategy profile, one ActionCount per district."""

    per_district: tuple[ActionCount, ...]

    @classmethod
    def sigma_star(cls, s: Scenario) -> "CountProfile":
        """The target profile: every real voter in slot one, every decoy in slot two."""
        return cls(tuple(
            ActionCount(d.real_count, 0, 0, 0, d.decoy_count, 0) for d in s.districts
        ))

    @classmethod
    def from_counts(cls, counts: Iterable[tuple[int, int, int, int, int, int]]) -> "CountProfile":
        return cls(tuple(ActionCount.from_tuple(t) for t in counts))

    def as_counts(self) -> tuple[tuple[int, int, int, int, int, int], ...]:
        return tuple(ac.as_tuple() for ac in self.per_district)

    def check_against(self, s: Scenario) -> None:
        """Raise ProfileError unless the profile fits the scenario's counts."""
        if len(self.per_district) != s.num_districts:
            raise ProfileError(
                f"profile covers {len(self.per_district)} districts, "
                f"scenario has {s.num_districts}"
            )
        for k, (ac, d) in enumerate(zip(self.per_district, s.districts)):
            if min(ac.as_tuple()) < 0:
                raise ProfileError(f"district {k}: negative action count")
            if ac.real_total != d.real_count:
                raise ProfileError(
                    f"district {k}: real actions sum to {ac.real_total}, "
                    f"expected {d.real_count}"
                )
            if ac.decoy_total != d.decoy_count:
                raise ProfileError(
                    f"district {k}: decoy actions sum to {ac.decoy_total}, "
                    f"expected {d.decoy_count}"
                )


@dataclass(frozen=True)
class Classification:
    """The below/at/above partition of districts around the threshold ratio.

    ratios[k] is district k's slot-one applicants divided by its real-ballot
    count; threshold is the q-th smallest ratio (with multiplicity). Districts
    strictly below are selected outright, districts at the threshold enter the
    fair draw, districts above are never selected.
    """

    ratios: tuple[Fraction, ...]
    threshold: Fraction
    below: frozenset[int]
    tied: frozenset[int]
    above: frozenset[int]

    @property
    def c(self) -> int:
        return len(self.below)

    @property
    def t(self) -> int:
        return len(self.tied)

    @property
    def o(self) -> int:
        return len(self.above)


def interim_partition(ratios: Sequence[Fraction], q: int) -> tuple[Fraction, tuple[str, ...]]:
    """The threshold (q-th smallest ratio, with multiplicity) and each
    district's BELOW, TIED or ABOVE status against it; q must be in 1..k."""
    if not 1 <= q <= len(ratios):
        raise ValueError(f"target q = {q} is outside 1..{len(ratios)}")
    threshold = sorted(ratios)[q - 1]
    return threshold, tuple(
        BELOW if r < threshold else (TIED if r == threshold else ABOVE) for r in ratios
    )


def classify(s: Scenario, p: CountProfile) -> Classification:
    """Partition districts by their slot-one application ratio."""
    p.check_against(s)
    ratios = tuple(
        Fraction(ac.slot1_applicants, d.real_count)
        for ac, d in zip(p.per_district, s.districts)
    )
    threshold, statuses = interim_partition(ratios, s.target_count)
    below, tied, above = (frozenset(k for k, st in enumerate(statuses) if st == which)
                          for which in (BELOW, TIED, ABOVE))
    return Classification(ratios, threshold, below, tied, above)


def select_districts(
    cl: Classification, q: int, rng: random.Random
) -> tuple[frozenset[int], frozenset[int]]:
    """Final selection: all below-threshold districts plus a uniform draw from the tie set.

    The draw is fair_draw of q - c districts from the tie set in ascending
    index order, so results are reproducible from the generator state alone
    regardless of platform.
    """
    need = q - cl.c
    if not 0 <= need <= cl.t:
        raise ValueError(f"inconsistent classification: c = {cl.c}, t = {cl.t}, q = {q}")
    drawn = frozenset(fair_draw(sorted(cl.tied), need, rng))
    return frozenset(cl.below) | drawn, drawn


def fair_draw(pool: list, need: int, rng: random.Random) -> list:
    """A uniform draw of need items from pool: the first need entries of a
    Fisher-Yates shuffle of pool, made in place, one rng.randrange per entry."""
    for i in range(need):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:need]


def status_odds(interim: str, c: int, t: int, q: int) -> tuple[tuple[str, Fraction], ...]:
    """Final statuses of a BELOW, TIED or ABOVE district and their odds over the fair draw.

    A tied district is drawn with odds (q - c) / t. When the draw is
    degenerate (q - c = t) its selection is certain at interim time, so it
    counts as selected outright. See the pricing note in the README.
    """
    if interim == BELOW or (interim == TIED and q - c == t):
        return ((SELECTED_OUTRIGHT, Fraction(1)),)
    if interim == ABOVE:
        return ((NOT_SELECTED, Fraction(1)),)
    p_draw = Fraction(q - c, t)
    return ((SELECTED_BY_DRAW, p_draw), (NOT_SELECTED, 1 - p_draw))


def district_status(k: int, cl: Classification, selected: frozenset[int], q: int) -> str:
    """Final status for pricing, once the draw is made.

    When status_odds leaves a single status (below, above, or a degenerate
    draw) that is the status; otherwise it is whether k was drawn.
    """
    interim = BELOW if k in cl.below else (TIED if k in cl.tied else ABOVE)
    odds = status_odds(interim, cl.c, cl.t, q)
    if len(odds) == 1:
        return odds[0][0]
    return SELECTED_BY_DRAW if k in selected else NOT_SELECTED


def price_for(
    menu: MenuVariant,
    slot: str,
    status: str,
    v: Fraction,
    epsilon: Fraction,
    delta: Fraction,
) -> Fraction:
    """Offered price for a slot applicant given his district's final status.

    The four-price menus treat both selected statuses alike; the six-price
    menu pays slot-two applicants V - eps in outright-selected districts and
    delta in draw-selected ones. Status assignment, including the degenerate
    draw that makes a tied district certain, lives in status_odds. Callers
    read prices from price_table, which calls this once per entry.
    """
    if menu.tag == "commitment":
        raise ValueError("the commitment menu is districtless; use variants.run_commitment")
    if slot not in SLOTS:
        raise ValueError(f"no price for action {slot!r}")
    selected = status in (SELECTED_OUTRIGHT, SELECTED_BY_DRAW)
    if slot == S1:
        return v + epsilon if selected else epsilon
    if menu.tag == "weak4":
        return delta if selected else 2 * epsilon
    if menu.tag == "strong4":
        return 2 * epsilon
    # strong6
    if status == SELECTED_OUTRIGHT:
        return v - epsilon
    if status == SELECTED_BY_DRAW:
        return delta
    return 2 * epsilon


def price_table(menu: MenuVariant, v: Fraction, epsilon: Fraction,
                delta: Fraction) -> dict[tuple[str, str], Fraction]:
    """The menu at these prices: the price offered per (slot, final status)."""
    return {
        (slot, status): price_for(menu, slot, status, v, epsilon, delta)
        for slot in SLOTS
        for status in STATUSES
    }


def commitment_price(slot: str, overflow: bool, v: Fraction, epsilon: Fraction) -> Fraction:
    """The all-or-nothing menu: eps in slot two; in slot one V + eps to the
    drawn winners, or zero to every applicant once the slot overflows."""
    if slot == S2:
        return epsilon
    return Fraction(0) if overflow else v + epsilon


_ZERO = Fraction(0)


def valuation(voter_type: str, v: Fraction) -> Fraction:
    return v if voter_type == REAL else _ZERO


def sell_decision(voter_type: str, offered_price: Fraction, v: Fraction) -> bool:
    """A voter sells iff the price strictly beats his valuation (ties keep the ballot)."""
    return offered_price > valuation(voter_type, v)


@dataclass(frozen=True)
class ClassPayment:
    """Offer made to one (district, type, slot) class and what came of it."""

    price: Fraction
    sells: bool
    count: int
    paid: Fraction


def settle(voter_type: str, price: Fraction, count: int, v: Fraction) -> ClassPayment:
    """Offer price to count voters of voter_type; they all sell or all keep."""
    sells = sell_decision(voter_type, price, v)
    return ClassPayment(price, sells, count, price * count if sells else Fraction(0))


def voter_payoff(voter_type: str, price: Fraction, v: Fraction) -> Fraction:
    """What one voter offered price ends up with: the price, or his ballot's worth."""
    return price if sell_decision(voter_type, price, v) else valuation(voter_type, v)


@dataclass(frozen=True)
class Outcome:
    """Realized run: who was selected, who sold, and what it cost."""

    selected: frozenset[int]
    drawn_from_tie: frozenset[int]
    prices_paid: Mapping[tuple[int, str, str], ClassPayment]
    expenditure: Fraction
    acquired_real_ballots: tuple[int, ...]

    @property
    def total_acquired(self) -> int:
        return sum(self.acquired_real_ballots)


def payments_for_selection(
    s: Scenario, p: CountProfile, cl: Classification, selected: frozenset[int]
) -> tuple[dict[tuple[int, str, str], ClassPayment], Fraction, tuple[int, ...]]:
    """Price every applicant class under a fixed final selection.

    Abstainers and empty classes receive no offer. Expenditure sums accepted
    sales only.
    """
    prices = price_table(s.menu, s.real_value, s.epsilon, s.delta)
    prices_paid: dict[tuple[int, str, str], ClassPayment] = {}
    expenditure = Fraction(0)
    acquired = []
    for k, ac in enumerate(p.per_district):
        got_real = 0
        status = district_status(k, cl, selected, s.target_count)
        for voter_type in (REAL, DECOY):
            for slot in SLOTS:
                count = ac.count(voter_type, slot)
                if not count:
                    continue
                pay = settle(voter_type, prices[(slot, status)], count, s.real_value)
                prices_paid[(k, voter_type, slot)] = pay
                expenditure += pay.paid
                if voter_type == REAL and pay.sells:
                    got_real += pay.count
        acquired.append(got_real)
    return prices_paid, expenditure, tuple(acquired)


def execute(s: Scenario, p: CountProfile, rng: random.Random) -> Outcome:
    """Run the mechanism once: classify, select, price, settle."""
    cl = classify(s, p)
    selected, drawn = select_districts(cl, s.target_count, rng)
    prices_paid, expenditure, acquired = payments_for_selection(s, p, cl, selected)
    return Outcome(selected, drawn, prices_paid, expenditure, acquired)


def budget_bound(s: Scenario) -> Fraction:
    """Worst-case equilibrium expenditure of the four-price menu.

    Maximum over q-subsets of: real ballots at V + eps and decoys at delta
    inside the subset, decoys at 2*eps outside. Every decoy costs at least
    2*eps, and a district inside the subset adds (V + eps)*r + (delta - 2*eps)*d
    on top of that whatever else is inside. Real and decoy counts carry
    different weights, so the largest districts need not attain the maximum,
    but the q largest of these combined weights do, exactly.
    """
    if s.menu.tag != "weak4":
        raise ValueError("the expenditure bound with a delta term is for the weak four-price menu")
    v, eps, delta = s.real_value, s.epsilon, s.delta
    extra = ((v + eps) * d.real_count + (delta - 2 * eps) * d.decoy_count for d in s.districts)
    return 2 * eps * s.total_decoy + top_q_sum(extra, s.target_count)


def _pinned_decoy_bound(s: Scenario, decoy_price: Fraction) -> Fraction:
    """Real ballots of the q most real-heavy districts at V + eps, every decoy at decoy_price."""
    best_real = top_q_sum((d.real_count for d in s.districts), s.target_count)
    return (s.real_value + s.epsilon) * best_real + decoy_price * s.total_decoy


def strong4_expenditure_bound(s: Scenario) -> Fraction:
    """Expenditure bound for the pinned-price strong menu: decoys cost 2*eps everywhere."""
    return _pinned_decoy_bound(s, 2 * s.epsilon)


def strong6_expenditure_bound(s: Scenario) -> Fraction:
    """Expenditure bound for the six-price menu run at its minimum tie price 3*eps."""
    return _pinned_decoy_bound(s, 3 * s.epsilon)


def minimal_delta(s: Scenario, sequential: bool = False) -> Fraction:
    """Smallest tie price under which the target profile is provably the unique
    equilibrium of s; see tie_price_floor."""
    return tie_price_floor(s.menu, s.num_districts, s.target_count,
                           s.real_value, s.epsilon, sequential)


def tie_price_floor(menu: MenuVariant, k: int, q: int, v: RationalLike,
                    epsilon: RationalLike, sequential: bool = False) -> Fraction:
    """Smallest tie price under which the target profile is provably the unique
    equilibrium, for k districts, target q, real value v and price unit epsilon.

    Four-price menu: (q / k) * V + 2*eps one-shot, V / (k - q + 1) + 2*eps when
    run sequentially one district per date. Six-price menu: 3*eps. The pinned
    strong menu has no free tie price; its value is 2*eps by construction.
    """
    v, eps = parse_rational(v), parse_rational(epsilon)
    if sequential:
        if menu.tag != "weak4":
            raise ValueError("sequential runs use the weak four-price menu")
        return Fraction(1, k - q + 1) * v + 2 * eps
    if menu.tag == "weak4":
        return Fraction(q, k) * v + 2 * eps
    if menu.tag == "strong6":
        return 3 * eps
    if menu.tag == "strong4":
        return 2 * eps
    raise ValueError("the commitment menu has no tie price")


def require_delta_at_least(s: Scenario, required: Fraction) -> None:
    if s.delta < required:
        raise DeltaBelowThreshold(s.delta, required)
