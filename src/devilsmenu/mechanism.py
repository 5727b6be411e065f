"""One run of a price-menu mechanism.

Ratio computation, district classification, fair randomization, price
assignment, sell decisions, and payment accounting. Everything works on
class counts: voters of the same (district, ballot type, action) are
interchangeable, so payments are computed per class and multiplied out.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf, lcm
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

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

# Final district status. The six-price menu prices slot-two applicants of
# outright-selected districts differently from draw-selected ones; the
# four-price menus collapse the two selected statuses.
SELECTED_OUTRIGHT = "selected_outright"
SELECTED_BY_DRAW = "selected_by_draw"
NOT_SELECTED = "not_selected"
STATUSES = (SELECTED_OUTRIGHT, SELECTED_BY_DRAW, NOT_SELECTED)


class ActionCount(NamedTuple):
    """How many voters of each type in one district chose each action: a
    counts tuple, whose field order is the one counts layout."""

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


# The index in a counts tuple of each (type, action) class, read off the
# ActionCount field named <type>_<action>.
CLASS_SLOTS = {tuple(field.split("_")): i for i, field in enumerate(ActionCount._fields)}


class CountProfile(NamedTuple):
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
        return cls(tuple(map(ActionCount._make, counts)))

    def as_counts(self) -> tuple[ActionCount, ...]:
        return self.per_district

    def check_against(self, s: Scenario) -> None:
        """Raise ProfileError unless the profile fits the scenario's counts."""
        if len(self.per_district) != s.num_districts:
            raise ProfileError(
                f"profile covers {len(self.per_district)} districts, "
                f"scenario has {s.num_districts}"
            )
        for k, (ac, d) in enumerate(zip(self.per_district, s.districts)):
            if min(ac) < 0:
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


class Classification(NamedTuple):
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

    def interim(self, k: int) -> int:
        """District k's interim status code, as Threshold.status gives it:
        0 below, 1 tied, 2 above."""
        return 0 if k in self.below else (1 if k in self.tied else 2)

    def draw_size(self, q: int) -> int:
        """q - c, the tied districts the fair draw picks; it must lie in 0..t."""
        need = q - self.c
        if not 0 <= need <= self.t:
            raise ValueError(f"inconsistent classification: c = {self.c}, t = {self.t}, q = {q}")
        return need


class Threshold:
    """The threshold summary of one slot-one key vector, given in ascending
    order (ranked; callers sort, and a bottom already is): the threshold
    tau (the q-th smallest key), the counts c below it and t at it, and,
    per status code of a moving key x, the (q-1)-th and q-th smallest of
    the other keys (lo, hi), with -inf and +inf where there is none. It is
    the one place where districts are sorted into below, tied and above.

    When x moves to y, the new threshold is clamp(y, lo, hi), and the new
    c and t are read off the sorted keys, corrected for x and y (after).
    So the moved vector is never partitioned.

    Nothing here reads a key above the (q+1)-th smallest: the moved
    threshold never exceeds it, and a larger key is above either way. So
    the summary of bottom(keys, q) agrees with that of keys on tau, c, t,
    bounds, and status and after of every key.
    """

    __slots__ = ("ranked", "tau", "c", "t", "bounds")

    @staticmethod
    def bottom(keys: Iterable[int], q: int) -> tuple[int, ...]:
        """The keys sorted, up to and including every copy of the (q+1)-th
        smallest; all of them when there are only q."""
        ranked = sorted(keys)
        return tuple(ranked[:bisect_right(ranked, ranked[q])] if q < len(ranked) else ranked)

    def __init__(self, ranked: Sequence[int], q: int):
        self.ranked = ranked
        self.tau = tau = ranked[q - 1]
        self.c = c = bisect_left(ranked, tau)
        self.t = bisect_right(ranked, tau, c) - c
        below = ranked[q - 2] if q > 1 else -inf
        above = ranked[q] if q < len(ranked) else inf
        # Taking out a key below tau moves tau down to rank q - 1 of the
        # rest and the key above it to rank q. So does taking out a tied
        # key, unless no other tied key sat below rank q (c = q - 1).
        self.bounds = ((tau, above), (below if c == q - 1 else tau, above), (below, tau))

    def status(self, x: int, tau: int | None = None) -> int:
        """Key x's status code against tau (the threshold by default): 0 below, 1 tied, 2 above."""
        tau = self.tau if tau is None else tau
        return 0 if x < tau else (1 if x == tau else 2)

    def after(self, x: int, y: int) -> tuple[int, int, int]:
        """(status code of the mover, c, t) once one key x moves to y; with
        y = x, (status(x), c, t)."""
        lo, hi = self.bounds[self.status(x)]
        tau = lo if y < lo else (hi if y > hi else y)
        ranked = self.ranked
        lt = bisect_left(ranked, tau)
        return (self.status(y, tau), lt - (x < tau) + (y < tau),
                bisect_right(ranked, tau, lt) - lt - (x == tau) + (y == tau))


def key_steps(s: Scenario) -> tuple[int, tuple[int, ...]]:
    """(L, steps): L is the lcm of the real counts and steps[k] = L / real_k.

    District k's m slot-one applicants are keyed m * steps[k], an integer
    that orders and equates like the ratio m / real_k, and a key x is the
    ratio x / L. Raises ValueError unless the target q lies in 1..k.
    """
    if not 1 <= s.target_count <= s.num_districts:
        raise ValueError(f"target q = {s.target_count} is outside 1..{s.num_districts}")
    scale = lcm(*(d.real_count for d in s.districts))
    return scale, tuple(scale // d.real_count for d in s.districts)


def classify(s: Scenario, p: CountProfile) -> Classification:
    """Partition districts by their slot-one application ratio, keyed by key_steps."""
    p.check_against(s)
    scale, steps = key_steps(s)
    keys = [ac.slot1_applicants * step for ac, step in zip(p.per_district, steps)]
    summary = Threshold(sorted(keys), s.target_count)
    parts: tuple[list[int], ...] = ([], [], [])
    for k, x in enumerate(keys):
        parts[summary.status(x)].append(k)
    return Classification(tuple(Fraction(x, scale) for x in keys),
                          Fraction(summary.tau, scale), *map(frozenset, parts))


def select_districts(
    cl: Classification, q: int, rng: random.Random
) -> tuple[frozenset[int], frozenset[int]]:
    """Final selection: all below-threshold districts plus a uniform draw from the tie set.

    The draw is fair_draw of q - c districts from the tie set in ascending
    index order, so results are reproducible from the generator state alone
    regardless of platform.
    """
    drawn = frozenset(fair_draw(sorted(cl.tied), cl.draw_size(q), rng))
    return frozenset(cl.below) | drawn, drawn


def fair_draw(pool: list, need: int, rng: random.Random) -> list:
    """A uniform draw of need items from pool: the first need entries of a
    Fisher-Yates shuffle of pool, made in place, one rng.randrange per entry."""
    for i in range(need):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:need]


def fair_draw_counts(pool: list, need: int, seed: int, lo: int, hi: int,
                     counts: list[int]) -> None:
    """Add one to counts[x] for each x that fair_draw(pool[:], need,
    Random(seed ^ i)) draws, for each run i in lo..hi-1.

    One generator is reseeded per run through the C seed that Random.seed
    runs for an int (gauss_next is never read here), and each index is
    getrandbits with rejection, which is how randrange(n) draws on CPython
    3.10 and later.
    """
    rng = random.Random()
    reseed, getrandbits = super(random.Random, rng).seed, rng.getrandbits
    steps = [(j, len(pool) - j, (len(pool) - j).bit_length()) for j in range(need)]
    for i in range(lo, hi):
        reseed(seed ^ i)
        items = pool[:]
        for j, n, bits in steps:
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            r += j
            items[j], items[r] = items[r], items[j]
            counts[items[j]] += 1


def status_odds(interim: int, c: int, t: int, q: int) -> tuple[tuple[str, Fraction], ...]:
    """Final statuses of a district of interim status code 0 (below), 1
    (tied) or 2 (above), and their odds over the fair draw.

    A tied district is drawn with odds (q - c) / t. When the draw is
    degenerate (q - c = t) its selection is certain at interim time, so it
    counts as selected outright. See the pricing note in the README.
    """
    if interim == 0 or (interim == 1 and q - c == t):
        return ((SELECTED_OUTRIGHT, Fraction(1)),)
    if interim == 2:
        return ((NOT_SELECTED, Fraction(1)),)
    p_draw = Fraction(q - c, t)
    return ((SELECTED_BY_DRAW, p_draw), (NOT_SELECTED, 1 - p_draw))


def selection_odds(cl: Classification, q: int) -> tuple[Fraction, ...]:
    """Each district's odds of being selected over the fair draw, by
    status_odds: 1 below or in a degenerate tie, (q - c) / t tied, 0 above."""
    return tuple(sum((odds for final, odds in status_odds(cl.interim(k), cl.c, cl.t, q)
                      if final != NOT_SELECTED), _ZERO)
                 for k in range(len(cl.ratios)))


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
    read prices from the per-pricing tables, built once by price_table.
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
    return {(slot, status): price_for(menu, slot, status, v, epsilon, delta)
            for slot in SLOTS for status in STATUSES}


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


class ClassPayment(NamedTuple):
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


# Every unilateral move of an occupied class, its move id being its position:
# (index in a counts tuple, type, action, alternative, change in the
# district's slot-one count).
_MOVES = tuple((idx, voter_type, action, alt, (alt == S1) - (action == S1))
               for (voter_type, action), idx in CLASS_SLOTS.items()
               for alt in ACTIONS if alt != action)


class _Memo(dict):
    """A dict that computes a missing entry as fill(key) and records it."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        got = self[key] = self.fill(key)
        return got


class _PricingTables:
    """The exact tables of one pricing (menu, q, V, eps, delta), shared by
    every scenario with that pricing and by runs, expected spends, payoffs
    and Nash checks alike; each entry is filled on first lookup.

    settled[final status] lists, in the order of a counts tuple, what one
    voter of each class is paid once his district's status is final, then
    what he ends up with: integer numerators over scale, the lcm of V's and
    every price's denominator; offers[final status] holds settle's
    ClassPayment to one voter of each class (None for abstainers), from
    price_table's menu.

    A voter's expected entry over the fair draw (_worth) is one settled
    entry, or, in a real tie, two weighted by the integer draw counts q - c
    drawn and t - q + c not, over t. rows[c, t] is (D, paid) with
    D = scale * t: paid[code] holds, for a district of that interim status
    code, the expected payment to one voter of each class, each an integer
    numerator over D; runs and expected spends read them, and a payoff
    reads its one entry off _worth. A verdict, verdicts[(status code, c, t)
    before, (status code, c, t) after, move id], is whether the move
    strictly pays: the two expected worths compared by cross-multiplying
    each numerator by the other's weight. The Nash checks read verdicts
    only, and neither table builds a Fraction.
    """

    def __init__(self, menu: MenuVariant, q: int, v: Fraction, epsilon: Fraction,
                 delta: Fraction):
        self.q = q
        prices = price_table(menu, v, epsilon, delta)
        self.scale = scale = lcm(v.denominator, *(f.denominator for f in prices.values()))
        self.settled, self.offers = {}, {}
        for final in STATUSES:
            paid, worth, offers = [], [], []
            for voter_type, action in CLASS_SLOTS:
                if action == ABSTAIN:  # no offer: he keeps his ballot
                    pay, value = 0, valuation(voter_type, v)
                    offers.append(None)
                else:
                    offers.append(settle(voter_type, prices[(action, final)], 1, v))
                    pay, value = offers[-1].paid, voter_payoff(voter_type, offers[-1].price, v)
                paid.append(pay.numerator * (scale // pay.denominator))
                worth.append(value.numerator * (scale // value.denominator))
            self.settled[final] = paid + worth
            self.offers[final] = offers
        self.rows = _Memo(self._row)
        self.verdicts = _Memo(self._verdict)

    def _worth(self, st: int, c: int, t: int, i: int) -> tuple[int, int]:
        """Entry i of a settled row, expected over the fair draw for a
        district of interim status code st among c below and t tied:
        (numerator over scale, weight), the value being numerator /
        (scale * weight). The statuses are status_odds', weighted by their
        odds times t, which are integers."""
        if st == 2:
            return self.settled[NOT_SELECTED][i], 1
        drawn = self.q - c
        if st == 0 or drawn == t:
            return self.settled[SELECTED_OUTRIGHT][i], 1
        return (drawn * self.settled[SELECTED_BY_DRAW][i]
                + (t - drawn) * self.settled[NOT_SELECTED][i], t)

    def _row(self, ct: tuple[int, int]) -> tuple[int, tuple]:
        c, t = ct
        paid = []  # by status code, then by class
        for st in (0, 1, 2):
            # Over scale * t, an entry of weight 1 counts t times.
            paid.append(tuple(num * (t // weight) for num, weight in
                              (self._worth(st, c, t, i) for i in range(6))))
        return self.scale * t, tuple(paid)

    def _verdict(self, key: tuple[int, ...]) -> bool:
        st, c, t, st2, c2, t2, mv = key
        idx, voter_type, _, alt, _ = _MOVES[mv]
        before, weight = self._worth(st, c, t, 6 + idx)
        after, weight2 = self._worth(st2, c2, t2, 6 + CLASS_SLOTS[(voter_type, alt)])
        return after * weight > before * weight2

    @cached_property
    def hot(self) -> frozenset[int]:
        """Ids of the moves that pay wherever the mover lies above tau, so is
        not selected for sure: his worst worth after the move, over every
        final status (a row mixes them), beats his worth not selected."""
        return frozenset(mv for mv, (idx, voter_type, _, alt, _) in enumerate(_MOVES)
                         if min(w[6 + CLASS_SLOTS[(voter_type, alt)]] for w in self.settled.values())
                         > self.settled[NOT_SELECTED][6 + idx])


@lru_cache(maxsize=32)
def _pricing_tables(menu: MenuVariant, q: int, v: Fraction, epsilon: Fraction,
                    delta: Fraction) -> _PricingTables:
    return _PricingTables(menu, q, v, epsilon, delta)


def _tables_for(s: Scenario) -> _PricingTables:
    """The shared tables of s's pricing."""
    return _pricing_tables(s.menu, s.target_count, s.real_value, s.epsilon, s.delta)


class Outcome(NamedTuple):
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
    """Price every applicant class under a fixed final selection, off the
    per-pricing table's row for its district's final status: the one
    status_odds leaves for its interim status, else whether it was drawn.

    Abstainers and empty classes receive no offer. Expenditure sums accepted
    sales only, as integer numerators over the table's scale.
    """
    tables = _tables_for(s)
    odds = [status_odds(code, cl.c, cl.t, s.target_count) for code in (0, 1, 2)]
    prices_paid, total, acquired = {}, 0, []
    for k, ac in enumerate(p.per_district):
        certain, got_real = odds[cl.interim(k)], 0
        status = (certain[0][0] if len(certain) == 1
                  else SELECTED_BY_DRAW if k in selected else NOT_SELECTED)
        for (voter_type, action), count, paid, offer in zip(
                CLASS_SLOTS, ac, tables.settled[status], tables.offers[status]):
            if offer is None or not count:
                continue
            total += paid * count
            prices_paid[(k, voter_type, action)] = ClassPayment(
                offer.price, offer.sells, count, Fraction(paid * count, tables.scale))
            if voter_type == REAL and offer.sells:
                got_real += count
        acquired.append(got_real)
    return prices_paid, Fraction(total, tables.scale), tuple(acquired)


def execute_classified(s: Scenario, p: CountProfile, cl: Classification,
                       rng: random.Random) -> Outcome:
    """Run the mechanism once on p, classified as cl: select, price, settle."""
    selected, drawn = select_districts(cl, s.target_count, rng)
    return Outcome(selected, drawn, *payments_for_selection(s, p, cl, selected))


def execute(s: Scenario, p: CountProfile, rng: random.Random) -> Outcome:
    """Run the mechanism once: classify, select, price, settle."""
    return execute_classified(s, p, classify(s, p), rng)


def expected_spend(s: Scenario, p: CountProfile, cl: Classification) -> Fraction:
    """Expected total payment under p, classified as cl, exact over the
    fair draw: each class's count times its per-voter expected payment at
    its district's interim status, read off the per-pricing rows[c, t]."""
    d, paid = _tables_for(s).rows[cl.c, cl.t]
    return Fraction(sum(sum(map(mul, cnt, paid[cl.interim(k)]))
                        for k, cnt in enumerate(p.per_district)), d)


def budget_bound(s: Scenario) -> Fraction:
    """Worst-case equilibrium expenditure of the four-price menu.

    Maximum over q-subsets of: real ballots at V + eps and decoys at delta
    inside the subset, decoys at 2*eps outside. Every decoy costs at least
    2*eps, and a district inside the subset adds (V + eps)*r + (delta - 2*eps)*d
    on top of that whatever else is inside. Real and decoy counts carry
    different weights, so the largest districts need not attain the maximum,
    but the q largest of these combined weights do, exactly. The sum is
    taken on integer numerators over the lcm of the V, eps and delta
    denominators.
    """
    if s.menu.tag != "weak4":
        raise ValueError("the expenditure bound with a delta term is for the weak four-price menu")
    prices = (s.real_value, s.epsilon, s.delta)
    den = lcm(*(x.denominator for x in prices))
    v, eps, delta = (x.numerator * (den // x.denominator) for x in prices)
    extra = ((v + eps) * d.real_count + (delta - 2 * eps) * d.decoy_count for d in s.districts)
    return Fraction(2 * eps * s.total_decoy + top_q_sum(extra, s.target_count), den)


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
            raise ValueError("sequential buying runs the weak four-price menu")
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
