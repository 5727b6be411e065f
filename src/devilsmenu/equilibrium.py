"""Exact expected payoffs, best responses, and pure-equilibrium enumeration.

Payoffs are computed analytically over the fair randomization: a voter's
expected payoff depends only on his own action, his district's interim
status, and the draw odds (q - c) / t, never on sampling. All comparisons
are exact rationals, so equilibrium checks cannot be corrupted by float
ties.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations_with_replacement, count, product
from math import comb, prod
from operator import itemgetter, mul, or_
from typing import Iterator, NamedTuple, Optional

from .mechanism import (
    _MOVES,
    ABSTAIN,
    CLASS_SLOTS,
    DECOY,
    REAL,
    S1,
    S2,
    SELECTED_OUTRIGHT,
    STATUSES,
    CountProfile,
    Threshold,
    _Memo,
    _PricingTables,
    _tables_for,
    budget_bound,
    classify,
    expected_spend,
    key_steps,
    tie_price_floor,
)
from .model import MenuVariant, PremiseFails, ProfileError, ScanCapExceeded, Scenario

DEFAULT_SCAN_CAP = 5_000_000


class VoterClass(NamedTuple):
    """Representative-agent handle: one voter of (district, type) playing action."""

    district: int
    voter_type: str
    action: str


class EquilibriumReport(NamedTuple):
    """Result of an exhaustive pure-equilibrium scan."""

    equilibria: tuple
    sigma_star_present: bool
    sigma_star_unique: bool
    profiles_scanned: int
    candidates_checked: int


# What the deviation loop reads of a move: (move id, index, slot-one change).
# The filtered game keeps only undominated actions: nobody abstains and real
# voters sit on slot one, so only decoys move, between the two slots.
_ALL_MOVES = tuple((mv, idx, dm) for mv, (idx, _, _, _, dm) in enumerate(_MOVES))
_FILTERED_MOVES = tuple((mv, idx, dm) for mv, (idx, voter_type, action, alt, dm) in enumerate(_MOVES)
                        if voter_type == DECOY and ABSTAIN not in (action, alt))


# The worths in a settled row that the premise reads.
_R1, _R2 = (6 + CLASS_SLOTS[c] for c in ((REAL, S1), (REAL, S2)))


def filter_premise(tables: _PricingTables, k: int) -> Optional[str]:
    """None when the dominance filter's premise holds at this pricing for k
    districts, else why it fails, naming the dropped action not dominated.

    The filtered game drops abstention and real voters' slot two. That is
    sound when, over the final statuses q and k allow (only selected
    outright when q = k), a real voter's worst on slot one is at least his
    best on slot two; abstaining needs no check, as a settled worth is the
    price or the valuation, whichever is more (voter_payoff). It is
    sufficient, not necessary.
    """
    worths = [tables.settled[final]
              for final in (STATUSES if tables.q < k else (SELECTED_OUTRIGHT,))]
    if max(worth[_R2] for worth in worths) > min(worth[_R1] for worth in worths):
        return "slot two is not dominated for a real voter"
    return None


class _Ctx:
    """One scenario's districts, built once per call; nothing in it outlives
    the call. Verdicts, payoffs and spends live in the scenario's
    _PricingTables, which are shared by every scenario with the same menu,
    q, V, eps and delta.

    Slot-one counts are keyed as classify keys them, by key_steps: scale
    is L and district k's m is m * steps[k].
    """

    def __init__(self, s: Scenario):
        self.scale, self.steps = key_steps(s)
        self.n_real = tuple(d.real_count for d in s.districts)
        self.n_decoy = tuple(d.decoy_count for d in s.districts)
        self.tables = _tables_for(s)

    def keys(self, counts) -> list[int]:
        """The slot-one key of each district of counts, which must fit."""
        return [(cnt[0] + cnt[3]) * step for cnt, step in zip(counts, self.steps)]


def _check_class(s: Scenario, p: CountProfile, who: VoterClass, new_action: str) -> None:
    """Raise ProfileError unless p fits s and who, playing either his action
    or new_action, names a voter class of one of s's districts."""
    p.check_against(s)
    if not 0 <= who.district < s.num_districts:
        raise ProfileError(f"district {who.district} is outside 0..{s.num_districts - 1}")
    for action in (who.action, new_action):
        if (who.voter_type, action) not in CLASS_SLOTS:
            raise ProfileError(f"no voter class {who.voter_type!r} playing {action!r}")


def _payoff_after(s: Scenario, p: CountProfile, who: VoterClass, new_action: str) -> Fraction:
    """Payoff of one who-class voter once he alone plays new_action: one
    summary of p's keys, read after his key shifts by his slot-one change."""
    ctx = _Ctx(s)
    keys = ctx.keys(p.as_counts())
    x = keys[who.district]
    y = x + ((new_action == S1) - (who.action == S1)) * ctx.steps[who.district]
    st, c, t = Threshold(sorted(keys), ctx.tables.q).after(x, y)
    worth, weight = ctx.tables._worth(st, c, t, 6 + CLASS_SLOTS[(who.voter_type, new_action)])
    return Fraction(worth, ctx.tables.scale * weight)


def expected_payoff(s: Scenario, p: CountProfile, who: VoterClass) -> Fraction:
    """Exact expected payoff of one voter of who's class under profile p.

    The class may be empty: the value is what such a voter would get, which
    is what deviation checks evaluate after moving a voter in.
    """
    _check_class(s, p, who, who.action)
    return _payoff_after(s, p, who, who.action)


def deviation_payoff(s: Scenario, p: CountProfile, who: VoterClass, new_action: str) -> Fraction:
    """Payoff of one who-class voter after he alone switches to new_action,
    which may carry his district across the below/tied/above boundary."""
    _check_class(s, p, who, new_action)
    if p.as_counts()[who.district][CLASS_SLOTS[(who.voter_type, who.action)]] == 0:
        raise ProfileError(
            f"district {who.district} has no {who.voter_type} voter playing {who.action}"
        )
    return _payoff_after(s, p, who, new_action)


def _compiled(ctx: _Ctx, k: int, row: tuple, moves: tuple) -> tuple:
    """A counts row of district k as the Nash check reads it: (its slot-one
    key x, (move id, key y after the move) per move of an occupied class,
    the row)."""
    step = ctx.steps[k]
    x = (row[0] + row[3]) * step
    return x, tuple((mv, x + dm * step) for mv, idx, dm in moves if row[idx]), row


def _gains(verdicts: _Memo, summary: Threshold, x: int, moves: tuple) -> bool:
    """Whether a district of key x, in a profile of that summary, has a
    strictly gaining move among moves."""
    st, c, t, after = summary.status(x), summary.c, summary.t, summary.after
    for mv, y in moves:
        if verdicts[(st, c, t, *after(x, y), mv)]:
            return True
    return False


def _judge(verdicts: _Memo, entry: list, mask: int, judged: list) -> int:
    """The bits of mask whose district gains in a profile of entry's
    bottom, as far as they are judged: 0 when none does.

    A district's verdict depends on the others only through the bottom of
    the keys (Threshold.bottom), so a memo entry, [its Threshold, known,
    fails], holds per bottom two masks over option bits: the options
    judged, and those of them that gain. The unknown bits of mask are
    judged in ascending order, judged[i] being the compiled option of bit
    1 << i, and recorded, up to the first that gains.
    """
    summary, known, fails = entry
    unknown = mask & ~known
    while unknown:
        bit = unknown & -unknown
        option = judged[bit.bit_length() - 1]
        known |= bit
        if _gains(verdicts, summary, option[0], option[1]):
            fails |= bit
            break
        unknown ^= bit
    entry[1] = known
    entry[2] = fails
    return mask & fails


def is_nash(s: Scenario, p: CountProfile, filter_dominated: bool = True) -> bool:
    """True iff no occupied class has a strictly profitable unilateral move.

    With filter_dominated the game is the dominance-reduced one: abstention
    is out for everyone, real voters are pinned to slot one, and profiles
    outside that space are not equilibria of it. Without it, every voter may
    move across both slots and abstention. District k is option bit 1 << k
    of a fresh memo entry, judged as the scan judges its profiles.
    """
    p.check_against(s)
    ctx = _Ctx(s)
    counts = p.as_counts()
    if filter_dominated and any(cnt[1] or cnt[2] or cnt[5] for cnt in counts):
        return False  # off the dominance screen, so not a profile of the filtered game
    moves = _FILTERED_MOVES if filter_dominated else _ALL_MOVES
    judged = [_compiled(ctx, k, row, moves) for k, row in enumerate(counts)]
    entry = [Threshold(sorted(ctx.keys(counts)), ctx.tables.q), 0, 0]
    return not _judge(ctx.tables.verdicts, entry, (1 << len(judged)) - 1, judged)


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


class _Parts:
    """The splits of n ballots over a counts row's first `width` actions,
    in descending row order. Filtered, real voters sit on slot one (width
    1) and decoys split over both slots (width 2); unfiltered, each type
    splits over all three actions. size costs nothing and no split is
    built until the scan iterates them, so the scan cap is checked first."""

    def __init__(self, n: int, width: int):
        self.n, self.width = n, width
        self.size = comb(n + width - 1, width - 1)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        n = self.n
        for a in range(n, -1, -1) if self.width > 1 else (n,):
            for b in range(n - a, -1, -1) if self.width > 2 else (n - a,):
                yield a, b, n - a - b


def _multisets(options: list, size: int) -> list[tuple]:
    """Every multiset of size of the options, as (their keys, the OR of
    their bits, the highest of their hot keys, -1 when none is hot, the
    options), in the order of combinations_with_replacement."""
    return [(cols[0], reduce(or_, cols[3], 0), max(cols[4], default=-1), combo)
            for combo in combinations_with_replacement(options, size)
            for cols in [tuple(zip(*combo)) or ((),) * 5]]


def _kept(options: list, bound: int) -> tuple[list, list]:
    """The options, less those hot above bound, and their negated keys."""
    kept = [o for o in options if o[4] <= bound]
    return kept, [-o[0] for o in kept]


def _orbit_scan(ctx: _Ctx, groups: list, filtered: bool) -> tuple[list, int]:
    """The equilibria among the product of every district's splits, sorted,
    and the number of representatives the scan covers. groups holds, per
    group of identical districts, (its districts, its real parts, its decoy
    parts).

    Districts with the same (real, decoy) counts have the same options and
    commute: permuting their choices permutes the statuses and keeps the
    verdict. So each group's options are compiled once, one representative
    per multiset of its choices is covered, and only equilibria are
    expanded to every distinct arrangement and put back in district order.

    The scan checks blocks of representatives. The group with the highest
    top key goes last, unless that leaves q keys or fewer before it, and
    a head part takes one multiset of each other group, its keys H. Let
    cut be the (q+1)-th smallest of H: a last-group key above cut lies
    above the bottom of every profile holding H, so such a profile has
    the bottom of H and its last-group keys at or below cut (its low
    part). So, for j = 0..n of the last group's n districts above cut,
    one Nash check of each (head part, low part of n - j) stands for all
    of them. Only when it passes are the options above cut judged, bit by
    bit, against the memo entry of its bottom, and every multiset of j of
    those that do not gain completes an equilibrium. A head of q keys or
    fewer has no cut, and one option above cut merges no representatives;
    then each representative is checked alone, the groups in their order.
    tau is at most the q-th smallest of H in any profile holding H, so a
    part with a hot option (_PricingTables.hot) above that is skipped, and
    the last group's options hot above it are dropped before the part's
    blocks are built: each lies above tau, so no representative holding
    it is an equilibrium, and none of them is judged. An option keyed at
    it is kept, as a district tied at tau is not above it.

    Each option is one bit, numbered in group order, and each multiset
    carries the OR of its options' bits and the highest of their hot
    keys. One memo, keyed by bottom, serves the whole scan and ends with
    it: a check is one AND of its profile's mask with the bottom's fail
    mask, and only bits not yet known are judged (_judge).
    """
    moves = _FILTERED_MOVES if filtered else _ALL_MOVES
    # Each group's options go in descending row order, the order of its
    # parts, so its part of a representative starts with the split with
    # the most voters on slot one, whose moves reject the most candidates
    # of the filtered game. The verdict does not depend on the order.
    compiled = [(ks, [_compiled(ctx, ks[0], rc + dc, moves) for rc in reals for dc in decoys])
                for ks, reals, decoys in groups]
    # A group's top key is the key of its first option.
    q, tops = ctx.tables.q, [options[0][0] for _, options in compiled]
    g = tops.index(max(tops))
    if len(ctx.steps) - len(compiled[g][0]) > q:
        compiled.append(compiled.pop(g))
    # Bits are numbered after the reorder, so _judge, which takes them in
    # ascending order, judges a profile's districts in group order. An
    # option's hot key is its key if one of its moves is hot, else -1.
    bits, hot = count(), ctx.tables.hot
    compiled = [(ks, [(*option, 1 << next(bits),
                       option[0] if any(mv in hot for mv, _ in option[1]) else -1)
                      for option in options])
                for ks, options in compiled]
    judged = [option for _, options in compiled for option in options]
    order = [k for ks, _ in compiled for k in ks]
    place = sorted(range(len(order)), key=order.__getitem__)  # district -> group-order position
    *head, (ks, last) = compiled
    head = [_multisets(options, len(ks)) for ks, options in head]
    n = len(ks)
    last.sort(key=itemgetter(0), reverse=True)  # by key, highest first
    rank = q if len(order) - n > q else None  # the cut's rank among the head's keys
    # lows[bound]: the last group's options less those hot above bound,
    # and their negated keys, ascending: bisect_left(drops, -cut) of them
    # lie above cut.
    lows = _Memo(lambda bound: _kept(last, bound))
    # blocks[len(kept), h]: (j, keys, mask, options) of each multiset of
    # n - j kept options below the h highest, for j = 0..n; only j = 0
    # when h is 0 or 1, as one option above cut merges no representatives.
    # A head without a cut keeps every option.
    kept, h = last, 0
    block = [(0, *low) for low in _multisets(last, n)]
    blocks = {(len(last), 0): block}
    bottom_of, verdicts, memo, found = Threshold.bottom, ctx.tables.verdicts, {}, []
    for part in product(*head):
        head_keys, head_mask, head_hot = (), 0, -1
        for keys, mask, hot_key, _ in part:
            head_keys += keys
            head_mask |= mask
            head_hot = max(head_hot, hot_key)
        if rank is not None:
            ranked = sorted(head_keys)
            if head_hot > ranked[q - 1]:
                continue
            kept, drops = lows[ranked[q - 1]]
            h = bisect_left(drops, -ranked[rank])
            block = blocks.get((len(kept), h))
            if block is None:
                block = blocks[len(kept), h] = (
                    [(j, *low) for j in range(n + 1) for low in _multisets(kept[h:], n - j)]
                    if h > 1 else [(0, *low) for low in _multisets(kept, n)])
        for j, low_keys, low_mask, _, low_options in block:
            bottom = bottom_of(head_keys + low_keys, q)
            entry = memo.get(bottom)
            if entry is None:
                entry = memo[bottom] = [Threshold(bottom, q), 0, 0]
            mask = head_mask | low_mask
            if mask & entry[2] or mask & ~entry[1] and _judge(verdicts, entry, mask, judged):
                continue
            passing = ([o for o in kept[:h] if not _judge(verdicts, entry, o[3], judged)]
                       if j else ())
            for high in combinations_with_replacement(passing, j):
                # The arrangements need each orbit's rows in ascending order.
                rows = [tuple(sorted(option[2] for option in orbit_options))
                        for orbit_options in (*(o for *_, o in part), low_options + high)]
                for arrangement in product(*map(_distinct_permutations, rows)):
                    flat = tuple(chain.from_iterable(arrangement))
                    found.append(tuple(flat[i] for i in place))
    found.sort()
    return found, prod(map(len, head)) * len(blocks[len(last), 0])


def enumerate_equilibria(
    s: Scenario,
    filter_dominated: bool = True,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> EquilibriumReport:
    """Exhaustively scan symmetry-reduced profiles and collect the equilibria.

    The candidates join every district's real and decoy _Parts, and the
    scan cap bounds their number. Filtered, the scan then refuses with
    PremiseFails unless the dominance filter's premise holds at s's
    prices (filter_premise), and profiles_scanned also counts the
    profiles with real voters on slot two, a factor real+1 per district:
    they fail the dominance screen whatever the decoys do, so they are
    rejected wholesale. Unfiltered, every profile is a candidate. Either
    way the scan covers one candidate per orbit of identical districts,
    judging blocks of them with one Nash check each, an AND of the
    block's option bits with its bottom's fail mask (_orbit_scan), and
    candidates_checked counts the representatives covered, not the
    checks, Threshold builds or district verdicts spent.
    """
    ctx = _Ctx(s)
    by_counts: dict[tuple[int, int], list[int]] = {}
    for k, key in enumerate(zip(ctx.n_real, ctx.n_decoy)):
        by_counts.setdefault(key, []).append(k)
    real_width, decoy_width = (1, 2) if filter_dominated else (3, 3)
    groups = [(ks, _Parts(r, real_width), _Parts(d, decoy_width)) for (r, d), ks in by_counts.items()]
    candidates = prod((reals.size * decoys.size) ** len(ks) for ks, reals, decoys in groups)
    if candidates > scan_cap:
        raise ScanCapExceeded(candidates, scan_cap)
    failure = filter_dominated and filter_premise(ctx.tables, len(ctx.steps))
    if failure:
        raise PremiseFails("the dominance filter's premise fails at these prices: " + failure)
    found, checked = _orbit_scan(ctx, groups, filter_dominated)
    space = candidates * prod(r + 1 for r in ctx.n_real) if filter_dominated else candidates
    present = CountProfile.sigma_star(s).as_counts() in found
    return EquilibriumReport(
        equilibria=tuple(CountProfile.from_counts(counts) for counts in found),
        sigma_star_present=present,
        sigma_star_unique=present and len(found) == 1,
        profiles_scanned=space,
        candidates_checked=checked,
    )


def expected_expenditure(s: Scenario, p: CountProfile) -> Fraction:
    """Expected total payment under p, exact over the fair draw: the
    expected_spend of p's classification; no draw is enumerated."""
    return expected_spend(s, p, classify(s, p))


def _moved_row(row: tuple, district: int, voter_type: str, new_action: str) -> tuple:
    """A sigma-star counts row with one voter_type voter moved to new_action."""
    src = CLASS_SLOTS[(voter_type, S1 if voter_type == REAL else S2)]
    if not row[src]:
        raise ProfileError(f"district {district} has no {voter_type} voter to move")
    moved = list(row)
    moved[src] -= 1
    moved[CLASS_SLOTS[(voter_type, new_action)]] += 1
    return tuple(moved)


def single_deviation_profile(
    s: Scenario, district: int, voter_type: str, new_action: str
) -> CountProfile:
    """Sigma-star with one voter of (district, voter_type) moved to new_action."""
    rows = list(CountProfile.sigma_star(s).as_counts())
    rows[district] = _moved_row(rows[district], district, voter_type, new_action)
    return CountProfile.from_counts(rows)


class SabotageReport(NamedTuple):
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
    leaves sigma-star for new_action.

    Every sigma-star key is L, the lcm of the real counts, so one threshold
    summary serves every mover: the mover's (status, c, t) is after(L, y),
    and every other district keeps key L, so all of them share one status
    against the moved threshold, read off the mover's (status, c, t). Each
    spend is then three integer terms over the one denominator of its (c, t).
    """
    ctx = _Ctx(s)
    scale = ctx.scale
    summary = Threshold([scale] * len(ctx.steps), ctx.tables.q)
    total_real, total_decoy = sum(ctx.n_real), sum(ctx.n_decoy)
    spends = {}
    for k, (r, d, step) in enumerate(zip(ctx.n_real, ctx.n_decoy, ctx.steps)):
        if r if voter_type == REAL else d:
            moved = _moved_row((r, 0, 0, 0, d, 0), k, voter_type, new_action)
            y = (moved[0] + moved[3]) * step
            st, c, t = summary.after(scale, y)
            den, paid = ctx.tables.rows[c, t]
            # The unmoved districts share key L: all below if c counts one
            # besides the mover, else all tied if t does, else all above.
            # With no unmoved district (k = 1), rest is weighted by 0.
            rest = paid[0 if c > (st == 0) else (1 if t > (st == 1) else 2)]
            spends[k] = Fraction((total_real - r) * rest[0] + (total_decoy - d) * rest[4]
                                 + sum(map(mul, moved, paid[st])), den)
    return spends


def tie_payoff_gap_holds(s: Scenario) -> bool:
    """Per-instance check of the uniqueness margin for the four-price menu.

    delta must reach the weak four-price tie_price_floor, (q/k) * V + 2*eps,
    and for every count c of outright-selected districts up to q - 1 the best
    tie-set gamble (q-c)/(k-c) * V + eps must stay at or below that floor
    less eps, which must be strictly below delta. Exact arithmetic.
    """
    # For a valid scenario (V > 0, eps > 0, 0 <= c < q <= k), k(q - c) <= q(k - c)
    # gives gamble <= floor - eps, and floor - eps < floor, so only delta >= floor is left.
    floor = tie_price_floor(MenuVariant.WEAK4, s.num_districts, s.target_count,
                            s.real_value, s.epsilon)
    return s.delta >= floor
