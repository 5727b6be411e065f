import random
from functools import reduce
from itertools import chain, combinations_with_replacement, product
from operator import or_

from devilsmenu import MenuVariant, equilibrium, is_nash, make_scenario
from devilsmenu.mechanism import DECOY, REAL, S1, S2, CountProfile, Threshold, minimal_delta

# The actions the filtered game keeps, per voter type: real voters on slot
# one, decoys on either slot. filter_premise shows every other one dominated.
KEPT = {REAL: (S1,), DECOY: (S1, S2)}


def scenario_for(districts, q, menu=MenuVariant.WEAK4, delta=None, v=100, eps=1, seed=0):
    """Build a scenario with the menu's minimum tie price unless given one."""
    if delta is None:
        probe = make_scenario(districts, v, eps, 1, q, menu=menu, seed=seed)
        delta = minimal_delta(probe)
    return make_scenario(districts, v, eps, delta, q, menu=menu, seed=seed)


def sym(k, r, d, q, **kwargs):
    """Symmetric scenario: k districts, each with r real and d decoy ballots."""
    return scenario_for([(r, d)] * k, q, **kwargs)


def full_scan(s, filtered):
    """Every count profile of the filtered (both slots, no abstention) or the
    unfiltered game, in ascending order of its count tuple, kept when the
    public is_nash accepts it: the scan with no orbit reduction."""
    def splits(n):  # (slot one, slot two, abstain), ascending
        if filtered:
            return [(a, n - a, 0) for a in range(n + 1)]
        return [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    options = [[rc + dc for rc in splits(d.real_count) for dc in splits(d.decoy_count)]
               for d in s.districts]
    return tuple(counts for counts in product(*options)
                 if is_nash(s, CountProfile.from_counts(counts), filter_dominated=filtered))


def orbit_scan_reference(s, filtered):
    """The orbit scan without blocks: one Nash check (the library's judge,
    one memo entry per threshold bottom) per representative, one multiset
    of splits per group of identical districts, each equilibrium expanded
    to every arrangement and put back in district order; the sorted count
    tuples."""
    ctx = equilibrium._Ctx(s)
    by_counts = {}
    for k, key in enumerate(zip(ctx.n_real, ctx.n_decoy)):
        by_counts.setdefault(key, []).append(k)
    widths = (1, 2) if filtered else (3, 3)
    moves = equilibrium._FILTERED_MOVES if filtered else equilibrium._ALL_MOVES
    order = [k for ks in by_counts.values() for k in ks]
    place = sorted(range(len(order)), key=order.__getitem__)
    orbits, judged = [], []  # judged[i]: the compiled option of bit 1 << i
    for (r, d), ks in by_counts.items():
        reals, decoys = equilibrium._Parts(r, widths[0]), equilibrium._Parts(d, widths[1])
        ids = range(len(judged), len(judged) + reals.size * decoys.size)
        judged += [equilibrium._compiled(ctx, ks[0], rc + dc, moves)
                   for rc in reals for dc in decoys]
        orbits.append(list(combinations_with_replacement(ids, len(ks))))
    q, memo, found = ctx.tables.q, {}, []
    for representative in product(*orbits):
        ids = tuple(chain.from_iterable(representative))
        bottom = Threshold.bottom([judged[i][0] for i in ids], q)
        if bottom not in memo:
            memo[bottom] = [Threshold(bottom, q), 0, 0]
        mask = reduce(or_, (1 << i for i in ids))
        if not equilibrium._judge(ctx.tables.verdicts, memo[bottom], mask, judged):
            rows = [sorted(judged[i][2] for i in element) for element in representative]
            for arrangement in product(*map(equilibrium._distinct_permutations, rows)):
                flat = tuple(chain.from_iterable(arrangement))
                found.append(tuple(flat[i] for i in place))
    return tuple(sorted(found))


def replay_fair_draw(rng_seed, pool, need):
    """The documented fair draw, replayed apart from the program: the first
    need entries of a Fisher-Yates shuffle of pool from random.Random(rng_seed)."""
    rng = random.Random(rng_seed)
    items = list(pool)
    for i in range(need):
        j = i + rng.randrange(len(items) - i)
        items[i], items[j] = items[j], items[i]
    return items[:need]
