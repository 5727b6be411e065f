import random
from itertools import product

from devilsmenu import MenuVariant, is_nash, make_scenario
from devilsmenu.mechanism import CountProfile, minimal_delta


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


def replay_fair_draw(rng_seed, pool, need):
    """The documented fair draw, replayed apart from the program: the first
    need entries of a Fisher-Yates shuffle of pool from random.Random(rng_seed)."""
    rng = random.Random(rng_seed)
    items = list(pool)
    for i in range(need):
        j = i + rng.randrange(len(items) - i)
        items[i], items[j] = items[j], items[i]
    return items[:need]
