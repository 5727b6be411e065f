"""Independent oracles for the test suite.

Everything here recomputes results from first principles: the price tables
are transcribed directly, expected values average over explicitly
enumerated draws instead of marginal probabilities, and the Nash scan works
per citizen with no symmetry reduction. Nothing imports the library's
payoff or classification code.
"""

from fractions import Fraction
from itertools import combinations, product

S1, S2, ABSTAIN = "s1", "s2", "abstain"
REAL, DECOY = "real", "decoy"
BELOW, TIED, ABOVE = "below", "tied", "above"

# Transcribed price tables: menu -> slot -> status -> price function of
# (v, eps, delta). Statuses: outright-selected, draw-selected, not selected.
SEL_OUT, SEL_DRAW, NS = "sel_out", "sel_draw", "ns"


def oracle_price(menu_tag, slot, status, v, eps, delta):
    selected = status in (SEL_OUT, SEL_DRAW)
    if slot == S1:
        return v + eps if selected else eps
    if menu_tag == "weak4":
        return delta if selected else 2 * eps
    if menu_tag == "strong4":
        return 2 * eps
    if menu_tag == "strong6":
        if status == SEL_OUT:
            return v - eps
        if status == SEL_DRAW:
            return delta
        return 2 * eps
    raise ValueError(menu_tag)


def oracle_partition(values, q):
    """The threshold (the q-th smallest value, with multiplicity) and each
    value's BELOW, TIED or ABOVE status against it."""
    threshold = sorted(values)[q - 1]
    return threshold, tuple(
        BELOW if x < threshold else (TIED if x == threshold else ABOVE) for x in values
    )


def _classify(m, n_real, q):
    """The outright (below) and tied districts of slot-one counts m."""
    _, statuses = oracle_partition([Fraction(mk, nk) for mk, nk in zip(m, n_real)], q)
    return ([k for k, st in enumerate(statuses) if st == BELOW],
            [k for k, st in enumerate(statuses) if st == TIED])


def _draws(below, tied, q):
    """All final selections, equally likely; a draw of the whole tie set is
    certain, which matters for six-price status assignment."""
    need = q - len(below)
    combos = list(combinations(tied, need))
    certain = need == len(tied)
    return combos, Fraction(1, len(combos)), certain


def _status(k, below, drawn, certain):
    if k in below:
        return SEL_OUT
    if k in drawn:
        return SEL_OUT if certain else SEL_DRAW
    return NS


def _settle(price, valuation):
    return price if price > valuation else valuation


def oracle_expected_payoff(scenario, counts, k, voter_type, action):
    """Expected payoff of one (district, type, action) voter, by full draw
    enumeration over the profile given as per-district count tuples."""
    v, eps, delta = scenario.real_value, scenario.epsilon, scenario.delta
    valuation = v if voter_type == REAL else Fraction(0)
    if action == ABSTAIN:
        return valuation
    n_real = [d.real_count for d in scenario.districts]
    m = [c[0] + c[3] for c in counts]
    below, tied = _classify(m, n_real, scenario.target_count)
    combos, w, certain = _draws(below, tied, scenario.target_count)
    total = Fraction(0)
    for drawn in combos:
        price = oracle_price(scenario.menu.tag, action,
                             _status(k, below, drawn, certain), v, eps, delta)
        total += w * _settle(price, valuation)
    return total


def oracle_expected_expenditure(scenario, counts):
    """Expected total spending, by full draw enumeration."""
    v, eps, delta = scenario.real_value, scenario.epsilon, scenario.delta
    n_real = [d.real_count for d in scenario.districts]
    m = [c[0] + c[3] for c in counts]
    below, tied = _classify(m, n_real, scenario.target_count)
    combos, w, certain = _draws(below, tied, scenario.target_count)
    total = Fraction(0)
    for drawn in combos:
        spend = Fraction(0)
        for k, cnt in enumerate(counts):
            status = _status(k, below, drawn, certain)
            for voter_type, valuation, idx in ((REAL, v, 0), (DECOY, Fraction(0), 3)):
                for slot, off in ((S1, 0), (S2, 1)):
                    n = cnt[idx + off]
                    if n == 0:
                        continue
                    price = oracle_price(scenario.menu.tag, slot, status, v, eps, delta)
                    if price > valuation:
                        spend += price * n
        total += w * spend
    return total


def oracle_settlement(scenario, counts, below, drawn, certain):
    """One fixed final selection settled citizen by citizen: each voter on a
    slot is offered that slot's price at his district's final status and
    sells when it beats his valuation; abstainers get no offer. Returns
    the classes as {(district, type, slot): (price, sells, count, paid)},
    the expenditure and the real ballots acquired per district."""
    v, eps, delta = scenario.real_value, scenario.epsilon, scenario.delta
    classes, spend, acquired = {}, Fraction(0), [0] * len(counts)
    for k, cnt in enumerate(counts):
        status = _status(k, below, drawn, certain)
        for voter_type, valuation, idx in ((REAL, v, 0), (DECOY, Fraction(0), 3)):
            for slot, off in ((S1, 0), (S2, 1)):
                for _ in range(cnt[idx + off]):
                    price = oracle_price(scenario.menu.tag, slot, status, v, eps, delta)
                    sells = price > valuation
                    _, _, n, paid = classes.get((k, voter_type, slot), (None, None, 0, 0))
                    classes[(k, voter_type, slot)] = (price, sells, n + 1,
                                                      paid + (price if sells else 0))
                    if sells:
                        spend += price
                        acquired[k] += voter_type == REAL
    return classes, spend, tuple(acquired)


def oracle_expenditure_bound(scenario, inside_decoy_price, outside_decoy_price):
    """Largest spend over every q-subset of districts: real ballots inside at
    V + eps, decoys inside and outside at the given prices."""
    v, eps = scenario.real_value, scenario.epsilon
    total_decoy = sum(d.decoy_count for d in scenario.districts)
    best = None
    for subset in combinations(scenario.districts, scenario.target_count):
        inside_real = sum(d.real_count for d in subset)
        inside_decoy = sum(d.decoy_count for d in subset)
        value = ((v + eps) * inside_real + inside_decoy_price * inside_decoy
                 + outside_decoy_price * (total_decoy - inside_decoy))
        if best is None or value > best:
            best = value
    return best


def _voters(scenario):
    out = []
    for k, d in enumerate(scenario.districts):
        out.extend([(k, REAL)] * d.real_count)
        out.extend([(k, DECOY)] * d.decoy_count)
    return out


def _assignment_payoff(scenario, voters, actions, i, cls_cache):
    """Payoff of voter i under a full per-citizen assignment."""
    v, eps, delta = scenario.real_value, scenario.epsilon, scenario.delta
    k, voter_type = voters[i]
    action = actions[i]
    valuation = v if voter_type == REAL else Fraction(0)
    if action == ABSTAIN:
        return valuation
    m = [0] * scenario.num_districts
    for (dk, _), act in zip(voters, actions):
        if act == S1:
            m[dk] += 1
    key = tuple(m)
    got = cls_cache.get(key)
    if got is None:
        n_real = [d.real_count for d in scenario.districts]
        below, tied = _classify(m, n_real, scenario.target_count)
        got = (below, *_draws(below, tied, scenario.target_count))
        cls_cache[key] = got
    below, combos, w, certain = got
    total = Fraction(0)
    for drawn in combos:
        price = oracle_price(scenario.menu.tag, action,
                             _status(k, below, drawn, certain), v, eps, delta)
        total += w * _settle(price, valuation)
    return total


def per_citizen_equilibria(scenario, filter_dominated):
    """Exhaustive per-citizen Nash scan; returns count-profile tuples.

    No symmetry reduction: every citizen is assigned an action individually
    and every citizen's unilateral deviations are checked.
    """
    voters = _voters(scenario)
    if filter_dominated:
        options = [(S1,) if vt == REAL else (S1, S2) for _, vt in voters]
    else:
        options = [(S1, S2, ABSTAIN)] * len(voters)
    cls_cache = {}
    found = set()
    for actions in product(*options):
        actions = list(actions)
        is_nash = True
        for i, opts in enumerate(options):
            if len(opts) == 1:
                continue
            current = _assignment_payoff(scenario, voters, actions, i, cls_cache)
            original = actions[i]
            for alt in opts:
                if alt == original:
                    continue
                actions[i] = alt
                better = _assignment_payoff(scenario, voters, actions, i, cls_cache)
                actions[i] = original
                if better > current:
                    is_nash = False
                    break
            if not is_nash:
                break
        if is_nash:
            found.add(_to_counts(scenario, voters, actions))
    return found


def _to_counts(scenario, voters, actions):
    rows = [[0, 0, 0, 0, 0, 0] for _ in range(scenario.num_districts)]
    slot_index = {(REAL, S1): 0, (REAL, S2): 1, (REAL, ABSTAIN): 2,
                  (DECOY, S1): 3, (DECOY, S2): 4, (DECOY, ABSTAIN): 5}
    for (k, voter_type), action in zip(voters, actions):
        rows[k][slot_index[(voter_type, action)]] += 1
    return tuple(tuple(r) for r in rows)


def oracle_tie_payoff_gap(scenario):
    """The weak four-price uniqueness margin, term by term: delta reaches
    (q/k) V + 2 eps, and for every count c of outright-selected districts
    below q the best tie-set gamble (q-c)/(k-c) V + eps stays at or below
    that floor less eps, which stays strictly below delta."""
    k, q = scenario.num_districts, scenario.target_count
    v, eps, delta = scenario.real_value, scenario.epsilon, scenario.delta
    floor = Fraction(q, k) * v + 2 * eps
    if delta < floor:
        return False
    for c in range(q):
        gamble = Fraction(q - c, k - c) * v + eps
        if not (gamble <= floor - eps < delta):
            return False
    return True
