"""Mechanism variants beyond the one-shot menus.

Sequential buying (one district per date), the districtless all-or-nothing
commitment mechanism, and its used-car-market reading where good cars play
the role of real ballots.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .equilibrium import DEFAULT_SCAN_CAP, EquilibriumReport, enumerate_equilibria
from .mechanism import (
    DECOY,
    REAL,
    S1,
    S2,
    ClassPayment,
    CountProfile,
    Outcome,
    commitment_price,
    execute,
    fair_draw,
    minimal_delta,
    require_delta_at_least,
    settle,
    valuation,
    voter_payoff,
)
from .model import ProfileError, ScanCapExceeded, Scenario


@dataclass(frozen=True)
class SequentialState:
    """Progress of a sequential run before a round: 1-based round number,
    districts still in play (original indices), and the rounds bought so far."""

    round: int
    remaining_districts: tuple[int, ...]
    purchased_so_far: tuple[Outcome, ...]


def _remap_outcome(outcome: Outcome, index_map: tuple[int, ...], total_districts: int) -> Outcome:
    """Lift a residual-scenario outcome back to original district indices."""
    selected = frozenset(index_map[k] for k in outcome.selected)
    drawn = frozenset(index_map[k] for k in outcome.drawn_from_tie)
    prices = {
        (index_map[k], vt, slot): pay
        for (k, vt, slot), pay in outcome.prices_paid.items()
    }
    acquired = [0] * total_districts
    for k, got in enumerate(outcome.acquired_real_ballots):
        acquired[index_map[k]] = got
    return Outcome(selected, drawn, prices, outcome.expenditure, tuple(acquired))


def sequential_rounds(s: Scenario, rng: random.Random):
    """Yield (state, outcome) per date of a sequential run.

    Each date reruns the one-shot mechanism with a single-district target on
    the remaining districts under the target profile (justified by the
    subgame check below), then removes the district it bought. District
    indices in states and outcomes refer to the original scenario. Refuses if
    delta is below the last date's critical value, which is the binding one.
    """
    if s.menu.tag != "weak4":
        raise ValueError("sequential buying runs the weak four-price menu")
    require_delta_at_least(s, minimal_delta(s, sequential=True))
    remaining = tuple(range(s.num_districts))
    purchased: tuple[Outcome, ...] = ()
    for round_no in range(1, s.target_count + 1):
        state = SequentialState(round_no, remaining, purchased)
        residual = s.with_districts([s.districts[i] for i in remaining], target_count=1)
        profile = CountProfile.sigma_star(residual)
        outcome = _remap_outcome(execute(residual, profile, rng), remaining,
                                 s.num_districts)
        yield state, outcome
        (bought,) = outcome.selected
        remaining = tuple(i for i in remaining if i != bought)
        purchased = purchased + (outcome,)


def run_sequential(s: Scenario, rng: random.Random) -> list[Outcome]:
    """Buy one district per date, q dates total, four-price menu each round."""
    return [outcome for _, outcome in sequential_rounds(s, rng)]


def verify_subgame_perfect(s: Scenario, scan_cap: int = DEFAULT_SCAN_CAP) -> bool:
    """Backward-induction check that every reachable round has a unique equilibrium.

    At round r any r-1 districts may already have been bought, so every
    residual district set of that size is reachable; each must have exactly
    the target profile as its filtered equilibrium under a single-district
    target. True iff all residual games pass.
    """
    if s.menu.tag != "weak4":
        raise ValueError("sequential buying runs the weak four-price menu")
    require_delta_at_least(s, minimal_delta(s, sequential=True))
    indices = range(s.num_districts)
    for round_no in range(1, s.target_count + 1):
        for gone in itertools.combinations(indices, round_no - 1):
            remaining = [i for i in indices if i not in gone]
            residual = s.with_districts([s.districts[i] for i in remaining], target_count=1)
            report = enumerate_equilibria(residual, filter_dominated=True, scan_cap=scan_cap)
            if not report.sigma_star_unique:
                return False
    return True


@dataclass(frozen=True)
class CommitmentGame:
    """Districtless all-or-nothing purchase of some of the real ballots.

    The buyer wants purchase_target real ballots out of total_real. If slot
    one attracts more applicants than there are real ballots, she commits to
    buying nothing from that slot.
    """

    total_real: int
    purchase_target: int
    real_value: Fraction
    epsilon: Fraction

    def __post_init__(self):
        if self.total_real < 1:
            raise ValueError("need at least one real ballot")
        if not (1 <= self.purchase_target <= self.total_real):
            raise ValueError(
                f"purchase target must be in 1..{self.total_real}, "
                f"got {self.purchase_target}"
            )
        if self.real_value <= 0 or self.epsilon <= 0:
            raise ValueError("V and epsilon must be positive")


@dataclass(frozen=True)
class CommitmentProfile:
    """Applicant counts per (type, slot); everyone applies for some slot."""

    real_s1: int
    real_s2: int
    decoy_s1: int
    decoy_s2: int

    @property
    def slot1_total(self) -> int:
        return self.real_s1 + self.decoy_s1

    @classmethod
    def sigma_star(cls, game: CommitmentGame, n_decoy: int) -> "CommitmentProfile":
        return cls(game.total_real, 0, 0, n_decoy)


@dataclass(frozen=True)
class CommitmentOutcome:
    """Realized run of the all-or-nothing mechanism."""

    overflow: bool
    winners_real: int
    winners_decoy: int
    acquired_real_ballots: int
    expenditure: Fraction
    prices_paid: dict[tuple[str, str], ClassPayment]


def run_commitment(
    game: CommitmentGame, profile: CommitmentProfile, rng: random.Random
) -> CommitmentOutcome:
    """Settle one run: overflow kills all slot-one offers, otherwise draw winners.

    With overflow every slot-one applicant is offered zero (nobody sells at
    zero: a decoy is indifferent and keeps his ballot). Otherwise the target
    number of slot-one applicants, drawn by mechanism.fair_draw over the
    real applicants then the decoys, are offered V + eps and all sell;
    applicants not drawn receive no offer. Slot-two applicants are always
    offered eps. Prices are mechanism.commitment_price's, and every class
    settles by mechanism.settle.
    """
    if min(profile.real_s1, profile.real_s2, profile.decoy_s1, profile.decoy_s2) < 0:
        raise ProfileError("negative applicant count")
    if profile.real_s1 + profile.real_s2 != game.total_real:
        raise ProfileError(
            f"real applicants sum to {profile.real_s1 + profile.real_s2}, "
            f"expected {game.total_real}"
        )
    offered = {(REAL, S2): profile.real_s2, (DECOY, S2): profile.decoy_s2}
    overflow = profile.slot1_total > game.total_real
    if overflow:
        offered[(REAL, S1)], offered[(DECOY, S1)] = profile.real_s1, profile.decoy_s1
        winners_real = winners_decoy = 0
    else:
        need = min(game.purchase_target, profile.slot1_total)
        winners_real = fair_draw([REAL] * profile.real_s1 + [DECOY] * profile.decoy_s1,
                                 need, rng).count(REAL)
        winners_decoy = need - winners_real
        offered[(REAL, S1)], offered[(DECOY, S1)] = winners_real, winners_decoy
    v, eps = game.real_value, game.epsilon
    prices: dict[tuple[str, str], ClassPayment] = {
        (voter_type, slot): settle(voter_type, commitment_price(slot, overflow, v, eps), count, v)
        for (voter_type, slot), count in offered.items() if count
    }
    expenditure = sum((p.paid for p in prices.values()), Fraction(0))
    return CommitmentOutcome(
        overflow=overflow,
        winners_real=winners_real,
        winners_decoy=winners_decoy,
        acquired_real_ballots=winners_real,
        expenditure=expenditure,
        prices_paid=prices,
    )


def commitment_payoff(
    game: CommitmentGame, slot1_total: int, voter_type: str, slot: str
) -> Fraction:
    """Analytic expected payoff of one applicant given the slot-one headcount.

    slot1_total counts the voter himself when he is in slot one. Winners are
    drawn with probability target / slot1_total (capped at one when fewer
    apply than the target).
    """
    v = game.real_value
    overflow = slot == S1 and slot1_total > game.total_real
    offer = voter_payoff(voter_type, commitment_price(slot, overflow, v, game.epsilon), v)
    if slot == S2 or overflow:
        return offer
    p_win = min(Fraction(1), Fraction(game.purchase_target, slot1_total))
    return p_win * offer + (1 - p_win) * valuation(voter_type, v)


def _commitment_is_nash(
    game: CommitmentGame, n_decoy: int, real_s1: int, decoy_s1: int, filtered: bool
) -> bool:
    s1_total = real_s1 + decoy_s1
    if filtered and real_s1 != game.total_real:
        return False
    movers = [(DECOY, decoy_s1, n_decoy - decoy_s1)]
    if not filtered:
        movers.append((REAL, real_s1, game.total_real - real_s1))
    for voter_type, in_s1, in_s2 in movers:
        if in_s1:
            cur = commitment_payoff(game, s1_total, voter_type, S1)
            if commitment_payoff(game, s1_total - 1, voter_type, S2) > cur:
                return False
        if in_s2:
            cur = commitment_payoff(game, s1_total, voter_type, S2)
            if commitment_payoff(game, s1_total + 1, voter_type, S1) > cur:
                return False
    return True


def verify_commitment_equilibrium(
    game: CommitmentGame,
    n_decoy: int,
    filter_dominated: bool = True,
    scan_cap: int = 1_000_000,
) -> EquilibriumReport:
    """Scan all (real, decoy) slot splits and collect the equilibria.

    With dominance filtering, real voters sit on slot one (slot two is weakly
    dominated for them) and profiles off that line are not candidates.
    """
    space = (game.total_real + 1) * (n_decoy + 1)
    if space > scan_cap:
        raise ScanCapExceeded(space, scan_cap)
    equilibria = []
    for real_s1 in range(game.total_real + 1):
        for decoy_s1 in range(n_decoy + 1):
            if _commitment_is_nash(game, n_decoy, real_s1, decoy_s1, filter_dominated):
                equilibria.append(CommitmentProfile(
                    real_s1, game.total_real - real_s1,
                    decoy_s1, n_decoy - decoy_s1,
                ))
    sigma = CommitmentProfile.sigma_star(game, n_decoy)
    present = sigma in equilibria
    return EquilibriumReport(
        equilibria=tuple(equilibria),
        sigma_star_present=present,
        sigma_star_unique=present and len(equilibria) == 1,
        profiles_scanned=space,
        candidates_checked=space,
    )


@dataclass(frozen=True)
class LemonsOutcome:
    """One run of the used-car purchase: whether a car was bought, and which kind."""

    purchased: bool
    purchased_good: Optional[bool]
    price: Optional[Fraction]
    expenditure: Fraction
    bad_sellers_paid: int


def run_lemons(
    good_count: int,
    bad_count: int,
    v: Fraction,
    epsilon: Fraction,
    rng: random.Random,
    bad_in_slot1: int = 0,
) -> LemonsOutcome:
    """Buy one good used car from sellers of hidden quality.

    Good cars map to real ballots (valuation V), bad ones to decoys
    (valuation zero); the buyer runs the all-or-nothing mechanism with a
    single-car target. bad_in_slot1 moves that many bad-car sellers into
    slot one, which overflows the slot and kills the purchase.
    """
    if good_count < 1:
        raise ValueError("need at least one good car")
    if not (0 <= bad_in_slot1 <= bad_count):
        raise ValueError("bad_in_slot1 outside 0..bad_count")
    game = CommitmentGame(good_count, 1, v, epsilon)
    profile = CommitmentProfile(
        real_s1=good_count, real_s2=0,
        decoy_s1=bad_in_slot1, decoy_s2=bad_count - bad_in_slot1,
    )
    outcome = run_commitment(game, profile, rng)
    purchased = outcome.winners_real + outcome.winners_decoy == 1
    winner = outcome.prices_paid.get((REAL if outcome.winners_real else DECOY, S1))
    slot2 = outcome.prices_paid.get((DECOY, S2))
    return LemonsOutcome(
        purchased=purchased,
        purchased_good=(outcome.winners_real == 1) if purchased else None,
        price=winner.price if purchased else None,
        expenditure=outcome.expenditure,
        bad_sellers_paid=slot2.count if slot2 and slot2.sells else 0,
    )
