import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import replay_fair_draw, scenario_for, sym
from devilsmenu import (
    CommitmentGame,
    CommitmentProfile,
    DeltaBelowThreshold,
    ProfileError,
    enumerate_equilibria,
    execute,
    minimal_delta,
    run_commitment,
    run_lemons,
    run_sequential,
    verify_commitment_equilibrium,
    verify_subgame_perfect,
)
from devilsmenu import variants
from devilsmenu.cli import main
from devilsmenu.mechanism import DECOY, REAL, S1, S2, CountProfile
from devilsmenu.variants import commitment_payoff

V = Fraction(100)
EPS = Fraction(1)


def decoy_payments(outcome):
    return sum(
        (pay.paid for (k, vt, slot), pay in outcome.prices_paid.items() if vt == DECOY),
        Fraction(0),
    )


# --------------------------------------------------------------- sequential


def test_sequential_runs_and_totals():
    s = sym(3, 2, 2, 2, delta=Fraction(52), seed=11)
    outcomes = run_sequential(s, random.Random(s.seed))
    assert len(outcomes) == 2
    bought = [next(iter(o.selected)) for o in outcomes]
    assert len(set(bought)) == 2  # no district bought twice
    # Round class sums: 2*101 + 2*52 plus 2*eps per outside decoy.
    assert outcomes[0].expenditure == 202 + 104 + 8 == 314
    assert outcomes[1].expenditure == 202 + 104 + 4 == 310
    assert sum(o.expenditure for o in outcomes) == 624
    assert sum(o.total_acquired for o in outcomes) == 4
    for o in outcomes:
        assert o.total_acquired == 2


def test_sequential_buys_one_new_district_per_round():
    s = sym(3, 2, 2, 2, delta=Fraction(52), seed=2)
    bought = []
    for outcome in run_sequential(s, random.Random(s.seed)):
        # Only the districts still in play are priced, and one of them is bought.
        assert {k for k, _, _ in outcome.prices_paid} == set(range(s.num_districts)) - set(bought)
        (k,) = outcome.selected
        bought.append(k)
    assert len(bought) == len(set(bought)) == s.target_count


def test_sequential_cheaper_tie_price_than_one_shot():
    # Thresholds: sequential V/(k-q+1) + 2 = 52, one-shot (q/k)V + 2 = 206/3.
    seq = sym(3, 2, 2, 2, delta=Fraction(52))
    one = sym(3, 2, 2, 2)  # defaults to the one-shot minimum
    assert minimal_delta(seq, sequential=True) == 52
    assert minimal_delta(one) == Fraction(206, 3)
    assert Fraction(52) < Fraction(206, 3)
    seq_outcomes = run_sequential(seq, random.Random(0))
    one_outcome = execute(one, CountProfile.sigma_star(one), random.Random(0))
    assert one_outcome.expenditure == 4 * 101 + 4 * Fraction(206, 3) + 4 == Fraction(2048, 3)
    assert sum(o.expenditure for o in seq_outcomes) < one_outcome.expenditure
    # Decoy-payment comparison from the stated condition k <= q*(k-q+1).
    k, q = 3, 2
    assert k <= q * (k - q + 1)
    seq_decoy = sum(decoy_payments(o) for o in seq_outcomes)
    assert seq_decoy <= decoy_payments(one_outcome)


def test_sequential_refuses_low_tie_price():
    s = sym(3, 2, 2, 2, delta=Fraction(51))
    with pytest.raises(DeltaBelowThreshold) as err:
        run_sequential(s, random.Random(0))
    assert err.value.required == 52


def test_sequential_single_target_equals_one_shot_threshold():
    s = sym(3, 2, 2, 1, delta=Fraction(36))
    assert minimal_delta(s, sequential=True) == minimal_delta(s) == Fraction(106, 3)
    outcomes = run_sequential(s, random.Random(4))
    assert len(outcomes) == 1
    direct = execute(s, CountProfile.sigma_star(s), random.Random(4))
    assert outcomes[0].expenditure == direct.expenditure
    assert outcomes[0].selected == direct.selected


def test_sequential_requires_weak4():
    from devilsmenu import MenuVariant
    s = sym(3, 2, 2, 2, menu=MenuVariant.STRONG6)
    with pytest.raises(ValueError):
        run_sequential(s, random.Random(0))


def test_subgame_perfect_small_instances():
    assert verify_subgame_perfect(sym(3, 1, 1, 2, delta=Fraction(52)))
    assert verify_subgame_perfect(sym(2, 1, 2, 1, delta=Fraction(52)))
    assert verify_subgame_perfect(sym(3, 2, 2, 2, delta=Fraction(52)))


def test_subgame_perfect_refuses_below_threshold():
    with pytest.raises(DeltaBelowThreshold):
        verify_subgame_perfect(sym(3, 1, 1, 2, delta=Fraction(51)))


def test_subgame_perfect_single_round_is_plain_uniqueness():
    s = sym(2, 1, 1, 1, delta=Fraction(52))
    assert verify_subgame_perfect(s)
    assert enumerate_equilibria(s).sigma_star_unique


def record_residuals(monkeypatch, fail=None):
    """Record each residual that verify_subgame_perfect scans, as its sorted
    (real, decoy) pairs, and report the residual fail as not unique."""
    scan = variants.enumerate_equilibria
    seen = []

    def recorder(residual, *args, **kwargs):
        pairs = tuple(sorted((d.real_count, d.decoy_count) for d in residual.districts))
        seen.append(pairs)
        report = scan(residual, *args, **kwargs)
        return report._replace(sigma_star_unique=False) if pairs == fail else report

    monkeypatch.setattr(variants, "enumerate_equilibria", recorder)
    return seen


UNEVEN = [(1, 1), (1, 1), (2, 1)]
UNEVEN_RESIDUALS = [((1, 1), (1, 1), (2, 1)), ((1, 1), (1, 1)), ((1, 1), (2, 1))]


@pytest.mark.parametrize("districts, scans", [([(2, 2)] * 3, 2), (UNEVEN, 3)])
def test_subgame_check_scans_each_residual_multiset_once(monkeypatch, districts, scans):
    # q = 2 of 3: rounds face residuals of 3 and 2 districts. Scanning every
    # index subset would scan 1 + 3.
    s = scenario_for(districts, 2, delta=Fraction(52))
    seen = record_residuals(monkeypatch)
    assert verify_subgame_perfect(s)
    want = {tuple(sorted(c)) for n in (3, 2) for c in combinations(districts, n)}
    assert len(seen) == len(set(seen)) == len(want) == scans
    assert set(seen) == want
    assert [len(r) for r in seen] == sorted((len(r) for r in seen), reverse=True)


@pytest.mark.parametrize("fail", UNEVEN_RESIDUALS)
def test_subgame_check_fails_when_any_round_fails(monkeypatch, fail):
    seen = record_residuals(monkeypatch, fail)
    assert not verify_subgame_perfect(scenario_for(UNEVEN, 2, delta=Fraction(52)))
    assert seen[-1] == fail


def test_cli_sequential_claim_fails_when_a_round_fails(monkeypatch, tmp_path, capsys):
    record_residuals(monkeypatch, UNEVEN_RESIDUALS[-1])
    path = tmp_path / "uneven.json"
    path.write_text(json.dumps({
        "districts": [{"real": r, "decoy": d} for r, d in UNEVEN],
        "V": 100, "epsilon": 1, "delta": 52, "q": 2, "menu": "weak4",
    }))
    assert main(["verify", "--claim", "sequential-spe", "--scenario", str(path)]) == 1
    assert "a round failed" in capsys.readouterr().out


# --------------------------------------------------------------- commitment


def test_commitment_on_path_buys_target():
    game = CommitmentGame(3, 2, V, EPS)
    profile = CommitmentProfile.sigma_star(game, n_decoy=4)
    out = run_commitment(game, profile, random.Random(0))
    assert not out.overflow
    assert out.winners_real == 2 and out.winners_decoy == 0
    assert out.acquired_real_ballots == 2
    assert out.expenditure == 2 * 101 + 4 * 1
    assert out.prices_paid[(DECOY, S2)].price == EPS


def test_commitment_overflow_kills_all_slot_one_offers():
    game = CommitmentGame(3, 2, V, EPS)
    profile = CommitmentProfile(real_s1=3, real_s2=0, decoy_s1=1, decoy_s2=3)
    out = run_commitment(game, profile, random.Random(0))
    assert out.overflow
    assert out.acquired_real_ballots == 0
    assert out.expenditure == EPS * 3  # only the slot-two decoys get paid
    assert not out.prices_paid[(REAL, S1)].sells
    assert not out.prices_paid[(DECOY, S1)].sells
    assert out.prices_paid[(REAL, S1)].price == 0


def test_commitment_all_or_nothing_when_reals_hold_slot_one():
    game = CommitmentGame(4, 2, V, EPS)
    for decoy_s1 in range(4):
        profile = CommitmentProfile(4, 0, decoy_s1, 3 - decoy_s1)
        out = run_commitment(game, profile, random.Random(1))
        assert out.acquired_real_ballots in (0, game.purchase_target)
        assert (out.acquired_real_ballots == 0) == (decoy_s1 > 0)


def test_commitment_mixed_slot_one_pool_draws_by_type():
    # 2 real + 1 decoy applicants under a cap of 3: the winner mix varies
    # with the draw but always totals the target.
    game = CommitmentGame(3, 2, V, EPS)
    profile = CommitmentProfile(real_s1=2, real_s2=1, decoy_s1=1, decoy_s2=0)
    seen = set()
    for seed in range(200):
        out = run_commitment(game, profile, random.Random(seed))
        assert out.winners_real + out.winners_decoy == 2
        assert out.acquired_real_ballots == out.winners_real
        seen.add((out.winners_real, out.winners_decoy))
    assert seen == {(2, 0), (1, 1)}


def test_commitment_winners_replay_the_fair_draw():
    # The winners are the replayed draw over the slot-one pool, real
    # applicants first, then decoys; no run overflows here.
    for seed in range(200):
        layout = random.Random(10_000 + seed)
        total_real = layout.randint(1, 6)
        real_s1 = layout.randint(0, total_real)
        decoy_s1 = layout.randint(0, total_real - real_s1)
        game = CommitmentGame(total_real, layout.randint(1, total_real), V, EPS)
        profile = CommitmentProfile(real_s1, total_real - real_s1, decoy_s1, 2)
        out = run_commitment(game, profile, random.Random(seed))
        need = min(game.purchase_target, real_s1 + decoy_s1)
        drawn = replay_fair_draw(seed, [REAL] * real_s1 + [DECOY] * decoy_s1, need)
        assert not out.overflow
        assert (out.winners_real, out.winners_decoy) == (drawn.count(REAL), drawn.count(DECOY))


def test_commitment_run_settles_like_the_expected_payoff():
    # eps above V: the slot-two offer beats a real voter's valuation, so a
    # real slot-two applicant sells in a run exactly as the payoff says.
    game = CommitmentGame(2, 1, Fraction(10), Fraction(15))
    out = run_commitment(game, CommitmentProfile(1, 1, 0, 2), random.Random(0))
    pay = out.prices_paid[(REAL, S2)]
    assert pay.sells and pay.paid == 15
    assert commitment_payoff(game, 1, REAL, S2) == 15
    assert out.expenditure == (10 + 15) + 15 + 2 * 15


def test_commitment_rejects_wrong_real_total():
    game = CommitmentGame(3, 1, V, EPS)
    with pytest.raises(ProfileError):
        run_commitment(game, CommitmentProfile(2, 0, 0, 1), random.Random(0))


def test_commitment_game_validation():
    with pytest.raises(ValueError):
        CommitmentGame(3, 0, V, EPS)
    with pytest.raises(ValueError):
        CommitmentGame(3, 4, V, EPS)


def test_commitment_equilibrium_unique_sigma_star():
    game = CommitmentGame(3, 1, V, EPS)
    report = verify_commitment_equilibrium(game, n_decoy=3)
    assert report.profiles_scanned == 4 * 4
    assert report.sigma_star_unique
    (eq,) = report.equilibria
    assert eq == CommitmentProfile(3, 0, 0, 3)


def test_commitment_single_decoy_sabotage():
    # One decoy in slot one overflows the cap; every slot-one offer is zero,
    # and that decoy would be better off back in slot two, so the profile is
    # not an equilibrium; but as a realized run it acquires nothing.
    game = CommitmentGame(3, 1, V, EPS)
    report = verify_commitment_equilibrium(game, n_decoy=3)
    sabotaged = CommitmentProfile(3, 0, 1, 2)
    assert sabotaged not in report.equilibria
    out = run_commitment(game, sabotaged, random.Random(0))
    assert out.acquired_real_ballots == 0 and out.expenditure == 2 * EPS


def test_commitment_unfiltered_admits_mimicry():
    # Without the dominance screen, a decoy can replace a real voter in
    # slot one and nobody strictly gains by moving.
    game = CommitmentGame(3, 1, V, EPS)
    report = verify_commitment_equilibrium(game, n_decoy=1, filter_dominated=False)
    mimic = CommitmentProfile(2, 1, 1, 0)
    assert mimic in report.equilibria
    filtered = verify_commitment_equilibrium(game, n_decoy=1)
    assert mimic not in filtered.equilibria
    assert filtered.sigma_star_unique


# ------------------------------------------------------------------- lemons


def test_lemons_equilibrium_buys_good_car():
    out = run_lemons(3, 5, V, EPS, random.Random(0))
    assert out.purchased and out.purchased_good
    assert out.price == V + EPS
    assert out.bad_sellers_paid == 5
    assert out.expenditure == 101 + 5


def test_lemons_single_good_seller_certain():
    out = run_lemons(1, 0, V, EPS, random.Random(0))
    assert out.purchased and out.purchased_good
    assert out.expenditure == 101


def test_lemons_bad_seller_deviation_blocks_purchase():
    out = run_lemons(1, 4, V, EPS, random.Random(0), bad_in_slot1=1)
    assert not out.purchased
    assert out.purchased_good is None and out.price is None
    assert out.expenditure == 3 * EPS  # remaining bad sellers in slot two


def test_lemons_validates_inputs():
    with pytest.raises(ValueError):
        run_lemons(0, 3, V, EPS, random.Random(0))
    with pytest.raises(ValueError):
        run_lemons(2, 1, V, EPS, random.Random(0), bad_in_slot1=2)
