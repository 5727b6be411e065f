"""The value records are tuples: fixed repr text, equality and hashing by
value, no field assignment, pickling to an equal value. The two records
that check their fields refuse bad values however they are built."""

import pickle
import random
from fractions import Fraction

import pytest

from devilsmenu import MenuVariant, ScenarioFormatError, make_scenario
from devilsmenu.claims import run_claim
from devilsmenu.equilibrium import VoterClass, enumerate_equilibria, verify_sabotage_bound
from devilsmenu.mechanism import CountProfile, classify, execute, settle
from devilsmenu.variants import (
    CommitmentGame,
    CommitmentProfile,
    run_commitment,
    run_lemons,
)

V, EPS = Fraction(100), Fraction(1)
RECORDS = ("DistrictSpec", "MenuVariant", "Scenario", "CountProfile", "Classification",
           "ClassPayment", "Outcome", "VoterClass", "EquilibriumReport", "SabotageReport",
           "ClaimResult", "ClaimSuite", "CommitmentGame", "CommitmentProfile",
           "CommitmentOutcome", "LemonsOutcome")
# Records that hold a dict, so they have no hash.
UNHASHABLE = {"Outcome", "SabotageReport", "CommitmentOutcome"}


def records():
    """A fresh value of each record by its name, each built the way the
    program builds it."""
    s = make_scenario([(2, 1), (1, 2)], V, EPS, "5/2", 1)
    p = CountProfile.sigma_star(s)
    game = CommitmentGame(3, 2, V, EPS)
    profile = CommitmentProfile.sigma_star(game, 2)
    suite = run_claim("sabotage-bound", scenario=s)
    return {type(value).__name__: value for value in (
        s.districts[0], MenuVariant.parse("commitment:2"), s, p, classify(s, p),
        settle("real", V + EPS, 2, V), execute(s, p, random.Random(0)),
        VoterClass(0, "real", "s1"), enumerate_equilibria(s), verify_sabotage_bound(s),
        suite.results[0], suite, game, profile,
        run_commitment(game, profile, random.Random(0)),
        run_lemons(2, 3, V, EPS, random.Random(0)),
    )}


def test_every_record_is_covered():
    assert sorted(records()) == sorted(RECORDS)


def test_repr_text():
    s, p = records()["Scenario"], records()["CountProfile"]
    assert repr(s) == (
        "Scenario(districts=(DistrictSpec(real_count=2, decoy_count=1), "
        "DistrictSpec(real_count=1, decoy_count=2)), real_value=Fraction(100, 1), "
        "epsilon=Fraction(1, 1), delta=Fraction(5, 2), target_count=1, "
        "budget=Fraction(0, 1), menu=MenuVariant(tag='weak4', target=None), seed=0)")
    assert repr(p) == (
        "CountProfile(per_district=(ActionCount(real_s1=2, real_s2=0, real_abstain=0, "
        "decoy_s1=0, decoy_s2=1, decoy_abstain=0), ActionCount(real_s1=1, real_s2=0, "
        "real_abstain=0, decoy_s1=0, decoy_s2=2, decoy_abstain=0)))")
    assert repr(records()["ClassPayment"]) == (
        "ClassPayment(price=Fraction(101, 1), sells=True, count=2, paid=Fraction(202, 1))")


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    value, again = records()[name], records()[name]
    assert value == again and value is not again
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(again)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)


@pytest.mark.parametrize("args", [("fancy9",), ("commitment",), ("commitment", 0),
                                  ("weak4", 2)])
def test_menu_variant_refuses_bad_fields(args):
    with pytest.raises(ScenarioFormatError):
        MenuVariant(*args)


@pytest.mark.parametrize("text", ["fancy9", "commitment:0", "commitment:x", "strong6:2"])
def test_menu_variant_parse_refuses_bad_text(text):
    with pytest.raises(ScenarioFormatError):
        MenuVariant.parse(text)


@pytest.mark.parametrize("args, message", [
    ((0, 1, V, EPS), "need at least one real ballot"),
    ((3, 0, V, EPS), "purchase target must be in 1..3, got 0"),
    ((3, 4, V, EPS), "purchase target must be in 1..3, got 4"),
    ((3, 1, Fraction(0), EPS), "V and epsilon must be positive"),
    ((3, 1, V, Fraction(-1)), "V and epsilon must be positive"),
])
def test_commitment_game_refuses_bad_fields(args, message):
    with pytest.raises(ValueError, match=message):
        CommitmentGame(*args)
