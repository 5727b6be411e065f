from fractions import Fraction
from itertools import combinations

import pytest

from devilsmenu import (
    DistrictSpec,
    MenuVariant,
    ScenarioFormatError,
    brute_force_cost,
    format_rational,
    make_scenario,
    parse_rational,
    scenario_warnings,
    validate_budget,
    validate_scenario,
)


def test_parse_rational_forms():
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("106/3") == Fraction(106, 3)
    assert parse_rational(" 2/4 ") == Fraction(1, 2)
    got = parse_rational("2/4")
    assert got.numerator == 1 and got.denominator == 2  # lowest terms


@pytest.mark.parametrize("bad", ["", "1/0", "a/b", 1.5, True, None])
def test_parse_rational_rejects(bad):
    with pytest.raises(ScenarioFormatError):
        parse_rational(bad)


def test_format_rational_round_trip():
    for x in (Fraction(3), Fraction(-5, 2), Fraction(106, 3), Fraction(0)):
        assert parse_rational(format_rational(x)) == x


def test_menu_variant_parse():
    assert MenuVariant.parse("weak4") is not None
    assert MenuVariant.parse("commitment:3").target == 3
    assert str(MenuVariant.parse("strong6")) == "strong6"
    assert str(MenuVariant.commitment(2)) == "commitment:2"
    with pytest.raises(ScenarioFormatError):
        MenuVariant.parse("fancy9")
    with pytest.raises(ScenarioFormatError):
        MenuVariant.parse("commitment:0")


def test_menu_variant_has_two_fields():
    assert repr(MenuVariant.WEAK4) == "MenuVariant(tag='weak4', target=None)"
    with pytest.raises(TypeError):
        MenuVariant("weak4", None, MenuVariant.STRONG4)


def test_with_districts_keeps_the_pricing_and_takes_the_new_target():
    s = make_scenario([(2, 1), (1, 2), (3, 3)], 100, 1, 36, 2, budget=7, seed=5)
    sub = s.with_districts([DistrictSpec(3, 3), DistrictSpec(2, 1)], 1)
    assert sub.districts == (DistrictSpec(3, 3), DistrictSpec(2, 1))
    assert sub.target_count == 1
    assert sub == make_scenario([(3, 3), (2, 1)], 100, 1, 36, 1, budget=7, seed=5)


def test_validate_accepts_spec_example():
    # k=3, q=1, V=100, eps=1, delta=36: 2*1 < 36 <= 99 holds.
    s = make_scenario([(2, 2)] * 3, 100, 1, 36, 1)
    assert validate_scenario(s) == []


def test_validate_rejects_single_district():
    s = make_scenario([(2, 2)], 100, 1, 36, 1)
    assert any("more than one district" in v for v in validate_scenario(s))


def test_validate_rejects_delta_at_twice_epsilon():
    # The left bound is strict: delta = 2*eps is out.
    s = make_scenario([(2, 2)] * 3, 100, 1, 2, 1)
    assert any("delta > 2*epsilon" in v for v in validate_scenario(s))


def test_validate_rejects_empty_real_district():
    s = make_scenario([(0, 3), (2, 2)], 100, 1, 36, 1)
    violations = validate_scenario(s)
    assert any("at least one real ballot" in v for v in violations)


def test_validate_rejects_tiny_district():
    s = make_scenario([(1, 0), (2, 2)], 100, 1, 36, 1)
    assert any("at least two ballots" in v for v in validate_scenario(s))


def test_validate_q_range_and_warning():
    s = make_scenario([(2, 2)] * 3, 100, 1, 36, 0)
    assert any("q=0" in v for v in validate_scenario(s))
    s = make_scenario([(2, 2)] * 3, 100, 1, 36, 4)
    assert any("q=4" in v for v in validate_scenario(s))
    # q = number of districts: allowed, but flagged.
    s = make_scenario([(2, 2)] * 3, 100, 1, 36, 3)
    assert validate_scenario(s) == []
    assert scenario_warnings(s)


def test_validate_commitment_target():
    menu = MenuVariant.commitment(5)
    s = make_scenario([(2, 2)] * 2, 100, 1, 36, 1, menu=menu)
    assert any("exceeds" in v for v in validate_scenario(s))
    ok = make_scenario([(2, 2)] * 2, 100, 1, 36, 1, menu=MenuVariant.commitment(4))
    assert validate_scenario(ok) == []


def test_budget_check_spec_values():
    # Three districts of four ballots each, q=2: worst case (100+1)*8 = 808.
    s = make_scenario([(2, 2)] * 3, 100, 1, 36, 2, budget=808)
    assert validate_budget(s)
    s = make_scenario([(2, 2)] * 3, 100, 1, 36, 2, budget=807)
    assert not validate_budget(s)


def test_budget_zero_never_enough():
    s = make_scenario([(1, 1), (1, 1)], 100, 1, 36, 1, budget=0)
    assert not validate_budget(s)


def test_brute_force_cost_matches_exhaustive_subsets():
    # The q largest districts attain the max; cross-check by enumeration.
    districts = [(1, 3), (3, 1), (2, 2), (1, 1)]
    s = make_scenario(districts, 100, 1, 36, 2)
    sizes = [r + d for r, d in districts]
    exhaustive = max(
        (Fraction(101)) * (sizes[i] + sizes[j])
        for i, j in combinations(range(4), 2)
    )
    assert brute_force_cost(s) == exhaustive


def test_budget_check_monotone():
    s = make_scenario([(2, 2)] * 3, 100, 1, 36, 2)
    threshold = brute_force_cost(s)
    for offset in (-1, 0, 1):
        inst = make_scenario([(2, 2)] * 3, 100, 1, 36, 2, budget=threshold + offset)
        assert validate_budget(inst) == (offset >= 0)


def test_district_spec_total():
    assert DistrictSpec(2, 3).total == 5
