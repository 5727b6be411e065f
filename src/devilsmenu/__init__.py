"""Price-menu vote-buying mechanisms with exact equilibrium verification.

A buyer facing an electorate padded with worthless look-alike ballots can
split citizens across districts with a multi-price menu so that, in the
unique equilibrium, real ballots sell at their holders' valuation while the
look-alikes go for pennies. This package runs those menus on small
instances with exact rational arithmetic: single runs, expenditure bounds,
exhaustive pure-equilibrium enumeration, sequential and all-or-nothing
variants, and a used-car-market reading of the same screen.
"""

from .model import (
    DeltaBelowThreshold,
    DistrictSpec,
    MenuVariant,
    PremiseFails,
    ProfileError,
    ScanCapExceeded,
    Scenario,
    ScenarioFormatError,
    brute_force_cost,
    format_rational,
    make_scenario,
    parse_rational,
    scenario_warnings,
    validate_budget,
    validate_scenario,
)
from .mechanism import (
    CountProfile,
    budget_bound,
    classify,
    execute,
    minimal_delta,
    price_for,
    select_districts,
    sell_decision,
    strong4_expenditure_bound,
    strong6_expenditure_bound,
)
from .equilibrium import (
    deviation_payoff,
    enumerate_equilibria,
    expected_expenditure,
    expected_payoff,
    is_nash,
    tie_payoff_gap_holds,
    verify_sabotage_bound,
)

# The variants load on first use, so importing the package or the CLI does
# not pay for them (PEP 562).
_VARIANTS = frozenset({
    "CommitmentGame",
    "CommitmentProfile",
    "run_commitment",
    "run_lemons",
    "run_sequential",
    "verify_commitment_equilibrium",
    "verify_subgame_perfect",
})


def __getattr__(name: str):
    if name in _VARIANTS:
        from . import variants
        return getattr(variants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
