"""Domain types, scenario validation, and exact-arithmetic helpers.

Every quantity that feeds an equality or ordering decision (ratios,
prices, expected payoffs, budget bounds) is a ``fractions.Fraction``.
Floats appear only in report formatting and statistical test bands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]

MAX_SEED = 2**64 - 1


class ScenarioFormatError(ValueError):
    """Scenario or profile file could not be parsed or failed validation."""


class ProfileError(ValueError):
    """A strategy profile is structurally inconsistent with its scenario."""


class ScanCapExceeded(RuntimeError):
    """An equilibrium scan would check more candidates than the configured cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(
            f"equilibrium scan needs {required} candidates but the cap is {cap}; "
            f"rerun with scan_cap >= {required}"
        )


class DeltaBelowThreshold(ValueError):
    """The tie price is below the minimum a mechanism variant requires."""

    def __init__(self, delta: Fraction, required: Fraction):
        self.delta = delta
        self.required = required
        super().__init__(
            f"tie price {format_rational(delta)} is below the required minimum "
            f"{format_rational(required)}"
        )


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" string."""
    if isinstance(value, bool):
        raise ScenarioFormatError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioFormatError(f"cannot parse rational from {value!r}: {exc}") from None
    raise ScenarioFormatError(f"expected int or 'p/q' string, got {type(value).__name__}")


def format_rational(x: Fraction) -> str:
    """Render exactly: integers bare, otherwise "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def approx(x: Fraction) -> str:
    """Decimal approximation for report columns; never used in decisions."""
    return f"{float(x):.6g}"


@dataclass(frozen=True)
class DistrictSpec:
    """Ballot counts for one district: how many real, how many decoy."""

    real_count: int
    decoy_count: int

    @property
    def total(self) -> int:
        return self.real_count + self.decoy_count


@dataclass(frozen=True)
class MenuVariant:
    """Which price menu the buyer runs.

    tags: "weak4" (four prices with a cushion price delta for tied-district
    slot-two applicants), "strong4" (delta pinned to two epsilon),
    "strong6" (slot-two price differs between outright-selected and
    draw-selected districts), "commitment" (the districtless all-or-nothing
    variant; carries the purchase target).
    """

    tag: str
    target: int | None = None

    WEAK4: "MenuVariant" = None  # type: ignore[assignment]
    STRONG4: "MenuVariant" = None  # type: ignore[assignment]
    STRONG6: "MenuVariant" = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.tag not in ("weak4", "strong4", "strong6", "commitment"):
            raise ScenarioFormatError(f"unknown menu variant {self.tag!r}")
        if self.tag == "commitment":
            if self.target is None or self.target < 1:
                raise ScenarioFormatError("commitment menu needs a positive purchase target")
        elif self.target is not None:
            raise ScenarioFormatError(f"menu {self.tag!r} does not take a purchase target")

    @classmethod
    def commitment(cls, target: int) -> "MenuVariant":
        return cls("commitment", target)

    @classmethod
    def parse(cls, text: str) -> "MenuVariant":
        text = text.strip().lower()
        if text.startswith("commitment:"):
            raw = text.split(":", 1)[1]
            try:
                target = int(raw)
            except ValueError:
                raise ScenarioFormatError(f"bad commitment target {raw!r}") from None
            return cls.commitment(target)
        return cls(text)

    def __str__(self) -> str:
        if self.tag == "commitment":
            return f"commitment:{self.target}"
        return self.tag


MenuVariant.WEAK4 = MenuVariant("weak4")
MenuVariant.STRONG4 = MenuVariant("strong4")
MenuVariant.STRONG6 = MenuVariant("strong6")


@dataclass(frozen=True)
class Scenario:
    """One fully specified game instance.

    real_value is what a real voter's ballot is worth to him; epsilon the
    small price unit; delta the cushion price for tied-district slot-two
    applicants; target_count how many districts the buyer wants.
    """

    districts: tuple[DistrictSpec, ...]
    real_value: Fraction
    epsilon: Fraction
    delta: Fraction
    target_count: int
    budget: Fraction = Fraction(0)
    menu: MenuVariant = MenuVariant.WEAK4
    seed: int = 0

    @property
    def num_districts(self) -> int:
        return len(self.districts)

    @property
    def total_real(self) -> int:
        return sum(d.real_count for d in self.districts)

    @property
    def total_decoy(self) -> int:
        return sum(d.decoy_count for d in self.districts)

    def with_districts(self, districts: Sequence[DistrictSpec], target_count: int) -> "Scenario":
        """Same prices and menu on a different district set (used by rounds)."""
        return replace(self, districts=tuple(districts), target_count=target_count)


def make_scenario(
    districts: Sequence[tuple[int, int]],
    v: RationalLike,
    epsilon: RationalLike,
    delta: RationalLike,
    q: int,
    budget: RationalLike = 0,
    menu: MenuVariant = MenuVariant.WEAK4,
    seed: int = 0,
) -> Scenario:
    """Convenience constructor from (real, decoy) pairs."""
    return Scenario(
        districts=tuple(DistrictSpec(r, d) for r, d in districts),
        real_value=parse_rational(v),
        epsilon=parse_rational(epsilon),
        delta=parse_rational(delta),
        target_count=q,
        budget=parse_rational(budget),
        menu=menu,
        seed=seed,
    )


def validate_scenario(s: Scenario) -> list[str]:
    """Return every violated invariant; an empty list means valid.

    Violations are data, not exceptions: callers decide whether to refuse.
    """
    out: list[str] = []
    k = s.num_districts
    if k <= 1:
        out.append("more than one district required (got %d)" % k)
    for i, d in enumerate(s.districts):
        if d.real_count < 0 or d.decoy_count < 0:
            out.append(f"district {i}: ballot counts must be nonnegative")
        if d.real_count < 1:
            out.append(f"district {i}: at least one real ballot required "
                       "(the applicant ratio is undefined otherwise)")
        if d.total < 2:
            out.append(f"district {i}: at least two ballots required (got {d.total})")
    if not (1 <= s.target_count <= max(k, 1)):
        out.append(f"target district count q={s.target_count} outside 1..{k}")
    if s.real_value <= 0:
        out.append("ballot value V must be positive")
    if s.epsilon <= 0:
        out.append("epsilon must be positive")
    if s.delta <= 0:
        out.append("delta must be positive")
    if s.budget < 0:
        out.append("budget must be nonnegative")
    if not (0 <= s.seed <= MAX_SEED):
        out.append("seed must fit in 64 unsigned bits")
    if s.menu.tag == "weak4":
        # The four-price menu needs 2*eps < delta <= V - eps, both strict
        # on the left: a tie at 2*eps collapses the decoys' slot ranking.
        if not (2 * s.epsilon < s.delta):
            out.append("weak four-price menu requires delta > 2*epsilon (strict)")
        if not (s.delta <= s.real_value - s.epsilon):
            out.append("weak four-price menu requires delta <= V - epsilon")
    if s.menu.tag == "commitment":
        if s.menu.target > s.total_real:
            out.append(
                f"commitment purchase target {s.menu.target} exceeds "
                f"total real ballots {s.total_real}"
            )
    return out


def scenario_warnings(s: Scenario) -> list[str]:
    """Non-fatal advisories (kept apart from violations)."""
    out = []
    if s.target_count == s.num_districts and s.num_districts > 1:
        out.append(
            "q equals the number of districts: the mechanism still works but "
            "saves nothing over buying everything outright"
        )
    return out


def top_q_sum(values: Iterable[Fraction | int], q: int) -> Fraction | int:
    """Sum of the q largest values: the maximum over q-subsets of any
    quantity to which each district adds its own weight."""
    return sum(sorted(values, reverse=True)[:q])


def brute_force_cost(s: Scenario) -> Fraction:
    """Worst-case cost of buying every ballot in q districts at V + epsilon.

    This is the budget sufficiency threshold: the maximum over q-subsets of
    (V + eps) times the subset's total ballot count, attained by the q
    largest districts.
    """
    return (s.real_value + s.epsilon) * top_q_sum((d.total for d in s.districts), s.target_count)


def validate_budget(s: Scenario) -> bool:
    """True iff the budget covers the brute-force purchase of any q districts."""
    return s.budget >= brute_force_cost(s)
