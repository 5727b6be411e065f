"""The benchmark's workloads: inputs from a seed, one timed pass, checked results.

A workload builds its inputs from the seed, runs one pass of fixed work
through the library or the CLI, and turns each operation's output into
canonical values: district indices mapped back to the unpermuted order and
rationals kept exact. Those values are compared with the ones recorded in
expected.json and with the verdicts the paper's theorems guarantee.

The seed changes only district order and draw seeds. Instance sizes are
fixed, so runs on different seeds can be compared. Seed DEFAULT_SEED is the
one whose draw-dependent values (Monte Carlo counts, the drawn districts)
are recorded exactly; on every other seed those are checked against a
replay of the documented draw instead.

This module imports devilsmenu; only child.py imports it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from devilsmenu import claims, cli

DEFAULT_SEED = 0
V, EPS = 100, 1
SCAN_CAP = str(10**12)

# Fixed instance sizes. "tiny" serves the smoke test only.
FAMILY = {"full": "full", "tiny": "small"}
ENUMERATE_DISTRICTS = {
    "full": ([(3, 4)] * 3 + [(2, 5)] * 2 + [(4, 3)] * 2, 3),
    "tiny": ([(3, 4), (2, 5), (4, 3)], 1),
}
MC_RUNS = {"full": 30_000, "tiny": 300}
MANY_DISTRICTS = {
    "full": ([(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1),
              (2, 2), (3, 3), (1, 1), (2, 4), (4, 2), (4, 4)], 6),
    "tiny": ([(1, 2), (2, 1), (2, 3), (3, 2), (1, 3)], 2),
}


class CheckError(Exception):
    """The program's output could not be read as the expected values."""


@dataclass
class Op:
    """One timed operation: an instance check or one CLI call."""

    key: str
    latency_s: float
    raw: Any = None
    error: Optional[str] = None


# The clock that times operations; child.py sets it to a speed.SpeedClock's
# now() for untraced passes.
clock = time.perf_counter


def timed(key: str, fn, *args) -> Op:
    start = clock()
    try:
        raw = fn(*args)
    except (Exception, SystemExit) as exc:  # a failed operation, counted, not fatal
        return Op(key, clock() - start, error=f"{type(exc).__name__}: {exc}")
    return Op(key, clock() - start, raw)


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def weak4_min_delta(k: int, q: int) -> Fraction:
    """The four-price menu's minimum tie price, (q/k)V + 2 eps."""
    return Fraction(q, k) * V + 2 * EPS


def permutation(rng: random.Random, k: int) -> list[int]:
    """Position i of the permuted scenario holds canonical district perm[i]."""
    perm = list(range(k))
    rng.shuffle(perm)
    return perm


def write_scenario(path: Path, pairs, q: int, seed: int, budget: Optional[int] = None) -> str:
    doc = {"districts": [{"real": r, "decoy": d} for r, d in pairs],
           "V": V, "epsilon": EPS, "delta": str(weak4_min_delta(len(pairs), q)),
           "q": q, "menu": "weak4", "seed": seed}
    if budget is not None:
        doc["budget"] = budget
    path.write_text(json.dumps(doc))
    cli.parse_scenario_file(str(path))  # validation belongs to set-up
    return str(path)


def replay_draw(rng_seed: int, k: int, need: int) -> list[int]:
    """The documented fair draw when every district ties: a Fisher-Yates
    prefix of length need over range(k), from random.Random(rng_seed)."""
    rng = random.Random(rng_seed)
    pool = list(range(k))
    for i in range(need):
        j = i + rng.randrange(k - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:need]


def fields(out: str) -> dict[str, str]:
    got = {}
    for line in out.splitlines():
        label, sep, rest = line.partition(": ")
        if sep:
            got.setdefault(label, rest)
    return got


def need(table: dict, key: str) -> str:
    if key not in table:
        raise CheckError(f"output has no {key!r} line")
    return table[key]


def first_token(text: str) -> str:
    return text.split()[0]


def exact(text: str) -> str:
    """A rational as a value: "6/3" and "2" read the same."""
    return str(Fraction(text))


def parse_index_set(text: str) -> list[int]:
    return [] if text == "-" else [int(x) for x in text.split(",")]


# ------------------------------------------------------------------ workloads


class Workload:
    """Base: set up from (seed, size), run one pass, read and check each op."""

    name = ""

    def setup(self, seed: int, size: str, workdir: Path) -> None:
        raise NotImplementedError

    def run(self) -> list[Op]:
        raise NotImplementedError

    def values(self, op: Op):
        """Canonical values of one op. In a dict, a "draw" entry holds what
        depends on the draw seed; everything else is the same on every seed."""
        raise NotImplementedError

    def problems(self, op: Op, values) -> list[str]:
        """What the theorems and the draw replay say about one op, on any seed."""
        return []

    def instance_latencies(self, ops: list[Op]) -> list[float]:
        """Latency samples in seconds. Here the instance is the workload's
        one scenario, so a pass gives one sample: its CLI calls together."""
        return [sum(op.latency_s for op in ops)]


class VerifyFamily(Workload):
    name = "verify-family"
    CLAIMS = ("weak4-unique", "sabotage-bound")

    def setup(self, seed, size, workdir):
        rng = random.Random(seed)
        self.instances = []
        for claim in self.CLAIMS:
            for s in claims.family_for(claim, FAMILY[size]):
                pairs = sorted((d.real_count, d.decoy_count) for d in s.districts)
                key = f"{claim} q={s.target_count} " + ",".join(f"{r}{d}" for r, d in pairs)
                districts = list(s.districts)
                rng.shuffle(districts)
                self.instances.append((key, claim, s.with_districts(districts, s.target_count)))

    def run(self):
        return [timed(key, claims.check_instance, claim, s)
                for key, claim, s in self.instances]

    def instance_latencies(self, ops):
        """One sample per scenario of the family: its two claim checks
        together. Per check, the sabotage checks fall into two clusters and
        the median sits in the sparse gap between them, where it jumps."""
        per_scenario: dict[str, float] = {}
        for op in ops:
            scenario = op.key.split(" ", 1)[1]
            per_scenario[scenario] = per_scenario.get(scenario, 0.0) + op.latency_s
        return list(per_scenario.values())

    def values(self, op):
        detail = dict(re.findall(r"(\w+)=(\S+)", op.raw.detail))
        verdict = "PASS" if op.raw.passed else "FAIL"
        if op.key.startswith("weak4-unique"):
            return f"{verdict} {int(need(detail, 'equilibria'))} {need(detail, 'sigma_star')}"
        return f"{verdict} {exact(need(detail, 'worst_expenditure'))} {exact(need(detail, 'bound'))}"

    def problems(self, op, values):
        if op.key.startswith("weak4-unique"):
            ok = values == "PASS 1 yes"
            return [] if ok else [f"sigma-star is not the unique equilibrium: {values}"]
        verdict, worst, bound = values.split()
        if verdict != "PASS" or Fraction(worst) > Fraction(bound):
            return [f"sabotage bound fails: {values}"]
        return []


def run_values(out: str, perm: list[int]) -> dict:
    """Values of `run` under the target profile, canonical order."""
    table = fields(out)
    selected = parse_index_set(need(table, "selected").split(" (")[0])
    acquired = [0] * len(perm)
    for item in need(table, "acquired real ballots").split(" (")[0].split():
        k, n = item.split(":")
        acquired[perm[int(k)]] = int(n)
    return {
        "expected_expenditure": exact(need(table, "expected expenditure over the draw")),
        "bound": exact(need(table, "expenditure bound")),
        "tie_price_floor": exact(first_token(
            need(table, "tie price floor for a unique target equilibrium"))),
        "draw": {
            "selected": sorted(perm[k] for k in selected),
            "expenditure": exact(first_token(need(table, "expenditure"))),
            "acquired": acquired,
        },
    }


def run_problems(values: dict, pairs, q: int, perm: list[int], draw_seed: int) -> list[str]:
    """Check one `run` under the target profile against the draw replay and
    the four-price settlement: every district ties at ratio 1, so the drawn
    q districts pay V+eps per real ballot and delta per decoy, and the rest
    pay 2 eps per decoy."""
    k = len(pairs)
    delta = weak4_min_delta(k, q)
    drawn = sorted(perm[i] for i in replay_draw(draw_seed, k, q))
    spend = sum(((V + EPS) * r + delta * d) if i in drawn else 2 * EPS * d
                for i, (r, d) in enumerate(pairs))
    acquired = [r if i in drawn else 0 for i, (r, _) in enumerate(pairs)]
    draw = values["draw"]
    out = []
    if draw["selected"] != drawn:
        out.append(f"selected {draw['selected']}, the draw gives {drawn}")
    if Fraction(draw["expenditure"]) != spend:
        out.append(f"expenditure {draw['expenditure']}, settlement gives {spend}")
    if draw["acquired"] != acquired:
        out.append(f"acquired {draw['acquired']}, settlement gives {acquired}")
    return out


class EnumerateWide(Workload):
    """The district order is fixed, not drawn from the seed. The deviation
    checks stop at the first district that gains, so the order changes the
    work: ten random orders spread the scan time by 30% (see README.md)."""

    name = "enumerate-wide"

    def setup(self, seed, size, workdir):
        self.pairs, self.q = ENUMERATE_DISTRICTS[size]
        self.path = write_scenario(workdir / "enumerate.json", self.pairs, self.q, seed)

    def run(self):
        return [timed("enumerate", call_cli,
                      ["enumerate", "--scenario", self.path, "--scan-cap", SCAN_CAP])]

    def values(self, op):
        code, out = op.raw
        table = fields(out)
        lines = out.splitlines()
        equilibria = []
        for i, line in enumerate(lines):
            if re.fullmatch(r"equilibrium \d+:", line):
                rows = lines[i + 2:i + 2 + len(self.pairs)]
                equilibria.append([[int(x) for x in row.split()[1:]] for row in rows])
        return {"exit": code,
                "found": int(need(table, "equilibria found")),
                "sigma_star_unique": need(table, "sigma-star unique"),
                "equilibria": sorted(equilibria)}

    def problems(self, op, values):
        sigma = [[r, 0, 0, 0, d, 0] for r, d in self.pairs]
        if values["equilibria"] != [sigma] or values["sigma_star_unique"] != "yes":
            return [f"sigma-star is not the unique equilibrium: {values['equilibria']}"]
        if values["exit"] != 0 or values["found"] != 1:
            return [f"exit {values['exit']}, {values['found']} equilibria reported"]
        return []


class McDraw(Workload):
    """`run --mc` on three tied (2,2) districts, the shipped three-districts
    scenario: every run makes a real draw."""

    name = "mc-draw"
    PAIRS, Q, BUDGET = [(2, 2)] * 3, 1, 808

    def setup(self, seed, size, workdir):
        self.seed, self.runs = seed, MC_RUNS[size]
        self.perm = permutation(random.Random(seed), len(self.PAIRS))
        self.csv = str(workdir / "mc.csv")
        self.path = write_scenario(workdir / "mc.json", [self.PAIRS[i] for i in self.perm],
                                   self.Q, seed, self.BUDGET)

    def run(self):
        return [timed("run-mc", call_cli,
                      ["run", "--scenario", self.path, "--seed", str(self.seed),
                       "--mc", str(self.runs), "--out", self.csv])]

    def values(self, op):
        code, out = op.raw
        values = run_values(out, self.perm)
        with open(self.csv, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        counts = [0] * len(self.perm)
        flags = [""] * len(self.perm)
        for row in rows:
            counts[self.perm[int(row["district"])]] = int(row["selections"])
            flags[self.perm[int(row["district"])]] = row["within_3sigma"]
            if int(row["runs"]) != self.runs:
                raise CheckError(f"CSV reports {row['runs']} runs, asked for {self.runs}")
        values.update(exit=code, runs=self.runs)
        values["draw"].update(counts=counts, within_3sigma=flags)
        return values

    def problems(self, op, values):
        out = run_problems(values, self.PAIRS, self.Q, self.perm, self.seed)
        if values["exit"] != 0:
            out.append(f"exit {values['exit']}")
        counts = [0] * len(self.perm)
        for i in range(self.runs):
            for k in replay_draw(self.seed ^ i, len(self.perm), self.Q):
                counts[self.perm[k]] += 1
        draw = values["draw"]
        if draw["counts"] != counts:
            out.append(f"selection counts {draw['counts']}, the draw gives {counts}")
        p = self.Q / len(self.PAIRS)
        sigma = math.sqrt(self.runs * p * (1 - p))
        for k, n in enumerate(draw["counts"]):
            within = abs(n - self.runs * p) <= 3 * sigma
            if draw["within_3sigma"][k] != ("yes" if within else "NO"):
                out.append(f"district {k}: within_3sigma={draw['within_3sigma'][k]} "
                           f"but |{n} - {self.runs * p:g}| vs 3 sigma {3 * sigma:.1f}")
            # Fairness: a 3-sigma band is crossed by chance on about 1 seed
            # in 120 over three districts; 5 sigma flags a biased draw only.
            if abs(n - self.runs * p) > 5 * sigma:
                out.append(f"district {k}: {n} selections is beyond 5 sigma of {self.runs * p:g}")
        return out


class ManyDistricts(Workload):
    """`run` and `verify --claim sabotage-bound` on one asymmetric
    12-district scenario: the bound's subset scan and the expected spend's
    draw enumeration dominate here."""

    name = "many-districts"

    def setup(self, seed, size, workdir):
        self.seed = seed
        self.pairs, self.q = MANY_DISTRICTS[size]
        self.perm = permutation(random.Random(seed), len(self.pairs))
        self.run_csv, self.verify_csv = str(workdir / "run.csv"), str(workdir / "verify.csv")
        self.path = write_scenario(workdir / "many.json", [self.pairs[i] for i in self.perm],
                                   self.q, seed)

    def run(self):
        return [
            timed("run", call_cli, ["run", "--scenario", self.path, "--seed", str(self.seed),
                                    "--out", self.run_csv]),
            timed("verify", call_cli, ["verify", "--claim", "sabotage-bound",
                                       "--scenario", self.path, "--out", self.verify_csv]),
        ]

    def values(self, op):
        code, out = op.raw
        if op.key == "run":
            values = run_values(out, self.perm)
            with open(self.run_csv, newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            values["draw"]["csv_paid"] = str(sum(Fraction(row["paid"]) for row in rows))
            values["exit"] = code
            return values
        detail = dict(re.findall(r"(\w+)=(\S+)", out))
        spends = [""] * len(self.perm)
        for k, spend in re.findall(r"in district (\d+) -> expected spending (\S+)", out):
            spends[self.perm[int(k)]] = exact(spend)
        with open(self.verify_csv, newline="") as fh:
            csv_results = [row["result"] for row in csv.DictReader(fh)]
        return {"exit": code,
                "verdict": need(fields(out), "claim sabotage-bound").split()[0],
                "csv_results": csv_results,
                "worst": exact(need(detail, "worst_expenditure")),
                "bound": exact(need(detail, "bound")),
                "real_deviation_spend": spends}

    def problems(self, op, values):
        if op.key == "run":
            out = run_problems(values, self.pairs, self.q, self.perm, self.seed)
            if values["draw"]["csv_paid"] != values["draw"]["expenditure"]:
                out.append(f"CSV payments sum to {values['draw']['csv_paid']}, "
                           f"stdout says {values['draw']['expenditure']}")
            return out + ([f"exit {values['exit']}"] if values["exit"] != 0 else [])
        if (values["exit"], values["verdict"], values["csv_results"]) != (0, "PASS", ["PASS"]) \
                or Fraction(values["worst"]) > Fraction(values["bound"]):
            return [f"sabotage bound fails: {values}"]
        return []


WORKLOADS = {w.name: w for w in (VerifyFamily, EnumerateWide, McDraw, ManyDistricts)}


def check(workload: Workload, ops: list[Op], seed: int, expected: dict) -> tuple[list[str], list]:
    """Failure messages (one per failed op) and every op's canonical values.

    An op fails when it raised, when its output cannot be read, when a
    theorem or the draw replay disagrees, or when its values differ from the
    recorded ones. Values that depend on the draw are compared with the
    record on DEFAULT_SEED only.
    """
    failures, all_values = [], []
    for op in ops:
        if op.error is not None:
            failures.append(f"{op.key}: {op.error}")
            all_values.append([op.key, None])
            continue
        try:
            values = workload.values(op)
            problems = workload.problems(op, values)
        except Exception as exc:  # any unreadable output is one failed op
            failures.append(f"{op.key}: unreadable output: {type(exc).__name__}: {exc}")
            all_values.append([op.key, None])
            continue
        values = json.loads(json.dumps(values))
        all_values.append([op.key, values])
        recorded = expected.get(op.key)
        if recorded is None:
            problems.append("no recorded value")
        else:
            mine = values
            if seed != DEFAULT_SEED and isinstance(values, dict):
                mine = {k: v for k, v in values.items() if k != "draw"}
                recorded = {k: v for k, v in recorded.items() if k != "draw"}
            if mine != recorded:
                problems.append(f"values {mine} differ from recorded {recorded}")
        if problems:
            failures.append(f"{op.key}: " + "; ".join(problems))
    return failures, all_values
