import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import devilsmenu
from devilsmenu import ScenarioFormatError, execute
from devilsmenu.cli import main, parse_profile_file, parse_scenario_file, scenario_echo
from devilsmenu.mechanism import Threshold

GOOD = {
    "districts": [{"real": 2, "decoy": 2}, {"real": 2, "decoy": 2}, {"real": 2, "decoy": 2}],
    "V": 100,
    "epsilon": 1,
    "delta": "106/3",
    "q": 1,
    "budget": 808,
    "menu": "weak4",
    "seed": 42,
}


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_scenario_round_trip(tmp_path):
    s = parse_scenario_file(write(tmp_path, GOOD))
    assert s.num_districts == 3
    assert s.delta == Fraction(106, 3)
    assert s.seed == 42
    echoed = json.loads(scenario_echo(s))
    assert echoed["delta"] == "106/3" and echoed["menu"] == "weak4"


def test_parse_scenario_defaults(tmp_path):
    doc = dict(GOOD)
    del doc["budget"], doc["seed"]
    s = parse_scenario_file(write(tmp_path, doc))
    assert s.budget == 0 and s.seed == 0


def test_parse_rejects_delta_bound(tmp_path):
    doc = dict(GOOD, delta="2/1", epsilon="1/1")
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(write(tmp_path, doc))
    assert "delta > 2*epsilon" in str(err.value)


def test_parse_rejects_unknown_key(tmp_path):
    doc = dict(GOOD, gamma=3)
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(write(tmp_path, doc))
    assert "gamma" in str(err.value)


def test_parse_rejects_unknown_district_key(tmp_path):
    doc = dict(GOOD, districts=[{"real": 2, "decoy": 2, "fake": 1}] * 3)
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(write(tmp_path, doc))
    assert "fake" in str(err.value)


def test_parse_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"districts": [}')
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(str(path))
    assert "line 1" in str(err.value)


def test_parse_profile_file(tmp_path):
    s = parse_scenario_file(write(tmp_path, GOOD))
    doc = {"districts": [
        {"real_s1": 2, "decoy_s2": 2},
        {"real_s1": 2, "decoy_s1": 1, "decoy_s2": 1},
        {"real_s1": 2, "decoy_s2": 2},
    ]}
    p = parse_profile_file(write(tmp_path, doc, "profile.json"), s)
    assert p.per_district[1].decoy_s1 == 1


def test_parse_scenario_names_the_district_of_a_bad_field(tmp_path):
    doc = dict(GOOD, districts=[{"real": 2, "decoy": 2}, {"real": "x", "decoy": 2}])
    path = write(tmp_path, doc)
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_file(path)
    assert str(err.value) == f"{path}: district 1: field 'real' must be an integer"


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_profile_parse_error_names_the_first_bad_field_whatever_the_hash_seed(tmp_path, hash_seed):
    # Fields are read in ActionCount order, so of two bad fields the first
    # one, real_s1, is named under every hash seed.
    path = write(tmp_path, GOOD)
    rows = [{"real_s1": "x", "decoy_s2": "y"}] + [{"real_s1": 2, "decoy_s2": 2}] * 2
    profile = write(tmp_path, {"districts": rows}, "profile.json")
    src = str(Path(devilsmenu.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "devilsmenu.cli", "run", "--scenario", path,
                           "--profile", profile], env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert f"{profile}: district 0: field 'real_s1' must be an integer" in done.stderr


def test_cli_run_deterministic(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    assert main(["run", "--scenario", path]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--scenario", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "expenditure: 282" not in first  # delta is 106/3 here, not 36
    assert "scenario:" in first and "selected:" in first
    assert "842/3" in first or "expenditure" in first


def test_cli_run_many_districts_uses_closed_forms(tmp_path, capsys):
    # 40 districts with q = 20 have about 1.4e11 equally likely draws and
    # C(40, 20) subsets. Each district is drawn with odds 1/2 and expects
    # 1/2 * (2*101 + 2*52) + 1/2 * (2*2) = 155; the bound is
    # 2*80 + 20 * (2*101 + 2*50).
    doc = dict(GOOD, districts=[{"real": 2, "decoy": 2}] * 40, q=20, delta=52)
    assert main(["run", "--scenario", write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "expected expenditure over the draw: 6200\n" in out
    assert "expenditure bound: 6200\n" in out


def test_cli_run_builds_one_threshold(tmp_path, capsys, monkeypatch):
    # One interim classification of the profile serves the printed
    # partition, the draw and settlement, the expected spend and the
    # Monte Carlo tally: run builds one Threshold.
    builds = []
    build = Threshold.__init__

    def counted(summary, keys, q):
        builds.append(tuple(keys))
        build(summary, keys, q)

    monkeypatch.setattr(Threshold, "__init__", counted)
    path = write(tmp_path, GOOD)
    for extra in ([], ["--out", str(tmp_path / "run.csv")], ["--mc", "30", "--workers", "1"]):
        builds.clear()
        assert main(["run", "--scenario", path, *extra]) == 0
        assert "expected expenditure over the draw: " in capsys.readouterr().out
        assert builds == [(2, 2, 2)], extra  # two slot-one applicants each, step 1


def test_cli_enumerate_filters_where_q_equals_k(tmp_path, capsys):
    # strong6 at delta = 150 > V with q = k: every district is selected
    # outright, so the filter's premise holds and the filtered scan prints
    # the unfiltered one's only equilibrium, every voter on slot one.
    doc = {"districts": [{"real": 1, "decoy": 1}] * 3, "V": 100, "epsilon": 1, "delta": 150,
           "q": 3, "menu": "strong6"}
    path = write(tmp_path, doc)
    found = []
    for mode in ("on", "off"):
        assert main(["enumerate", "--scenario", path, "--filter-dominated", mode]) == 0
        found.append(capsys.readouterr().out.split("equilibria found: ")[1])
    assert found[0] == found[1]
    assert found[0].startswith("1\nsigma-star present: no\nsigma-star unique: no\n")
    assert found[0].count("1        0        0             1         0         0\n") == 3


def test_cli_run_csv_deterministic(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--scenario", path, "--out", str(out1)]) == 0
    assert main(["run", "--scenario", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()
    assert header[0].startswith("# scenario:")
    assert header[1].split(",")[:3] == ["district", "type", "slot"]


def test_cli_run_monte_carlo_csv(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    out = tmp_path / "mc.csv"
    assert main(["run", "--scenario", path, "--mc", "300", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0][:2] == ["district", "selections"]
    assert len(rows) == 4
    assert sum(int(r[1]) for r in rows[1:]) == 300  # q=1: one selection per run


def test_cli_run_named_profile(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    doc = {"districts": [
        {"real_s1": 2, "decoy_s1": 1, "decoy_s2": 1},
        {"real_s1": 2, "decoy_s2": 2},
        {"real_s1": 2, "decoy_s2": 2},
    ]}
    profile = write(tmp_path, doc, "profile.json")
    assert main(["run", "--scenario", path, "--profile", profile]) == 0
    out = capsys.readouterr().out
    assert "above: 0" in out  # the gambling district is never selected


def test_cli_enumerate(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    assert main(["enumerate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "profiles scanned: 729" in out
    assert "sigma-star unique: yes" in out


def test_cli_enumerate_scan_cap(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    assert main(["enumerate", "--scenario", path, "--scan-cap", "10"]) == 2
    err = capsys.readouterr().err
    assert "needs 27 candidates" in err


def test_cli_verify_small_family_and_alias(tmp_path, capsys):
    assert main(["verify", "--claim", "weak4-unique"]) == 0
    canonical = capsys.readouterr().out
    assert main(["verify", "--claim", "thm1"]) == 0
    alias = capsys.readouterr().out
    assert canonical == alias
    assert "claim weak4-unique: PASS" in canonical


def test_cli_verify_single_scenario(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    assert main(["verify", "--claim", "thm1", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_verify_sabotage_informational_lines(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    assert main(["verify", "--claim", "cor1", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "informational: real voter leaving slot one" in out


def test_cli_verify_refuses_low_delta(tmp_path, capsys):
    doc = dict(GOOD, delta=3)  # valid scenario, below the uniqueness floor
    path = write(tmp_path, doc)
    assert main(["verify", "--claim", "thm1", "--scenario", path]) == 2
    assert "below the required minimum" in capsys.readouterr().err


def test_cli_verify_reports_honest_failure(tmp_path, capsys):
    # Six-price uniqueness needs a small price unit; with eps=30 the gamble
    # survives and the claim honestly fails.
    doc = {
        "districts": [{"real": 1, "decoy": 1}, {"real": 1, "decoy": 1}],
        "V": 100, "epsilon": 30, "delta": 90, "q": 1, "menu": "strong6",
    }
    path = write(tmp_path, doc)
    assert main(["verify", "--claim", "strong6-unique", "--scenario", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_verify_unknown_claim(capsys):
    assert main(["verify", "--claim", "nonsense"]) == 2
    assert "unknown claim" in capsys.readouterr().err


def test_cli_sweep_delta_counts(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", path, "--param", "delta",
                 "--from", "3", "--to", "40", "--steps", "20",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")]
    header, data = rows[0], rows[1:]
    assert header[0] == "delta" and len(data) == 20
    floor = Fraction(106, 3)
    for row in data:
        value = Fraction(row[0])
        if row[2] == "yes" and value >= floor:
            assert row[3] == "1", row  # unique equilibrium at or above the floor


def test_cli_sweep_q(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    assert main(["sweep", "--scenario", path, "--param", "q",
                 "--from", "1", "--to", "3", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "sigma_star_present" in out


def test_cli_sequential(tmp_path, capsys):
    doc = dict(GOOD, delta=52, q=2)
    path = write(tmp_path, doc)
    assert main(["sequential", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "total expenditure: 624" in out
    assert "total real ballots: 4" in out


def test_cli_sequential_low_delta_is_usage_error(tmp_path, capsys):
    doc = dict(GOOD, delta=51, q=2)
    path = write(tmp_path, doc)
    assert main(["sequential", "--scenario", path]) == 2
    assert "below the required minimum" in capsys.readouterr().err


def test_cli_commitment_run_and_verify(tmp_path, capsys):
    doc = dict(GOOD, menu="commitment:2")
    path = write(tmp_path, doc)
    assert main(["commitment", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "overflow: no" in out and "acquired real ballots: 2" in out
    assert main(["commitment", "--scenario", path, "--decoys-to-slot1", "1"]) == 0
    out = capsys.readouterr().out
    assert "overflow: yes" in out and "acquired real ballots: 0" in out
    assert main(["commitment", "--scenario", path, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "sigma-star unique: yes" in out


def test_cli_lemons(capsys):
    assert main(["lemons", "--good", "3", "--bad", "5"]) == 0
    out = capsys.readouterr().out
    assert "purchased: yes (good car at 101)" in out
    assert main(["lemons", "--good", "1", "--bad", "4", "--bad-to-slot1", "1"]) == 0
    out = capsys.readouterr().out
    assert "purchased: no" in out


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_cli_missing_scenario_file(capsys):
    assert main(["run", "--scenario", "/nonexistent/path.json"]) == 2
    assert "error:" in capsys.readouterr().err


SHIPPED = Path(__file__).resolve().parent.parent / "scenarios" / "three-districts.json"


@pytest.mark.parametrize("argv", [
    ["--mc", "-5"], ["--workers", "0"], ["--workers", "-1"],
    ["--seed", "-5"], ["--seed", str(10**23)],
    ["lemons", "--good", "3", "--bad", "5", "--seed", "-5"],
    ["lemons", "--good", "3", "--bad", "5", "--seed", str(2**64)],
])
def test_cli_rejects_negative_mc_and_workers_below_one(tmp_path, capsys, argv):
    # Also seeds outside 0..MAX_SEED: Random(-5) draws as Random(5) does.
    if argv[0] != "lemons":
        argv = ["run", "--scenario", write(tmp_path, GOOD)] + argv
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be" in captured.err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--workers", "2"],
    ["sequential", "--workers", "2"],
    ["sweep", "--param", "q", "--from", "1", "--to", "2", "--steps", "2", "--workers", "2"],
    ["commitment", "--workers", "2"],
    ["commitment", "--out", "x.csv"],
    ["verify", "--claim", "weak4-unique", "--seed", "3"],
])
def test_cli_refuses_options_its_handler_does_not_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv[:1] + ["--scenario", write(tmp_path, GOOD)] + argv[1:])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err


# Four (2, 2) districts with q = 2 under a profile with ratios 1/2, 1, 1, 2:
# below {0}, tied {1, 2} with one of them drawn per run, above {3}.
MIXED = dict(GOOD, districts=[{"real": 2, "decoy": 2}] * 4, q=2)
MIXED_ROWS = [{"real_s1": 1, "real_s2": 1, "decoy_s2": 2},
              {"real_s1": 2, "decoy_s2": 2}, {"real_s1": 2, "decoy_s2": 2},
              {"real_s1": 2, "decoy_s1": 2}]


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "weak4-unique", "--family", "small"],
    ["run", "--scenario", str(SHIPPED), "--mc", "500"],
    # 7 runs split into one batch per process: 4 + 3 on two, 3 + 3 + 1 on three
    # (the test reports three CPUs, so both splits run on any machine)
    ["run", "--scenario", "mixed.json", "--profile", "mixed-profile.json", "--mc", "7"],
    # the pool and the variants load on first use, in the workers too
    ["verify", "--claim", "sequential-spe", "--family", "small"],
])
def test_cli_two_workers_match_one(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    write(tmp_path, MIXED, "mixed.json")
    write(tmp_path, {"districts": MIXED_ROWS}, "mixed-profile.json")
    outputs = []
    for workers in ("1", "2", "3") if "--profile" in argv else ("1", "2"):
        csv = tmp_path / f"workers{workers}.csv"
        assert main(argv + ["--workers", workers, "--out", str(csv)]) == 0
        outputs.append((capsys.readouterr().out, csv.read_bytes()))
    assert outputs[1:] == outputs[:-1]


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", str(SHIPPED), "--mc", "50"],
    ["verify", "--claim", "thm1"],
])
def test_cli_pool_never_outnumbers_the_cpus(tmp_path, capsys, monkeypatch, argv):
    # A stand-in pool records the size it is asked for and the tasks and
    # chunk size it is handed, and maps in this process, so no process
    # starts whatever --workers asks for.
    import concurrent.futures
    asked, handed = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            handed.append((len(iterables[0]), chunksize))
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    outputs = []
    for workers in ("1", "100000"):
        csv = tmp_path / f"workers{workers}.csv"
        assert main(argv + ["--workers", workers, "--out", str(csv)]) == 0
        outputs.append((capsys.readouterr().out, csv.read_bytes()))
    assert outputs[0] == outputs[1]
    assert asked == [3]
    [(tasks, chunk)] = handed
    # each worker is handed a few blocks of calls, not one call per task
    assert -(-tasks // chunk) <= 4 * 3
    if "--mc" in argv:
        assert tasks <= 3  # one batch of runs per process, not one per worker asked for


@pytest.mark.parametrize("doc, rows, expected", [
    # districts 0 and 1 above, district 2 alone at the threshold: selected always
    (GOOD, [{"real_s1": 2, "decoy_s1": 2}, {"real_s1": 2, "decoy_s1": 2},
            {"real_s1": 2, "decoy_s1": 1, "decoy_s2": 1}], ["0", "0", "1"]),
    # the target profile: every district ties, c = 0, t = 3
    (GOOD, None, ["1/3", "1/3", "1/3"]),
    (MIXED, MIXED_ROWS, ["1", "1/2", "1/2", "0"]),
])
def test_cli_monte_carlo_expects_each_districts_odds(tmp_path, capsys, doc, rows, expected):
    profile = write(tmp_path, {"districts": rows}, "profile.json") if rows else "sigma-star"
    out = tmp_path / "mc.csv"
    assert main(["run", "--scenario", write(tmp_path, doc), "--profile", profile,
                 "--mc", "3000", "--out", str(out)]) == 0
    table = capsys.readouterr().out.split("selection frequencies over 3000 runs:\n")[1]
    assert [line.split()[3:] for line in table.splitlines()[1:]] == [
        [p, "yes"] for p in expected]
    csv_rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [(row[4], row[6]) for row in csv_rows] == [(p, "yes") for p in expected]


@pytest.mark.parametrize("rows", [
    # below {0}, tied {1, 2}: one of two tied districts is drawn per run
    [{"real_s1": 1, "real_s2": 1, "decoy_s2": 2},
     {"real_s1": 2, "decoy_s2": 2}, {"real_s1": 2, "decoy_s2": 2}],
    # tied {0, 1} with q = 2: the draw is degenerate
    [{"real_s1": 1, "real_s2": 1, "decoy_s2": 2},
     {"real_s1": 1, "real_s2": 1, "decoy_s2": 2}, {"real_s1": 2, "decoy_s2": 2}],
])
def test_cli_monte_carlo_replays_execute(tmp_path, capsys, rows):
    # Monte Carlo classifies once and redraws per run; its counts must equal
    # full runs of the mechanism with run i seeded by seed XOR i.
    path = write(tmp_path, dict(GOOD, q=2))
    profile = write(tmp_path, {"districts": rows}, "profile.json")
    out = tmp_path / "mc.csv"
    runs = 400
    assert main(["run", "--scenario", path, "--profile", profile,
                 "--mc", str(runs), "--out", str(out)]) == 0
    capsys.readouterr()
    got = [int(line.split(",")[1]) for line in out.read_text().splitlines()[2:]]
    s = parse_scenario_file(path)
    p = parse_profile_file(profile, s)
    expected = [0] * s.num_districts
    for i in range(runs):
        for k in execute(s, p, random.Random(s.seed ^ i)).selected:
            expected[k] += 1
    assert got == expected


@pytest.mark.parametrize("grid, message", [
    (["--param", "q", "--from", "1", "--to", "2", "--steps", "3"], "q must be an integer, got 3/2"),
    (["--param", "delta", "--from", "3", "--to", "40", "--steps", "0"], "--steps must be at least 1"),
])
def test_cli_sweep_refuses_a_bad_grid_before_printing(tmp_path, capsys, grid, message):
    assert main(["sweep", "--scenario", write(tmp_path, GOOD)] + grid) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("deviators", ["-1", "7"])  # GOOD has 6 decoys
def test_cli_commitment_refuses_a_bad_decoy_count_before_printing(tmp_path, capsys, deviators):
    path = write(tmp_path, dict(GOOD, menu="commitment:2"))
    assert main(["commitment", "--scenario", path, "--decoys-to-slot1", deviators]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --decoys-to-slot1 outside 0..total decoys" in captured.err


# A strong6 tie price above V: a real voter tied on slot two sells at delta
# if drawn, so slot two is not dominated for him.
PREMISE = dict(GOOD, districts=[{"real": 1, "decoy": 1}] * 3, delta=150, menu="strong6")
PREMISE_FAILS = ("the dominance filter's premise fails at these prices: "
                 "slot two is not dominated for a real voter")


def test_cli_sweep_counts_no_filtered_equilibria_where_the_premise_fails(tmp_path, capsys):
    path = write(tmp_path, PREMISE)
    assert main(["sweep", "--scenario", path, "--param", "delta", "--from", "3", "--to", "150",
                 "--steps", "4"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[-4:]]
    assert [row[:5] for row in rows] == [["3", "3", "yes", "1", "yes"],
                                         ["52", "52", "yes", "1", "yes"],
                                         ["101", "101", "yes", "premise", "fails"],
                                         ["150", "150", "yes", "premise", "fails"]]
    assert main(["sweep", "--scenario", path, "--param", "delta", "--from", "101", "--to", "150",
                 "--steps", "2", "--filter-dominated", "off"]) == 0
    assert [line.split()[3] for line in capsys.readouterr().out.splitlines()[-2:]] == ["2", "2"]


@pytest.mark.parametrize("argv, doc, message", [
    (["sequential"], dict(GOOD, q=2, delta=51),
     "tie price 51 is below the required minimum 52"),
    (["sequential"], dict(GOOD, menu="strong6"),
     "sequential buying runs the weak four-price menu"),
    (["sweep", "--param", "delta", "--from", "3", "--to", "40", "--steps", "2",
      "--scan-cap", "10"], GOOD, "equilibrium scan needs 27 candidates"),
    (["commitment", "--verify"],
     dict(GOOD, districts=[{"real": 1000, "decoy": 1000}, {"real": 1, "decoy": 1}],
          menu="commitment:2"),
     "equilibrium scan needs 1004004 candidates"),
    (["run"], dict(GOOD, menu="commitment:2"), "the commitment menu is districtless"),
    (["verify", "--claim", "strong6-unique"], GOOD,
     "claim strong6-unique is about the strong6 menu, but the scenario runs the weak4 menu"),
    (["verify", "--claim", "strong4-sigma-star"], GOOD,
     "claim strong4-sigma-star is about the strong4 menu, but the scenario runs the weak4 menu"),
    (["verify", "--claim", "weak4-unique"], dict(GOOD, menu="strong6"),
     "claim weak4-unique is about the weak4 menu, but the scenario runs the strong6 menu"),
    (["verify", "--claim", "thm2"], PREMISE, PREMISE_FAILS),
    (["enumerate"], PREMISE, PREMISE_FAILS),
    (["verify", "--claim", "prop2"], dict(GOOD, menu="strong4", epsilon=60), PREMISE_FAILS),
], ids=["sequential-below-floor", "sequential-strong6", "sweep-scan-cap",
        "commitment-verify-scan-cap", "run-commitment-menu", "verify-strong6-on-weak4",
        "verify-strong4-on-weak4", "verify-weak4-on-strong6", "verify-strong6-premise",
        "enumerate-strong6-premise", "verify-strong4-premise"])
def test_cli_refuses_before_printing(tmp_path, capsys, argv, doc, message):
    assert main(argv + ["--scenario", write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert "rerun" not in captured.err  # neither verify nor commitment has --scan-cap
