import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from devilsmenu import ScenarioFormatError, execute
from devilsmenu.cli import main, parse_profile_file, parse_scenario_file, scenario_echo

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


@pytest.mark.parametrize("argv", [["--mc", "-5"], ["--workers", "0"], ["--workers", "-1"]])
def test_cli_rejects_negative_mc_and_workers_below_one(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", write(tmp_path, GOOD)] + argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[0] in captured.err


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


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "weak4-unique", "--family", "small"],
    ["run", "--scenario", str(SHIPPED), "--mc", "500"],
])
def test_cli_two_workers_match_one(tmp_path, capsys, argv):
    outputs = []
    for workers in ("1", "2"):
        csv = tmp_path / f"workers{workers}.csv"
        assert main(argv + ["--workers", workers, "--out", str(csv)]) == 0
        outputs.append((capsys.readouterr().out, csv.read_bytes()))
    assert outputs[0] == outputs[1]


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
