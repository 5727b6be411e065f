"""Byte pins of the CLI: exit code and sha256 digests of stdout, the --out
CSV and stderr (less its elapsed line) for a fixed set of invocations.

A change that is meant to keep every report byte-identical must keep these
digests. A change that alters a report on purpose re-records them with

    PYTHONPATH=src python tests/test_cli_digests.py

which prints a new DIGESTS table to paste below, and says in its change
notes which cases moved and why. Digests are the first 16 hex digits of
sha256.
"""

import hashlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from devilsmenu.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
THREE = str(SCENARIOS / "three-districts.json")
UNEVEN = str(SCENARIOS / "uneven-districts.json")
COMMITMENT = str(SCENARIOS / "commitment.json")
SEVEN = str(SCENARIOS / "seven-districts.json")
CLAIMS = ("weak4-unique", "strong6-unique", "strong4-sigma-star",
          "sabotage-bound", "sequential-spe")

# name -> (argv, whether the subcommand writes --out)
CASES = {
    **{f"run-{tag}": (["run", "--scenario", path], True)
       for tag, path in (("three", THREE), ("uneven", UNEVEN))},
    **{f"run-mc-{tag}": (["run", "--scenario", path, "--mc", "500"], True)
       for tag, path in (("three", THREE), ("uneven", UNEVEN))},
    **{f"enumerate-{tag}-{mode}": (["enumerate", "--scenario", path,
                                    "--filter-dominated", mode], True)
       for tag, path in (("three", THREE), ("uneven", UNEVEN)) for mode in ("on", "off")},
    "enumerate-seven-on": (["enumerate", "--scenario", SEVEN], True),
    **{f"sweep-delta-{mode}": (["sweep", "--scenario", THREE, "--param", "delta",
                                "--from", "3", "--to", "40", "--steps", "8",
                                "--filter-dominated", mode], True)
       for mode in ("on", "off")},
    "sweep-q": (["sweep", "--scenario", UNEVEN, "--param", "q",
                 "--from", "1", "--to", "3", "--steps", "3"], True),
    "sequential": (["sequential", "--scenario", THREE], True),
    "commitment": (["commitment", "--scenario", COMMITMENT], False),
    "commitment-verify": (["commitment", "--scenario", COMMITMENT, "--verify"], False),
    "commitment-sabotage": (["commitment", "--scenario", COMMITMENT,
                             "--decoys-to-slot1", "1"], False),
    "lemons": (["lemons", "--good", "3", "--bad", "5", "--seed", "4"], False),
    **{f"verify-scenario-{claim}": (["verify", "--claim", claim, "--scenario", THREE], True)
       for claim in ("sabotage-bound", "weak4-unique")},
    **{f"verify-{family}-{claim}": (["verify", "--claim", claim, "--family", family], True)
       for family in ("small", "full") for claim in CLAIMS},
    "scan-cap-error": (["enumerate", "--scenario", THREE, "--scan-cap", "10"], True),
}

# name -> (exit code, stdout, CSV or None, stderr less the elapsed line)
DIGESTS = {
    'commitment': (0, 'f9732bae4e06e429', None, 'e3b0c44298fc1c14'),
    'commitment-sabotage': (0, '5b057124e99ed0e2', None, 'e3b0c44298fc1c14'),
    'commitment-verify': (0, 'f9a760bc05f8e726', None, 'e3b0c44298fc1c14'),
    'enumerate-seven-on': (0, '6d91376b5bcd378f', '588ee26c9a3102eb', 'e3b0c44298fc1c14'),
    'enumerate-three-off': (0, 'c7189e998614d44f', '4b64c020a952c342', 'e3b0c44298fc1c14'),
    'enumerate-three-on': (0, 'd17d7bf591fee236', '702b51fc49393ab7', 'e3b0c44298fc1c14'),
    'enumerate-uneven-off': (0, '2fa15266d80707a2', '55c8e423a32e1d53', 'e3b0c44298fc1c14'),
    'enumerate-uneven-on': (0, '7ceabe0994c35e0a', 'b91a7374614aab77', 'e3b0c44298fc1c14'),
    'lemons': (0, '0e4ddece5b67405d', None, 'e3b0c44298fc1c14'),
    'run-mc-three': (0, '145d06b5befcb7cc', '7d42fc2726f46126', 'e3b0c44298fc1c14'),
    'run-mc-uneven': (0, 'd86cc11afbe60ee0', '5ea36fd6f57bd330', 'e3b0c44298fc1c14'),
    'run-three': (0, 'd2b4221f7e9bdc64', '31cea87b84e4d7c8', 'e3b0c44298fc1c14'),
    'run-uneven': (0, 'a82afeee4bf3cbef', '8956c59d16bb87ac', 'e3b0c44298fc1c14'),
    'scan-cap-error': (2, 'e3b0c44298fc1c14', None, '366589ca32864760'),
    'sequential': (0, '830eed4011f924ee', 'e77559a128aac3d7', 'e3b0c44298fc1c14'),
    'sweep-delta-off': (0, '6a34fc840724ae97', 'eb47a3c8486fcff7', 'e3b0c44298fc1c14'),
    'sweep-delta-on': (0, '1b0a7956beaf2ebf', '407d2c88a14ee00f', 'e3b0c44298fc1c14'),
    'sweep-q': (0, 'fdcd3bb0c3219a8c', '1522608e21903445', 'e3b0c44298fc1c14'),
    'verify-full-sabotage-bound': (0, 'fa27bb1ac1bf8d47', 'f411f536a7e0c826', 'e3b0c44298fc1c14'),
    'verify-full-sequential-spe': (0, 'cd81e05caacb7537', '494755fed2988888', 'e3b0c44298fc1c14'),
    'verify-full-strong4-sigma-star': (0, '45384575e4419a79', 'e0257d94f17ed366', 'e3b0c44298fc1c14'),
    'verify-full-strong6-unique': (0, 'df83596df359114f', '72912b4b9111681f', 'e3b0c44298fc1c14'),
    'verify-full-weak4-unique': (0, '2f5dd0bdde9f1e8d', 'b6a742254239904b', 'e3b0c44298fc1c14'),
    'verify-scenario-sabotage-bound': (0, 'a0fd265a3bb9ee20', 'b84618a6b1c4dbdc', 'e3b0c44298fc1c14'),
    'verify-scenario-weak4-unique': (0, 'c1eb1c73fda1b788', '5129b4f9ba0d1b92', 'e3b0c44298fc1c14'),
    'verify-small-sabotage-bound': (0, 'f514e9b522dc7236', 'e2a3f0b9b573b161', 'e3b0c44298fc1c14'),
    'verify-small-sequential-spe': (0, '715b0ea4ede58742', '494755fed2988888', 'e3b0c44298fc1c14'),
    'verify-small-strong4-sigma-star': (0, 'af9254f883979b7f', 'e1e93505c8ca53cc', 'e3b0c44298fc1c14'),
    'verify-small-strong6-unique': (0, 'eb70d2f34290501c', 'c00da10bf9ea8b2a', 'e3b0c44298fc1c14'),
    'verify-small-weak4-unique': (0, '72f897dd9aa7bc9e', 'a4098e1803bceb87', 'e3b0c44298fc1c14'),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def observe(argv, writes_csv, workdir: Path):
    csv = workdir / "out.csv"
    csv.unlink(missing_ok=True)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + (["--out", str(csv)] if writes_csv else []))
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("elapsed: "))
    return (code, _digest(out.getvalue().encode()),
            _digest(csv.read_bytes()) if csv.exists() else None,
            _digest(stderr.encode()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_pinned_digests(tmp_path, name):
    argv, writes_csv = CASES[name]
    assert observe(argv, writes_csv, tmp_path) == DIGESTS[name]


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS = {")
        for name in sorted(CASES):
            print(f"    {name!r}: {observe(*CASES[name], Path(tmp))!r},")
        print("}")
    sys.exit(0)
