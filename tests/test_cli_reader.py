"""The CLI's two readers of one option table: build_parser's argparse
actions, pinned field by field, and main's reader of well-formed calls,
held to argparse's own result on every argv it accepts."""

import argparse
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from devilsmenu import cli
from devilsmenu.model import MAX_SEED
from test_cli_digests import CASES

HELP = (("-h", "--help"), "help", None, "==SUPPRESS==", None, False, 0, None,
        "show this help message and exit")
SCENARIO = (("--scenario",), "scenario", None, None, None, True, None, None,
            "scenario JSON file")
SEED = (("--seed",), "seed", "int", None, None, False, None, None, "override the scenario seed")
OUT = (("--out",), "out", None, None, None, False, None, None, "write a CSV report here")
WORKERS = (("--workers",), "workers", "int", 1, None, False, None, None,
           "worker processes for parallelizable loads")
FILTER = (("--filter-dominated",), "filter_dominated", None, "on", ("on", "off"), False,
          None, None, None)
SCAN_CAP = (("--scan-cap",), "scan_cap", "int", 5000000, None, False, None, None, None)

# Per subcommand, in usage order: its help text, its handler's name and,
# in order, each action's (option strings, dest, type, default, choices,
# required, nargs, const, help).
STRUCTURE = {
    "run": ("execute one mechanism run", "_cmd_run", [
        HELP, SCENARIO, SEED, OUT, WORKERS,
        (("--profile",), "profile", None, "sigma-star", None, False, None, None,
         "'sigma-star' or a profile JSON file"),
        (("--mc",), "mc", "int", 0, None, False, None, None,
         "also tally selection frequencies over this many seeded runs"),
    ]),
    "enumerate": ("exhaustively enumerate pure equilibria", "_cmd_enumerate", [
        HELP, SCENARIO, SEED, OUT, FILTER, SCAN_CAP,
    ]),
    "verify": ("run a claim suite; exit 1 if it fails", "_cmd_verify", [
        HELP, OUT, WORKERS,
        (("--scenario",), "scenario", None, None, None, False, None, None,
         "check a single scenario instead of a family"),
        (("--claim",), "claim", None, None, None, True, None, None,
         "weak4-unique|strong6-unique|strong4-sigma-star|sabotage-bound|sequential-spe "
         "(short aliases: thm1|thm2|prop2|cor1|prop1)"),
        (("--family",), "family", None, "small", ("small", "full"), False, None, None, None),
    ]),
    "sequential": ("buy one district per date", "_cmd_sequential", [
        HELP, SCENARIO, SEED, OUT,
    ]),
    "commitment": ("run the all-or-nothing districtless variant", "_cmd_commitment", [
        HELP, SCENARIO, SEED,
        (("--decoys-to-slot1",), "decoys_to_slot1", "int", 0, None, False, None, None,
         "move this many decoys into slot one (sabotage probe)"),
        (("--verify",), "verify", None, False, None, False, 0, True,
         "enumerate equilibria instead of running once"),
    ]),
    "lemons": ("buy one good used car from sellers of hidden quality", "_cmd_lemons", [
        HELP,
        (("--good",), "good", "int", None, None, True, None, None, None),
        (("--bad",), "bad", "int", None, None, True, None, None, None),
        (("--v",), "v", None, "100", None, False, None, None, "good-car valuation (rational)"),
        (("--epsilon",), "epsilon", None, "1", None, False, None, None, "price unit (rational)"),
        (("--bad-to-slot1",), "bad_to_slot1", "int", 0, None, False, None, None,
         "bad sellers defecting into slot one"),
        (("--seed",), "seed", "int", 0, None, False, None, None, None),
    ]),
    "sweep": ("vary delta or q over a grid and tabulate", "_cmd_sweep", [
        HELP, SCENARIO, SEED, OUT,
        (("--param",), "param", None, None, ("delta", "q"), True, None, None, None),
        (("--from",), "start", None, None, None, True, None, None, "grid start (rational)"),
        (("--to",), "stop", None, None, None, True, None, None, "grid end (rational)"),
        (("--steps",), "steps", "int", None, None, True, None, None, "number of grid points"),
        FILTER, SCAN_CAP,
    ]),
}


def test_parser_structure_is_pinned():
    parser = cli.build_parser()
    assert (parser.prog, parser.description) == (
        "devils-menu", "Run price-menu vote-buying mechanisms and verify their "
                       "equilibrium and budget properties on small instances.")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert (sub.dest, sub.required) == ("command", True)
    got = {}
    for shown in sub._choices_actions:
        p = sub.choices[shown.dest]
        got[shown.dest] = (shown.help, p.get_default("func").__name__, [
            (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
             a.default, a.choices, a.required, a.nargs, a.const, a.help)
            for a in p._actions])
    assert list(got) == list(STRUCTURE)
    assert got == STRUCTURE


def _argparse(argv):
    """(vars of the full parser's namespace or None, what it printed)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            parsed = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    return parsed, out.getvalue() + err.getvalue()


FLAGS = sorted({o.flag for command in cli._COMMANDS.values() for o in command.options})
EDGE_VALUES = ("", "007", "+5", "1_0", "-1", "٣", "9" * 5000)
VALUES = EDGE_VALUES + ("0", "3", "12", "on", "off", "small", "full", "delta", "q",
                        "thm1", "s.json", "a=b", "-x", "run")
TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(FLAGS).map(lambda flag: flag[:-2]),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map("=".join),
    st.sampled_from(("-h", "--help", "--", "--bogus")),
    st.sampled_from(VALUES),
)


@st.composite
def well_formed(draw):
    """A subcommand, then some of its options in any order, each once as
    `--name value` (a store-true flag alone), every required one among them."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[name].options
    chosen = [o for o in options if o.required or draw(st.booleans())]
    argv = [name]
    for option in draw(st.permutations(chosen)):
        argv.append(option.flag)
        if option.type is int:
            argv.append(str(draw(st.integers(0, 10**30))))
        elif option.choices:
            argv.append(draw(st.sampled_from(option.choices)))
        elif option.type is str:
            argv.append(draw(st.text().filter(lambda s: not s.startswith("-"))))
    return argv


@st.composite
def mixed(draw):
    """A well-formed call or a bare first word, with up to four tokens
    inserted or replaced: flags, prefixes, `--name=value`, help, `--`,
    edge values and the first words of other calls."""
    if draw(st.booleans()):
        argv = draw(well_formed())
    else:
        argv = [draw(st.sampled_from(list(cli._COMMANDS) + ["bogus", "--help"]))]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(argv)))
        if at < len(argv) and draw(st.booleans()):
            argv[at] = draw(TOKENS)
        else:
            argv.insert(at, draw(TOKENS))
    return argv


@settings(max_examples=500, deadline=None)
@given(mixed())
def test_reader_agrees_with_argparse_whenever_it_reads(argv):
    read = cli._read_args(argv)
    if read is not None:
        assert _argparse(argv) == (vars(read), "")


@settings(max_examples=300, deadline=None)
@given(well_formed())
def test_well_formed_calls_take_the_reader(argv):
    read = cli._read_args(argv)
    assert read is not None
    assert _argparse(argv) == (vars(read), "")


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_reader_takes_only_ascii_digits_that_int_reads(value):
    read = cli._read_args(["enumerate", "--scenario", "s.json", "--scan-cap", value])
    assert (read.scan_cap if read else None) == (7 if value == "007" else None)


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "s.json", "--scenario", "t.json"],
    ["commitment", "--scenario", "s.json", "--verify", "--verify"],
    ["enumerate", "--scenario", "s.json", "--filter-dominated", "maybe"],
    ["sweep", "--scenario", "s.json", "--param", "q", "--from", "1", "--to", "2"],
    ["run", "--scen", "s.json"],
    ["run", "--scenario=s.json"],
    ["run", "--scenario", "s.json", "--out", "-x"],
    ["run", "--scenario", "s.json", "--"],
    ["run", "--scenario", "s.json", "-h"],
    ["run", "--scenario"],
    ["lemons", "--good", "3", "--bad", "5", "--scenario", "s.json"],
    ["--", "run", "--scenario", "s.json"],
])
def test_reader_leaves_other_calls_to_argparse(argv):
    assert cli._read_args(argv) is None


def _exit(parse, argv):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--scenario", "s.json", "--scan-cap", "9" * 5000],
     "argument --scan-cap: invalid int value"),
    (["run", "--scenario", "s.json", "--out", "-x"], "argument --out: expected one argument"),
])
def test_malformed_values_are_refused_by_argparse(argv, message):
    code, out, err = _exit(cli.main, argv)
    assert (code, out, err) == _exit(cli.build_parser().parse_args, argv)
    assert code == 2 and message in err


def test_a_negative_seed_gets_the_range_refusal():
    assert _exit(cli.main, ["run", "--scenario", "s.json", "--seed", "-1"]) == (
        2, "", cli.build_parser().format_usage()
        + f"devils-menu: error: argument --seed: must be in 0..{MAX_SEED}\n")


# The argv shapes that perfbench/workloads.py hands to main.
WORKLOAD_ARGVS = [
    ["enumerate", "--scenario", "s.json", "--scan-cap", str(10**12)],
    ["run", "--scenario", "s.json", "--seed", "7", "--mc", "200", "--out", "out.csv"],
    ["run", "--scenario", "s.json", "--seed", "7", "--out", "out.csv"],
    ["verify", "--claim", "sabotage-bound", "--scenario", "s.json", "--out", "out.csv"],
]


def test_pinned_and_benchmarked_calls_skip_the_parser(monkeypatch):
    def refuse(command=None):
        raise AssertionError("a well-formed call built a parser")

    reached = []
    monkeypatch.setattr(cli, "build_parser", refuse)
    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, command._replace(
            handler=lambda args, name=name: reached.append(name) or 0))
    argvs = [argv + (["--out", "out.csv"] if writes else [])
             for argv, writes in CASES.values()] + WORKLOAD_ARGVS
    for argv in argvs:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert cli.main(argv) == 0
    assert reached == [argv[0] for argv in argvs]
