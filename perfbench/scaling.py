"""Scaling curves, kept apart from the gated workloads.

    python3 perfbench/scaling.py

Two curves, each point in its own child interpreter under a time cap:

- filtered `enumerate` on k symmetric (3,3) districts, k = 4..8, which
  checks 4^k candidates;
- `run` on k symmetric (2,2) districts, k = 12, 16, 20, where the exact
  expected spend enumerates C(k, k/2) draws.

Both use q = k // 2 at the four-price menu's minimum tie price. A point
that runs past the cap, CAP_S, is killed and recorded as "exceeded cap".
Prints a table and writes perfbench/out/scaling.json with the run
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
POINTS = ([("enumerate", k, (3, 3)) for k in range(4, 9)]
          + [("run", k, (2, 2)) for k in (12, 16, 20)])
CAP_S = 90  # seconds per point


def point(command: str, k: int, real: int, decoy: int) -> None:
    """Child side: time one CLI call and print its seconds and exit code."""
    from devilsmenu import cli

    q = k // 2
    path = OUT / f"scaling-{command}-{k}.json"
    path.write_text(json.dumps({
        "districts": [{"real": real, "decoy": decoy}] * k, "V": 100, "epsilon": 1,
        "delta": str(Fraction(q, k) * 100 + 2), "q": q, "menu": "weak4", "seed": 0}))
    argv = [command, "--scenario", str(path)]
    if command == "enumerate":
        argv += ["--scan-cap", str(10**15)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    path.unlink()
    print(json.dumps({"seconds": seconds, "exit": code}))


def main() -> int:
    parser = argparse.ArgumentParser(description="devils-menu scaling curves")
    parser.add_argument("--point", nargs=4, metavar=("COMMAND", "K", "REAL", "DECOY"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        command, k, real, decoy = args.point
        point(command, int(k), int(real), int(decoy))
        return 0

    sys.path.insert(0, str(HERE))
    from run import environment, load_average

    OUT.mkdir(exist_ok=True)
    env = environment()
    rows = []
    for command, k, (real, decoy) in POINTS:
        child = [sys.executable, str(Path(__file__).resolve()), "--point",
                 command, str(k), str(real), str(decoy)]
        try:
            done = subprocess.run(child, capture_output=True, text=True, timeout=CAP_S,
                                  env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        except subprocess.TimeoutExpired:
            outcome = f"exceeded cap ({CAP_S} s)"
        else:
            if done.returncode != 0:
                outcome = f"error: {done.stderr.strip()[-300:]}"
            else:
                got = json.loads(done.stdout.strip().splitlines()[-1])
                outcome = (f"{got['seconds']:.3f} s" if got["exit"] == 0
                           else f"exit {got['exit']}")
        rows.append({"command": command, "k": k, "district": [real, decoy],
                     "q": k // 2, "outcome": outcome})
        print(f"{command:9} k={k:2} ({real},{decoy}) q={k // 2}: {outcome}", flush=True)
    env["loadavg_after"] = load_average()
    (OUT / "scaling.json").write_text(json.dumps({"env": env, "cap_s": CAP_S,
                                                  "points": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
