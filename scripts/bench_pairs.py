"""Paired benchmark runs of two checkouts, written to one BENCH JSON file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload enumerate-wide --pairs 10 --seconds 30 --out BENCH_4.json

For seeds 1..pairs it runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` in each checkout, one run at a time, alternating which
side goes first (parent first on odd seeds), as perfbench/README.md
describes. It keeps each run's command, its result line (the last line of
stdout) and its number of timed passes from the `detail:` line, lists
each side's pass counts per workload, and fits peak_rss_mb to the pass
counts (`rss_vs_passes`: slope in MB per pass and correlation, per side
and over both; null where a reading is missing or does not vary), so a
memory change that only tracks the pass count shows. Per end-to-end
metric of BENCHMARK.json it gives each side's median and quartile spread
and the verdicts of the README's paired rule:

- gain: the change wins at least 9 in 10 pairs (ties count for neither) and
  the medians differ by more than the parent's quartile distance;
- verdict: "worse" when the change's median exceeds the parent's by more
  than the bound; otherwise "unresolved" when either side's quartile spread
  is wider than the bound and not every run of the change beats every run
  of the parent; otherwise "no worse".

Repeat --workload to run several; an existing --out file keeps its other
workloads. Compare checkouts of the same benchmark code, for example two
`git archive` copies: before any run it exits 2 if BENCHMARK.json or a file
under perfbench/ differs between them by sha256 (run output in
perfbench/out/ and bytecode caches aside).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


SKIPPED = {"out", "__pycache__"}  # directories under perfbench/ that runs write


def benchmark_files(checkout: Path) -> dict[str, str]:
    """sha256 of BENCHMARK.json and of every file under perfbench/, by path
    relative to checkout, leaving out run output and bytecode caches."""
    bench = checkout / "perfbench"
    paths = [checkout / "BENCHMARK.json"] + [
        path for path in bench.rglob("*")
        if path.is_file() and not SKIPPED & set(path.relative_to(bench).parts[:-1])]
    return {path.relative_to(checkout).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths if path.is_file()}


def differing_benchmark_files(parent: Path, change: Path) -> list[str]:
    """The benchmark files that are missing from one checkout or differ."""
    a, b = benchmark_files(parent), benchmark_files(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    details = [line for line in lines if line.startswith("detail: ")]
    if done.returncode != 0 or not details:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{done.stderr}")
    detail = json.loads(details[-1][len("detail: "):])
    return {"cmd": " ".join(["python3", *cmd[1:]]), "passes": detail["passes"]["pass"],
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, Q3 - Q1) with statistics.quantiles(values, n=4); one run
    has no spread."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def rss_fit(runs: list[dict]) -> dict | None:
    """The least-squares slope of peak_rss_mb on the runs' pass counts, in
    MB per pass, and their correlation; None when a run has no
    peak_rss_mb or either side of the fit does not vary."""
    try:
        passes = [r["passes"] for r in runs]
        rss = [r["result"]["metrics"]["peak_rss_mb"]["value"] for r in runs]
        return {"slope_mb_per_pass": statistics.linear_regression(passes, rss).slope,
                "correlation": statistics.correlation(passes, rss)}
    except (KeyError, statistics.StatisticsError):
        return None


def verdicts(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        p = [r["result"]["metrics"][name]["value"] for r in parent]
        c = [r["result"]["metrics"][name]["value"] for r in change]
        (pm, pq), (cm, cq) = spread(p), spread(c)
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        dominates = all(sign * (b - a) < 0 for a in p for b in c)
        worse_by = sign * (cm - pm) / pm if pm else 0.0
        out[name] = {
            "parent": p, "change": c,
            "parent_median": pm, "parent_spread": pq / pm if pm else 0.0,
            "change_median": cm, "change_spread": cq / cm if cm else 0.0,
            "change_wins": wins, "pairs": len(p),
            "gain": wins >= math.ceil(0.9 * len(p)) and sign * (pm - cm) > pq,
            "verdict": ("worse" if worse_by > bound else
                        "unresolved" if not dominates and max(
                            pq / pm if pm else 0.0, cq / cm if cm else 0.0) > bound else
                        "no worse"),
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    differ = differing_benchmark_files(args.parent, args.change)
    if differ:
        ap.error("the checkouts run different benchmark code: " + ", ".join(differ))
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    report.update(python=platform.python_version(), machine=platform.machine(),
                  cpus=os.cpu_count())
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                got = run_once(getattr(args, side), workload, seed, args.seconds)
                runs[side].append(got)
                print(f"{workload} seed {seed} {side}: "
                      f"pass_s {got['result']['metrics']['pass_s']['value']} "
                      f"passes {got['passes']}", flush=True)
        results = [r["result"] for side in runs.values() for r in side]
        report["workloads"][workload] = {
            "command": (f"python3 scripts/bench_pairs.py --parent PARENT --change CHANGE "
                        f"--workload {workload} --pairs {args.pairs} "
                        f"--seconds {args.seconds} --out {args.out.name}"),
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in results),
            "passes": {side: [r["passes"] for r in side_runs] for side, side_runs in runs.items()},
            "rss_vs_passes": {**{side: rss_fit(side_runs) for side, side_runs in runs.items()},
                              "both": rss_fit(runs["parent"] + runs["change"])},
            "runs": runs,
            "metrics": verdicts(runs["parent"], runs["change"], metrics)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
