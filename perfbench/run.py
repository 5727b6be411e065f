"""The devils-menu benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it lives in. Every pass runs
in a fresh child interpreter (child.py), one at a time, so caches start
cold as they do for a CLI user. Passes repeat until --seconds have been
spent; the figures are medians over passes.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 passes alternate untraced and traced, and it is the per-layer
result (see spans.py). The lines before it record the run environment and
details such as sample counts. Every run is also appended to
perfbench/out/runs.jsonl. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-family", "enumerate-wide", "mc-draw", "many-districts")
SETUP_PROBES = 6  # set-up-only children per untraced run
# The run, set-up included, ends within --seconds plus this margin, which holds
# the set-up probes and one round that overruns. At --seconds 30 that is
# 170 s, inside the 180 s a run may take.
DEADLINE_MARGIN_S = 140

END_TO_END_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "instance_p50_ms": "ms",
    "instance_p99_ms": "ms",
}


class ChildFailed(Exception):
    pass


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 1]."""
    ordered = sorted(values)
    rank = p * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def load_average():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        ticks = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def environment() -> dict:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "--git-dir", str(ROOT / ".git"), "--work-tree", str(ROOT)]
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "nproc": nproc, "loadavg_before": load_average()}


def run_child(workload: str, seed: int, size: str, mode: str, deadline: float):
    """Start one child; return (set-up seconds, pass result or None).

    Set-up runs from starting the child to its "ready", at the reference
    speed (see speed.py). The interpreter's start, before the child's clock
    runs, is scaled by the speed that clock measures first.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = time.perf_counter()
    # Unbuffered binary pipes: readline() then reads "ready" byte by byte and
    # leaves everything after it in the pipe for communicate() to collect.
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), workload, str(seed), size, mode],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0))
        line = proc.stdout.readline() if ready else b""
        if not line.startswith(b"ready "):
            proc.kill()
            _, err = proc.communicate()
            raise ChildFailed(f"{mode} child never became ready: {err.decode(errors='replace').strip()[-2000:]}")
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} child passed the run's deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    out, err = out.decode(), err.decode(errors="replace")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {err.strip()[-2000:]}")
    ready = json.loads(line[len(b"ready "):])
    # perf_counter is the system's monotonic clock, shared by parent and child.
    setup_s = None if mode == "trace" else \
        (ready["started"] - started) * ready["start_factor"] + ready["setup_ref_s"]
    if mode == "setup":
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} child printed no result: {err.strip()[-2000:]}")
    return setup_s, json.loads(lines[-1])


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny instances for the smoke test; results are not comparable")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "devilsmenu" / "__init__.py").is_file():
        print(f"error: no devilsmenu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    begin = time.perf_counter()
    deadline = begin + args.seconds + DEADLINE_MARGIN_S
    env = environment()
    ticks = cpu_ticks()
    modes = ("pass", "trace") if args.trace else ("pass",)

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(run_child(args.workload, args.seed, args.size, "setup",
                                               deadline)[0])
        passes = {mode: [] for mode in modes}
        measuring = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for mode in modes:
                setup_s, result = run_child(args.workload, args.seed, args.size, mode, deadline)
                if mode == "pass":
                    setup_samples.append(setup_s)
                passes[mode].append(result)
            now = time.perf_counter()
            # Start another round only if it fits in the measuring time.
            if now + (now - round_start) > measuring + args.seconds:
                break
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every_pass = [r for mode in modes for r in passes[mode]]
    attempted = sum(r["attempted"] for r in every_pass)
    failures = [f for r in every_pass for f in r["failures"]]
    digests = sorted({digest(r["values"]) for r in every_pass})
    if len(digests) > 1:
        # Inputs are fixed by the seed, so every pass, traced or not, must agree.
        failures.append(f"passes disagree: {len(digests)} different results")
        attempted += 1

    untraced = passes["pass"]
    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        traced = passes["trace"]
        metrics = {name: statistics.median(r["trace"][name] for r in traced)
                   for name in traced[0]["trace"]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        units = spans.UNITS
    else:
        latencies = [ms for r in untraced for ms in r["latencies_ms"]]
        metrics = {
            "pass_s": statistics.median(r["ref_s"] for r in untraced),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "instance_p50_ms": percentile(latencies, 0.50),
            "instance_p99_ms": percentile(latencies, 0.99),
        }
        units = END_TO_END_UNITS
    env["loadavg_after"] = load_average()
    env["steal_share"] = steal_share(ticks, cpu_ticks())

    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "passes": {mode: len(passes[mode]) for mode in modes},
        "pass_wall_s": walls,
        "pass_ref_s": [r["ref_s"] for r in untraced],
        "pass_slowdown": [r["slowdown"] for r in untraced],
        "setup_samples_s": setup_samples,
        "latency_samples": sum(len(r["latencies_ms"]) for r in untraced),
        "result_digest": digests,
        "failures": failures[:10],
        "run_s": time.perf_counter() - begin,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"env": env, "detail": detail, "result": result}) + "\n")
    print("env: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
