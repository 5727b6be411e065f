"""Smoke test of the benchmark itself, on tiny instances (about ten seconds).

    python3 perfbench/smoke.py

For every workload it runs the benchmark untraced and traced and checks
that the last line carries exactly the keys correct, attempted, failed and
metrics, that every metric BENCHMARK.json names is emitted with its unit,
that nothing failed, and that the traced and untraced runs produced
identical results, so the tracing wrappers cannot change behaviour. Last,
it checks that the benchmark refuses to run, without printing a result,
when the program's sources are absent. Exit code 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            done = bench(HERE / "run.py", workload, trace)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            detail = json.loads(next(l for l in lines if l.startswith("detail: "))[len("detail: "):])
            digests[trace] = detail["result_digest"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}: {detail['failures']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()
                   if isinstance(m.get("value"), (int, float))}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(wanted[trace].items()))
                problems.append(f"{where}: metrics missing {missing}, unexpected {extra}")
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{workload}: traced results {digests[1]} differ from untraced {digests[0]}")
        print(f"{workload}: checked", flush=True)

    # Without the program's sources the benchmark must fail and print no result.
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(bare / HERE.name / "run.py", "mc-draw", 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append(f"without sources: exit {done.returncode}, stdout {done.stdout[-200:]!r}")

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
