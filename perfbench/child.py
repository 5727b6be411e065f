"""One benchmark pass in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py WORKLOAD SEED SIZE MODE

MODE is "setup" (import and build the inputs, then exit), "pass" (also run
one timed pass and check it) or "trace" (the same with spans recorded).
Once its set-up is done the child prints "ready" and a JSON object: when it
started, the first scale factor of its speed.py clock and its set-up time
at the reference speed. Then it prints one JSON line with the pass result.
It needs devilsmenu importable from the checkout's src/.

    python3 perfbench/child.py --record

runs every workload once on the default seed, checks the theorem verdicts
and writes the values to expected.json. Do that only at a commit whose
results are known to be right.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"


def import_program():
    import devilsmenu
    where = Path(devilsmenu.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"devilsmenu was imported from {where}, not from {ROOT / 'src'}")


def load_expected(size: str, workload_name: str) -> dict:
    return json.loads(EXPECTED.read_text())[size][workload_name]


def run_child(workload_name: str, seed: int, size: str, mode: str) -> int:
    started = time.perf_counter()
    # Untraced children time set-up and the pass at the reference speed.
    # The traced child does without: the probes would land in its spans.
    clock = None if mode == "trace" else speed.SpeedClock()
    if clock:
        clock.start()
    import_program()
    import spans
    import workloads

    tracer = spans.Tracer() if mode == "trace" else None
    workdir = OUT / f"work-{workload_name}-{mode}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if tracer:
            tracer.install()
            tracer.begin("bench.setup")
        workload = workloads.WORKLOADS[workload_name]()
        workload.setup(seed, size, workdir)
        if tracer:
            tracer.end()
        ready = {"started": started, "start_factor": clock.start_factor if clock else None,
                 "setup_ref_s": clock.now() if clock else None}
        print("ready " + json.dumps(ready), flush=True)
        if mode == "setup":
            return 0

        if tracer:
            tracer.begin("bench.pass")
        else:
            workloads.clock = clock.now
            ref_start = clock.now()
        start = time.perf_counter()
        ops = workload.run()
        wall = time.perf_counter() - start
        if tracer:
            tracer.end()
            tracer.uninstall()
        else:
            ref = clock.now() - ref_start
            clock.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        expected = load_expected(size, workload_name)
        failures, values = workloads.check(workload, ops, seed, expected)
        result = {
            "wall_s": wall,
            "ref_s": None if tracer else ref,
            "slowdown": None if tracer else clock.slowdown(),
            "peak_rss_mb": peak_rss_mb,
            "latencies_ms": [t * 1000 for t in workload.instance_latencies(ops)],
            "attempted": len(ops),
            "failures": failures,
            "values": values,
        }
        if tracer:
            result["trace"] = tracer.metrics()
            tracer.write_spans(OUT / f"spans-{workload_name}-{size}.csv")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if clock:
            clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def record() -> int:
    import_program()
    import workloads

    recorded = {}
    for size in ("full", "tiny"):
        recorded[size] = {}
        for name, cls in workloads.WORKLOADS.items():
            workdir = OUT / f"record-{name}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = cls()
            workload.setup(workloads.DEFAULT_SEED, size, workdir)
            ops = workload.run()
            failures, values = workloads.check(workload, ops, workloads.DEFAULT_SEED, {})
            shutil.rmtree(workdir, ignore_errors=True)
            # With nothing recorded yet, each op fails only as "no recorded value".
            broken = [f for f in failures if not f.endswith(": no recorded value")]
            if broken:
                print("\n".join(broken[:20]), file=sys.stderr)
                return 1
            recorded[size][name] = dict(values)
            if len(recorded[size][name]) != len(values):
                print(f"{size} {name}: two ops share a key", file=sys.stderr)
                return 1
            print(f"{size} {name}: {len(values)} ops", file=sys.stderr)
    EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        sys.exit(record())
    name, seed, size, mode = sys.argv[1:]
    sys.exit(run_child(name, int(seed), size, mode))
