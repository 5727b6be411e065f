"""scripts/bench_pairs.py refuses checkouts that run different benchmark code."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

# A stand-in for perfbench/run.py: it leaves a marker and prints one pass.
STUB_RUN = """\
import json
from pathlib import Path
Path("ran").write_text("")
print("detail: " + json.dumps({"passes": {"pass": 1}}))
print(json.dumps({"correct": True, "failed": 0, "metrics": {"pass_s": {"value": 1.0}}}))
"""


def _checkout(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    return root


def _bench_pairs(parent: Path, change: Path, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
         "--workload", "w", "--pairs", "1", "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60)


def test_bench_pairs_refuses_differing_benchmark_files(tmp_path):
    for edit in ("perfbench/run.py", "perfbench/extra.py", "BENCHMARK.json"):
        parent, change = _checkout(tmp_path / edit / "a"), _checkout(tmp_path / edit / "b")
        with open(change / edit, "a") as f:
            f.write("\n")
        out = tmp_path / edit / "BENCH.json"
        done = _bench_pairs(parent, change, out)
        assert done.returncode == 2, done.stderr
        assert edit in done.stderr
        assert not (parent / "ran").exists() and not (change / "ran").exists()
        assert not out.exists()


def test_bench_pairs_runs_checkouts_that_differ_only_in_run_output(tmp_path):
    parent, change = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    for path in ("perfbench/out/runs.jsonl", "perfbench/__pycache__/run.pyc"):
        (change / path).parent.mkdir(parents=True)
        (change / path).write_text("left by an earlier run")
    out = tmp_path / "BENCH.json"
    done = _bench_pairs(parent, change, out)
    assert done.returncode == 0, done.stderr
    assert (parent / "ran").exists() and (change / "ran").exists()
    assert json.loads(out.read_text())["workloads"]["w"]["all_correct"]
