"""scripts/bench_pairs.py refuses checkouts that run different benchmark code
and fits peak_rss_mb to the pass counts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# A stand-in that makes seed passes and reads 30 + seed / 2 MB, plus 1 MB in
# a checkout holding a file "more".
STUB_RSS = """\
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
rss = 30 + seed / 2 + Path("more").exists()
print("detail: " + json.dumps({"passes": {"pass": seed}}))
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {"pass_s": {"value": 1.0}, "peak_rss_mb": {"value": rss}}}))
"""


def _bench_pairs(parent: Path, change: Path, out: Path, pairs: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
         "--workload", "w", "--pairs", str(pairs), "--seconds", "1", "--out", str(out)],
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


def test_bench_pairs_fits_peak_rss_to_the_pass_counts(tmp_path):
    parent, change = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    for side in (parent, change):
        (side / "perfbench" / "run.py").write_text(STUB_RSS)
    (change / "more").write_text("")
    out = tmp_path / "BENCH.json"
    done = _bench_pairs(parent, change, out, pairs=3)
    assert done.returncode == 0, done.stderr
    fit = json.loads(out.read_text())["workloads"]["w"]["rss_vs_passes"]
    for side in ("parent", "change"):
        assert fit[side]["slope_mb_per_pass"] == pytest.approx(0.5)
        assert fit[side]["correlation"] == pytest.approx(1.0)
    # Both sides make the same passes, so the change's extra 1 MB lowers
    # the pooled correlation and leaves the slope.
    assert fit["both"]["slope_mb_per_pass"] == pytest.approx(0.5)
    assert 0 < fit["both"]["correlation"] < 1


def test_bench_pairs_leaves_the_fit_empty_without_peak_rss(tmp_path):
    parent, change = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    out = tmp_path / "BENCH.json"
    assert _bench_pairs(parent, change, out, pairs=2).returncode == 0
    fit = json.loads(out.read_text())["workloads"]["w"]["rss_vs_passes"]
    assert fit == {"parent": None, "change": None, "both": None}
