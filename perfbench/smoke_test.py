"""Smoke test of the benchmark at reduced sizes (50-node grids, about 1000 paths).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/smoke_test.py

It checks that every metric named in BENCHMARK.json appears exactly once per
workload with its unit, that the per-layer counts repeat exactly across two
invocations, and that the repository tree is unchanged afterwards.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _unique_keys(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), f"repeated keys in {keys}"
    return dict(pairs)


def _run_all(out, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "smoke",
         "--seconds", "1", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1], object_pairs_hook=_unique_keys)


def _tree():
    snapshot = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            path = Path(dirpath) / name
            stat = path.stat()
            snapshot[str(path.relative_to(ROOT))] = (stat.st_size, stat.st_mtime_ns)
    return snapshot


def test_smoke(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    before = _tree()
    end_to_end = _run_all(tmp_path, trace=0)
    traced = [_run_all(tmp_path, trace=1) for _ in range(2)]
    assert _tree() == before

    for results, declared in ((end_to_end, bench["end_to_end"]),
                              (traced[0], bench["per_layer"]),
                              (traced[1], bench["per_layer"])):
        assert list(results) == workloads
        for result in results.values():
            assert list(result) == ["correct", "attempted", "failed", "metrics"]
            assert result["attempted"] >= 1
            assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
                [(m["name"], m["unit"]) for m in declared]

    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "B")]
    for workload in workloads:
        first, second = (
            {name: r[workload]["metrics"][name]["value"] for name in counts} for r in traced)
        assert first == second, workload


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        test_smoke(Path(tmp))
    print("smoke test passed")
